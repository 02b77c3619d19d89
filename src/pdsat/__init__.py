"""Saturation-based analysis of pushdown systems: regular configuration
sets, pre*/post*, the derivation relation, and pushdown game solving."""

from .automata import (AltAutomaton, EPS, Language, Nfa, S_BOT, S_STAR, alt,
                       alt_membership, alt_run_targets, eps_closure, nfa,
                       nfa_accepts)
from .errors import InvalidInputError, ResourceLimitError
from .pds import (Configuration, PushdownSystem, Rule, pds, predecessors,
                  successors, validate)
from .reachability import (PAutomatonView, buchi_target_automaton,
                           pop_relation, poststar, prestar, singleton_view)
from .derivation import (ActionAlphabet, PrefixRewriteRelation, apply_actions,
                         behaviour_automaton, benois_reduce, deriv_member,
                         deriv_relation, push, pop)
from .games import (ABELARD, BuchiCondition, ELOISE, ParityCondition,
                    PushdownGame, ReachabilityCondition, RegionAutomaton,
                    dual_game, region_member, solve_buchi_game,
                    solve_parity_game, solve_reachability_game)
from .oracle import (BoundedGraph, bfs_prestar_member, bounded_graph,
                     bounded_nodes, bracket_region)

__all__ = [
    # automata
    "AltAutomaton", "EPS", "Language", "Nfa", "S_BOT", "S_STAR", "alt",
    "alt_membership", "alt_run_targets", "eps_closure", "nfa", "nfa_accepts",
    # errors
    "InvalidInputError", "ResourceLimitError",
    # pds
    "Configuration", "PushdownSystem", "Rule", "pds", "predecessors",
    "successors", "validate",
    # reachability
    "PAutomatonView", "buchi_target_automaton", "pop_relation", "poststar",
    "prestar", "singleton_view",
    # derivation
    "ActionAlphabet", "PrefixRewriteRelation", "apply_actions",
    "behaviour_automaton", "benois_reduce", "deriv_member", "deriv_relation",
    "push", "pop",
    # games
    "ABELARD", "BuchiCondition", "ELOISE", "ParityCondition", "PushdownGame",
    "ReachabilityCondition", "RegionAutomaton", "dual_game", "region_member",
    "solve_buchi_game", "solve_parity_game", "solve_reachability_game",
    # oracle
    "BoundedGraph", "bfs_prestar_member", "bounded_graph", "bounded_nodes",
    "bracket_region",
]
