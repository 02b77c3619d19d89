import pytest

from conftest import configurations_upto, make_rng, random_pds
from pdsat import (Configuration, InvalidInputError, Rule, pds, predecessors,
                   successors, validate)
from pdsat.pds import is_valid_configuration


def simple_system():
    return pds(controls={"p", "q"}, alphabet={"A", "B", "_"}, bottom="_",
               rules=[("p", "A", "p", ()),
                      ("p", "A", "q", ("B", "A")),
                      ("q", "B", "p", ()),
                      ("q", "_", "p", ("A", "_"))])


def test_validate_accepts_well_formed():
    assert validate(simple_system()) == []


def test_validate_rejects_bottom_violations():
    bad_pop = pds(bottom="_", rules=[("p", "_", "p", ())])
    assert any("pops bottom" in e for e in validate(bad_pop))
    bad_push = pds(bottom="_", rules=[("p", "A", "p", ("_",))])
    assert any("pushes bottom" in e for e in validate(bad_push))
    bad_shape = pds(bottom="_", rules=[("p", "_", "p", ("_", "A"))])
    assert any("malformed bottom rule" in e for e in validate(bad_shape))


def test_validate_rejects_wide_push():
    bad = pds(bottom="_", rules=[Rule("p", "A", "p", ("A", "A", "A"))])
    assert any("more than two" in e for e in validate(bad))


def test_configuration_validity():
    sys1 = simple_system()
    assert is_valid_configuration(sys1, Configuration("p", ("A", "_")))
    assert not is_valid_configuration(sys1, Configuration("p", ("A",)))
    assert not is_valid_configuration(sys1, Configuration("p", ("_", "A", "_")))
    assert not is_valid_configuration(sys1, Configuration("z", ("_",)))


def test_successors():
    sys1 = simple_system()
    succ = successors(sys1, Configuration("p", ("A", "_")))
    assert succ == {Configuration("p", ("_",)),
                    Configuration("q", ("B", "A", "_"))}
    assert successors(sys1, Configuration("q", ("_",))) == {
        Configuration("p", ("A", "_"))}


def test_predecessors_inverts_successors():
    rng = make_rng(11)
    for i in range(25):
        sys_i = random_pds(rng)
        for c in configurations_upto(sys_i, 2):
            for c2 in successors(sys_i, c):
                if len(c2.stack) <= 3:
                    assert c in predecessors(sys_i, c2), (sys_i, c, c2)
        for c in configurations_upto(sys_i, 2):
            for c0 in predecessors(sys_i, c):
                assert c in successors(sys_i, c0), (sys_i, c0, c)


def test_successors_rejects_invalid_configuration():
    with pytest.raises(InvalidInputError):
        successors(simple_system(), Configuration("p", ()))
