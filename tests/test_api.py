import types

import pdsat


def test_all_names_the_public_api():
    names = pdsat.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(pdsat, name), name
        assert not isinstance(getattr(pdsat, name), types.ModuleType), name
    # every public name bound in the package, other than its submodules,
    # is exported, so that a new one cannot be left out
    public = {name for name, value in vars(pdsat).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(names) == public
    namespace = {}
    exec("from pdsat import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(names)
