"""Every entry point the benchmark's tracer wraps exists in the library.

`e2ebench/tracer.py` looks up each `ENTRY_POINTS` name before a traced pass
times anything, so a missing name makes the pass exit with an error.  It then
wraps every binding in a `goeritz2` module that is the original function.
"""

import importlib
import importlib.util
import pathlib
import pkgutil

import goeritz2

_TRACER = pathlib.Path(__file__).resolve().parent.parent / "e2ebench" / "tracer.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.ENTRY_POINTS


def test_every_entry_point_resolves_to_its_own_callable():
    found = []
    for module, attr, *_ in _entry_points():
        fn = getattr(importlib.import_module(module), attr)
        assert callable(fn), (module, attr)
        found.append(fn)
    assert len({id(fn) for fn in found}) == len(found)


def test_no_entry_point_is_bound_under_another_name():
    # an alias (say canonical_form = ensure_normal) would put the alias's
    # span around every call of the other name
    modules = [goeritz2] + [importlib.import_module(f"goeritz2.{m.name}")
                            for m in pkgutil.iter_modules(goeritz2.__path__)]
    for module, attr, *_ in _entry_points():
        fn = getattr(importlib.import_module(module), attr)
        names = {name for m in modules for name, value in vars(m).items() if value is fn}
        assert names == {attr}, (module, attr, names)
