"""The package's public names, its records and what importing it loads."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import goeritz2
from goeritz2 import atlas, curve, handlebody, reduction, surface
from goeritz2.errors import InternalInvariantError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# a fresh interpreter: the modules that importing the package and normalizing
# the standard curve add, then importing the CLI, then clearing the caches,
# as JSON lists
_NEW_MODULES = """
import json, sys
loaded = [set(sys.modules)]
import goeritz2
goeritz2.normalize(goeritz2.P_CURVE)
loaded.append(set(sys.modules))
import goeritz2.cli
loaded.append(set(sys.modules))
goeritz2.clear_caches()
loaded.append(set(sys.modules))
print(json.dumps([sorted(new - old) for old, new in zip(loaded, loaded[1:])]))
"""


def test_every_name_in_all_resolves():
    missing = [name for name in goeritz2.__all__ if not hasattr(goeritz2, name)]
    assert not missing
    assert len(set(goeritz2.__all__)) == len(goeritz2.__all__)


def test_import_loads_neither_dataclasses_nor_inspect():
    out = subprocess.run([sys.executable, "-c", _NEW_MODULES], capture_output=True, text=True,
                         check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    package, cli, cleared = json.loads(out)
    assert "goeritz2.curve" in package
    assert not {"dataclasses", "inspect"} & set(package)
    # only the render command loads the renderer, and only words from
    # outside the library load the re-embedding
    assert not {"goeritz2.embed", "goeritz2.render"} & {*package, *cli, *cleared}
    assert not cleared


def test_mutable_records_share_no_list_or_dict():
    for make in (lambda: reduction.ReductionCertificate((2, 0, 0)), atlas.AtlasStore,
                 handlebody.ConstraintReport):
        one, two = make(), make()
        for name in one.__slots__:
            value = getattr(one, name)
            if isinstance(value, (list, dict)):
                assert value is not getattr(two, name), (type(one).__name__, name)


def test_frozen_records_refuse_assignment():
    p = curve.normalize(curve.P_CURVE)
    report = handlebody.arc_pi1_words(p)
    for record in (atlas.enumerate_atlas(0).records[0], curve.split_arcs(p)[0],
                   report.entries[0], report, surface.complex_symmetry("gamma"),
                   surface.build_complex()):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_relabeling_checks_its_permutation():
    with pytest.raises(InternalInvariantError, match="not a permutation"):
        surface.Relabeling("bad", (0,) * 12, (0, 1, 2, 3))


def test_certificate_compares_by_fields():
    cert = goeritz2.reduce_to_standard(goeritz2.apply_word(goeritz2.P_CURVE, "dbD"))
    same = reduction.ReductionCertificate(cert.input_counts, list(cert.word), list(cert.trace),
                                          cert.terminal)
    assert cert == same and cert is not same
    same.trace.pop()
    assert cert != same
    assert cert != (cert.input_counts, cert.word, cert.trace, cert.terminal)
