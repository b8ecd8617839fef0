"""Every library name the benchmark's worker reads exists.

`e2ebench/worker.py` drives the public API and a few internals by name: a
missing one makes every benchmark pass exit with an error.  The names are
read from its source, as the attributes it takes from the goeritz2 modules
it imports and the names it imports from them.
"""

import ast
import importlib
import pathlib

_WORKER = pathlib.Path(__file__).resolve().parent.parent / "e2ebench" / "worker.py"
# the worker's names for the modules it imports
_MODULES = {"goeritz2": "goeritz2", "atlas": "goeritz2.atlas", "curve": "goeritz2.curve",
            "handlebody": "goeritz2.handlebody", "kernel": "goeritz2.kernel",
            "reduction": "goeritz2.reduction"}


def _worker_reads() -> set[tuple[str, str]]:
    reads = set()
    for node in ast.walk(ast.parse(_WORKER.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in _MODULES:
            reads.add((_MODULES[node.value.id], node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("goeritz2"):
            reads.update((node.module, alias.name) for alias in node.names)
    return reads


def test_every_name_the_worker_reads_resolves():
    reads = _worker_reads()
    # the ladder builds' dedup key, which no library module calls
    assert ("goeritz2.curve", "canonical_unoriented") in reads
    assert {module for module, _ in reads} == set(_MODULES.values()) | {"goeritz2.action"}
    missing = [(module, name) for module, name in sorted(reads)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
