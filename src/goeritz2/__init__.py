"""Reducing curves on the standard genus-2 splitting surface of the 3-sphere.

Combinatorial curve words on the fixed six-curve hexagon complex, the action
of the Goeritz generators, disk-bounding tests in both handlebodies, the
reduction of any reducing curve to the standard one with a generator-word
certificate, and a breadth-first atlas of realized intersection triples.
"""

from .curve import (
    CurveWord,
    Counts,
    P_CURVE,
    PUSHOFFS,
    arc_census,
    counts,
    from_doc,
    from_normal_coordinates,
    is_separating,
    normalize,
    to_doc,
    validate,
)
from .action import apply_generator, apply_word, parse_goeritz_word
from .atlas import AtlasStore, enumerate_atlas, lambda_triples
from .handlebody import (
    arc_pi1_words,
    bounds_disk,
    check_word_constraints,
    is_reducing,
    theta_word,
)
from .reduction import (
    ReductionCertificate,
    classify,
    express_from_standard,
    is_standard,
    reduce_to_standard,
)
from .surface import SurfaceComplex, build_complex, complex_symmetry

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty the two memos: the generator action and the chord-class layouts.

    Both hold pure functions, so clearing changes no result, only how much
    work the next calls repeat.  The facts a curve keeps (`CurveWord`) live
    and die with the one object the library makes per code: clearing frees
    the curves only the memo held, a curve held elsewhere keeps its facts,
    and a cold timing needs a fresh interpreter.
    """
    from . import action, curve
    action._act.cache_clear()
    curve._layout.cache_clear()


__all__ = [
    "AtlasStore", "Counts", "CurveWord", "P_CURVE", "PUSHOFFS",
    "ReductionCertificate", "SurfaceComplex", "apply_generator", "apply_word",
    "arc_census", "arc_pi1_words", "bounds_disk", "build_complex",
    "check_word_constraints", "classify", "clear_caches",
    "complex_symmetry", "counts", "enumerate_atlas", "express_from_standard",
    "from_doc", "from_normal_coordinates", "is_reducing", "is_separating",
    "is_standard", "lambda_triples", "normalize", "parse_goeritz_word",
    "reduce_to_standard", "to_doc", "validate",
]
