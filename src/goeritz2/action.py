"""Action of the Goeritz generators and of Dehn twists on curve words.

alpha, gamma, delta and delta^-1 act by relabeling symmetries of the complex.
beta is the half twist about the central separating curve, (t_B . t_Z)^3,
supported in the one-holed torus containing B and Z; its inverse is the
inverse composite.  The full twist about the separating curve is the boundary
twist of either one-holed torus, (t_C . t_Y)^6, which runs through the handle
beta does not touch.

B meets Z once, and C meets Y once, so each pair satisfies the braid relation
t_B t_Z t_B = t_Z t_B t_Z (Farb-Margalit, A Primer on Mapping Class Groups,
Prop. 3.11).  Hence (t_B t_Z)^3 = (t_Z t_B t_Z)^2 and (t_C t_Y)^6 =
(t_C t_Y t_C)^4, the twist words `_BETA` and `_FULL_TWIST`.

A twist replaces every crossing of the curve with the twisting rail by a
detour that spirals half around the rail on each side, crossing the rail's
other edge in the middle.  The spiral's sense at each crossing is tied to the
surface orientation (the sign of the crossed edge in the approach hexagon), so
all detours of one twist turn the same way and stay pairwise disjoint; "right"
names the direction with sign +1 under that rule.

Words are step-byte codes (see `curve`).  Every twist, and every product of
twists, is one cached byte substitution (`_twist_table`) and one
normalization (`_twist`): the rail bytes of the code are marked with
placeholder bytes by one `bytes.translate`, and each placeholder is replaced
by its image by one `bytes.replace`.  A single twist's images are the
detours of `_cross_detour`; a product's are the freely reduced composites of
its single twists' images, 5 bytes for beta^+-1 and 9 for the full twist.
A relabeling symmetry is one `bytes.translate`.

The generator action is memoized by normalized curve (`_act`, an LRU memo of
4096 entries): the atlas applies every generator to each record, and the
reduction and certificate replay of that record apply the same ones again.
A miss of beta^+-1 runs one substitution, then the kernel and the
re-embedding check, so every word the memo stores is verified; an action
that raises is not stored.  Keys and values are normalized curves, which
hash and compare by their code, and a hit hands back the curve the memo
holds, so a call builds no `CurveWord`.  An entry whose key and value curves
nothing else holds costs 2n + 283 bytes (tracemalloc) for curves of n
crossings, so a full memo holds 2.0 MB at n = 100 and 26 MB at n = 3,000.
The atlas to depth 7 with a round trip per record uses 3,108 entries
(clearing them frees 0.53 MB); to depth 8 it misses 8,517 times, so the
memo fills and evicts, but no workload runs depth 8.

Nothing here tells two curves apart.  Images of the standard curve are
reducing, and two reducing curves are equal iff `reduction.reduce_to_standard`
gives them the same certificate word.
"""

from __future__ import annotations

import functools

from . import curve as cm
from .curve import CurveWord, Step, ensure_normal, normalize
from .errors import MalformedInput
from .kernel import freely_reduce
from .surface import (
    CURVE_NAMES,
    EDGE_CURVE,
    EDGE_ENDPOINTS,
    EDGE_HEXES,
    OTHER_HEX,
    SIDE_POS,
    complex_symmetry,
    fence_edge,
    side_of,
    sign_in_hex,
)

GENERATORS = ("alpha", "beta", "beta_inv", "gamma", "delta", "delta_inv")

_LETTER = {"a": "alpha", "b": "beta", "B": "beta_inv",
           "g": "gamma", "d": "delta", "D": "delta_inv"}
_TO_LETTER = {v: k for k, v in _LETTER.items()}
_INVERSE = {"alpha": "alpha", "beta": "beta_inv", "beta_inv": "beta",
            "gamma": "gamma", "delta": "delta_inv", "delta_inv": "delta"}


def parse_goeritz_word(text: str) -> list[str]:
    """Compact generator string (a=alpha, b=beta, B=beta^-1, g=gamma, d=delta, D=delta^-1)."""
    try:
        return [_LETTER[ch] for ch in text]
    except KeyError as exc:
        raise MalformedInput(f"unknown generator letter {exc.args[0]!r}") from None


def format_goeritz_word(word: list[str]) -> str:
    try:
        return "".join(_TO_LETTER[g] for g in word)
    except KeyError as exc:
        raise MalformedInput(f"unknown generator {exc.args[0]!r}") from None


def invert_goeritz_word(word: list[str]) -> list[str]:
    return [_INVERSE[g] for g in reversed(word)]


# ----------------------------------------------------------------- twisting


def _cross_detour(e: int, h: int, direction: int) -> list[Step]:
    """Replacement steps for one rail crossing: spiral half around each side.

    The strand runs parallel to the rail on the approach side to the first
    vertex, crosses the rail's other edge there onto the far side, and runs
    parallel again to the second vertex, rejoining its old track.  This is the
    linear-spiral picture of the twist, so simultaneous detours at several
    crossings stay disjoint.
    """
    h_prev = OTHER_HEX[e][h]
    lam = direction * sign_in_hex(e, h_prev)
    u, v = EDGE_ENDPOINTS[e]
    first, second = (v, u) if lam > 0 else (u, v)
    curve = EDGE_CURVE[e]
    steps: list[Step] = []
    cur = h_prev
    f1 = fence_edge(first, curve, side_of(curve, h_prev))
    cur = OTHER_HEX[f1][cur]
    steps.append((f1, cur))
    partner = e ^ 1
    cur = OTHER_HEX[partner][cur]
    steps.append((partner, cur))
    f2 = fence_edge(second, curve, side_of(curve, cur))
    cur = OTHER_HEX[f2][cur]
    steps.append((f2, cur))
    if cur != h:
        raise AssertionError("twist detour did not rejoin the curve")
    return steps


# the step bytes that cross each system curve
_RAIL_BYTES = tuple(bytes(4 * e + h for e in (2 * c, 2 * c + 1) for h in EDGE_HEXES[e])
                    for c in range(6))


# Placeholder bytes for the rail crossings of one substitution: no step byte
# reaches them, so a detour (which crosses the partner rail edge) is never
# substituted again.
_MARKS = bytes(range(128, 136))

# The twist words, applied left to right: beta = (t_Z t_B t_Z)^2 and the full
# twist about the separating curve (t_C t_Y t_C)^4.
_BETA = "ZBZ" * 2
_FULL_TWIST = "CYC" * 4

# A twist table: the rail bytes it substitutes, a translation table marking
# them, and the (mark, image) pairs that replace the marks.
_Table = tuple[bytes, bytes, tuple[tuple[bytes, bytes], ...]]


def _substitute(code: bytes, table: _Table) -> bytes:
    """The code with each rail byte of the table replaced by its image."""
    _, marks, images = table
    code = code.translate(marks)
    for mark, image in images:
        code = code.replace(mark, image)
    return code


@functools.cache
def _twist_table(curves: str, direction: int) -> _Table:
    """The substitution of the rail bytes of the named curves under the
    product of their twists, each to the power direction, applied in the
    order the names are written.

    One curve maps each rail byte to its detour.  A product composes the
    one-curve tables: a twist changes only rail bytes and maps each to a
    fixed string, so the twists compose to one substitution, and the
    intermediate words need not be minimal for their composite to be the
    image curve.  Each image is then freely reduced as a linear word:
    substitution is a homomorphism of words, so a spur pair inside an image
    cancels in every word the image lands in, and by confluence the kernel
    reaches the same reduced word.
    """
    rails = b"".join(_RAIL_BYTES[CURVE_NAMES.index(c)] for c in dict.fromkeys(curves))
    if len(curves) == 1:
        images = [bytes(4 * e + h for e, h in _cross_detour(x >> 2, x & 3, direction))
                  for x in rails]
    else:
        factors = [_twist_table(c, direction) for c in curves]
        images = [freely_reduce(functools.reduce(_substitute, factors, bytes((x,))))
                  for x in rails]
    marks = _MARKS[:len(rails)]
    return rails, bytes.maketrans(rails, marks), tuple(zip((bytes((m,)) for m in marks), images))


def _twist(w: CurveWord, curves: str, direction: int) -> CurveWord:
    """The image of a normalized word under the twists of `curves`: one
    substitution, then one `normalize`; a word that crosses none of their
    rails is fixed."""
    table = _twist_table(curves, direction)
    if not any(map(w.code.__contains__, table[0])):
        return w
    return normalize(CurveWord(_substitute(w.code, table)))


def twist_system(w: CurveWord, curve_name: str, direction: int = 1) -> CurveWord:
    """Dehn twist about one of the six system curves."""
    if curve_name not in CURVE_NAMES or direction not in (1, -1):
        raise MalformedInput(f"bad twist spec ({curve_name!r}, {direction})")
    return _twist(ensure_normal(w), curve_name, direction)


def twist_about_p(w: CurveWord, direction: int = 1) -> CurveWord:
    """Full twist about the standard separating curve, via the C,Y handle:
    (t_C t_Y)^6 = (t_C t_Y t_C)^4."""
    if direction not in (1, -1):
        raise MalformedInput(f"bad twist direction {direction!r}")
    return _twist(ensure_normal(w), _FULL_TWIST, direction)


# ---------------------------------------------------------------- generators


@functools.cache
def _relabel_table(name: str) -> bytes:
    """Translation table of step bytes under one relabeling symmetry."""
    r = complex_symmetry(name)
    return bytes(4 * r.apply_edge(x >> 2) + r.apply_hex(x & 3) if x < 48 else x
                 for x in range(256))


def _relabel(w: CurveWord, name: str) -> CurveWord:
    """Image of a normalized word: an automorphism preserves minimality, so
    only the rotation start drifts.  It also maps the word's normal
    multicurve onto the image's, so the image of a verified word is
    verified (`curve._VERIFIED`)."""
    least = cm._least_rotation(w.code.translate(_relabel_table(name)))
    if w.code in cm._VERIFIED:
        cm._VERIFIED.add(least)
    return CurveWord(least, normalized=True)


def apply_generator(w: CurveWord, g: str) -> CurveWord:
    return _act(ensure_normal(w), g)


# Entries of the generator memo: enumerate_atlas(7) needs 3,108 and one
# e2ebench atlas pass 1,228; enumerate_atlas(8) misses 8,517 times and evicts.
_ACT_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=_ACT_MEMO_SIZE)
def _act(w: CurveWord, g: str) -> CurveWord:
    """The normalized image of a normalized curve under generator g.

    beta = (t_B t_Z)^3 = (t_Z t_B t_Z)^2, as B and Z meet once and so satisfy
    the braid relation t_B t_Z t_B = t_Z t_B t_Z.  A miss of beta^+-1 runs
    one substitution then `normalize`: the kernel and the re-embedding check
    run once.
    """
    if g in ("alpha", "gamma", "delta", "delta_inv"):
        return _relabel(w, g)
    if g not in ("beta", "beta_inv"):
        raise MalformedInput(f"unknown generator {g!r}")
    return _twist(w, _BETA, 1 if g == "beta" else -1)


def apply_word(w: CurveWord, word: list[str] | str) -> CurveWord:
    if isinstance(word, str):
        word = parse_goeritz_word(word)
    w = ensure_normal(w)
    for g in word:
        w = apply_generator(w, g)
    return w
