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
(t_C t_Y t_C)^4: the quarter turn sigma = t_Z t_B t_Z gives beta in two
steps, and sigma = t_C t_Y t_C the full twist in four.  Each is applied as
one byte substitution, the composite of its twists' splices with every
image freely reduced, then one normalization (`_quarter_turns`).

A twist replaces every crossing of the curve with the twisting rail by a
detour that spirals half around the rail on each side, crossing the rail's
other edge in the middle.  The spiral's sense at each crossing is tied to the
surface orientation (the sign of the crossed edge in the approach hexagon), so
all detours of one twist turn the same way and stay pairwise disjoint; "right"
names the direction with sign +1 under that rule.

Words are step-byte codes (see `curve`).  A twist marks the four rail bytes
of the code with placeholder bytes by one `bytes.translate`, then replaces
each placeholder with its detour by one `bytes.replace`; the detours per
(rail, direction) are built from `_cross_detour` on first use.  beta^+-1 and
the full twist do the same with the eight rail bytes of their two curves,
each replaced by its image under all their splices: 5 bytes for beta^+-1
and 9 for the full twist, where the unreduced composites have 21 or 37 and
305 or 529.  A relabeling symmetry is one `bytes.translate`.

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
from .curve import CurveWord, Step, canonical_unoriented, ensure_normal, normalize
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


# A byte substitution: a translation table marking the substituted bytes,
# and the (mark, image) pairs that replace the marks.
_Substitution = tuple[bytes, tuple[tuple[bytes, bytes], ...]]


def _substitution(rails: bytes, images) -> _Substitution:
    """The substitution of each of the rail bytes by its image."""
    marks = _MARKS[:len(rails)]
    return bytes.maketrans(rails, marks), tuple(zip((bytes((m,)) for m in marks), images))


def _substitute(code: bytes, table: _Substitution) -> bytes:
    """The code with each byte the table marks replaced by its image."""
    marks, images = table
    code = code.translate(marks)
    for mark, image in images:
        code = code.replace(mark, image)
    return code


@functools.cache
def _splice_table(cid: int, direction: int) -> _Substitution:
    """Substitution of each rail byte of curve cid by its detour under one twist."""
    return _substitution(_RAIL_BYTES[cid], (
        bytes(4 * e + h for e, h in _cross_detour(x >> 2, x & 3, direction))
        for x in _RAIL_BYTES[cid]))


def twist_system(w: CurveWord, curve_name: str, direction: int = 1) -> CurveWord:
    """Dehn twist about one of the six system curves."""
    if curve_name not in CURVE_NAMES or direction not in (1, -1):
        raise MalformedInput(f"bad twist spec ({curve_name!r}, {direction})")
    w = ensure_normal(w)
    cid = CURVE_NAMES.index(curve_name)
    if not any(map(w.code.__contains__, _RAIL_BYTES[cid])):
        return w
    return normalize(CurveWord(_splice(w.code, cid, direction)))


def _splice(code: bytes, cid: int, direction: int) -> bytes:
    """The code with every crossing of curve cid replaced by its twist detour."""
    return _substitute(code, _splice_table(cid, direction))


@functools.cache
def _turn_table(outer: int, inner: int, direction: int, turns: int) -> tuple[bytes, _Substitution]:
    """Rail bytes of curves outer and inner, and their substitution under
    turns quarter turns t_outer t_inner t_outer (each twist to the power
    direction).

    A splice changes only rail bytes and maps each to a fixed string, so the
    3 * turns splices compose to one substitution of the eight rail bytes;
    the intermediate words need not be minimal for their composite to be the
    image curve.  Each image is then freely reduced as a linear word:
    substitution is a homomorphism of words, so a spur pair inside an image
    cancels in every word the image lands in, and by confluence the kernel
    reaches the same reduced word.
    """
    rails = _RAIL_BYTES[outer] + _RAIL_BYTES[inner]
    images = []
    for x in rails:
        image = bytes((x,))
        for cid in (outer, inner, outer) * turns:
            image = _splice(image, cid, direction)
        images.append(freely_reduce(image))
    return rails, _substitution(rails, images)


def _quarter_turns(w: CurveWord, outer: str, inner: str, direction: int, turns: int) -> CurveWord:
    """(t_outer t_inner t_outer)^(direction * turns) of a normalized word, for
    curves outer and inner that meet once: one substitution, then one
    `normalize`."""
    rails, table = _turn_table(CURVE_NAMES.index(outer), CURVE_NAMES.index(inner),
                               direction, turns)
    if not any(map(w.code.__contains__, rails)):
        return w
    return normalize(CurveWord(_substitute(w.code, table)))


def twist_about_p(w: CurveWord, direction: int = 1) -> CurveWord:
    """Full twist about the standard separating curve, via the C,Y handle:
    (t_C t_Y)^6 = (t_C t_Y t_C)^4."""
    return _quarter_turns(ensure_normal(w), "C", "Y", direction, 4)


def apply_twist(w: CurveWord, twisting: CurveWord | str, direction: str | int = "right") -> CurveWord:
    """Twist about a system-curve pushoff or the standard separating curve.

    `twisting` may be a curve name ("A".."Z" or "P") or the pushoff CurveWord
    itself; `direction` is "right"/"left" or +1/-1.
    """
    sign = {"right": 1, "left": -1, 1: 1, -1: -1}.get(direction)
    if sign is None:
        raise MalformedInput(f"bad twist direction {direction!r}")
    if isinstance(twisting, str):
        name = twisting
    else:
        key = canonical_unoriented(ensure_normal(twisting))
        name = next((cand for cand, word in {**cm.PUSHOFFS, "P": cm.P_CURVE}.items()
                     if canonical_unoriented(ensure_normal(word)) == key), None)
        if name is None:
            raise MalformedInput("twisting curve is not a system pushoff or the standard curve")
    if name == "P":
        return twist_about_p(w, sign)
    if name in CURVE_NAMES:
        return twist_system(w, name, sign)
    raise MalformedInput(f"unknown twisting curve {name!r}")


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
    return _quarter_turns(w, "Z", "B", 1 if g == "beta" else -1, 2)


def apply_word(w: CurveWord, word: list[str] | str) -> CurveWord:
    if isinstance(word, str):
        word = parse_goeritz_word(word)
    w = ensure_normal(w)
    for g in word:
        w = apply_generator(w, g)
    return w
