"""Action of the Goeritz generators and of Dehn twists on curve words.

alpha, gamma, delta and delta^-1 act by relabeling symmetries of the complex.
beta is the half twist about the central separating curve, realized as
(t_B . t_Z)^3 supported in the one-holed torus containing B and Z; its inverse
is the inverse composite.  The full twist about the separating curve is the
boundary twist of either one-holed torus and is exposed as (t_C . t_Y)^6,
which runs through the handle beta does not touch.

A twist replaces every crossing of the curve with the twisting rail by a
detour that spirals half around the rail on each side, crossing the rail's
other edge in the middle.  The spiral's sense at each crossing is tied to the
surface orientation (the sign of the crossed edge in the approach hexagon), so
all detours of one twist turn the same way and stay pairwise disjoint; "right"
names the direction with sign +1 under that rule.

Words are step-byte codes (see `curve`).  A twist marks the four rail bytes
of the code with placeholder bytes by one `bytes.translate`, then replaces
each placeholder with its detour by one `bytes.replace`; the detours per
(rail, direction) are built from `_cross_detour` on first use.  A relabeling
symmetry is one `bytes.translate`.

The generator action is memoized by normalized code (`_act`, an LRU memo of
4096 entries): the atlas applies every generator to each record, and the
reduction and certificate replay of that record apply the same ones again.
A miss runs the twists with every check; an action that raises is not
stored.  Keys and values are codes, so each call builds a new `CurveWord`.
An entry costs about 2n + 220 bytes for codes of n bytes, so a full memo
holds 1.7 MB at n = 100 and 25 MB at n = 3,000; the atlas to depth 7 uses
1,818 entries and 0.3 MB of codes.
"""

from __future__ import annotations

import functools

from . import curve as cm
from .curve import CurveWord, Step, canonical_unoriented, ensure_normal, normalize
from .errors import MalformedInput
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


# Placeholder bytes for the rail crossings of one twist: no step byte reaches
# them, so a detour (which crosses the partner rail edge) is never substituted again.
_MARKS = bytes(range(128, 132))


@functools.cache
def _splice_table(cid: int, direction: int) -> tuple[bytes, tuple[tuple[bytes, bytes], ...]]:
    """Translation table marking the rail bytes of curve cid with `_MARKS`, and
    the detour of each mark's rail crossing under one twist."""
    rails = _RAIL_BYTES[cid]
    return bytes.maketrans(rails, _MARKS), tuple(
        (bytes((m,)), bytes(4 * e + h for e, h in _cross_detour(x >> 2, x & 3, direction)))
        for m, x in zip(_MARKS, rails))


def twist_system(w: CurveWord, curve_name: str, direction: int = 1) -> CurveWord:
    """Dehn twist about one of the six system curves."""
    if curve_name not in CURVE_NAMES or direction not in (1, -1):
        raise MalformedInput(f"bad twist spec ({curve_name!r}, {direction})")
    w = ensure_normal(w)
    cid = CURVE_NAMES.index(curve_name)
    if not any(map(w.code.__contains__, _RAIL_BYTES[cid])):
        return w
    return normalize(CurveWord(_splice(w.code, cid, direction)))


def curve_key(w: CurveWord) -> tuple[int, ...]:
    """Exact equality key of a curve: 24 geometric intersection numbers.

    The six counts of w, then the six counts of each of t_A^-1(w), t_B^-1(w)
    and t_C^-1(w).  Each is the intersection number of a minimal word with a
    system curve, so the key does not depend on the word's rotation, its
    reversal or the route that built it.  A curve is determined by finitely
    many intersection numbers (Fathi-Laudenbach-Poenaru, Asterisque 66-67,
    1979).  That these 24 suffice is checked, not proved: on reducing curves
    they agree with the reduction certificate, an exact invariant there.
    """
    w = ensure_normal(w)
    key = cm.counts(w).as_tuple()
    for name in "ABC":
        key += cm.counts(twist_system(w, name, -1)).as_tuple()
    return key


def key_text(key: tuple[int, ...]) -> str:
    """A `curve_key` as stored text: comma-joined decimals."""
    return ",".join(map(str, key))


def _splice(code: bytes, cid: int, direction: int) -> bytes:
    """The code with every crossing of curve cid replaced by its twist detour."""
    marks, detours = _splice_table(cid, direction)
    code = code.translate(marks)
    for mark, detour in detours:
        code = code.replace(mark, detour)
    return code


def twist_about_p(w: CurveWord, direction: int = 1) -> CurveWord:
    """Full twist about the standard separating curve, via the C,Y handle."""
    for _ in range(6):
        w = twist_system(w, "Y", direction)
        w = twist_system(w, "C", direction)
    return w


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
    only the rotation start drifts."""
    return CurveWord(cm._least_rotation(w.code.translate(_relabel_table(name))),
                     normalized=True)


_BETA_SEQUENCE = (("Z", 1), ("B", 1)) * 3
_BETA_INV_SEQUENCE = (("B", -1), ("Z", -1)) * 3


def apply_generator(w: CurveWord, g: str) -> CurveWord:
    w = ensure_normal(w)
    return CurveWord(_act(w.code, g), normalized=True)


# Entries of the generator memo: enumerate_atlas(7) needs 1,818, and one
# e2ebench pass at most 1,026.
_ACT_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=_ACT_MEMO_SIZE)
def _act(code: bytes, g: str) -> bytes:
    """Normalized code of the image of a normalized code under generator g."""
    w = CurveWord(code, normalized=True)
    if g in ("alpha", "gamma", "delta", "delta_inv"):
        return _relabel(w, g).code
    if g == "beta":
        seq = _BETA_SEQUENCE
    elif g == "beta_inv":
        seq = _BETA_INV_SEQUENCE
    else:
        raise MalformedInput(f"unknown generator {g!r}")
    for name, direction in seq:
        w = twist_system(w, name, direction)
    return w.code


def apply_word(w: CurveWord, word: list[str] | str) -> CurveWord:
    if isinstance(word, str):
        word = parse_goeritz_word(word)
    w = ensure_normal(w)
    for g in word:
        w = apply_generator(w, g)
    return w
