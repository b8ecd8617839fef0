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

Words are step-byte codes (see `curve`).  Every twist, and every product of
twists, is one cached byte substitution (`_twist_table`) and one kernel
pass (`_twist`): the rail bytes of the code are marked with placeholder
bytes by one `bytes.translate`, and each placeholder is replaced by its
image by one `bytes.replace`.  A single twist's images are the detours of
`_cross_detour`; a product's are the freely reduced composites of its
single twists' images, 5 bytes for beta^+-1 and 9 for the full twist.  A
relabeling symmetry is one `bytes.translate`.

The image of a normalized, hence interned, curve (`curve._CURVES`) in which
the kernel slid no run is interned untraced, as `embed._trace` cannot fail:
- the input is embedded: traced when it came from outside, one of the
  stock curves `curve.P_CURVE` and `curve.PUSHOFFS`, whose pinned codes the
  tests trace, or made by the library from an embedded word;
- all detours of one twist turn the same way, their sense tied to the
  surface orientation (the sign of the crossed edge in the approach
  hexagon; "right" is +1), so they stay pairwise disjoint.  This is the
  linear-spiral picture of a twist (Farb-Margalit, Sec. 3.1): the
  substituted word, and so that of a product of twists, is embedded;
- removing an innermost spur, which always exists, is an isotopy, and free
  cancellation is confluent (Lyndon-Schupp I.1), so the kernel reaches the
  word that innermost-first removal reaches;
- a spur-free embedded word is normal, so its chord-class counts re-embed
  as the word itself;
- sliding a run that is not innermost is a homotopy, not an isotopy, so a
  word whose kernel pass slid a run is still traced (`curve._reembed`).
The tests and `selftest --full` trace these images.

Such an image remembers its first maker (`CurveWord._preimage`): the
operation that undoes it and the code of the curve Q it was made from.
That operation, applied to the image, hands back Q's live curve, if Q's
code has one, without a substitution, kernel pass or least rotation
(`_made_from`).  This is exact, as the computation would return that curve:
- a relabeling is a bijection on step bytes whose inverse is its inverse
  generator's, so it takes the image's code back to Q's code;
- each twist table T and its inverse T' (the same curves, the other
  direction; `_BETA` and `_FULL_TWIST` read the same backwards) satisfy
  T'(T(x)) ->> x under free reduction for every step byte x, and T sends
  every spur pair x x' to a word that cancels (tested on all 16 tables);
- so T' of the image's code, a rotation of the freely reduced T(Q), and
  T'(T(Q)) differ by words that cancel, and by confluence both reduce
  freely to a rotation of Q's code, which holds no bigon run: the kernel
  slides nothing, and `_twist` hands out the live curve of Q's code.
`selftest --full` recomputes every shortcut of a cold atlas to depth 8.

The generator action is memoized by normalized curve (`_act`, an LRU memo
of 4096 entries): the atlas applies every generator to each record, and
the reduction and certificate replay of that record apply the same ones
again.  A miss hands out the live curve of its image's code, so the memo
holds interned curves only; an action that raises is not stored, and a hit
builds no `CurveWord`.  An entry whose curves nothing else holds costs
about 2n + 560 bytes for curves of n crossings (tracemalloc).  The atlas to
depth 7 with a round trip per record uses 3,108 entries; to depth 8 it
misses 8,517 times and evicts.

Nothing here tells two curves apart.  Images of the standard curve are
reducing, and two reducing curves are equal iff `reduction.reduce_to_standard`
gives them the same certificate word.
"""

from __future__ import annotations

import functools

from . import curve as cm
from . import kernel
from .curve import CurveWord, Step, ensure_normal
from .errors import EmptyAfterNormalization, MalformedInput
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
    """Replacement steps for one rail crossing: the strand runs parallel to
    the rail on the approach side to the first vertex, crosses the rail's
    other edge there onto the far side, and runs parallel again to the
    second vertex, rejoining its old track."""
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
        images = [kernel.freely_reduce(functools.reduce(_substitute, factors, bytes((x,))))
                  for x in rails]
    marks = _MARKS[:len(rails)]
    return rails, bytes.maketrans(rails, marks), tuple(zip((bytes((m,)) for m in marks), images))


def _made_from(w: CurveWord, undo) -> CurveWord | None:
    """The live curve that w was made from by the inverse of `undo`, a
    relabeling name or a twist spec (curves, direction), if w remembers one
    (`CurveWord._preimage`)."""
    back = w._preimage
    if back is not None and back[0] == undo:
        return cm._CURVES.get(back[1])
    return None


def _remember(image: CurveWord, w: CurveWord, undo) -> CurveWord:
    """Record on the image of w, both interned, its first maker."""
    if image._preimage is None and image is not w:
        image._preimage = (undo, w.code)
    return image


def _twist(w: CurveWord, curves: str, direction: int) -> CurveWord:
    """The image of a normalized word under the twists of `curves`: one
    substitution, then the kernel; a word that crosses none of their rails
    is fixed.  An image in which the kernel slid no run is interned
    untraced; one in which it slid a run is re-embedded (`curve._reembed`).
    An image made by the inverse twists gives back its live preimage."""
    made_from = _made_from(w, (curves, direction))
    if made_from is not None:
        return made_from
    table = _twist_table(curves, direction)
    if not any(map(w.code.__contains__, table[0])):
        return w
    image = _substitute(w.code, table)
    code, slides = kernel.normalize_steps(image)
    if not code:
        raise EmptyAfterNormalization("curve is null-homotopic")
    if slides:
        return cm._reembed(code)
    return _remember(cm._interned(cm._least_rotation(code)), w, (curves, -direction))


def twist_system(w: CurveWord, curve_name: str, direction: int = 1) -> CurveWord:
    """Dehn twist about one of the six system curves."""
    if curve_name not in tuple(CURVE_NAMES) or direction not in (1, -1):
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
    multicurve onto the image's, so the image is interned untraced
    (`curve._CURVES`).  An image made by the inverse relabeling gives back
    its live preimage."""
    made_from = _made_from(w, name)
    if made_from is not None:
        return made_from
    least = cm._least_rotation(w.code.translate(_relabel_table(name)))
    return _remember(cm._interned(least), w, _INVERSE[name])


def apply_generator(w: CurveWord, g: str) -> CurveWord:
    return _act(ensure_normal(w), g)


# Entries of the generator memo: one e2ebench atlas pass needs 1,228.
_ACT_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=_ACT_MEMO_SIZE)
def _act(w: CurveWord, g: str) -> CurveWord:
    """The normalized image of a normalized curve under generator g: a
    relabeling (alpha's is the identity, checked by `surface`), or for
    beta^+-1 one substitution and one kernel pass."""
    if g == "alpha":
        return w
    if g in ("gamma", "delta", "delta_inv"):
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
