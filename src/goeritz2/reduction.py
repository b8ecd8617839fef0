"""Classification of reducing curves and the reduction to the standard curve.

Every reducing curve satisfies exactly one of a > b+c, b > c+a, c > a+b.  The
reduction loop makes the curve A-dominant with delta or its inverse, then
applies whichever of the half twist or its inverse lowers a; each pass lowers
a+b+c by an even positive amount until it reaches 2, after which at most one
delta move lands on the standard curve.  The certificate records the applied
generators with a count trace.

The certificate word is the equality test of reducing curves.  Each step is
chosen from counts of minimal words, which are isotopy invariants, so one
curve gets one word W; and W(Q) = P fixes Q = W^-1(P), so two curves with
one word are one curve.  The word also fixes the terminal: every pass ends
in a half twist, so a trailing delta^+-1 comes only from the terminal move.

Each curve is checked once.  `reduce_to_standard` runs `require_reducing`
on its input, and each pass runs it on the curve it lands on, so every curve
the certificate passes through is checked, either as the input or as a
landing.  A pass reads its input's dominance class from the (a, b, c) its
caller already has (`_dominance`), and the terminal class is read from the
last counts (`_TERMINALS`); the public `classify` and `is_standard` keep
their own check of outside input.

The trichotomy is three comparisons.  For nonnegative counts at most one
of the strict inequalities holds, and when one holds none of them is an
equality, so neither "more than one" nor "degenerate" can occur; when none
holds, the counts "satisfy 0 inequalities".  An A-dominant curve must also
carry no BB, BC or CC arc and as many AA, AB and AC arcs on one pants as on
the other, and one adjacency test decides all of it.  Every A/B/C edge
borders one hexagon of each pants (`surface._verify_complex`), so the arcs
of a closed chain, cut at its A/B/C crossings, alternate pants.  If no two
cyclically consecutive A/B/C crossings are both B or C, each B crossing
ends one AB arc and starts the next, one in each pants, and likewise each C
crossing: each pants holds b AB arcs, c AC arcs and (a - b - c)/2 AA arcs,
and no BB, BC or CC arc.  Otherwise the adjacent pair is such an arc.  So
`_dominance` maps the B and C crossings to 1 and the A crossings to 0,
deletes the X/Y/Z crossings, and looks for two adjacent ones, the last and
the first included.  Only when it finds them does it read the arc census,
which raises NotEmbeddable for a forbidden pair of arc types first; then it
raises TrichotomyViolation naming the first of BB, BC and CC it carries.

A pass is a fact of the curve it starts from, like its counts and its
reducing verdict: it reads counts of minimal words and applies the
deterministic generator action, so it is a function of the normalized
curve.  The curve object keeps all three (`CurveWord`; the pass, landing
check included, only once it succeeds), and the library makes one object
per live code (`curve._CURVES`).  So a curve handed in again, such as an
atlas record on its round trip, is not checked, counted or reduced again.
The reduction reads a curve only through `counts`, its code (the adjacency
test above), `apply_word`, `apply_generator`, `require_reducing` and its
`_pass` slot, and `arc_census` only on the failure path of the adjacency
test; how a curve is stored is the word layers' business.

`verify_certificate` replays the word forward, and that replay is the whole
proof.  The image must have counts (2,0,0,2,0,0): B with Z and C with Y fill
two disjoint one-holed tori whose complement is an annulus around P, so a
curve missing all four is P.  Then W(Q) = P, and as W is a mapping class,
Q = W^-1(P) as isotopy classes.  Verify reads only the word: a certificate
padded with words that act as the identity (gamma^2 ... beta beta^-1)
proves the same equality with a trace that does not match its word, so
neither the trace nor the input counts is checked.
"""

from __future__ import annotations

import json

from .action import (apply_generator, apply_word, format_goeritz_word, invert_goeritz_word,
                     parse_goeritz_word)
from .curve import _CURVE_OF_BYTE, _XYZ_BYTES, CurveWord, SlotRecord, arc_census, counts, to_doc
from .errors import (
    BetaReductionFailure,
    IterationLimitExceeded,
    MalformedInput,
    TrichotomyViolation,
)
from .handlebody import require_reducing

CERTIFICATE_FORMAT = "goeritz-certificate/3"


# A/B/C crossings read 0 for A and 1 for B or C; X/Y/Z crossings are deleted
_BC_FLAGS = bytes(0 < c < 3 for c in _CURVE_OF_BYTE)


def _bc_adjacent(code: bytes) -> bool:
    """Whether two cyclically consecutive A/B/C crossings of a closed chain
    are both B or C: for an A-dominant curve, whether its arc census fails
    (see the module docstring)."""
    flags = code.translate(_BC_FLAGS, _XYZ_BYTES)
    return b"\x01\x01" in flags + flags[:1]


def classify(w: CurveWord) -> str:
    """The unique dominance class: "A", "B" or "C"."""
    w = require_reducing(w)
    return _dominance(w, counts(w).abc())


def _dominance(w: CurveWord, abc: tuple[int, int, int]) -> str:
    """`classify` of a checked reducing curve whose (a, b, c) the caller has read:
    the trichotomy, and for an A-dominant curve the adjacency test of its
    B/C crossings (see the module docstring)."""
    a, b, c = abc
    if a > b + c:
        if _bc_adjacent(w.code):
            census = arc_census(w)  # raises NotEmbeddable for a forbidden pair first
            t = next(t for t in ("BB", "BC", "CC") if census[(t, 1)] or census[(t, 2)])
            raise TrichotomyViolation(f"A-dominant curve carries a {t} arc")
        return "A"
    if b > c + a:
        return "B"
    if c > a + b:
        return "C"
    raise TrichotomyViolation(f"counts {abc} satisfy 0 inequalities")


_TERMINALS = {(2, 0, 0): "P", (0, 2, 0): "P_prime", (0, 0, 2): "P_double_prime"}
# by class, the delta move that makes a pass's input A-dominant; by terminal, the one to P
_TO_A = {"C": "delta", "B": "delta_inv"}
_TERMINAL_MOVES = {"P_prime": "delta_inv", "P_double_prime": "delta"}


def is_standard(w: CurveWord) -> str:
    """"P", "P_prime", "P_double_prime", or "none"."""
    return _TERMINALS.get(counts(require_reducing(w)).abc(), "none")


def _triple(value) -> tuple[int, int, int]:
    if isinstance(value, (list, tuple)) and len(value) == 3 and all(type(v) is int for v in value):
        return tuple(value)
    raise MalformedInput(f"certificate counts {value!r} are not three integers")


class ReductionCertificate(SlotRecord):
    """Word u with u(Q) = P, plus the per-step count trace."""

    __slots__ = ("input_counts", "word", "trace", "terminal")

    def __init__(self, input_counts: tuple[int, int, int], word: list[str] | None = None,
                 trace: list[tuple[int, int, int]] | None = None, terminal: str = "P"):
        self.input_counts = input_counts
        self.word = [] if word is None else word
        self.trace = [] if trace is None else trace
        self.terminal = terminal

    def word_text(self) -> str:
        return format_goeritz_word(self.word)

    def as_doc(self, input_curve: CurveWord | None = None,
               output_curve: CurveWord | None = None) -> dict:
        doc = {
            "format": CERTIFICATE_FORMAT,
            "word": self.word_text(),
            "input_counts": list(self.input_counts),
            "trace": [list(t) for t in self.trace],
            "terminal": self.terminal,
        }
        if input_curve is not None:
            doc["input"] = to_doc(input_curve)
        if output_curve is not None:
            doc["output"] = to_doc(output_curve)
        return doc

    @staticmethod
    def from_doc(doc: dict) -> "ReductionCertificate":
        if not isinstance(doc, dict) or doc.get("format") != CERTIFICATE_FORMAT:
            raise MalformedInput(f"not a {CERTIFICATE_FORMAT} document")
        missing = [k for k in ("word", "input_counts", "trace", "terminal") if k not in doc]
        if missing:
            raise MalformedInput(f"certificate has no {missing[0]!r}")
        word, trace, terminal = doc["word"], doc["trace"], doc["terminal"]
        if not isinstance(word, str) or not isinstance(trace, list) or \
                terminal not in ("P", "P_prime", "P_double_prime"):
            raise MalformedInput(f"malformed {CERTIFICATE_FORMAT} document")
        return ReductionCertificate(_triple(doc["input_counts"]),
                                    parse_goeritz_word(word), list(map(_triple, trace)), terminal)

    def dumps(self, **kw) -> str:
        return json.dumps(self.as_doc(**kw), indent=1) + "\n"


def _pass(w: CurveWord, abc: tuple[int, int, int]) -> tuple[tuple, tuple, CurveWord]:
    """One reduction pass from a normalized reducing curve with a+b+c > 2:
    the generators it applies, their count trace and the curve it lands on,
    kept on the curve (`w._pass`) once the landing passed its check.

    Precondition: the input was checked to be reducing, by the caller or by
    the pass that landed on it; this pass checks the curve it lands on.  The
    pass makes the curve A-dominant with delta or its inverse, then applies
    whichever half twist gives the lower a.  abc is the curve's (a, b, c),
    which the caller has read.
    """
    start, a, before = w, abc[0], sum(abc)
    gens, trace = [], []
    gen = _TO_A.get(_dominance(w, abc))
    if gen:
        w = apply_generator(w, gen)
        c = counts(w)
        gens.append(gen)
        trace.append(c.abc())
        a = c.a
    s1 = apply_generator(w, "beta")
    s2 = apply_generator(w, "beta_inv")
    c1, c2 = counts(s1), counts(s2)
    if min(c1.a, c2.a) >= a:
        raise BetaReductionFailure(f"half twist did not lower a: {a} -> {c1.a}/{c2.a}")
    gen, w, c = ("beta", s1, c1) if c1.a <= c2.a else ("beta_inv", s2, c2)
    gens.append(gen)
    trace.append(c.abc())
    after = c.total_abc()
    if after >= before or (before - after) % 2:
        raise IterationLimitExceeded(f"pass changed a+b+c from {before} to {after}")
    start._pass = done = (tuple(gens), tuple(trace), require_reducing(w))
    return done


def reduce_to_standard(w: CurveWord) -> ReductionCertificate:
    """Transform a reducing curve into the standard one, recording the moves.

    The input is checked once; each pass checks the curve it lands on
    (`_pass`), and a pass its curve keeps is not computed again.  Each
    curve's counts are read when the curve is made, and counted once per
    curve object.  The loop needs no bound: a pass that does not lower
    a+b+c by an even amount raises.
    """
    w = require_reducing(w)
    abc = counts(w).abc()
    cert = ReductionCertificate(abc)
    while sum(abc) > 2:
        gens, trace, w = w._pass or _pass(w, abc)
        cert.word.extend(gens)
        cert.trace.extend(trace)
        abc = trace[-1]
    cert.terminal = _TERMINALS.get(abc, "none")
    gen = _TERMINAL_MOVES.get(cert.terminal)
    if gen:
        abc = counts(apply_generator(w, gen)).abc()
        cert.word.append(gen)
        cert.trace.append(abc)
    if abc != (2, 0, 0):
        raise IterationLimitExceeded("reduction did not land on the standard curve")
    return cert


def express_from_standard(cert: ReductionCertificate) -> list[str]:
    """Generator word that rebuilds the input curve from the standard one."""
    return invert_goeritz_word(cert.word)


def verify_certificate(cert: ReductionCertificate, original: CurveWord) -> bool:
    """Whether the word takes the input to P (see the module docstring).

    Only the word is read: the trace and input counts are not verified, so a
    certificate padded with words that act as the identity, whose trace does
    not match its word, still verifies."""
    return counts(apply_word(original, cert.word)).as_tuple() == (2, 0, 0, 2, 0, 0)
