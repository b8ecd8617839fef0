"""Classification of reducing curves and the reduction to the standard curve.

Every reducing curve satisfies exactly one of a > b+c, b > c+a, c > a+b.  The
reduction loop makes the curve A-dominant with delta or its inverse, then
applies whichever of the half twist or its inverse lowers a; each pass lowers
a+b+c by an even positive amount until it reaches 2, after which at most one
delta move lands on the standard curve.  The certificate records the applied
generators with a count trace, and the input's `curve_key` as text.

`verify_certificate` replays the word both ways.  Forward, the image must
have counts (2,0,0,2,0,0): B with Z and C with Y fill two disjoint one-holed
tori whose complement is an annulus around P, so a curve missing all four
is P.
Backward, the rebuilt curve must equal the input: by equal codes up to
rotation and reversal, or else (two minimal words of one curve) by equal
`curve_key`.  No step computes a signature.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .action import (apply_generator, apply_word, curve_key, format_goeritz_word,
                     invert_goeritz_word, key_text, parse_goeritz_word)
from .curve import (Counts, CurveWord, P_CURVE, arc_census, canonical_unoriented, counts,
                    ensure_normal, to_doc)
from .errors import (
    BetaReductionFailure,
    IterationLimitExceeded,
    MalformedInput,
    TrichotomyViolation,
)
from .handlebody import require_reducing

CERTIFICATE_FORMAT = "goeritz-certificate/2"

# passes allowed beyond (a+b+c)/2; a pass that does not lower a+b+c by 2 or more raises
ITERATION_SLACK = 4


def classify(w: CurveWord) -> str:
    """The unique dominance class: "A", "B" or "C"."""
    w = require_reducing(w)
    c = counts(w)
    sums = (("A", c.a, c.b + c.c), ("B", c.b, c.c + c.a), ("C", c.c, c.a + c.b))
    dominant = [name for name, x, rest in sums if x > rest]
    if len(dominant) != 1:
        raise TrichotomyViolation(f"counts {c.abc()} satisfy {len(dominant)} inequalities")
    if any(x == rest for _, x, rest in sums):
        raise TrichotomyViolation(f"degenerate counts {c.abc()}")
    if dominant[0] == "A":
        census = arc_census(w)
        for t in ("BB", "BC", "CC"):
            if census[(t, 1)] or census[(t, 2)]:
                raise TrichotomyViolation(f"A-dominant curve carries a {t} arc")
        for t in ("AA", "AB", "AC"):
            if census[(t, 1)] != census[(t, 2)]:
                raise TrichotomyViolation(f"{t} arc counts differ between the two pants")
    return dominant[0]


def is_standard(w: CurveWord) -> str:
    """"P", "P_prime", "P_double_prime", or "none"."""
    triple = counts(require_reducing(w)).abc()
    return {(2, 0, 0): "P", (0, 2, 0): "P_prime", (0, 0, 2): "P_double_prime"}.get(triple, "none")


def _triple(value) -> tuple[int, int, int]:
    if isinstance(value, (list, tuple)) and len(value) == 3 and all(type(v) is int for v in value):
        return tuple(value)
    raise MalformedInput(f"certificate counts {value!r} are not three integers")


@dataclass
class ReductionCertificate:
    """Word u with u(Q) = P, plus the per-step count trace; `input_key` is
    the `curve_key` text of Q."""

    input_counts: tuple[int, int, int]
    input_key: str = ""
    word: list[str] = field(default_factory=list)
    trace: list[tuple[int, int, int]] = field(default_factory=list)
    terminal: str = "P"

    def word_text(self) -> str:
        return format_goeritz_word(self.word)

    def as_doc(self, input_curve: CurveWord | None = None,
               output_curve: CurveWord | None = None) -> dict:
        doc = {
            "format": CERTIFICATE_FORMAT,
            "word": self.word_text(),
            "input_counts": list(self.input_counts),
            "input_key": self.input_key,
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
        word, key = doc.get("word", ""), doc.get("input_key", "")
        trace, terminal = doc.get("trace", []), doc.get("terminal", "P")
        if not isinstance(word, str) or not isinstance(key, str) or \
                not isinstance(trace, list) or terminal not in ("P", "P_prime", "P_double_prime"):
            raise MalformedInput(f"malformed {CERTIFICATE_FORMAT} document")
        return ReductionCertificate(_triple(doc.get("input_counts", (0, 0, 0))), key,
                                    parse_goeritz_word(word), list(map(_triple, trace)), terminal)

    def dumps(self, **kw) -> str:
        return json.dumps(self.as_doc(**kw), indent=1) + "\n"


def reduce_to_standard(w: CurveWord) -> ReductionCertificate:
    """Transform a reducing curve into the standard one, recording the moves;
    each curve's counts are read once, when the curve is made."""
    w = require_reducing(w)
    c = counts(w)
    cert = ReductionCertificate(c.abc(), input_key=key_text(curve_key(w)))
    limit = c.total_abc() // 2 + ITERATION_SLACK

    def push(gen: str, new: CurveWord, c_new: Counts | None = None) -> tuple[CurveWord, Counts]:
        c_new = c_new or counts(new)
        cert.word.append(gen)
        cert.trace.append(c_new.abc())
        return new, c_new

    iterations = 0
    while c.total_abc() > 2:
        iterations += 1
        if iterations > limit:
            raise IterationLimitExceeded(f"no convergence within {limit} passes")
        before = c.total_abc()
        gen = {"C": "delta", "B": "delta_inv"}.get(classify(w))
        if gen:
            w, c = push(gen, apply_generator(w, gen))
        s1 = apply_generator(w, "beta")
        s2 = apply_generator(w, "beta_inv")
        c1, c2 = counts(s1), counts(s2)
        if min(c1.a, c2.a) >= c.a:
            raise BetaReductionFailure(f"half twist did not lower a: {c.a} -> {c1.a}/{c2.a}")
        w, c = push("beta", s1, c1) if c1.a <= c2.a else push("beta_inv", s2, c2)
        after = c.total_abc()
        if after >= before or (before - after) % 2:
            raise IterationLimitExceeded(f"pass changed a+b+c from {before} to {after}")
    cert.terminal = is_standard(w)
    gen = {"P_prime": "delta_inv", "P_double_prime": "delta"}.get(cert.terminal)
    if gen:
        w, c = push(gen, apply_generator(w, gen))
    if c.abc() != (2, 0, 0):
        raise IterationLimitExceeded("reduction did not land on the standard curve")
    return cert


def express_from_standard(cert: ReductionCertificate) -> list[str]:
    """Generator word that rebuilds the input curve from the standard one."""
    return invert_goeritz_word(cert.word)


def verify_certificate(cert: ReductionCertificate, original: CurveWord) -> bool:
    """Replay both directions: the word must take the input to P, and its
    inverse must take P back to the input (see the module docstring)."""
    original = ensure_normal(original)
    if counts(apply_word(original, cert.word)).as_tuple() != (2, 0, 0, 2, 0, 0):
        return False
    back = apply_word(P_CURVE, express_from_standard(cert))
    return canonical_unoriented(back) == canonical_unoriented(original) or \
        curve_key(back) == curve_key(original)
