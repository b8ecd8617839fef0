"""Reference canonical form: the slide loop that `goeritz2.curve.canonical_form`
replaced, kept as a test oracle.

Every corner-pass slide attempt builds the whole slid word and keeps it only
if a full `_reembed` accepts it, so each attempt costs time linear in the
word length.  The sweep order, the sweep bound and the step past a slide are
those of the library's loop.  `goeritz2.curve` helpers are looked up at call
time, so a test can patch in the reference `_reembed`.
"""

from __future__ import annotations

from goeritz2 import curve as cm
from goeritz2.slides import is_index2_pass
from goeritz2.errors import InternalInvariantError, NotEmbeddable
from goeritz2.surface import OTHER_HEX


def slide_pass(steps, i):
    """Slide the corner pass at arc i across its vertex (crossing order swaps)."""
    n = len(steps)
    j = (i + 1) % n
    e1, h1 = steps[i]
    e2, h2 = steps[j]
    h_prev = OTHER_HEX[e1][h1]
    e1p, e2p = e2 ^ 1, e1 ^ 1
    h1p = OTHER_HEX[e1p][h_prev]
    h2p = OTHER_HEX[e2p][h1p]
    if h2p != h2:
        raise InternalInvariantError("corner slide broke the chain")
    out = list(steps)
    out[i] = (e1p, h1p)
    out[j] = (e2p, h2p)
    return tuple(out)


def slide_realizable(steps, i):
    """The re-embedding verdict on the slide of the corner pass at arc i."""
    try:
        cm._reembed(cm.CurveWord(slide_pass(steps, i)).code)
    except (InternalInvariantError, NotEmbeddable):
        return False
    return True


def canonical_form(w):
    """Minimal position with corner passes slid to the index-1 side."""
    steps = cm.canonical_steps(cm.ensure_normal(w))
    n = len(steps)
    for _ in range(n + 8):
        progressed = False
        i = 0
        while i < n:
            if is_index2_pass(steps, i) and slide_realizable(steps, i):
                steps = slide_pass(steps, i)
                progressed = True
                i += 2
                continue
            i += 1
        if not progressed:
            return cm._reembed(cm.CurveWord(steps).code)
    raise InternalInvariantError("canonicalization failed to stabilize")
