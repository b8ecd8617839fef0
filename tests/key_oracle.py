"""Reference curve key: the 24 intersection numbers that `goeritz2` compared
curves by before the reduction certificate became its equality test, kept as
a test oracle for curves that are not reducing (pushoffs and their images).

The key is the six counts of w, then the six counts of each of t_A^-1(w),
t_B^-1(w) and t_C^-1(w).  Each is the intersection number of a minimal word
with a system curve, so the key does not depend on the word's rotation, its
reversal or the route that built it.  A curve is determined by finitely many
intersection numbers (Fathi-Laudenbach-Poenaru, Asterisque 66-67, 1979).
That these 24 suffice is checked, not proved: on reducing curves they agree
with the reduction certificate (`test_curve_key.py`).
"""

from __future__ import annotations

from goeritz2.action import twist_system
from goeritz2.curve import CurveWord, counts, ensure_normal


def curve_key(w: CurveWord) -> tuple[int, ...]:
    w = ensure_normal(w)
    key = counts(w).as_tuple()
    for name in "ABC":
        key += counts(twist_system(w, name, -1)).as_tuple()
    return key
