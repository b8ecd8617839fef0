"""Outside-in span tracer for the goeritz2 layers.

The library has no instrumentation of its own, so the benchmark wraps each
layer's entry points from the outside.  Modules import many of them by name
(`atlas`, `action` and `reduction` bind `canonical_form`, `normalize`,
`signature`, `apply_generator` and `require_reducing` directly), so a wrapper
is installed at every module attribute that holds the original function, not
only at the defining module.  `uninstall` puts every original back.

Spans are kept in memory as lists
`[name, parent index, operation id, start ns, end ns, ok, info]` and written
out once the traced pass ends.  Only single-threaded use is supported: the
parent link comes from one call stack.
"""

from __future__ import annotations

import functools
import json
import sys
import time

NAME, PARENT, OP, T0, T1, OK, INFO = range(7)

# (module, attribute, span name, probe).  A probe reads the call's arguments
# before the call (the kernel edits its input lists in place) and returns a
# function of the result, or the info itself; it fills the span's info slot.
ENTRY_POINTS = (
    ("goeritz2.kernel", "normalize_steps", "kernel",
     lambda a: lambda r, n=len(a[0]): (n, len(r[0]))),
    ("goeritz2.curve", "normalize", "curve.normalize", None),
    ("goeritz2.curve", "_reembed", "curve.reembed", None),
    ("goeritz2.curve", "to_coordinates", "curve.to_coordinates", None),
    ("goeritz2.curve", "from_normal_coordinates", "curve.from_normal_coordinates", None),
    ("goeritz2.curve", "canonical_form", "curve.canonical_form", None),
    ("goeritz2.curve", "signature", "curve.signature", None),
    ("goeritz2.action", "apply_generator", "action.apply_generator", lambda a: a[1]),
    ("goeritz2.action", "twist_system", "action.twist_system", None),
    ("goeritz2.action", "_relabel", "action.relabel", None),
    ("goeritz2.handlebody", "require_reducing", "handlebody.require_reducing", None),
    ("goeritz2.handlebody", "is_reducing", "handlebody.is_reducing", None),
    ("goeritz2.handlebody", "bounds_disk", "handlebody.bounds_disk", None),
    ("goeritz2.reduction", "reduce_to_standard", "reduction.reduce",
     lambda a: lambda r: len(r.word)),
    ("goeritz2.reduction", "verify_certificate", "reduction.verify", None),
    ("goeritz2.atlas", "enumerate_atlas", "atlas.enumerate", None),
    ("goeritz2.atlas", "_expand", "atlas.expand", lambda a: len(a[0][1]) + 1),
    ("goeritz2.atlas", "record_curve", "atlas.record_curve", lambda a: a[0].depth),
)

# Span names that make up each layer's self time.
LAYERS = {
    "kernel": ("kernel",),
    "curve.normalize": ("curve.normalize",),
    "curve.reembed": ("curve.reembed", "curve.to_coordinates",
                      "curve.from_normal_coordinates"),
    "curve.canonical_form": ("curve.canonical_form",),
    "curve.signature": ("curve.signature",),
    "action": ("action.apply_generator", "action.twist_system", "action.relabel"),
    "handlebody": ("handlebody.require_reducing", "handlebody.is_reducing",
                   "handlebody.bounds_disk"),
    "reduction": ("reduction.reduce", "reduction.verify"),
    "atlas": ("atlas.enumerate", "atlas.expand", "atlas.record_curve"),
}


class Tracer:
    """Records a span around every call of the wrapped entry points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = probe(args) if probe is not None else None
            rec = [name, stack[-1] if stack else -1, self.op, clock(), 0, True, info]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[OK] = False
                if callable(info):
                    rec[INFO] = None
                raise
            finally:
                rec[T1] = clock()
                stack.pop()
            if callable(info):
                rec[INFO] = info(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "goeritz2" or n.startswith("goeritz2."))]
        for mod_name, attr, name, probe in ENTRY_POINTS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original, probe)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)
                        self._patched.append((mod, binding, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, binding, original = self._patched.pop()
            setattr(mod, binding, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i] + s, separators=(",", ":")) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns)."""
    out = [s[T1] - s[T0] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[T1] - s[T0]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], wall_ns: int, new_records: dict[int, int]) -> dict:
    """Per-layer counts, self times and ratios of one traced pass.

    `new_records` maps each atlas level to the records it added (empty when
    the pass builds no atlas).

    Raises ValueError if the spans do not nest inside the timed phase, i.e. if
    the self times plus the un-spanned remainder do not add up to the wall.
    """
    own = self_times(spans)
    if any(t < 0 for t in own):
        raise ValueError("a child span outlasts its parent")
    top = sum(s[T1] - s[T0] for s in spans if s[PARENT] < 0)
    remainder = wall_ns - top
    if remainder < 0 or sum(own) + remainder != wall_ns:
        raise ValueError("span self times do not add up to the traced wall time")

    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for s, t in zip(spans, own):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_ns[s[NAME]] = self_ns.get(s[NAME], 0) + t

    def layer_self(layer: str) -> float:
        return sum(self_ns.get(n, 0) for n in LAYERS[layer]) / 1e9

    kernel = [s[INFO] for s in spans if s[NAME] == "kernel" and s[OK]]
    steps_in = sum(n for n, _ in kernel)
    steps_out = sum(n for _, n in kernel)

    # _reembed calls made directly by canonical_form: one slide attempt each,
    # except the final re-embedding of every canonical_form that returned.
    canon = {i for i, s in enumerate(spans) if s[NAME] == "curve.canonical_form"}
    direct = [s for s in spans if s[NAME] == "curve.reembed" and s[PARENT] in canon]
    finished = sum(1 for i in canon if spans[i][OK])
    tries = len(direct) - finished
    rejects = sum(1 for s in direct if not s[OK])
    canon_incl = sum(spans[i][T1] - spans[i][T0] for i in canon
                     if not _has_ancestor(spans, i, canon))

    sig = [i for i, s in enumerate(spans) if s[NAME] == "curve.signature"]
    canon_parents = {_ancestor_named(spans, i, "curve.signature") for i in canon}
    sig_hits = sum(1 for i in sig if i not in canon_parents)

    reduce_ids = {i for i, s in enumerate(spans) if s[NAME] == "reduction.reduce"}
    gens = [s for s in spans if s[NAME] == "action.apply_generator" and s[PARENT] in reduce_ids]
    letters = sum(spans[i][INFO] for i in reduce_ids if spans[i][OK])
    passes = sum(1 for s in gens if s[INFO] == "beta")

    enum_ids = {i for i, s in enumerate(spans) if s[NAME] == "atlas.enumerate"}
    images = sum(1 for s in spans
                 if s[NAME] == "action.apply_generator" and s[PARENT] >= 0
                 and spans[s[PARENT]][NAME] == "atlas.expand")
    canon_in_atlas = sum(1 for i in canon
                         if _ancestor_named(spans, i, "atlas.enumerate") in enum_ids
                         and _ancestor_named(spans, i, "atlas.expand") is None)
    added = sum(n for k, n in new_records.items() if k > 0)

    m = {
        "kernel.calls": calls.get("kernel", 0),
        "kernel.self_s": layer_self("kernel"),
        "kernel.steps_in": steps_in,
        "kernel.steps_removed": steps_in - steps_out,
        "curve.normalize.calls": calls.get("curve.normalize", 0),
        "curve.normalize.self_s": layer_self("curve.normalize"),
        "curve.reembed.calls": calls.get("curve.reembed", 0),
        "curve.reembed.self_s": layer_self("curve.reembed"),
        "curve.canonical_form.calls": len(canon),
        "curve.canonical_form.self_s": layer_self("curve.canonical_form"),
        "curve.canonical_form.incl_s": canon_incl / 1e9,
        "curve.canonical_form.reembed_tries": tries,
        "curve.canonical_form.reembed_rejects": rejects,
        "curve.canonical_form.slide_accept_ratio": _ratio(tries - rejects, tries),
        "curve.signature.calls": len(sig),
        "curve.signature.self_s": layer_self("curve.signature"),
        "curve.signature.hit_ratio": _ratio(sig_hits, len(sig)),
        "action.self_s": layer_self("action"),
        "action.apply_generator.calls": calls.get("action.apply_generator", 0),
        "action.apply_generator.self_s": self_ns.get("action.apply_generator", 0) / 1e9,
        "action.twist_system.calls": calls.get("action.twist_system", 0),
        "action.twist_system.self_s": self_ns.get("action.twist_system", 0) / 1e9,
        "action.relabel.calls": calls.get("action.relabel", 0),
        "handlebody.calls": sum(calls.get(n, 0) for n in LAYERS["handlebody"]),
        "handlebody.self_s": layer_self("handlebody"),
        "reduction.self_s": layer_self("reduction"),
        "reduction.reduce.self_s": self_ns.get("reduction.reduce", 0) / 1e9,
        "reduction.verify.self_s": self_ns.get("reduction.verify", 0) / 1e9,
        "reduction.passes": passes,
        "reduction.generator_keep_ratio": _ratio(letters, len(gens)),
        "atlas.self_s": layer_self("atlas"),
        "atlas.images": images,
        "atlas.dedup_ratio": _ratio(added, images),
        "atlas.canonical_per_image": _ratio(canon_in_atlas, images),
    }
    m.update(_level_metrics(spans, enum_ids, new_records))
    m["trace.unspanned_s"] = remainder / 1e9
    m["trace.wall_s"] = wall_ns / 1e9
    m["trace.spans"] = len(spans)
    return m


def _level_metrics(spans: list[list], enum_ids: set[int],
                   new_records: dict[int, int]) -> dict:
    """Time, frontier size and new records of each atlas level.

    Level k starts when `enumerate_atlas` rebuilds its frontier from the
    depth k-1 records and ends when level k+1 starts, or when the call returns.
    """
    starts: dict[int, int] = {}
    frontier: dict[int, int] = {}
    for s in spans:
        if s[NAME] == "atlas.record_curve" and s[PARENT] in enum_ids:
            starts.setdefault(s[INFO] + 1, s[T0])
        elif s[NAME] == "atlas.expand":
            frontier[s[INFO]] = frontier.get(s[INFO], 0) + 1
    end = max((spans[i][T1] for i in enum_ids), default=0)
    m = {}
    for k in sorted(new_records):
        if k > 0:
            stop = starts.get(k + 1, end)
            m[f"atlas.level{k}.s"] = (stop - starts[k]) / 1e9 if k in starts else 0.0
            m[f"atlas.level{k}.frontier"] = frontier.get(k, 0)
            m[f"atlas.level{k}.new_records"] = new_records[k]
    return m


def _ancestor_named(spans: list[list], i: int, name: str) -> int | None:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return p
        p = spans[p][PARENT]
    return None


def _has_ancestor(spans: list[list], i: int, ids: set[int]) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if p in ids:
            return True
        p = spans[p][PARENT]
    return False
