"""Command-line front end.

Exit codes: 0 success, 2 usage, 3 malformed or unembeddable curve input,
4 not a reducing curve, 5 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import atlas as atlas_mod
from . import curve as cm
from . import reduction as red
from . import render as render_mod
from .action import apply_word, parse_goeritz_word
from .errors import (
    EmptyAfterNormalization,
    Goeritz2Error,
    InconsistentCoordinates,
    MalformedInput,
    MalformedWord,
    NotEmbeddable,
    NotReducing,
    ParityViolation,
)
from .handlebody import (
    arc_pi1_words,
    bounds_disk,
    check_word_constraints,
    reducing_reason,
    require_reducing,
    theta_word,
)

_INPUT_ERRORS = (MalformedInput, MalformedWord, NotEmbeddable, ParityViolation,
                 InconsistentCoordinates, EmptyAfterNormalization)


def _read_curve(path: str | None) -> cm.CurveWord:
    text = sys.stdin.read() if path in (None, "-") else pathlib.Path(path).read_text()
    return cm.loads(text)


def _write(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_curve(args, w: cm.CurveWord) -> None:
    if getattr(args, "format", "steps") == "normal":
        _write(args.out, json.dumps(cm.coordinates_doc(w), indent=1) + "\n")
    else:
        _write(args.out, cm.dumps(w))


def _cmd_validate(args) -> int:
    w = _read_curve(args.infile)
    print(f"valid curve with {len(w)} crossings")
    return 0


def _cmd_normalize(args) -> int:
    w = cm.normalize(_read_curve(args.infile))
    _emit_curve(args, w)
    return 0


def _cmd_counts(args) -> int:
    c = cm.counts(_read_curve(args.infile))
    print(json.dumps({"a": c.a, "b": c.b, "c": c.c, "x": c.x, "y": c.y, "z": c.z}))
    return 0


def _cmd_census(args) -> int:
    w = cm.normalize(_read_curve(args.infile))
    census = cm.arc_census(w)
    doc = {f"{t}{i}": census[(t, i)] for t in cm.ARC_TYPES for i in (1, 2)}
    doc["counts"] = list(cm.counts(w).as_tuple())
    print(json.dumps(doc))
    return 0


def _cmd_words(args) -> int:
    w = cm.normalize(_read_curve(args.infile))
    report = arc_pi1_words(w)
    if args.out and args.out != "-":
        _write(args.out, json.dumps(report.as_doc(), indent=1) + "\n")
    print(report.as_table())
    print(f"theta-V: {' '.join(theta_word(w, 'V')) or '(empty)'}"
          f"   bounds disk in V: {bounds_disk(w, 'V')}")
    print(f"theta-W: {' '.join(theta_word(w, 'W')) or '(empty)'}"
          f"   bounds disk in W: {bounds_disk(w, 'W')}")
    return 0


def _cmd_verify(args) -> int:
    w = _read_curve(args.infile)
    reason = reducing_reason(w)
    if reason is not None:
        print(f"not a reducing curve: {reason}")
        return 4
    dom = red.classify(w)
    print(f"reducing curve; dominance class {dom}; "
          f"counts {cm.counts(w).as_tuple()}")
    if dom == "A" and cm.counts(w).total_abc() > 2:
        check_word_constraints(w)
        print("word-form constraints: pass")
    return 0


def _cmd_apply(args) -> int:
    w = _read_curve(args.infile)
    word = parse_goeritz_word(args.word or "")
    _emit_curve(args, apply_word(w, word))
    return 0


def _cmd_reduce(args) -> int:
    try:
        w = require_reducing(_read_curve(args.infile))  # normalized once, here
    except NotReducing as exc:
        print(f"not a reducing curve: {exc.reason}")
        return 4
    cert = red.reduce_to_standard(w)
    out = apply_word(w, cert.word)
    _write(args.out, cert.dumps(input_curve=w, output_curve=out))
    if args.out not in (None, "-"):
        print(f"certificate word: {cert.word_text() or '(empty)'}")
    return 0


def _cmd_atlas(args) -> int:
    store = None
    if args.infile and args.infile != "-":
        try:
            store = atlas_mod.AtlasStore.load(args.infile)
        except FileNotFoundError:
            store = None
    store = atlas_mod.enumerate_atlas(args.depth, store)
    if args.out and args.out != "-":
        store.save(args.out)
    print(store.export_table())
    return 0


def _cmd_render(args) -> int:
    w = cm.normalize(_read_curve(args.infile)) if args.infile else None
    svg = render_mod.render_svg(w, title=args.title or "")
    _write(args.svg or args.out, svg)
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    return selftest.run(quick=not args.full)


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(
        prog="goeritz2",
        description="Reducing curves on the genus-2 splitting surface: "
                    "verification, generator action, reduction certificates.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if flags.get("infile", True):
            p.add_argument("--in", dest="infile", default=None, metavar="FILE")
        if flags.get("out"):
            p.add_argument("--out", dest="out", default=None, metavar="FILE")
        if flags.get("fmt"):
            p.add_argument("--format", choices=("steps", "normal"), default="steps")
        return p

    add("validate", _cmd_validate)
    add("normalize", _cmd_normalize, out=True, fmt=True)
    add("counts", _cmd_counts)
    add("census", _cmd_census)
    add("words", _cmd_words, out=True)
    add("verify", _cmd_verify)
    p = add("apply", _cmd_apply, out=True, fmt=True)
    p.add_argument("--word", "-w", dest="word", required=True, metavar="STRING")
    add("reduce", _cmd_reduce, out=True)
    p = add("atlas", _cmd_atlas, out=True)
    p.add_argument("--depth", type=int, default=2, metavar="N")
    p = add("render", _cmd_render, out=True)
    p.add_argument("--svg", dest="svg", default=None, metavar="FILE")
    p.add_argument("--title", default=None)
    p = sub.add_parser("selftest")
    p.set_defaults(fn=_cmd_selftest)
    p.add_argument("--full", action="store_true")

    try:
        args = top.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except NotReducing as exc:
        print(f"not a reducing curve: {exc.reason}", file=sys.stderr)
        return 4
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Goeritz2Error as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
