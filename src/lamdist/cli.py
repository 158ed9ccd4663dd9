"""Command-line front end.

Subcommands:

* ``typecheck FILE`` — report the type of every definition;
* ``derive FILE NAME`` — print the derivative of a definition;
* ``diff FILE NAME1 NAME2`` — tabulate distance bounds between two
  closed definitions of the same type (vertical gap, self-distance
  estimate, and their combination);
* ``laws (--builtin NAME | --file QNT) --size N`` — validate a quantale
  and exhaustively check the observational-metric propositions;
* ``judge FILE.json`` — validate a serialized derivation.

Exit codes: 0 success/consistent, 1 falsified/invalid or an input the
calculus rejects (a syntax, type, evaluation or structural error), 2
usage or I/O errors.  Exit 2 covers a file that cannot be read or is not
UTF-8, a name the file does not define, out-of-range flags (among them a
``--range`` whose bounds or width HI - LO are not finite, and a probe
count above ``MAX_PROBES``), a standard output closed before the report
is written, and input nested too deeply for a walk that still recurses:
compiling or running a term for ``diff``, and evaluating closures
applied within closures to compare the sides of a ``Conv`` node
(``TermTooDeep``, or Python's recursion limit).  Parsing, inlining,
typing, derivatives, printing terms and types, and judging take terms of
any depth.  With
``--format json`` and a fixed ``--seed``, output is byte-identical across
runs.

The subcommands only compute and print, and raise on failure.  ``main``
alone turns a failure into its exit code and one stderr line, through
``FAILURES`` for the library's typed errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .eqtheory import (DerivationFormatError, check_derivation,
                       derivation_from_json)
from .prims import DEFAULT_REGISTRY, EvalDomainError, ModulusError
from .quantale.finite import (BUILTINS, QuantaleStructureError, builtin,
                              parse_quantale, validate)
from .quantale.props import EnumerationTooLarge, check_section3_props
from .relations import MAX_PROBES, ProbeConfig, ProbeSet
from .relations.probes import (valid_bounds, valid_count, valid_radius,
                               valid_width)
from .semantics import diff_evaluate, evaluate
from .syntax import (REAL, DottedVariableClash, FnType, ParseError,
                     TermTooDeep, TypecheckError, derivative_term, parse_file,
                     partial_type, render_term, render_type, typecheck)

USAGE_ERROR = 2
DEFAULT_PROBES_ENV = "LAMDIST_PROBES"

# each typed library error: (exit code, prefix of its stderr line)
FAILURES = {
    ParseError: (1, "syntax error"),
    TypecheckError: (1, "type error"),
    DottedVariableClash: (1, "error"),
    EvalDomainError: (1, "evaluation error"),
    ModulusError: (1, "evaluation error"),
    QuantaleStructureError: (1, "structural error"),
    DerivationFormatError: (USAGE_ERROR, "schema error"),
    EnumerationTooLarge: (USAGE_ERROR, "error"),
    TermTooDeep: (USAGE_ERROR, "error"),
}


class CommandError(Exception):
    """A failure of the command line's own: an unreadable file, a name the
    file does not define, a ``diff`` of functions that are not first-order,
    a bad ``$LAMDIST_PROBES``.  Its text is the whole stderr line."""

    def __init__(self, line: str, code: int = USAGE_ERROR):
        super().__init__(line)
        self.code = code


def _read(path: str) -> str:
    """The text of the input file at ``path``: the one place the command
    line opens input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CommandError(f"error: cannot read {path}: {e}") from e


def _definitions(path: str, *names: str) -> dict:
    """The definitions of the term file at ``path``, which must define
    each of ``names``."""
    defs = parse_file(_read(path), DEFAULT_REGISTRY)
    for name in names:
        if name not in defs:
            raise CommandError(f"error: no definition named {name!r}")
    return defs


def _emit(payload: dict, fmt: str, text_lines):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":"),
                         allow_nan=False))
    else:
        for line in text_lines:
            print(line)


def cmd_typecheck(args) -> int:
    rows = []
    for name, term in _definitions(args.file).items():
        try:
            ty = typecheck((), term, DEFAULT_REGISTRY)
        except TypecheckError as e:
            raise CommandError(f"{name}: type error: {e}", 1) from e
        rows.append((name, render_type(ty)))
    _emit({"definitions": [{"name": n, "type": t} for n, t in rows]},
          args.format, [f"{n} : {t}" for n, t in rows])
    return 0


def cmd_derive(args) -> int:
    term = _definitions(args.file, args.name)[args.name]
    ty = typecheck((), term, DEFAULT_REGISTRY)
    rendered = render_term(derivative_term((), term, DEFAULT_REGISTRY))
    if args.format == "text":  # the derivative alone, so it re-parses
        print(rendered)
        return 0
    _emit({"name": args.name, "derivative": rendered,
           "type": render_type(partial_type(ty))}, args.format, [])
    return 0


def _probe_config(args) -> ProbeConfig:
    count = args.probes
    if count is None:
        raw = os.environ.get(DEFAULT_PROBES_ENV, "200")
        try:
            count = _COUNT(raw)
        except (ValueError, argparse.ArgumentTypeError) as e:
            raise CommandError(f"error: ${DEFAULT_PROBES_ENV}: expected "
                               f"{_COUNT_RANGE}, got {raw!r}") from e
    lo, hi = args.range
    return ProbeConfig(count=count, lo=lo, hi=hi, b_max=args.b_max,
                       seed=args.seed)


def cmd_diff(args) -> int:
    defs = _definitions(args.file, args.name1, args.name2)
    t1, t2 = defs[args.name1], defs[args.name2]
    ty1 = typecheck((), t1, DEFAULT_REGISTRY)
    ty2 = typecheck((), t2, DEFAULT_REGISTRY)
    if ty1 != ty2:
        raise TypecheckError(f"{args.name1} : {render_type(ty1)} but "
                             f"{args.name2} : {render_type(ty2)}")
    if ty1 != FnType(REAL, REAL):
        raise CommandError("error: diff tabulates first-order functions "
                           f"(got {render_type(ty1)})")

    cfg = _probe_config(args)
    probes = ProbeSet(cfg, DEFAULT_REGISTRY)
    f1 = evaluate(t1, registry=DEFAULT_REGISTRY)
    f2 = evaluate(t2, registry=DEFAULT_REGISTRY)
    d1 = diff_evaluate(t1, registry=DEFAULT_REGISTRY)
    d2 = diff_evaluate(t2, registry=DEFAULT_REGISTRY)

    rows = []
    for probe in probes.triples(REAL):
        x, b = probe.left, probe.diff
        vertical = abs(f1(x) - f2(x))
        bound = vertical + max(d1(x, b), d2(x, b))
        rows.append({"x": x, "b": b, "vertical": vertical, "bound": bound})
    # JSON has no infinities or NaN: those print as the text table shows
    # them, as strings
    payload = {"left": args.name1, "right": args.name2, "seed": cfg.seed,
               "rows": [{k: v if math.isfinite(v) else str(v)
                         for k, v in r.items()} for r in rows]}
    # text output rounds to the reporting tolerance; JSON stays exact
    digits = max(1, min(17, -math.floor(math.log10(args.eps))))
    _emit(payload, args.format,
          [f"{args.name1} vs {args.name2} (seed {cfg.seed})",
           f"{'x':>14} {'b':>10} {'vertical':>14} {'bound':>14}"]
          + [f"{r['x']:>14.{digits}g} {r['b']:>10.4g} "
             f"{r['vertical']:>14.{digits}g} {r['bound']:>14.{digits}g}"
             for r in rows])
    return 0


def cmd_laws(args) -> int:
    q = parse_quantale(_read(args.file)) if args.file else builtin(args.builtin)
    violations = validate(q)
    if violations:
        for v in violations[:10]:
            print(f"law violation: {v}", file=sys.stderr)
        return 1
    report = check_section3_props(q, args.size)
    lines = [report.summary()]
    lines += [f"  {f}" for f in report.failures[:10]]
    _emit({"quantale": q.name, "size": args.size,
           "relations": report.relations_checked,
           "dominance_pairs": report.prop3_pairs_checked,
           "passed": report.passed,
           "failures": [str(f) for f in report.failures]},
          args.format, lines)
    return 0 if report.passed else 1


def cmd_judge(args) -> int:
    derivation = derivation_from_json(_read(args.file), DEFAULT_REGISTRY)
    result = check_derivation(derivation, DEFAULT_REGISTRY)
    if result:
        _emit({"valid": True,
               "conclusion": derivation.conclusion.render()},
              args.format, ["valid: " + derivation.conclusion.render()])
        return 0
    path = "/".join(map(str, result.path)) or "root"
    _emit({"valid": False, "node": path, "message": result.message},
          args.format, [f"invalid at node {path}: {result.message}"])
    return 1


def _checked(convert, ok, expected: str):
    """An argparse type: ``convert(text)``, rejected unless ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, "
                                             f"got {text!r}")
        return value
    return parse


_SIZE = _checked(int, lambda n: n >= 1, "a positive integer")
_COUNT_RANGE = f"an integer from 0 to {MAX_PROBES}"
_COUNT = _checked(int, valid_count, _COUNT_RANGE)
_RADIUS = _checked(float, valid_radius, "a finite number >= 0")
_TOLERANCE = _checked(float, lambda e: 0 < e < math.inf,
                      "a finite number > 0")


def _range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    lo, hi = float(lo), float(hi)
    if not valid_bounds(lo, hi):
        raise argparse.ArgumentTypeError(
            f"expected finite bounds LO:HI with LO <= HI, got {text!r}")
    if not valid_width(lo, hi):  # samples would overflow to inf
        raise argparse.ArgumentTypeError(
            f"expected a finite width HI - LO, got {text!r}")
    return lo, hi


def _glue_range(argv: list[str]) -> list[str]:
    """``--range -1:1`` as ``--range=-1:1``, and so for the flag's
    abbreviations: argparse reads a lone value that starts with ``-`` and
    is not a plain number as an option."""
    argv = list(argv)
    i = 0
    while i < len(argv) - 1 and argv[i] != "--":
        flag, value = argv[i], argv[i + 1]
        if (len(flag) > 2 and "--range".startswith(flag)
                and value[:1] == "-" and value[:2] != "--"):
            argv[i:i + 2] = [f"{flag}={value}"]
        i += 1
    return argv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamdist",
        description="Distances between higher-order programs.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("typecheck", help="type every definition in a file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_typecheck)

    p = sub.add_parser("derive", help="print the derivative of a definition")
    p.add_argument("file")
    p.add_argument("name")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("diff", help="tabulate distance bounds between two "
                                    "definitions")
    p.add_argument("file")
    p.add_argument("name1")
    p.add_argument("name2")
    p.add_argument("--probes", type=_COUNT, default=None,
                   help=f"probe count (default ${DEFAULT_PROBES_ENV} or 200)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", type=_range, default=(-10.0, 10.0),
                   metavar="LO:HI")
    p.add_argument("--b-max", type=_RADIUS, default=1.0)
    p.add_argument("--eps", type=_TOLERANCE, default=1e-9,
                   help="reporting tolerance for text output")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("laws", help="check quantale laws and the "
                                    "observational-metric propositions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=sorted(BUILTINS))
    group.add_argument("--file")
    p.add_argument("--size", type=_SIZE, default=2)
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("judge", help="validate a serialized derivation")
    p.add_argument("file")
    p.set_defaults(fn=cmd_judge)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _glue_range(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:  # argparse has printed the usage message
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except CommandError as e:
        code, line = e.code, str(e)
    except tuple(FAILURES) as e:
        code, prefix = next(FAILURES[cls] for cls in type(e).__mro__
                            if cls in FAILURES)
        line = f"{prefix}: {e}"
    except RecursionError:
        code, line = USAGE_ERROR, "error: input nested too deeply to process"
    except BrokenPipeError:
        # the reader closed standard output; point it at devnull so the
        # interpreter's final flush cannot fail again
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
        except (OSError, ValueError):
            pass
        code, line = USAGE_ERROR, "error: standard output closed"
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
