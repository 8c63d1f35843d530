"""Command-line front end.

Subcommands: `analyze` (germ -> monodromy report), `quotient` (marked
disk homology and rotation action), `family` (conservation and
coalescing verdicts).  JSON goes to stdout with deterministic key order;
human-readable progress goes to stderr.  Exit codes: 0 success, 1 error,
2 when a theorem-consistency verdict comes back INCONSISTENT.  A batch
(`--germ-file`) reports a failing germ as an error record, goes on, and
exits with the worst code seen.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .family import DEFAULT_SAMPLES, FamilyGerm, coalescing_verdict, conservation_check
from .gaussian import GaussianRational
from .homology import (
    HomologyError,
    MarkedDiskComplex,
    h1_of_quotient,
    lefschetz_number,
    rotation_action,
)
from .poly import ParseError, PolynomialError, parse_polynomial
from .puiseux import PuiseuxError
from .report import StageError, analyze_germ, ball_pair, report_dict
from .roots import PrecisionError
from .svg import emit_svg


def _progress(msg: str):
    print(f"  .. {msg}", file=sys.stderr)


def _dump(obj, compact: bool) -> str:
    if compact:
        return json.dumps(obj, separators=(",", ":")) + "\n"
    return json.dumps(obj, indent=2) + "\n"


def _parse_constant(text: str) -> GaussianRational:
    poly = parse_polynomial(text.strip(), ())
    return poly.constant_value()


def _parse_line_flag(text: str):
    """`--line 'a,b'` as (a, b), refused before any stage runs when it is
    not a pair of constants or both are 0."""
    pieces = text.split(",")
    if len(pieces) != 2:
        raise ValueError("expected --line 'a,b'")
    a, b = _parse_constant(pieces[0]), _parse_constant(pieces[1])
    if a.is_zero() and b.is_zero():
        raise ValueError("degenerate linear form (0, 0)")
    return a, b


def _precision(text: str) -> int:
    """`--precision` in bits, refused below a double's 53 when parsed."""
    bits = int(text)
    if bits < 53:
        raise argparse.ArgumentTypeError(f"precision must be at least 53 bits, got {bits}")
    return bits


def _parse_pairs(text: str):
    found = re.findall(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)", text)
    if not found:
        raise ValueError("expected pairs like (0,2),(1,3)")
    return tuple((int(a), int(b)) for a, b in found)


def cmd_analyze(args) -> int:
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    forced = _parse_line_flag(args.line) if args.line else None
    if args.germ is None and args.germ_file is None:
        print("error [cli]: provide --germ or --germ-file", file=sys.stderr)
        return 1
    germs = []
    if args.germ is not None:
        germs.append(args.germ)
    if args.germ_file is not None:
        with open(args.germ_file, encoding="utf-8") as fh:
            for raw in fh:
                stripped = raw.strip()
                if stripped and not stripped.startswith("#"):
                    germs.append(stripped)
    # with --germ-file a failing germ becomes an error record and the
    # batch goes on; the exit code is the worst one seen
    batch = args.germ_file is not None
    reports = []
    worst = 0
    for index, text in enumerate(germs):
        print(f"analyze: {text}", file=sys.stderr)
        try:
            result = analyze_germ(
                text,
                variables=variables,
                seed=args.seed,
                precision=args.precision,
                forced_line=forced,
                progress=_progress,
            )
            if args.svg:
                path = args.svg if len(germs) == 1 else _indexed_path(args.svg, index)
                try:
                    emit_svg(result, path)
                except (PuiseuxError, PrecisionError, OSError) as exc:
                    # the figure solves the series of Delta, the one
                    # numeric step the analysis itself does not take, and
                    # writes a file that may not open
                    raise StageError("svg", exc) from exc
                print(f"  .. wrote {path}", file=sys.stderr)
        except StageError as exc:
            print(f"error {exc}", file=sys.stderr)
            if not batch:
                return 1
            reports.append(
                {"germ": text, "error": {"stage": exc.stage, "message": str(exc.error)}}
            )
            worst = max(worst, 1)
            continue
        reports.append(report_dict(result))
        if result.inconsistent:
            worst = 2
    payload = reports if batch else reports[0]
    sys.stdout.write(_dump(payload, args.json_compact))
    return worst


def _indexed_path(path: str, index: int) -> str:
    """'fig.svg' -> 'fig-<index>.svg': one figure file per germ of a batch."""
    stem, ext = os.path.splitext(path)
    return f"{stem}-{index}{ext}"


def cmd_quotient(args) -> int:
    try:
        pairs = _parse_pairs(args.pairs)
        complex_ = MarkedDiskComplex(args.n, pairs)
        h1 = h1_of_quotient(complex_)
        action = rotation_action(complex_, args.shift, h1)
    except (HomologyError, ValueError) as exc:
        print(f"error [quotient]: {exc}", file=sys.stderr)
        return 1
    out = {
        "schema": "1",
        "n": args.n,
        "pairs": [list(p) for p in complex_.pairing],
        "shift": args.shift % args.n,
        "h1_rank": h1.rank,
        "torsion": list(h1.torsion),
        "basis": [list(b) for b in h1.basis],
        "action": action.to_lists(),
        "trace": action.trace(),
        "lefschetz": lefschetz_number(action),
        "euler_characteristic": complex_.euler_characteristic(),
    }
    sys.stdout.write(_dump(out, args.json_compact))
    return 0


def cmd_family(args) -> int:
    try:
        poly = parse_polynomial(args.family, ("x", "y", "t"))
        samples = tuple(
            _parse_constant(s) for s in args.samples.split(",") if s.strip()
        )
        family = FamilyGerm(
            F=poly,
            t_samples=samples or DEFAULT_SAMPLES,
            search_radius=Fraction(args.radius),
        )
        print(f"family: {args.family}", file=sys.stderr)
        report = conservation_check(family, precision=args.precision)
        verdict = coalescing_verdict(family, report)
    except (StageError, ValueError, ArithmeticError) as exc:
        print(f"error [family]: {exc}", file=sys.stderr)
        return 1
    records = []
    for record, flag in zip(report.records, report.conserved):
        records.append(
            {
                "t": str(record.t),
                "points": [
                    {
                        "x": ball_pair(p.x),
                        "y": ball_pair(p.y),
                        "local_mu": p.local_mu,
                        "value": ball_pair(p.value),
                        "on_zero_fiber": p.on_zero_fiber,
                        "inside": p.inside,
                    }
                    for p in record.points
                ],
                "total_mu": record.total_mu,
                "points_outside": record.points_outside,
                "conserved": flag,
            }
        )
    out = {
        "schema": "1",
        "family": args.family,
        "samples": [str(s) for s in family.t_samples],
        "search_radius": str(family.search_radius),
        "mu_origin": report.mu_origin,
        "records": records,
        "all_conserved": report.all_conserved,
        "coalescing": {
            "status": verdict.status,
            "hypothesis_holds": verdict.hypothesis_holds,
            "zero_fiber_mu": list(verdict.zero_fiber_mu),
            "zero_fiber_counts": list(verdict.zero_fiber_counts),
            "note": verdict.note,
        },
    }
    sys.stdout.write(_dump(out, args.json_compact))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carousel",
        description=(
            "Polar curves, Cerf diagrams, carousel monodromy and related "
            "invariants of plane-curve germs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full monodromy report for one germ")
    pa.add_argument("--germ", help="germ polynomial, e.g. 'x^5 - y^2'")
    pa.add_argument("--germ-file", help="file with one germ per line")
    pa.add_argument("--vars", default="x,y", help="comma-separated symbols (default x,y)")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--precision", type=_precision, default=128, help="bits >= 53 (default 128)")
    pa.add_argument("--line", default=None, help="force l = a*x + b*y as 'a,b'")
    pa.add_argument(
        "--svg",
        default=None,
        help="write the figure to this path (PATH-<i>.ext per germ for several germs)",
    )
    pa.add_argument("--json-compact", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pq = sub.add_parser("quotient", help="marked-disk quotient homology")
    pq.add_argument("--n", type=int, required=True)
    pq.add_argument("--pairs", required=True, help="perfect matching, e.g. '(0,2),(1,3)'")
    pq.add_argument("--shift", type=int, default=0)
    pq.add_argument("--json-compact", action="store_true")
    pq.set_defaults(func=cmd_quotient)

    pf = sub.add_parser("family", help="conservation / coalescing analysis")
    pf.add_argument("--family", required=True, help="polynomial F(x, y, t)")
    pf.add_argument("--samples", default="")
    pf.add_argument("--radius", default="1/2")
    pf.add_argument("--precision", type=_precision, default=128)
    pf.add_argument("--json-compact", action="store_true")
    pf.set_defaults(func=cmd_family)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, PolynomialError, ValueError, OSError) as exc:
        print(f"error [cli]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
