"""Command-line driver for the distance-set experiments.

Exit codes: 0 all checks pass, 1 violations found, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .convex_body import load_body
from .distance_sets import Cone
from .experiments import (
    _open_report,
    erdos_bound,
    run_lemma_checks,
    run_moser,
    run_sweep,
    taxicab_count,
    write_jsonl,
    write_moser_csv,
    write_sweep_csv,
)
from .point_sets import GeneratorSpec

__all__ = ["main", "entry"]


def _parse_floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _parse_cone(text: str) -> Cone:
    parts = _parse_floats(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("cone needs two comma-separated angles")
    return Cone(parts[0], parts[1])


def _parse_n_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("N range looks like a..b")
    a, b = int(lo), int(hi)
    if b < a:
        raise argparse.ArgumentTypeError(f"N range {text} is empty: it needs a <= b")
    return range(a, b + 1)


def _genspec_from_args(args) -> GeneratorSpec:
    setting = args.set
    if setting.startswith("file:"):
        if not args.R:
            raise ValueError("file point sets need --R for the window radius")
        return GeneratorSpec(
            kind="file", R=args.R[0], path=setting[len("file:") :], spacing=args.spacing,
            jitter=args.jitter, seed=args.seed,
        )
    kind = {"lattice": "lattice", "perturbed": "perturbed_lattice"}.get(setting)
    if kind is None:
        raise ValueError(f"unknown point set {setting!r}")
    return GeneratorSpec(
        kind=kind,
        R=args.R[0] if args.R else 1.0,
        spacing=args.spacing,
        jitter=args.jitter,
        seed=args.seed,
    )


def _cmd_sweep(args) -> int:
    body = load_body(args.body)
    genspec = _genspec_from_args(args)
    if not args.R:
        raise ValueError("sweep needs --R with at least one radius")
    rows = run_sweep(body, genspec, args.R, tol=args.tol, exact=args.exact)
    if args.out:
        write_sweep_csv(rows, args.out, timestamp=not args.no_timestamp)
    else:
        for r in rows:
            print(r)
    return 0


def _emit_json(report: dict, out) -> None:
    text = json.dumps(report, indent=2)
    if out:
        with _open_report(out, None) as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_taxicab(args) -> int:
    _emit_json(taxicab_count(args.n, args.body), args.out)
    return 0


def _cmd_erdos(args) -> int:
    report = erdos_bound(load_body(args.body), args.N, seed=args.seed)
    _emit_json(report, args.out)
    return 1 if report["flagged"] else 0


def _cmd_lemma_checks(args) -> int:
    batch = run_lemma_checks(args.which, args.trials, args.seed)
    if args.out:
        write_jsonl(batch.rows, args.out, timestamp=not args.no_timestamp)
    print(json.dumps({k: v for k, v in vars(batch).items() if k not in ("seed", "rows")}))
    return 1 if batch.violations else 0


def _cmd_moser(args) -> int:
    body = load_body(args.body)
    rows = run_moser(
        body,
        args.cone,
        args.cone_inner,
        args.N_range,
        spacing=args.spacing,
        width=args.width,
    )
    if args.out:
        write_moser_csv(rows, args.out, timestamp=not args.no_timestamp)
    failures = [r for r in rows if not r.truncated and not r.met]
    for r in rows:
        status = "truncated" if r.truncated else ("ok" if r.met else "FAIL")
        print(f"N={r.N} count={r.count} bound={r.bound:.4f} {status}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugedist",
        description="Distance-set experiments for gauges of symmetric convex bodies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, body=True, seed=True, timestamp=True):
        if body:
            p.add_argument("--body", default="square",
                           help="body JSON path or builtin name (square, diamond, disc)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path")
        if timestamp:
            p.add_argument("--no-timestamp", action="store_true",
                           help="suppress the timestamp header for byte-identical reruns")

    p = sub.add_parser("sweep", help="distance-set statistics over window radii")
    add_common(p)
    p.add_argument("--set", default="lattice", help="lattice | perturbed | file:PATH")
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--R", type=_parse_floats, default=None, help="comma-separated window radii")
    p.add_argument("--tol", type=float, default=None, help="clustering tolerance")
    p.add_argument("--exact", action="store_true", help="exact distance counting")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("taxicab-count", help="distinct distances of the corner lattice")
    add_common(p, seed=False, timestamp=False)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_taxicab)

    p = sub.add_parser("erdos-bound", help="distinct-distance lower-bound witnesses")
    add_common(p, timestamp=False)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_erdos)

    p = sub.add_parser("lemma-checks", help="seeded geometry trial batches")
    add_common(p, body=False)
    p.add_argument("--which", required=True, choices=["13", "14", "strict"])
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=_cmd_lemma_checks)

    p = sub.add_parser("moser", help="annulus/cone point counts against N*(angle span)")
    add_common(p, seed=False)
    p.add_argument("--cone", type=_parse_cone, required=True, help="theta1,theta2")
    p.add_argument("--cone-inner", type=_parse_cone, required=True, dest="cone_inner")
    p.add_argument("--N-range", type=_parse_n_range, required=True, dest="N_range",
                   help="a..b inclusive")
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--width", type=float, default=10.0)
    p.set_defaults(func=_cmd_moser)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
