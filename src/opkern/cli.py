"""Command-line front end.

Subcommands: gram, spectrum, verify, sample, expand.  Exit codes: 0
success/pass, 1 usage error, 2 numerical precondition failure, 3
identity-suite failure.  Diagnostics go to stderr; stdout carries at most
a one-line summary.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import gram as gram_mod
from . import gp as gp_mod
from . import rkhs as rkhs_mod
from .kernels import KernelSpecError, make_kernel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IDENTITY = 3


class UsageError(Exception):
    pass


def seed_arg(text: str) -> int:
    """argparse type for --seed: an integer in [0, 2**64)."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"seed {seed} outside [0, 2**64)")
    return seed


def parse_sites(text: str) -> list[np.ndarray]:
    """Sites as ``grid(a,b,n)`` or an inline list ``[0,0.5,1]`` /
    ``[[x,y],...]``."""
    text = text.strip()
    if text.startswith("grid"):
        inner = text[4:].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise UsageError(f"malformed grid spec: {text!r}")
        parts = inner[1:-1].split(",")
        if len(parts) != 3:
            raise UsageError("grid takes exactly (a, b, n)")
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1:
            raise UsageError("grid needs n >= 1")
        return [np.array([x]) for x in np.linspace(a, b, n)]
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"cannot parse site list: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise UsageError("site list must be a nonempty list")
    sites = []
    for item in data:
        if isinstance(item, (int, float)):
            sites.append(np.array([float(item)]))
        elif isinstance(item, list) and item:
            sites.append(np.array([float(v) for v in item]))
        else:
            raise UsageError(f"bad site entry: {item!r}")
    return sites


def load_config(path: str) -> dict[str, str]:
    """key=value lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def load_raw_matrix(path: str) -> np.ndarray:
    """Square matrix from CSV; rows starting with '#' are skipped."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            rows.append([float(v) for v in row])
    mat = np.array(rows)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise UsageError(f"raw matrix in {path} is not square")
    return mat


def _apply_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
    conf = load_config(args.config)
    for key, value in conf.items():
        if not hasattr(args, key):
            raise UsageError(f"unknown config key '{key}'")
        if key in args._explicit:
            continue  # flags win on conflict
        current = getattr(args, key)
        if isinstance(current, int) and not isinstance(current, bool):
            value = int(value)
        elif isinstance(current, float):
            value = float(value)
        setattr(args, key, value)


class _TrackingParser(argparse.ArgumentParser):
    """Records which destinations were set explicitly on the command line."""

    def parse_args(self, argv=None, namespace=None):
        args = super().parse_args(argv, namespace)
        explicit = set()
        seen = list(sys.argv[1:] if argv is None else argv)
        # conservative: any dest whose flag string appears verbatim in argv
        for text in seen:
            if text.startswith("--"):
                explicit.add(text[2:].split("=", 1)[0].replace("-", "_"))
        args._explicit = explicit
        return args


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _build_gram(args):
    kernel = make_kernel(args.kernel)
    sites = parse_sites(args.sites)
    g = gram_mod.assemble_gram(kernel, sites)
    if args.raw:
        raw = load_raw_matrix(args.raw)
        if raw.shape != g.data.shape:
            raise UsageError(
                f"raw matrix shape {raw.shape} != expected {g.data.shape}"
            )
        g.data = 0.5 * (raw + raw.T)
    return kernel, sites, g


def cmd_gram(args) -> int:
    kernel, _, g = _build_gram(args)
    report = gram_mod.psd_check(g)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gram_mod.gram_to_csv(g, out / "gram.csv")
    _write_json(out / "spectrum.json", gram_mod.spectrum_to_json_dict(g))
    print(f"gram: n={g.n} d={g.d} psd={report.psd} min_eig={report.min_eig:.3e}")
    return EXIT_OK if report.psd else EXIT_NUMERIC


def cmd_spectrum(args) -> int:
    kernel = make_kernel(args.kernel)
    counts = [int(c) for c in args.counts.split(",") if c.strip()]
    if not counts:
        raise UsageError("--counts must list at least one grid size")
    dom = [float(v) for v in args.domain.split(",")]
    if len(dom) != 2:
        raise UsageError("--domain takes 'a,b'")
    reports = gram_mod.spectral_decay_profile(kernel, counts, (dom[0], dom[1]))
    out = Path(args.out)
    for count, report in zip(counts, reports):
        grid = np.linspace(dom[0], dom[1], count)
        g = gram_mod.assemble_gram(kernel, [np.array([x]) for x in grid])
        g.spectrum = report
        _write_json(out / f"spectrum_{count}.json", gram_mod.spectrum_to_json_dict(g))
    print(f"spectrum: wrote {len(reports)} report(s) to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    kernel = make_kernel(args.kernel)
    sites = parse_sites(args.sites)
    raw = load_raw_matrix(args.raw) if args.raw else None
    try:
        ctx = rkhs_mod.make_context(kernel, sites, raw_data=raw)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    report = rkhs_mod.verify_identities(ctx, trials=args.trials, seed=args.seed)
    out = Path(args.out)
    _write_json(out / "identities.json", report.to_json_dict())
    print(report.table(), file=sys.stderr)
    if not report.all_pass:
        failing = [n for n, r in report.results.items() if not r["pass"]]
        print(f"failing identities: {', '.join(failing)}", file=sys.stderr)
        print(f"verify: {len(report.results)} identities, {len(failing)} failing")
        return EXIT_IDENTITY
    print(f"verify: {len(report.results)} identities, all pass")
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    kernel = make_kernel(args.kernel)
    sites = parse_sites(args.sites)
    try:
        ctx = rkhs_mod.make_context(kernel, sites)
        batch = gp_mod.sample_paths(ctx, args.count, args.seed)
    except (ValueError, gram_mod.IndefiniteMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        gp_mod.batch_to_csv(batch, out / "batch.csv")
    else:
        gp_mod.batch_to_binary(batch, out / "batch.bin")
    cov = gp_mod.covariance_error_report(batch)
    _write_json(
        out / "cov_report.json",
        {
            "max_abs_err": cov.max_abs_err,
            "mc_tolerance": cov.mc_tolerance,
            "pass": bool(cov.pass_),
            "per_block_err": cov.per_block_err.tolist(),
            "seed": batch.seed,
            "count": batch.count,
            "jitter_used": ctx.gram.jitter_used,
        },
    )
    print(
        f"sample: N={batch.count} max_err={cov.max_abs_err:.4f} "
        f"tol={cov.mc_tolerance:.4f} pass={cov.pass_}"
    )
    return EXIT_OK if cov.pass_ else EXIT_NUMERIC


def cmd_expand(args) -> int:
    if not (0.0 < args.trunc_tol < 1.0):
        raise UsageError("--trunc-tol must lie in (0, 1)")
    kernel = make_kernel(args.kernel)
    sites = parse_sites(args.sites)
    try:
        ctx = rkhs_mod.make_context(kernel, sites)
        basis = rkhs_mod.onb_expansion(ctx, args.trunc_tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "onb.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["# basis", len(basis), "n", ctx.n, "d", ctx.d])
        for el in basis:
            writer.writerow([repr(float(v)) for v in el.coeffs])
    # reconstruction error of the induced scalar kernel on grid pairs
    G = ctx.gram.data
    recon = np.zeros_like(G)
    for el in basis:
        vals = G @ el.coeffs
        recon += np.outer(vals, vals)
    err = float(np.abs(recon - G).max())
    _write_json(
        out / "reconstruction.json",
        {
            "basis_size": len(basis),
            "trunc_tol": args.trunc_tol,
            "max_error": err,
        },
    )
    print(f"expand: basis={len(basis)} reconstruction_error={err:.3e}")
    return EXIT_OK


def build_parser() -> _TrackingParser:
    parser = _TrackingParser(prog="opkern")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--kernel", help="kernel spec string")
        p.add_argument("--sites", help="grid(a,b,n) or inline JSON list")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", help="key=value config file; flags win")

    p = sub.add_parser("gram", help="assemble a Gram matrix and certify PSD")
    common(p)
    p.add_argument("--raw", help="CSV file overriding the Gram data")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("spectrum", help="spectral decay across grid sizes")
    common(p)
    p.add_argument("--counts", default="", help="comma-separated grid sizes")
    p.add_argument("--domain", default="0,1", help="interval a,b")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run the identity suite")
    common(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=seed_arg, default=0)
    p.add_argument("--raw", help="CSV file overriding the Gram data")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="draw seeded Gaussian process paths")
    common(p)
    p.add_argument("--count", "-N", type=int, default=1000, dest="count")
    p.add_argument("--seed", type=seed_arg, default=0)
    p.add_argument("--format", choices=["csv", "bin"], default="csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("expand", help="orthonormal expansion of the Gram")
    common(p)
    p.add_argument("--trunc-tol", type=float, default=1e-12, dest="trunc_tol")
    p.set_defaults(func=cmd_expand)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        _apply_config(args)
        if args.kernel is None:
            raise UsageError("--kernel is required")
        if args.command not in ("spectrum",) and args.sites is None:
            raise UsageError("--sites is required")
        return args.func(args)
    except (UsageError, KernelSpecError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except gram_mod.GramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
