"""Command-line front end.

Subcommands: gram, spectrum, verify, sample, expand.  Exit codes: 0
success/pass, 1 usage error, 2 numerical precondition failure, 3
identity-suite failure.  Diagnostics go to stderr; stdout carries at most
a one-line summary.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import gram as gram_mod
from . import gp as gp_mod
from . import rkhs as rkhs_mod
from .kernels import KernelSpecError, as_sites, make_kernel
from .reprcsv import write_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IDENTITY = 3

FORMATS = ("csv", "bin")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose options match only in full, so that a config
    key is never taken for a prefix, and whose errors are one-line usage
    errors."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def seed_arg(text: str) -> int:
    """argparse type for --seed: an integer in [0, 2**64)."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None
    try:
        return gram_mod.check_seed(seed)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {seed} outside [0, 2**64)") from None


def parse_sites(text: str) -> np.ndarray:
    """Sites as ``grid(a,b,n)`` or an inline list ``[0,0.5,1]`` /
    ``[[x,y],...]``; returns an (n, k) array, one site per row."""
    text = text.strip()
    if text.startswith("grid"):
        inner = text[4:].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise UsageError(f"malformed grid spec: {text!r}")
        parts = inner[1:-1].split(",")
        if len(parts) != 3:
            raise UsageError("grid takes exactly (a, b, n)")
        try:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError(f"grid needs numbers a, b and an integer n: {text!r}") from None
        if not (math.isfinite(a) and math.isfinite(b)):
            raise UsageError("grid ends must be finite")
        if not 1 <= n <= gram_mod.DEFAULT_SIZE_CAP:
            raise UsageError(f"grid needs 1 <= n <= {gram_mod.DEFAULT_SIZE_CAP}")
        return np.linspace(a, b, n)[:, None]
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # deep nesting, long integers
        raise UsageError(f"cannot parse site list: {exc}") from None
    if not isinstance(data, list) or not data:
        raise UsageError("site list must be a nonempty list")
    for item in data:  # a number or a nonempty list of numbers, not JSON true/false
        values = item if isinstance(item, list) else [item]
        if not values or not all(type(v) in (int, float) for v in values):
            raise UsageError(f"bad site entry: {item!r}")
    try:
        return as_sites(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad site list: {exc}") from None


def load_config(path: str) -> list[str]:
    """A config file's key=value lines as --key=value arguments, '_' in a
    key read as '-'; '#' starts a comment; blank lines ignored."""
    out = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config":
            raise UsageError(f"{path}:{lineno}: unknown config key: config")
        out.append(f"--{key.replace('_', '-')}={value}")
    return out


def load_raw_matrix(path: str, size: int) -> np.ndarray:
    """size x size matrix from CSV; rows starting with '#' are skipped.
    ``gram.raw_gram`` symmetrizes it.  Rows are parsed one at a time into
    an array allocated at the first row of ``size`` values; every row is
    parsed, so that a non-numeric value is reported before a wrong row
    length."""
    raw = None
    lengths = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise UsageError(f"raw matrix in {path}: {exc}") from None
            if len(lengths) < size and len(values) == size:
                if raw is None:
                    raw = np.empty((size, size))
                raw[len(lengths)] = values
            lengths.append(len(values))
    if not lengths or any(n != len(lengths) for n in lengths):
        raise UsageError(f"raw matrix in {path} is not square")
    if len(lengths) != size:
        shape = (len(lengths), len(lengths))
        raise UsageError(f"raw matrix shape {shape} != expected {(size, size)}")
    return raw


def _finite_or_null(value):
    """``value`` with every non-finite float in it replaced by None, which
    JSON writes as null (RFC 8259 has no NaN or Infinity)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_finite_or_null(payload), indent=2, allow_nan=False)
    path.write_text(text + "\n")


def _gram_inputs(args):
    """The kernel, the sites and the --raw matrix (None without --raw) of
    gram and verify; the file is read only after ``gram_sites`` has checked
    the kernel and the size cap."""
    kernel = make_kernel(args.kernel)
    sites = parse_sites(args.sites)
    if not args.raw:
        return kernel, sites, None
    sites = gram_mod.gram_sites(kernel, sites)
    return kernel, sites, load_raw_matrix(args.raw, len(sites) * kernel.dim_h)


def cmd_gram(args) -> int:
    kernel, sites, raw = _gram_inputs(args)
    if raw is None:
        g = gram_mod.assemble_gram(kernel, sites)
    else:
        g = gram_mod.raw_gram(kernel, sites, raw)
    report = g.spectrum
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gram_mod.gram_to_csv(g, out / "gram.csv")
    _write_json(out / "spectrum.json", gram_mod.spectrum_to_json_dict(g))
    print(f"gram: n={g.n} d={g.d} psd={report.psd} min_eig={report.min_eig:.3e}")
    return EXIT_OK if report.psd else EXIT_NUMERIC


def cmd_spectrum(args) -> int:
    kernel = make_kernel(args.kernel)
    try:
        counts = [int(c) for c in args.counts.split(",") if c.strip()]
        dom = [float(v) for v in args.domain.split(",")]
    except ValueError as exc:
        raise UsageError(f"--counts/--domain: {exc}") from None
    try:
        gram_mod.check_site_counts(counts)
    except gram_mod.GramError as exc:
        raise UsageError(f"--counts: {exc}") from None
    if len(dom) != 2 or not all(map(math.isfinite, dom)):
        raise UsageError("--domain takes finite 'a,b'")
    reports = gram_mod.spectral_decay_profile(kernel, counts, (dom[0], dom[1]))
    out = Path(args.out)
    for count, report in zip(counts, reports):
        sites = np.linspace(dom[0], dom[1], count)[:, None]
        doc = gram_mod.report_to_json_dict(report, sites, kernel.dim_h)
        _write_json(out / f"spectrum_{count}.json", doc)
    print(f"spectrum: wrote {len(reports)} report(s) to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    kernel, sites, raw = _gram_inputs(args)
    ctx = rkhs_mod.make_context(kernel, sites, raw_data=raw)
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
    ctx = rkhs_mod.make_context(kernel, parse_sites(args.sites))
    batch = gp_mod.sample_paths(ctx, args.count, args.seed)
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
            "z_max": cov.z_max,
            "pass": bool(cov.pass_),
            "per_block_err": cov.per_block_err.tolist(),
            "seed": batch.seed,
            "count": batch.count,
            "jitter_used": ctx.gram.jitter_used,
        },
    )
    print(
        f"sample: N={batch.count} max_err={cov.max_abs_err:.3e} "
        f"tol={cov.mc_tolerance:.3e} z_max={cov.z_max:.2f} pass={cov.pass_}"
    )
    return EXIT_OK if cov.pass_ else EXIT_NUMERIC


def cmd_expand(args) -> int:
    if not (0.0 < args.trunc_tol < 1.0):
        raise UsageError("--trunc-tol must lie in (0, 1)")
    ctx = rkhs_mod.make_context(make_kernel(args.kernel), parse_sites(args.sites))
    C = np.array([el.coeffs for el in rkhs_mod.onb_expansion(ctx, args.trunc_tol)])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "onb.csv", ["# basis", len(C), "n", ctx.n, "d", ctx.d], C)
    # reconstruction error of the induced scalar kernel on grid pairs
    G = ctx.gram.data
    V = G @ C.T
    err = float(np.abs(V @ V.T - G).max())
    _write_json(
        out / "reconstruction.json",
        {
            "basis_size": len(C),
            "trunc_tol": args.trunc_tol,
            "max_error": err,
        },
    )
    print(f"expand: basis={len(C)} reconstruction_error={err:.3e}")
    return EXIT_OK


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="opkern")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--kernel", required=True, help="kernel spec string")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", help="key=value config file; flags win")

    p = sub.add_parser("gram", help="assemble a Gram matrix and certify PSD")
    common(p)
    p.add_argument("--raw", help="CSV file overriding the Gram data")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("spectrum", help="spectral decay across grid sizes")
    common(p)
    p.add_argument("--counts", required=True, help="comma-separated grid sizes")
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
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("expand", help="orthonormal expansion of the Gram")
    common(p)
    p.add_argument("--trunc-tol", type=float, default=1e-12, dest="trunc_tol")
    p.set_defaults(func=cmd_expand)

    for name in ("gram", "verify", "sample", "expand"):  # spectrum makes its grids
        p = sub.choices[name]
        p.add_argument("--sites", required=True, help="grid(a,b,n) or inline JSON list")
    return parser, sub.choices


_parsers = functools.cache(build_parser)
_config_parser = _Parser(add_help=False)
_config_parser.add_argument("--config")


def _parse(argv) -> argparse.Namespace:
    """Parse argv; a --config file's lines go in right after the subcommand
    name, so argparse checks them like flags and the flags that follow win."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    path = _config_parser.parse_known_args(argv)[0].config
    if path is not None and argv[0] in commands:
        argv[1:1] = load_config(path)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one subcommand; every failure becomes an exit code, never a
    traceback.  Floating-point overflow and invalid values raise no numpy
    warnings: the non-finite checks report them."""
    try:
        args = _parse(argv)
        with np.errstate(all="ignore"):
            return args.func(args)
    except SystemExit:  # --help; every argparse error is a UsageError
        return EXIT_OK
    except (UsageError, KernelSpecError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # sizes within the caps can still exhaust memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
