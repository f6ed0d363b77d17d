"""The three benchmark workloads.

A workload is built once from the workload seed (set-up: parse the kernel
specs and generate the sites, the ``separable`` B matrix and the transform
families).  One operation is one pass over its task list.  Each task runs
one library or CLI call chain and returns a check; the runner times the task
and calls the check afterwards, outside the timed region.  A check raises
``CheckFailed`` when an output is wrong.

Kernel specs are parsed in set-up; each operation builds its kernel objects
from the parsed specs, so no per-kernel memo carries over between operations
(a user pays that cost on every run).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import opkern
from opkern import cli, gp, gram, rkhs
from opkern.kernels import make_kernel, parse_kernel_spec

# Absolute max error of the Mercer reconstruction, as the acceptance suite's
# criterion 7 asserts for ``onb_expansion(ctx, 1e-12)``.
ONB_RECON_TOL = 1e-8
ONB_TRUNC_TOL = 1e-12

SCHEMA_DIR = Path(opkern.__file__).parent / "schemas"


class CheckFailed(Exception):
    """An operation's output failed its check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def jittered_grid(rng, n: int, a: float, b: float) -> list[np.ndarray]:
    """n sites in [a, b]: one uniform draw in the middle 80% of each of n
    equal cells, so neighbours are at least 0.2 * (b - a) / n apart."""
    h = (b - a) / n
    xs = a + h * (np.arange(n) + rng.uniform(0.1, 0.9, n))
    return [np.array([x]) for x in xs]


def sites_json(sites) -> str:
    """Inline JSON site list for ``--sites``; floats round-trip exactly."""
    return json.dumps([float(s[0]) for s in sites])


def spd_matrix(rng, d: int) -> np.ndarray:
    """Exactly symmetric, well-conditioned SPD d x d matrix."""
    a = rng.standard_normal((d, d))
    b = a @ a.T / d + 0.5 * np.eye(d)
    return 0.5 * (b + b.T)


def spec_matrix(m: np.ndarray) -> str:
    return "[" + ",".join("[" + ",".join(repr(float(v)) for v in row) + "]" for row in m) + "]"


def orthogonal_mats(rng, n: int, d: int) -> list[np.ndarray]:
    """n seeded orthogonal d x d matrices (QR of Gaussian matrices)."""
    mats = []
    for _ in range(n):
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        mats.append(q * np.sign(np.diag(r)))
    return mats


_validators: dict = {}


def validate_doc(doc: dict, schema: str, label: str) -> dict:
    """Validate ``doc`` against ``src/opkern/schemas/<schema>``."""
    import jsonschema

    validator = _validators.get(schema)
    if validator is None:
        validator = jsonschema.Draft7Validator(
            json.loads((SCHEMA_DIR / schema).read_text())
        )
        _validators[schema] = validator
    error = next(iter(validator.iter_errors(doc)), None)
    require(error is None, f"{label} fails {schema}: {error and error.message}")
    return doc


def validate_json(path: Path, schema: str) -> dict:
    return validate_doc(json.loads(Path(path).read_text()), schema, path.name)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``opkern`` call; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def require_exit(code: int, expected: int, argv: list[str]) -> None:
    require(code == expected, f"opkern {argv[0]} exited {code}, expected {expected}")


# ---------------------------------------------------------------------------
# Shared tasks


def certify(spec, sites):
    """make_context -> factorize -> onb_expansion(1e-12)."""
    ctx = rkhs.make_context(make_kernel(spec), sites)
    gram.factorize(ctx.gram)
    basis = rkhs.onb_expansion(ctx, ONB_TRUNC_TOL)

    def check():
        g = ctx.gram
        require(g.spectrum is not None and g.spectrum.psd, "PSD certificate missing")
        require(
            g.factor is not None and g.factor.shape == (g.size, g.size),
            "no Cholesky factor",
        )
        vals = g.data @ np.column_stack([el.coeffs for el in basis])
        err = float(np.abs(vals @ vals.T - g.data).max())
        require(err <= ONB_RECON_TOL, f"onb reconstruction error {err:.3e}")

    return check


def identities(spec, sites, mats, trials: int, seed: int):
    """verify_identities with a transform family; every identity must pass."""
    ctx = rkhs.make_context(make_kernel(spec), sites)
    fam = rkhs.TransformFamily(ctx, mats)
    report = rkhs.verify_identities(ctx, fam, trials=trials, seed=seed)

    def check():
        failing = [n for n, r in report.results.items() if not r["pass"]]
        require(not failing, f"identities failing: {failing}")
        validate_doc(report.to_json_dict(), "identities.json", "identity report")

    return check


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Base: ``sizes`` picks FULL or SMOKE; subclasses define ``tasks``."""

    name = ""
    # The layer whose self time should dominate a traced operation, if stated.
    dominant = None
    FULL: dict = {}
    SMOKE: dict = {}

    def __init__(self, seed: int, smoke: bool, out: Path):
        self.seed = seed
        self.sizes = self.SMOKE if smoke else self.FULL
        self.out = out
        self.rng = np.random.default_rng(seed)

    def tasks(self) -> list:
        """[(task name, callable returning a check)] for one operation."""
        raise NotImplementedError


class PythonBound(Workload):
    """Large Grams of scalar and 3x3 blocks, then many small calls: the time
    goes to per-pair ``OperatorKernel.eval`` in Python, per-trial Python,
    argparse, JSON and CSV."""

    name = "python_bound"
    dominant = "kernels"
    FULL = dict(gauss_n=200, diag_n=80, counts="12,25,50,100",
                norm_n=60, norm_trials=25, id_diag_n=40, id_diag_trials=25,
                gram_n=100, verify_n=30, verify_trials=20, expand_n=100)
    SMOKE = dict(gauss_n=24, diag_n=12, counts="6,12",
                 norm_n=5, norm_trials=10, id_diag_n=4, id_diag_trials=10,
                 gram_n=5, verify_n=4, verify_trials=5, expand_n=6)
    GAUSS = "gauss(sigma=1,ell=0.5,dim=1)"
    NORMALIZED = "normalized(inner=gauss(sigma=2,ell=1,dim=2))"

    def __init__(self, seed, smoke, out):
        super().__init__(seed, smoke, out)
        s, rng = self.sizes, self.rng
        self.gauss = (parse_kernel_spec(self.GAUSS), jittered_grid(rng, s["gauss_n"], 0.0, 8.0))
        self.diag = (parse_kernel_spec("diagexp3"), jittered_grid(rng, s["diag_n"], 0.0, 8.0))
        self.counts = [int(c) for c in s["counts"].split(",")]
        self.spectrum_argv = [
            "spectrum", "--kernel", self.GAUSS, "--counts", s["counts"],
            "--domain", "0,8", "--out", str(out / "spectrum"),
        ]
        self.norm = (
            parse_kernel_spec(self.NORMALIZED),
            jittered_grid(rng, s["norm_n"], 0.0, 12.0),
            orthogonal_mats(rng, s["norm_n"], 2),
        )
        self.id_diag = (
            parse_kernel_spec("diagexp3"),
            jittered_grid(rng, s["id_diag_n"], 0.0, 8.0),
            orthogonal_mats(rng, s["id_diag_n"], 3),
        )
        self.verify_sites = sites_json(jittered_grid(rng, s["verify_n"], 0.0, 6.0))
        self.expand_sites = sites_json(jittered_grid(rng, s["expand_n"], 0.0, 10.0))

    def spectrum(self):
        argv = self.spectrum_argv
        code, _ = run_cli(argv)

        def check():
            require_exit(code, 0, argv)
            for c in self.counts:
                doc = validate_json(self.out / "spectrum" / f"spectrum_{c}.json", "spectrum.json")
                require(doc["psd"] and doc["n"] == c,
                        f"spectrum_{c}.json: psd={doc['psd']} n={doc['n']}")

        return check

    def cli_gram(self, kernel: str, sites: str, expected: int, n: int, d: int):
        out = self.out / f"gram_{kernel}"
        argv = ["gram", "--kernel", kernel, "--sites", sites, "--out", str(out)]
        code, stdout = run_cli(argv)

        def check():
            require_exit(code, expected, argv)
            doc = validate_json(out / "spectrum.json", "spectrum.json")
            psd = expected == 0
            require(doc["psd"] == psd and f"psd={psd}" in stdout,
                    f"gram {kernel}: psd={doc['psd']}")
            with open(out / "gram.csv", newline="") as fh:
                rows = sum(1 for _ in fh)
            require(rows == 1 + n * d, f"gram.csv has {rows} rows")

        return check

    def cli_verify(self):
        out = self.out / "verify"
        argv = [
            "verify", "--kernel", "normalized(inner=gauss(sigma=2,ell=1,dim=1))",
            "--sites", self.verify_sites, "--trials", str(self.sizes["verify_trials"]),
            "--seed", str(self.seed), "--out", str(out),
        ]
        code, _ = run_cli(argv)

        def check():
            require_exit(code, 0, argv)
            doc = validate_json(out / "identities.json", "identities.json")
            require(all(r["pass"] for r in doc.values()), "CLI verify: identity failing")

        return check

    def cli_expand(self):
        out = self.out / "expand"
        argv = [
            "expand", "--kernel", "gauss(sigma=1,ell=1,dim=1)",
            "--sites", self.expand_sites, "--out", str(out),
        ]
        code, _ = run_cli(argv)

        def check():
            require_exit(code, 0, argv)
            doc = validate_json(out / "reconstruction.json", "reconstruction.json")
            require(doc["max_error"] <= ONB_RECON_TOL, f"expand error {doc['max_error']:.3e}")

        return check

    def tasks(self):
        s = self.sizes
        return [
            ("certify_gauss", lambda: certify(*self.gauss)),
            ("certify_diagexp3", lambda: certify(*self.diag)),
            ("cli_spectrum", self.spectrum),
            ("identities_normalized",
             lambda: identities(*self.norm, trials=s["norm_trials"], seed=self.seed)),
            ("identities_diagexp3",
             lambda: identities(*self.id_diag, trials=s["id_diag_trials"], seed=self.seed)),
            ("cli_gram_diagexp3",
             lambda: self.cli_gram("diagexp3", f"grid(0,4,{s['gram_n']})", 0, s["gram_n"], 3)),
            ("cli_verify", self.cli_verify),
            ("cli_expand", self.cli_expand),
            ("cli_gram_rational2",
             lambda: self.cli_gram("rational2", "grid(0,3,40)", 2, 40, 2)),
        ]


class WideBlocks(Workload):
    name = "wide_blocks"
    dominant = "linalg"
    FULL = dict(n=130, d=8)
    SMOKE = dict(n=6, d=8)

    def __init__(self, seed, smoke, out):
        super().__init__(seed, smoke, out)
        n, d = self.sizes["n"], self.sizes["d"]
        b = spec_matrix(spd_matrix(self.rng, d))
        self.separable = (
            parse_kernel_spec(f"separable(B={b},base=gauss(sigma=1,ell=1))"),
            jittered_grid(self.rng, n, 0.0, 25.0),
        )
        self.gauss = (
            parse_kernel_spec(f"gauss(sigma=1,ell=1,dim={d})"),
            jittered_grid(self.rng, n, 0.0, 25.0),
        )

    def tasks(self):
        return [
            ("certify_separable", lambda: certify(*self.separable)),
            ("certify_gauss", lambda: certify(*self.gauss)),
        ]


class GpPaths(Workload):
    name = "gp_paths"
    dominant = "gp"
    FULL = dict(cli_n=10, bin_count=30_000, csv_count=10_000, lib_n=100, lib_count=10_000)
    SMOKE = dict(cli_n=4, bin_count=500, csv_count=200, lib_n=6, lib_count=500)
    KERNEL = "normalized(inner=separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1)))"

    def __init__(self, seed, smoke, out):
        super().__init__(seed, smoke, out)
        s = self.sizes
        self.cli_sites = sites_json(jittered_grid(self.rng, s["cli_n"], 0.0, 5.0))
        self.lib = (parse_kernel_spec(self.KERNEL), jittered_grid(self.rng, s["lib_n"], 0.0, 25.0))
        self.bin_digest = None

    def sample_cli(self, fmt: str, count: int):
        out = self.out / f"sample_{fmt}"
        argv = [
            "sample", "--kernel", self.KERNEL, "--sites", self.cli_sites,
            "-N", str(count), "--format", fmt, "--seed", str(self.seed), "--out", str(out),
        ]
        code, _ = run_cli(argv)
        n = self.sizes["cli_n"]

        def check():
            require_exit(code, 0, argv)
            rep = validate_json(out / "cov_report.json", "cov_report.json")
            require(rep["pass"] and rep["count"] == count and rep["seed"] == self.seed,
                    f"cov_report.json: pass={rep['pass']} count={rep['count']}")
            if fmt == "bin":
                seed, paths = gp.batch_from_binary(out / "batch.bin")
                require(seed == self.seed and paths.shape == (count, n, 2),
                        "binary header mismatch")
                require(bool(np.isfinite(paths).all()), "non-finite path values")
                digest = hashlib.sha256(paths.tobytes()).hexdigest()
                if self.bin_digest is None:
                    self.bin_digest = digest
                require(digest == self.bin_digest,
                        "binary batch differs from the first operation's")
            else:
                with open(out / "batch.csv", newline="") as fh:
                    rows = list(csv.reader(fh))
                require(rows[0][:2] == ["# seed", str(self.seed)], "CSV header mismatch")
                body = np.array(rows[1:], dtype=float)
                require(body.shape == (count, 2 * n) and bool(np.isfinite(body).all()),
                        f"CSV body has shape {body.shape}")

        return check

    def sample_lib(self):
        spec, sites = self.lib
        ctx = rkhs.make_context(make_kernel(spec), sites)
        batch = gp.sample_paths(ctx, self.sizes["lib_count"], seed=self.seed)
        rep = gp.covariance_error_report(batch)

        def check():
            require(rep.pass_, f"covariance error {rep.max_abs_err:.4f} > {rep.mc_tolerance:.4f}")

        return check

    def tasks(self):
        s = self.sizes
        return [
            ("cli_sample_bin", lambda: self.sample_cli("bin", s["bin_count"])),
            ("cli_sample_csv", lambda: self.sample_cli("csv", s["csv_count"])),
            ("sample_paths", self.sample_lib),
        ]


WORKLOADS = {w.name: w for w in (PythonBound, WideBlocks, GpPaths)}
