import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from opkern.cli import main, parse_sites
from opkern.gram import assemble_gram, gram_to_csv
from opkern.kernels import make_kernel


def schema(name):
    text = resources.files("opkern.schemas").joinpath(name).read_text()
    return json.loads(text)


def validate(payload_path, schema_name):
    payload = json.loads(payload_path.read_text())
    jsonschema.validate(payload, schema(schema_name))
    return payload


class TestParseSites:
    def test_grid(self):
        sites = parse_sites("grid(0,1,3)")
        np.testing.assert_allclose(np.concatenate(sites), [0, 0.5, 1])

    def test_inline_scalars(self):
        sites = parse_sites("[0, 0.5, 1]")
        assert len(sites) == 3

    def test_inline_vectors(self):
        sites = parse_sites("[[0,1],[2,3]]")
        assert sites[0].shape == (2,)


class TestGramCommand:
    def test_psd_exit_zero(self, tmp_path):
        code = main(
            [
                "gram",
                "--kernel",
                "diagexp3",
                "--sites",
                "grid(0,1,2)",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "gram.csv").read_text().splitlines()
        assert len(lines) == 7  # header + 6 rows
        payload = validate(tmp_path / "spectrum.json", "spectrum.json")
        assert payload["psd"] is True

    def test_missing_kernel_usage_error(self, tmp_path, capsys):
        code = main(["gram", "--sites", "grid(0,1,2)", "--out", str(tmp_path)])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--format", "csv"], ["--seed", "1"]])
    def test_flags_without_effect_rejected(self, tmp_path, flag):
        args = ["gram", "--kernel", "diagexp3", "--sites", "grid(0,1,2)"]
        assert main(args + flag + ["--out", str(tmp_path)]) == 1

    def test_raw_non_psd_exit_two(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("0.0,1.0\n1.0,0.0\n")
        code = main(
            [
                "gram",
                "--kernel",
                "gauss(sigma=1,ell=1,dim=1)",
                "--sites",
                "grid(0,1,2)",
                "--raw",
                str(raw),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2


class TestSpectrumCommand:
    def test_three_reports(self, tmp_path):
        code = main(
            [
                "spectrum",
                "--kernel",
                "gauss(sigma=1,ell=1,dim=1)",
                "--counts",
                "25,50,100",
                "--domain",
                "0,1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        for count in (25, 50, 100):
            payload = validate(tmp_path / f"spectrum_{count}.json", "spectrum.json")
            ev = payload["eigenvalues"]
            assert all(a >= b for a, b in zip(ev, ev[1:]))

    def test_empty_counts(self, tmp_path):
        code = main(
            [
                "spectrum",
                "--kernel",
                "gauss(sigma=1,ell=1,dim=1)",
                "--counts",
                "",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1

    def test_constant_kernel_effective_rank(self, tmp_path):
        code = main(
            [
                "spectrum",
                "--kernel",
                "gauss(sigma=1,ell=1000000,dim=1)",
                "--counts",
                "5,10",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        for count in (5, 10):
            payload = json.loads((tmp_path / f"spectrum_{count}.json").read_text())
            assert payload["effective_rank"]["1e-06"] == 1


class TestVerifyCommand:
    KERNEL = "normalized(inner=gauss(sigma=2,ell=1,dim=1))"

    def test_pass_exit_zero(self, tmp_path):
        code = main(
            [
                "verify",
                "--kernel",
                self.KERNEL,
                "--sites",
                "grid(0,2,5)",
                "--trials",
                "100",
                "--seed",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        validate(tmp_path / "identities.json", "identities.json")

    def test_corrupted_raw_exit_three(self, tmp_path, capsys):
        # wide site spacing keeps the perturbed Gram PSD, so the failure
        # surfaces in the identity suite rather than the PSD precondition
        g = assemble_gram(make_kernel(self.KERNEL), parse_sites("grid(0,8,5)"))
        corrupted = g.data.copy()
        corrupted[0, 1] += 0.1
        raw = tmp_path / "raw.csv"
        np.savetxt(raw, corrupted, delimiter=",")
        code = main(
            [
                "verify",
                "--kernel",
                self.KERNEL,
                "--sites",
                "grid(0,8,5)",
                "--raw",
                str(raw),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3
        assert "factorization_consistency" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_usage_error(self, tmp_path, seed, capsys):
        args = ["verify", "--kernel", self.KERNEL, "--sites", "grid(0,2,5)", "--trials", "5"]
        assert main(args + ["--seed", seed, "--out", str(tmp_path)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_zero_trials_usage(self, tmp_path):
        code = main(
            [
                "verify",
                "--kernel",
                self.KERNEL,
                "--sites",
                "grid(0,1,3)",
                "--trials",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1


class TestSampleCommand:
    ARGS = [
        "sample",
        "--kernel",
        "gauss(sigma=1,ell=1,dim=1)",
        "--sites",
        "grid(0,1,2)",
        "--count",
        "50000",
        "--seed",
        "0",
    ]

    def test_pass_and_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out", str(out1)]) == 0
        assert main(self.ARGS + ["--out", str(out2)]) == 0
        assert (out1 / "batch.csv").read_bytes() == (out2 / "batch.csv").read_bytes()
        payload = validate(out1 / "cov_report.json", "cov_report.json")
        assert payload["pass"] is True

    def test_tiny_n_reports_failure(self, tmp_path):
        code = main(
            [
                "sample",
                "--kernel",
                "gauss(sigma=1,ell=1,dim=1)",
                "--sites",
                "grid(0,1,2)",
                "--count",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        payload = validate(tmp_path / "cov_report.json", "cov_report.json")
        assert code == (0 if payload["pass"] else 2)
        assert payload["count"] == 2

    def test_binary_format(self, tmp_path):
        code = main(
            [
                "sample",
                "--kernel",
                "diagexp3",
                "--sites",
                "grid(0,1,2)",
                "--count",
                "100",
                "--format",
                "bin",
                "--out",
                str(tmp_path),
            ]
        )
        assert (tmp_path / "batch.bin").read_bytes()[:6] == b"OPKGP2"

    def test_unknown_format_usage_error(self, tmp_path):
        args = self.ARGS + ["--count", "10", "--format", "json", "--out", str(tmp_path)]
        assert main(args) == 1
        assert not (tmp_path / "batch.bin").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5"])
    def test_seed_out_of_range_usage_error(self, tmp_path, seed, capsys):
        args = self.ARGS[:-2] + ["--count", "10", "--seed", seed, "--out", str(tmp_path)]
        assert main(args) == 1
        assert "seed" in capsys.readouterr().err

    def test_largest_seed_accepted(self, tmp_path):
        args = self.ARGS[:-2] + ["--count", "10", "--seed", str(2**64 - 1), "--out", str(tmp_path)]
        main(args)
        payload = validate(tmp_path / "cov_report.json", "cov_report.json")
        assert payload["seed"] == 2**64 - 1


class TestExpandCommand:
    def test_constant_kernel_single_basis(self, tmp_path):
        code = main(
            [
                "expand",
                "--kernel",
                "gauss(sigma=1,ell=1000000,dim=1)",
                "--sites",
                "grid(0,1,3)",
                "--trunc-tol",
                "1e-8",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = validate(tmp_path / "reconstruction.json", "reconstruction.json")
        assert payload["basis_size"] == 1
        assert payload["max_error"] <= 1e-8

    def test_gaussian_reconstruction(self, tmp_path):
        code = main(
            [
                "expand",
                "--kernel",
                "gauss(sigma=1,ell=1,dim=1)",
                "--sites",
                "grid(0,1,10)",
                "--trunc-tol",
                "1e-12",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "reconstruction.json").read_text())
        assert payload["max_error"] <= 1e-8

    def test_bad_trunc_tol(self, tmp_path):
        code = main(
            [
                "expand",
                "--kernel",
                "gauss(sigma=1,ell=1,dim=1)",
                "--sites",
                "grid(0,1,3)",
                "--trunc-tol",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        conf = tmp_path / "job.conf"
        conf.write_text("kernel = diagexp3\nsites = grid(0,1,2)\nout = should_not_be_used\n")
        out = tmp_path / "out"
        code = main(
            ["gram", "--config", str(conf), "--out", str(out)]
        )
        assert code == 0
        assert (out / "gram.csv").exists()
        assert not (tmp_path / "should_not_be_used").exists()


class TestDeterminism:
    def test_gram_outputs_byte_identical(self, tmp_path):
        args = [
            "gram",
            "--kernel",
            "normalized(inner=diagexp3)",
            "--sites",
            "grid(0,2,4)",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert (a / "gram.csv").read_bytes() == (b / "gram.csv").read_bytes()
        assert (a / "spectrum.json").read_bytes() == (b / "spectrum.json").read_bytes()
