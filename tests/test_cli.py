import argparse
import csv
import json
import random
import re
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from opkern import gram as gram_mod
from opkern.cli import UsageError, build_parser, main, parse_sites
from opkern.gram import assemble_gram, gram_to_csv
from opkern.gp import sample_paths
from opkern.kernels import OperatorKernel, make_kernel
from opkern.rkhs import make_context, onb_expansion


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

    @pytest.mark.parametrize(
        "text",
        ["[[0],[1,2]]", "grid(0,1,x)", "grid(a,1,3)", "grid(0,1,2.5)", "grid(0,1,6000)", "[NaN]",
         "[true]", "[false,1]", "[[true,false]]", "[[0,true]]", "[[[true]]]", '[["1"]]'],
    )
    def test_bad_sites_usage_error(self, text):
        with pytest.raises(UsageError):
            parse_sites(text)


    @pytest.mark.parametrize(
        "text, message",
        [
            ("grid(nan,1,3)", "grid ends must be finite"),
            ("grid(0,inf,3)", "grid ends must be finite"),
            ("[[]]", "bad site entry: []"),
            ("[1,[]]", "bad site entry: []"),
            ("[0,true]", "bad site entry: True"),
            ("[[1,false]]", "bad site entry: [1, False]"),
            ("[[[true]]]", "bad site entry: [[True]]"),
        ],
    )
    def test_bad_sites_message(self, text, message):
        with pytest.raises(UsageError) as info:
            parse_sites(text)
        assert str(info.value) == message


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

    @pytest.mark.parametrize("sites", ["grid(0,1,x)", "[[0],[1,2]]"])
    def test_bad_sites_exit_one(self, tmp_path, sites, capsys):
        args = ["gram", "--kernel", "gauss(sigma=1,ell=1)", "--sites", sites]
        assert main(args + ["--out", str(tmp_path)]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_singular_normalized_exit_two(self, tmp_path, capsys):
        kernel = "normalized(inner=separable(B=[[1,0],[0,0]],base=gauss(sigma=1,ell=1)))"
        args = ["gram", "--kernel", kernel, "--sites", "[0,1]", "--out", str(tmp_path)]
        assert main(args) == 2
        assert "not invertible" in capsys.readouterr().err

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

    def test_raw_symmetrized_exactly(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("1.0,0.5,0.1\n0.4,1.0,0.2\n0.1,0.2,1.0\n")
        args = ["gram", "--kernel", "gauss(sigma=1,ell=1)", "--sites", "[0,1,2]"]
        assert main(args + ["--raw", str(raw), "--out", str(tmp_path)]) == 0
        data = np.loadtxt(tmp_path / "gram.csv", delimiter=",", comments="#")
        assert data[0, 1] == 0.45
        assert np.array_equal(data, data.T)

    def test_raw_spectrum_is_the_raw_matrix(self, tmp_path):
        # the kernel's channel Grams must not stand in for the raw matrix
        raw = tmp_path / "raw.csv"
        np.savetxt(raw, np.diag([0.5, 3.0, 1.0, 2.0]), delimiter=",")
        args = ["gram", "--kernel", "gauss(sigma=1,ell=1,dim=2)", "--sites", "[0,1]"]
        assert main(args + ["--raw", str(raw), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert payload["eigenvalues"] == [3.0, 2.0, 1.0, 0.5]

    def test_raw_evaluates_no_kernel(self, tmp_path, monkeypatch):
        # the raw matrix replaces the Gram whole, so no kernel Gram is built
        def fail(S, T):
            raise AssertionError("kernel Gram assembled")

        monkeypatch.setattr(OperatorKernel, "sq_dists", staticmethod(fail))
        raw = tmp_path / "raw.csv"
        np.savetxt(raw, np.eye(4), delimiter=",")
        args = ["gram", "--kernel", "gauss(sigma=1,ell=1,dim=2)", "--sites", "[0,1]"]
        assert main(args + ["--raw", str(raw), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command", ["gram", "verify"])
    def test_raw_wrong_shape_usage_error(self, tmp_path, command, capsys):
        raw = tmp_path / "raw.csv"
        np.savetxt(raw, np.eye(3), delimiter=",")
        args = [command, "--kernel", "gauss(sigma=1,ell=1)", "--sites", "[0,1]"]
        assert main(args + ["--raw", str(raw), "--out", str(tmp_path)]) == 1
        assert "raw matrix shape (3, 3) != expected (2, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gram", "verify"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1.0,0.0\n0.0\n", " is not square"),  # ragged
            ("1.0,0.0,0.0\n0.0,1.0,0.0\n", " is not square"),  # 2 x 3
            ("# header\n1.0,x\n0.0,1.0\n", ": could not convert string to float: 'x'"),
            ("1.0\n0.0,x\n", ": could not convert string to float: 'x'"),  # ragged, then x
            ("", " is not square"),  # no rows
        ],
    )
    def test_raw_malformed_usage_error(self, tmp_path, command, text, message, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(text)
        args = [command, "--kernel", "gauss(sigma=1,ell=1)", "--sites", "[0,1]"]
        assert main(args + ["--raw", str(raw), "--out", str(tmp_path)]) == 1
        assert f"raw matrix in {raw}{message}" in capsys.readouterr().err

    def test_raw_wrong_shape_many_sites(self, tmp_path, capsys, monkeypatch):
        # an over-cap site list is rejected before the raw file is read
        monkeypatch.setattr("opkern.cli.load_raw_matrix", fail_read)
        raw = tmp_path / "raw.csv"
        raw.write_text("1.0,0.0\n0.0,1.0\n")
        sites = json.dumps([0.0] * 100_000)
        args = ["verify", "--kernel", "gauss(sigma=1,ell=1)", "--sites", sites]
        assert main(args + ["--raw", str(raw), "--out", str(tmp_path)]) == 2
        assert "Gram size 100000 exceeds cap 5000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kernel, sites, message",
        [
            ("twospace(M=[[1,2]],base=gauss(sigma=1,ell=1))", "[0,1]",
             "block Gram requires a square kernel"),
            ("gauss(sigma=1,ell=1,dim=8)", "grid(0,1,700)", "Gram size 5600 exceeds cap 5000"),
        ],
    )
    def test_raw_checks_kernel_and_cap_before_reading(
        self, tmp_path, capsys, monkeypatch, kernel, sites, message
    ):
        # gram and verify take one path: the missing file is never opened
        monkeypatch.setattr("opkern.cli.load_raw_matrix", fail_read)
        raw = str(tmp_path / "missing.csv")
        errors = []
        for command in ("gram", "verify"):
            args = [command, "--kernel", kernel, "--sites", sites, "--raw", raw]
            assert main(args + ["--out", str(tmp_path)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: {message}\n"


def fail_read(path, size):
    raise AssertionError("raw matrix read")


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

    def test_each_gram_assembled_once(self, tmp_path, monkeypatch):
        calls = []
        real = gram_mod.assemble_gram
        monkeypatch.setattr(
            gram_mod, "assemble_gram", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        args = ["spectrum", "--kernel", "diagexp3", "--counts", "5,10,20"]
        assert main(args + ["--out", str(tmp_path)]) == 0
        assert len(calls) == 3
        payload = validate(tmp_path / "spectrum_10.json", "spectrum.json")
        assert payload["n"] == 10 and payload["d"] == 3
        assert payload["sites"][-1] == [1.0]

    def test_sites_rejected(self, tmp_path):
        # spectrum makes its own grids: --sites and a sites key are usage errors
        args = ["spectrum", "--kernel", "diagexp3", "--counts", "5", "--out", str(tmp_path)]
        assert main(args + ["--sites", "[7,8,9]"]) == 1
        conf = tmp_path / "job.conf"
        conf.write_text("sites = [7,8,9]\n")
        assert main(args + ["--config", str(conf)]) == 1
        assert not (tmp_path / "spectrum_5.json").exists()

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
        assert payload["z_max"] * payload["mc_tolerance"] >= 4.0 * payload["max_abs_err"] * (1 - 1e-13)

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
        assert (tmp_path / "batch.bin").read_bytes()[:6] == b"OPKGP3"

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

    SAMPLE = ["sample", "--kernel", "gauss(sigma=1,ell=1)", "--sites", "grid(0,1,2)"]

    def test_config_seed_goes_through_its_type(self, tmp_path, capsys):
        conf = tmp_path / "job.conf"
        conf.write_text("seed = -1\n")
        args = ["verify", "--kernel", "diagexp3", "--sites", "grid(0,1,3)", "--trials", "3"]
        assert main(args + ["--config", str(conf), "--out", str(tmp_path)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_config_format_checked(self, tmp_path):
        conf = tmp_path / "job.conf"
        conf.write_text("format = json\n")
        args = self.SAMPLE + ["-N", "10", "--config", str(conf), "--out", str(tmp_path)]
        assert main(args) == 1
        assert not (tmp_path / "batch.bin").exists()

    def test_short_flag_wins_over_config(self, tmp_path):
        conf = tmp_path / "job.conf"
        conf.write_text("count = 7\n")
        args = self.SAMPLE + ["-N", "3000", "--config", str(conf), "--out", str(tmp_path)]
        main(args)
        assert validate(tmp_path / "cov_report.json", "cov_report.json")["count"] == 3000

    @pytest.mark.parametrize("key", ["func", "command", "nonsense"])
    def test_unknown_config_key(self, tmp_path, key):
        conf = tmp_path / "job.conf"
        conf.write_text(f"{key} = 1\n")
        args = self.SAMPLE + ["--config", str(conf), "--out", str(tmp_path)]
        assert main(args) == 1


class TestConfigKeys:
    """Config lines go through argparse as --key=value arguments."""

    EXPAND = ["expand", "--kernel", "gauss(sigma=1,ell=1)", "--sites", "grid(0,1,4)"]

    @pytest.mark.parametrize("key", ["trunc_tol", "trunc-tol"])
    def test_underscore_or_dash(self, tmp_path, key):
        conf = tmp_path / "job.conf"
        conf.write_text(f"{key} = 1e-6\n")
        assert main(self.EXPAND + ["--config", str(conf), "--out", str(tmp_path)]) == 0
        assert validate(tmp_path / "reconstruction.json", "reconstruction.json")["trunc_tol"] == 1e-6

    @pytest.mark.parametrize("key", ["kern", "config", "help", "N"])
    def test_keys_match_exactly(self, tmp_path, capsys, key):
        conf = tmp_path / "job.conf"
        conf.write_text(f"{key} = 1\n")
        assert main(self.EXPAND + ["--config", str(conf), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "onb.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gram", "--sites", "[0,1]"], "the following arguments are required: --kernel"),
            (["expand", "--kernel", "diagexp3"], "the following arguments are required: --sites"),
            (["sample", "--kernel", "diagexp3", "--sites", "[0,1]", "--format", "json"],
             "argument --format: invalid choice: 'json'"),
            (["gram", "--kern", "diagexp3", "--sites", "[0,1]"],
             "the following arguments are required: --kernel"),
            (["nonsense"], "argument command: invalid choice: 'nonsense'"),
        ],
    )
    def test_argparse_errors_are_one_line(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {message}") and err.count("\n") == 1, err


class RecordingNamespace(argparse.Namespace):
    """A namespace that records the names of the attributes read from it
    once ``reads`` is set to a set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


class TestEveryFlagIsRead:
    # one tiny run of each subcommand
    RUNS = {
        "gram": ["--kernel", "diagexp3", "--sites", "grid(0,1,3)"],
        "spectrum": ["--kernel", "diagexp3", "--counts", "3,5"],
        "verify": ["--kernel", "diagexp3", "--sites", "grid(0,1,3)", "--trials", "2"],
        "sample": ["--kernel", "gauss(sigma=1,ell=1)", "--sites", "grid(0,1,2)", "-N", "50"],
        "expand": ["--kernel", "gauss(sigma=1,ell=1)", "--sites", "grid(0,1,4)"],
    }

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_command_reads_every_option(self, tmp_path, command):
        # an option the command never reads is a flag without effect
        parser, commands = build_parser()
        assert set(commands) == set(self.RUNS)
        argv = [command, *self.RUNS[command], "--out", str(tmp_path)]
        args = parser.parse_args(argv, namespace=RecordingNamespace())
        dests = set(vars(args)) - {"command", "func", "config"}
        args.reads = set()
        assert args.func(args) == 0
        assert dests - args.reads == set()


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


def reference_csv(path, header, rows):
    """csv.writer for the header, then each value as repr(float(v)): the
    CSV the writers produced before export was vectorised."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return path.read_bytes()


class TestCsvExports:
    """gram.csv, batch.csv and onb.csv are byte-equal to the reference
    writer applied to the same arrays, headers included."""

    CASES = [
        ("normalized(inner=separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1)))", "grid(0,3,9)"),
        ("diagexp3", "grid(0,54,3)"),  # exp(-27^2) is subnormal, exp(-54^2) is 0.0
    ]

    @pytest.mark.parametrize("kernel, sites", CASES)
    def test_gram_csv(self, tmp_path, kernel, sites):
        assert main(["gram", "--kernel", kernel, "--sites", sites, "--out", str(tmp_path)]) == 0
        g = assemble_gram(make_kernel(kernel), parse_sites(sites))
        sites_repr = ";".join(",".join(repr(float(v)) for v in s) for s in g.sites)
        header = ["# n", g.n, "d", g.d, "sites", sites_repr]
        expected = reference_csv(tmp_path / "ref.csv", header, g.data)
        assert (tmp_path / "gram.csv").read_bytes() == expected

    @pytest.mark.parametrize("kernel, sites", CASES)
    def test_batch_csv(self, tmp_path, kernel, sites):
        args = ["sample", "--kernel", kernel, "--sites", sites, "-N", "40",
                "--seed", "5", "--format", "csv", "--out", str(tmp_path)]
        main(args)
        ctx = make_context(make_kernel(kernel), parse_sites(sites))
        batch = sample_paths(ctx, 40, 5)
        header = ["# seed", 5, "count", 40, "context", ctx.context_hash()]
        expected = reference_csv(tmp_path / "ref.csv", header, batch.paths.reshape(40, -1))
        assert (tmp_path / "batch.csv").read_bytes() == expected

    @pytest.mark.parametrize("kernel, sites", CASES)
    def test_onb_csv(self, tmp_path, kernel, sites):
        assert main(["expand", "--kernel", kernel, "--sites", sites, "--out", str(tmp_path)]) == 0
        ctx = make_context(make_kernel(kernel), parse_sites(sites))
        C = np.array([el.coeffs for el in onb_expansion(ctx, 1e-12)])
        header = ["# basis", len(C), "n", ctx.n, "d", ctx.d]
        expected = reference_csv(tmp_path / "ref.csv", header, C)
        assert (tmp_path / "onb.csv").read_bytes() == expected


class TestNoTraceback:
    """Inputs that once ended in a traceback end in exit 1 or 2 with a
    one-line message."""

    def run(self, tmp_path, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert not caught, [str(w.message) for w in caught]
        return code, err

    @pytest.mark.parametrize(
        "kernel",
        [
            "gauss(sigma=diagexp3,ell=1)",
            "gauss(sigma=[[1]],ell=1)",
            "separable(B=[[1]],base=1)",
            "normalized(inner=2)",
            "twospace(M=[[1]],base=[[2]])",
            "normalized(inner=" * 2000 + "diagexp3" + ")" * 2000,
            "gauss(sigma=1e200,ell=1)",
            "gauss(sigma=1e400,ell=1)",
            "gauss(sigma=1,ell=1e200)",
            "gauss(sigma=" + "-" * 5000 + "1,ell=1)",
            "gauss(sigma=" + "-" * 100_000 + "1,ell=1)",
            "gauss(sigma=1" + "0" * 400 + ",ell=1)",
            "gauss(sigma=1\x00,ell=1)",
            "gauss(sigma=1" + "0" * 4400 + ",ell=1)",
        ],
        ids=lambda t: t[:40],
    )
    def test_bad_kernel_spec_exit_one(self, tmp_path, capsys, kernel):
        argv = ["gram", "--kernel", kernel, "--sites", "[0,1]"]
        code, err = self.run(tmp_path, capsys, argv)
        assert code == 1 and err.startswith("usage error: ")

    @pytest.mark.parametrize(
        "sites",
        [
            "[" * 5000 + "]" * 5000,  # RecursionError in json.loads
            "[" + "1" * 5000 + "]",  # past the int digit limit
            "[1" + "0" * 400 + "]",  # overflows a float
        ],
        ids=["deep", "digits", "overflow"],
    )
    def test_bad_site_list_exit_one(self, tmp_path, capsys, sites):
        argv = ["gram", "--kernel", "diagexp3", "--sites", sites]
        code, err = self.run(tmp_path, capsys, argv)
        assert code == 1 and err.startswith("usage error: ")

    @pytest.mark.parametrize(
        "kernel, sites",
        [
            ("separable(B=[[1e300]],base=gauss(sigma=1e150,ell=1))", "[0,1]"),
            ("separable(B=[[1e308]],base=gauss(sigma=1,ell=1))", "[0,1]"),
            ("gauss(sigma=1e154,ell=1)", "grid(0,1,5)"),
            ("separable(B=[[1e200,0],[0,1e200]],base=gauss(sigma=1e60,ell=1))", "grid(0,1,5)"),
        ],
        ids=lambda t: t[:40],
    )
    def test_overflowing_gram_exit_two(self, tmp_path, capsys, kernel, sites):
        code, err = self.run(tmp_path, capsys, ["gram", "--kernel", kernel, "--sites", sites])
        # a one-channel G is its own finite channel: the sum of its
        # eigenvalues overflows
        message = {"gauss(sigma=1e154,ell=1)": "Gram spectrum overflows"}.get(
            kernel, "matrix has non-finite entries")
        assert (code, err) == (2, f"error: {message}\n")

    HUGE = ["--kernel", "gauss(sigma=1e100,ell=1)", "--sites", "[0,1]"]

    def test_overflowing_suite_exit_three(self, tmp_path, capsys):
        # the G-inner products of frame projections overflow: a NaN
        # residual fails, with only the table and the failing line on stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify", *self.HUGE, "--trials", "3", "--out", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3 and not caught
        payload = validate(tmp_path / "identities.json", "identities.json")
        assert err[1:-1] == [line for line in err[1:-1] if line.split()[0] in payload]
        assert len(err) == 2 + len(payload)
        assert err[-1] == "failing identities: norm_bound"

    def test_huge_kernel_sample_has_finite_tolerance(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            main(["sample", *self.HUGE, "-N", "10", "--out", str(tmp_path)])
        assert not caught and capsys.readouterr().err == ""
        payload = validate(tmp_path / "cov_report.json", "cov_report.json")
        assert 0.0 < payload["mc_tolerance"] < float("inf")

    def test_sample_out_of_memory_exit_two(self, tmp_path, capsys, monkeypatch):
        def exhaust(ctx, count, seed):
            raise MemoryError(f"Unable to allocate {count * ctx.size * 8} bytes")

        monkeypatch.setattr("opkern.gp.sample_paths", exhaust)
        argv = ["sample", "--kernel", "diagexp3", "--sites", "[0,1]", "-N", "100000000000"]
        code, err = self.run(tmp_path, capsys, argv)
        assert (code, err) == (2, "error: out of memory: Unable to allocate 4800000000000 bytes\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gram", "--sites", "[0,1]"],
            ["verify", "--sites", "[0,1]"],
            ["sample", "--sites", "[0,1]"],
            ["expand", "--sites", "[0,1]"],
            ["spectrum", "--counts", "3,5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_square_twospace_exit_two(self, tmp_path, capsys, argv):
        # M = [[1,2],[3,4]] once counted as square and ended in an AttributeError
        kernel = ["--kernel", "twospace(M=[[1,2],[3,4]],base=gauss(sigma=1,ell=1))"]
        code, err = self.run(tmp_path, capsys, argv[:1] + kernel + argv[1:])
        assert (code, err) == (2, "error: block Gram requires a square kernel\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "counts, message",
        [
            ("0", "site counts must be positive"),
            ("-2", "site counts must be positive"),
            ("5,3", "site_counts must be increasing"),
            ("3,3", "site_counts must be increasing"),
            ("2,5,5", "site_counts must be increasing"),
        ],
    )
    def test_bad_counts_exit_one(self, tmp_path, capsys, counts, message):
        argv = ["spectrum", "--kernel", "diagexp3", "--counts", counts]
        code, err = self.run(tmp_path, capsys, argv)
        assert (code, err) == (1, f"usage error: --counts: {message}\n")
        assert not list(tmp_path.iterdir())

    def test_counts_over_cap_exit_two(self, tmp_path, capsys):
        argv = ["spectrum", "--kernel", "diagexp3", "--counts", "5,2000"]
        code, err = self.run(tmp_path, capsys, argv)
        assert (code, err) == (2, "error: Gram size exceeds cap 5000\n")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_count_exit_one(self, tmp_path, capsys, count):
        argv = ["sample", "--kernel", "diagexp3", "--sites", "[0,1]", "-N", count]
        code, err = self.run(tmp_path, capsys, argv)
        assert (code, err) == (1, "usage error: --count must be >= 1\n")
        assert not (tmp_path / "cov_report.json").exists()

    @pytest.mark.parametrize(
        "domain, message",
        [
            ("0,x", "--counts/--domain: could not convert string to float: 'x'"),
            ("a,b", "--counts/--domain: could not convert string to float: 'a'"),
            ("0,inf", "--domain takes finite 'a,b'"),
            ("nan,1", "--domain takes finite 'a,b'"),
            ("1", "--domain takes finite 'a,b'"),
        ],
    )
    def test_bad_domain_exit_one(self, tmp_path, capsys, domain, message):
        argv = ["spectrum", "--kernel", "diagexp3", "--counts", "3", "--domain", domain]
        code, err = self.run(tmp_path, capsys, argv)
        assert (code, err) == (1, f"usage error: {message}\n")
        assert not (tmp_path / "spectrum_3.json").exists()

    def test_config_line_without_equals_exit_one(self, tmp_path, capsys):
        conf = tmp_path / "job.conf"
        conf.write_text("# a comment\nkernel = diagexp3\nsites grid(0,1,2)\n")
        code, err = self.run(tmp_path, capsys, ["gram", "--config", str(conf)])
        assert (code, err) == (1, f"usage error: {conf}:3: expected key=value\n")
        assert not (tmp_path / "gram.csv").exists()

    def test_overflowing_spectrum_exit_two(self, tmp_path, capsys):
        argv = ["gram", "--kernel", "gauss(sigma=9e153,ell=1)", "--sites", "[0,0.5,1]"]
        code, err = self.run(tmp_path, capsys, argv)
        assert (code, err) == (2, "error: Gram spectrum overflows\n")


def strict_json(path):
    """A JSON file parsed as RFC 8259 JSON: NaN and Infinity are refused."""

    def refuse(name):
        raise ValueError(f"{path.name}: {name} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestJsonOutputs:
    """Non-finite floats are written as null; every output is valid JSON."""

    def test_nan_residual_written_as_null(self, tmp_path, capsys):
        argv = ["verify", "--kernel", "gauss(sigma=1e100,ell=1)", "--sites", "[0,1]",
                "--trials", "3", "--out", str(tmp_path)]
        assert main(argv) == 3
        payload = strict_json(tmp_path / "identities.json")
        jsonschema.validate(payload, schema("identities.json"))
        assert payload["norm_bound"] == {"max_residual": None, "tolerance": 1e-10, "pass": False}

    def test_infinite_error_written_as_null(self, tmp_path, capsys):
        argv = ["sample", "--kernel", "gauss(sigma=9e153,ell=1)", "--sites", "[0,0.5]",
                "-N", "1", "--out", str(tmp_path)]
        assert main(argv) == 2
        payload = strict_json(tmp_path / "cov_report.json")
        jsonschema.validate(payload, schema("cov_report.json"))
        assert payload["max_abs_err"] is None and payload["mc_tolerance"] is None
        assert payload["z_max"] is None
        assert payload["pass"] is False and None in sum(payload["per_block_err"], [])

    def test_sample_summary_is_short(self, tmp_path, capsys):
        argv = ["sample", "--kernel", "gauss(sigma=1e100,ell=1)", "--sites", "[0,1]",
                "-N", "10", "--out", str(tmp_path)]
        main(argv)
        line = capsys.readouterr().out
        assert re.fullmatch(
            r"sample: N=10 max_err=\d\.\d{3}e\+\d{3} tol=\d\.\d{3}e\+\d{3} z_max=\d+\.\d{2} pass=(True|False)\n",
            line,
        ), line
        assert len(line) <= 80
        # the z_max of cov_report.json
        assert f"z_max={strict_json(tmp_path / 'cov_report.json')['z_max']:.2f} " in line


class TestFuzz:
    """main returns an exit code in 0-3 and never raises, whatever spec and
    site texts it gets.  The texts are seeded mutations of valid ones.  The
    size cap is lowered to 60 for the run so that every Gram a mutation asks
    for stays tiny (a grid's n is capped by it too); the cap check itself is
    exercised, not bypassed."""

    SPECS = [
        "gauss(sigma=1,ell=0.5,dim=2)",
        "diagexp3",
        "rational2",
        "separable(B=[[2,1],[1,2]],base=gauss(sigma=1,ell=1))",
        "normalized(inner=separable(B=[[2,1],[1,3]],base=gauss(sigma=1,ell=0.8)))",
        "twospace(M=[[1,2,3],[4,5,6]],base=gauss(sigma=1.5,ell=0.7))",
    ]
    SITES = ["grid(0,1,3)", "[0,0.5,1]", "[[0,1],[2,3]]", "[1e-3,2.5e0]"]
    # fragments spliced in: wrong types, out-of-range numbers, deep nesting
    TOKENS = [
        "(", ")", "[", "]", ",", "=", "-", "+", "e", ".", "0", "9", " ", "\n", "\x00",
        "1e200", "1e400", "1" + "0" * 400, "[[1]]", "[1,2]", "diagexp3", "True",
        "'x'", "1j", "*x", "**x", "sigma=1", "inner=", "(" * 300, "[" * 3000, "-" * 3000,
    ]
    RUNS = {
        "gram": [],
        "verify": ["--trials", "2"],
        "sample": ["-N", "20", "--format", "bin"],
        "expand": [],
    }

    @staticmethod
    def mutate(rng, text):
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            j = min(len(text), i + rng.randint(0, 8))
            op = rng.randrange(4)
            words = list(re.finditer(r"[\w.+-]+|\[[^=]*?\]\]?", text))
            if op == 0 and words:  # replace a name, number or matrix by a fragment
                i, j = rng.choice(words).span()
                op = 1
            if op == 1:  # replace text[i:j] by a fragment
                text = text[:i] + rng.choice(TestFuzz.TOKENS) + text[j:]
            elif op == 2:  # repeat it
                text = text[:i] + text[i:j] * rng.randint(2, 4) + text[j:]
            else:  # move it
                piece, rest = text[i:j], text[:i] + text[j:]
                k = rng.randrange(len(rest) + 1)
                text = rest[:k] + piece + rest[k:]
        return text

    def test_main_never_raises(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(gram_mod, "DEFAULT_SIZE_CAP", 60)
        rng = random.Random(20261019)
        codes = []
        for trial in range(800):
            spec = rng.choice(self.SPECS)
            sites = rng.choice(self.SITES)
            if trial % 3 != 1:
                spec = self.mutate(rng, spec)
            if trial % 3 != 0:
                sites = self.mutate(rng, sites)
            command = rng.choice(sorted(self.RUNS))
            argv = [command, "--kernel", spec, "--sites", sites, *self.RUNS[command]]
            code = main(argv + ["--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (argv, code)
            # one line, argparse's messages included (a spec text led by '-')
            assert code in (0, 3) or err.count("\n") == 1, err
            codes.append(code)
        assert {0, 1, 2} <= set(codes)
