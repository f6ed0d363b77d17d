#!/usr/bin/env python3
"""Self-test of the benchmark at smoke sizes; finishes in under a minute.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the result line
carries every metric that ``BENCHMARK.json`` names, with its unit, and that
the text lines print each of them with its unit.  For traced runs it checks
that spans nest (a child lies inside its parent, in the same operation) with
self time >= 0, and that no patched function is left behind.  Last, it
checks that the benchmark exits non-zero, printing no result, in a copy of
the benchmark without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (after the path insert)

# Per-layer metrics each workload must move even at smoke sizes.  Some are
# reached only through a by-name import: ``gram.factorize`` on gp_paths via
# ``gp.factorize``, ``gram.assemble_gram`` on wide_blocks via
# ``rkhs.assemble_gram``.
NONZERO = {
    "python_bound": ("kernels.eval.calls", "gram.spectral_decay_profile.s",
                     "cli.spectrum.s", "gram.factorize.rungs", "linalg.full_decomp.calls",
                     "rkhs.verify_identities.trials_per_s", "rkhs.evaluate_element.calls",
                     "gram.gram_to_csv.bytes", "cli.gram.s", "cli.verify.s",
                     "cli.expand.s", "cli.self_s"),
    "wide_blocks": ("gram.assemble_gram.calls", "gram.factorize.calls",
                    "linalg.full_decomp.calls", "rkhs.onb_expansion.s"),
    "gp_paths": ("gp.sample_paths.paths_per_s", "gram.factorize.calls",
                 "gp.export.bytes", "cli.sample.s"),
}


def run_main(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


def check_result(lines: list[str], expected: dict, nonzero, label: str) -> list[str]:
    problems = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(expected))} differ")
    text = lines[:-1]
    for name in nonzero:
        if not metrics.get(name, {}).get("value"):
            problems.append(f"{label}: {name} is 0")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        value = m.get("value")
        number = isinstance(value, (int, float)) and math.isfinite(value)
        if m.get("unit") != unit or not number:
            problems.append(f"{label}: {name} = {m}, expected a number in {unit}")
        if not any(f" {name} " in line and f" {unit}" in line for line in text):
            problems.append(f"{label}: no text line prints {name} with {unit}")
    return problems


def check_spans(path: Path, label: str) -> list[str]:
    spans = {s["id"]: s for s in json.loads(path.read_text())}
    problems = []
    covered = {i: 0.0 for i in spans}
    for s in spans.values():
        if s["parent"] is None:
            if not s["name"].startswith("task."):
                problems.append(f"{label}: span {s['name']} has no parent")
            continue
        p = spans.get(s["parent"])
        inside = p is not None and p["start"] <= s["start"] <= s["end"] <= p["end"]
        if not inside or p["op"] != s["op"]:
            problems.append(f"{label}: span {s['name']} not nested in its parent")
            continue
        covered[p["id"]] += s["end"] - s["start"]
    for s in spans.values():
        own = s["end"] - s["start"] - covered[s["id"]] - s["eval_s"]
        if own < -1e-9:
            problems.append(f"{label}: span {s['name']} has self time {own:.3e}")
    if not any(s["name"].startswith("linalg.") for s in spans.values()):
        problems.append(f"{label}: no linalg span recorded")
    return problems


def check_without_program() -> list[str]:
    """The benchmark alone (no src/) must exit non-zero without a result."""
    bare = run.OUT_ROOT / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "python_bound",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/: exit {proc.returncode}, stdout {proc.stdout.strip()[:80]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    run.import_program()
    import spans

    before = spans.bindings()
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{name} trace={trace}"
            code, lines = run_main(["--workload", name, "--seed", "3", "--seconds", "0.3",
                                    "--trace", str(trace), "--smoke"])
            if code != 0:
                problems.append(f"{label}: exit {code}")
                continue
            nonzero = NONZERO[name] if trace else ()
            problems += check_result(lines, expected, nonzero, label)
            if trace:
                problems += check_spans(run.OUT_ROOT / name / "spans.json", label)
            after = spans.bindings()
            left = [k for k in before if after.get(k) is not before[k]]
            if left or set(after) != set(before):
                problems.append(f"{label}: bindings changed after the run: {left}")
            print(f"selftest: {label} done", file=sys.stderr)
    problems += check_without_program()
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
