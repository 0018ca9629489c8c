"""Smoke test of the benchmark: every workload at its tiny size, the traced
run's metric names, a corrupted output counted as a failure, and a clean
refusal when the program's sources are missing."""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import harness
import inputs

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(workload, trace=False, main=None):
    return harness.run_workload(workload, seed=3, seconds=0.05, trace=trace, tiny=True,
                                main=main)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_workload_is_correct_and_reports_every_metric(workload):
    result, detail = _tiny(workload)
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and detail["error_rate"] == 0.0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result, detail = _tiny("decompose", trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["cli.main.calls"]["value"] == detail["invocations_per_pass"]
    assert metrics["extremality.decompose_extremal.calls"]["value"] == 1
    assert metrics["extremality.terms_per_test"]["value"] > 0


def test_corrupted_birkhoff_output_counts_in_error_rate():
    cli = harness.load_cli()

    def swap_first_permutation(argv):
        if argv[0] != "birkhoff":
            return cli.main(argv)
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        terms = json.loads(out.getvalue())
        perm = terms[0]["permutation"]
        perm[0], perm[1] = perm[1], perm[0]
        print(json.dumps(terms))
        return code

    result, detail = _tiny("decompose", main=swap_first_permutation)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert detail["error_rate"] == result["failed"] / result["attempted"]
    assert all(p.startswith("birkhoff") for p in detail["problems"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(harness.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "decompose", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
