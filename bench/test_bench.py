"""Tests of the benchmark itself: ``python3 -m pytest bench``.

The smoke size runs every workload's op list at small sizes, with the same
checks and failure accounting as a full run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workload  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "trials_per_s", "fail_ratio", "peak_rss_mb")


@pytest.mark.parametrize("seed", [workload.DEFAULT_SEED, 7])
@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_smoke_passes_every_check(name, seed):
    result = workload.measure(name, seed, 0, trace=False, size_name="smoke")
    assert result["wrong"] == 0, result["failures"]
    expected_failures = result["passes"] if name == "scenarios" else 0  # three-box-quantum --json crashes
    assert result["failed"] == expected_failures, result["failures"]
    assert set(result["metrics"]) == set(END_TO_END) - {"setup_s"}


def test_traced_smoke_shows_which_layers_each_workload_uses():
    layers = {
        name: {k: m["value"] for k, m in workload.measure(name, 3, 0, trace=True, size_name="smoke")["metrics"].items()}
        for name in workload.WORKLOADS
    }
    assert all(set(values) == set(PER_LAYER) for values in layers.values())
    assert layers["exact-deep"]["rng.words"] == 0 and layers["exact-deep"]["montecarlo.runs"] == 0
    assert layers["simulate"]["exact.tree_nodes"] == 0
    assert layers["simulate"]["montecarlo.trials"] == workload.SIZES["smoke"]["simulate_trials"]
    assert layers["scenarios"]["exact.enumerations_per_experiment"] == 27 / 5
    assert layers["exact-deep"]["exact.enumerations_per_experiment"] == 1.5  # tree ops enumerate twice
    again = {k: m["value"] for k, m in workload.measure("simulate", 3, 0, trace=True, size_name="smoke")["metrics"].items()}
    for name in ("exact.tree_nodes", "rng.words", "montecarlo.trials", "montecarlo.accepted"):
        assert again[name] == layers["simulate"][name]


def test_a_wrong_answer_is_counted():
    expected = json.loads(workload.EXPECTED.read_text())
    expected["exact"]["Suit?S-Face-d2"]["retrodiction"] = "1/2"
    ops = workload.build_ops("exact-deep", 1, workload.SIZES["smoke"], expected, None)
    from threebox import cli

    results = [workload.run_op(op, cli, None) for op in ops]
    assert [r.label for r in results if r.wrong] == ["exact Suit?S-Face-d2 query"]


def test_op_times_are_scaled_by_the_reference_loop():
    import reference
    from threebox import cli

    expected = json.loads(workload.EXPECTED.read_text())
    ops = workload.build_ops("exact-deep", 1, workload.SIZES["smoke"], expected, None)
    assert all(r.scaled > 0 for r in workload.run_pass(ops, cli, None))
    assert reference.scale(0.5, reference.REFERENCE_S, reference.REFERENCE_S) == 0.5
    assert reference.scale(0.5, 2 * reference.REFERENCE_S, 2 * reference.REFERENCE_S) == 0.25


def test_tail_has_ten_samples_beyond_it():
    assert workload.tail([float(i) for i in range(100)]) == (89.0, "p90.0 of n=100, 10 samples beyond")
    assert workload.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_declared_metrics_are_measured():
    assert {m["name"] for m in DECLARED["end_to_end"]} <= set(END_TO_END)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(PER_LAYER)
    assert all(m["unit"] == PER_LAYER[m["name"]][0] for m in DECLARED["per_layer"])


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=root, capture_output=True, text=True, timeout=120
    )


def test_command_prints_the_result_line_last():
    done = run_bench(ROOT, "--workload", "scenarios", "--seed", "1", "--seconds", "0", "--trace", "0", "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 5 and result["failed"] == 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"]
    }
    for name in END_TO_END:
        assert name in done.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--workload", "simulate", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
