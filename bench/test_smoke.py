"""Smoke test of the benchmark at tiny sizes; not part of the main suite.

    python3 -m pytest bench/test_smoke.py

Each run is a fresh `bench/run.py` process, as the benchmark is meant to
be run. The pinned counts are exact: a change that moves one has changed
how much work an operation does, not only how fast it runs.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ("dictionary-scan", "session-mix", "replay-audit")
TINY = ["--seconds", "0.2", "--words", "300"]
SEED = 7


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, attempt: int = 0) -> tuple[dict, dict]:
    """(report, result) of one run; `attempt` tells repeated runs apart."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--trace", str(trace), *TINY]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    report, result = done.stdout.strip().split("\n")[-2:]
    return json.loads(report), json.loads(result)


def check_result(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in specs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_and_no_operation_failed(workload):
    report, result = bench(workload, 0)
    check_result(result, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert report["metrics"]["failed_frac"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    report, result = bench(workload, 1)
    check_result(result, SPEC["per_layer"])
    assert set(result["metrics"]) <= set(report["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprint_repeats_for_the_same_seed(workload):
    first, _ = bench(workload, 0)
    second, _ = bench(workload, 0, attempt=1)
    traced, _ = bench(workload, 1)
    assert len(first["fingerprint"]) == 64
    assert first["fingerprint"] == second["fingerprint"] == traced["fingerprint"]


COUNT_NAMES = (
    "blocks.xor.calls_per_op", "blocks.digest.calls_per_op", "blocks.encode.calls_per_op",
    "scheme.enroll.calls_per_op", "scheme.login.calls_per_op",
    "scheme.verify_login.calls_per_op", "scheme.verify_mutual_auth.calls_per_op",
    "scheme.change_password.calls_per_op", "scheme.verify_login.rejects_per_op",
    "adversary.probes_per_op", "adversary.hashes_per_probe", "adversary.xors_per_probe",
    "harness.events_per_op", "harness.transcript_bytes_per_op", "cli.main.calls_per_op",
)

# Per workload: the operations in one pass over its pool, and the total of
# each count over that pass, for seed 7 at tiny sizes. Per-probe counts
# are given per probe.
PINNED = {
    "dictionary-scan": (21, {
        "blocks.xor.calls_per_op": 10630, "blocks.digest.calls_per_op": 7124,
        "blocks.encode.calls_per_op": 3713, "scheme.enroll.calls_per_op": 19,
        "scheme.login.calls_per_op": 37, "scheme.verify_login.calls_per_op": 37,
        "scheme.verify_mutual_auth.calls_per_op": 28, "scheme.change_password.calls_per_op": 9,
        "scheme.verify_login.rejects_per_op": 9, "adversary.probes_per_op": 3432,
        "adversary.hashes_per_probe": 3, "adversary.xors_per_probe": 3,
        "harness.events_per_op": 318, "harness.transcript_bytes_per_op": 0,
        "cli.main.calls_per_op": 0,
    }),
    "session-mix": (120, {
        "blocks.xor.calls_per_op": 14 * 120, "blocks.digest.calls_per_op": 11 * 120,
        "blocks.encode.calls_per_op": 11 * 120, "scheme.enroll.calls_per_op": 120,
        "scheme.login.calls_per_op": 160, "scheme.verify_login.calls_per_op": 200,
        "scheme.verify_mutual_auth.calls_per_op": 120, "scheme.change_password.calls_per_op": 0,
        "scheme.verify_login.rejects_per_op": 40, "adversary.probes_per_op": 0,
        "adversary.hashes_per_probe": 0, "adversary.xors_per_probe": 0,
        "harness.events_per_op": 13 * 120, "harness.transcript_bytes_per_op": 194784,
        "cli.main.calls_per_op": 120,
    }),
    "replay-audit": (101, {
        "blocks.xor.calls_per_op": 61768, "blocks.digest.calls_per_op": 41361,
        "blocks.encode.calls_per_op": 21336, "scheme.enroll.calls_per_op": 101,
        "scheme.login.calls_per_op": 161, "scheme.verify_login.calls_per_op": 182,
        "scheme.verify_mutual_auth.calls_per_op": 121, "scheme.change_password.calls_per_op": 20,
        "scheme.verify_login.rejects_per_op": 40, "adversary.probes_per_op": 20065,
        "adversary.hashes_per_probe": 3, "adversary.xors_per_probe": 3,
        "harness.events_per_op": 1476, "harness.transcript_bytes_per_op": 502088,
        "cli.main.calls_per_op": 0,
    }),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_operation_counts_are_pinned(workload):
    _, result = bench(workload, 1)
    ops, totals = PINNED[workload]
    for name in COUNT_NAMES:
        expected = totals[name] if name.endswith("_per_probe") else totals[name] / ops
        assert result["metrics"][name]["value"] == expected, name


def test_layers_show_where_each_workload_spends_its_time():
    for workload in WORKLOADS:
        report, _ = bench(workload, 1)
        layer = {name: metric["value"] for name, metric in report["metrics"].items()}
        assert (layer["cli.main.self_us_per_call"] > 0) == (workload == "session-mix")
        assert (layer["adversary.offline_guess.us_per_probe"] > 0) == (workload != "session-mix")
    dictionary_scan, _ = bench("dictionary-scan", 1)
    assert dictionary_scan["metrics"]["adversary.offline_guess.self_frac"]["value"] > 0.5


def test_benchmark_json_names_every_workload():
    assert [workload["name"] for workload in SPEC["workloads"]] == list(WORKLOADS)

