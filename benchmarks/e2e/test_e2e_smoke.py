"""Smoke test of the end-to-end benchmark: every workload at small scale.

Each workload runs once, traced (so both metric sets are produced), on
datasets a tenth of the benchmark's size with 2 seconds of load. The
assertions are the benchmark's own contract: every metric ``BENCHMARK.json``
declares is emitted, nothing failed, and the parity panel matched.
"""

import pytest

from benchmarks.e2e.bench import load_spec, run_workload
from benchmarks.e2e.workloads import WORKLOADS

SPEC = load_spec()


def test_benchmark_json_declares_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_metric_and_matches_parity(name):
    result = run_workload(name, seed=3, seconds=2.0, trace=True, scale=0.1,
                          setup_repeats=1)
    assert set(result.end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(result.per_layer) == {m["name"] for m in SPEC["per_layer"]}
    assert result.errors == {}
    assert result.diagnostics["error_rate"] == 0
    assert result.diagnostics["parity_panel"] > 0
    assert result.diagnostics["parity_mismatches"] == 0
    assert result.correct
