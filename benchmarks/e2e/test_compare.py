"""``compare`` on synthetic run records: the correctness gate and the rule."""

import json

import pytest

from benchmarks.e2e.bench import load_spec
from benchmarks.e2e.compare import compare, main

SPEC = load_spec()


def _write_runs(directory, values, *, failed=(), workload="read-cold"):
    """One untraced record per value; every e2e metric reads ``value``."""
    directory.mkdir()
    for seed, value in enumerate(values, start=1):
        n_failed = failed[seed - 1] if failed else 0
        record = {
            "kind": "e2e-run", "workload": workload, "seed": seed,
            "trace": False, "correct": n_failed == 0, "attempted": 100,
            "failed": n_failed,
            "end_to_end": {m["name"]: {"value": value, "unit": m["unit"]}
                           for m in SPEC["end_to_end"]},
        }
        (directory / f"{workload}.seed{seed}.trace0.json").write_text(
            json.dumps(record))
    return str(directory)


def _verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


def test_same_runs_are_unchanged(tmp_path):
    values = [10.0, 10.1, 9.9, 10.05, 9.95]
    rows = compare(_write_runs(tmp_path / "a", values),
                   _write_runs(tmp_path / "b", values), SPEC)
    assert set(_verdicts(rows).values()) == {"unchanged"}
    assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0


@pytest.mark.parametrize("failed", [(0, 0, 3, 0, 0), (2, 2, 2, 2, 2)])
def test_failures_regress_whatever_the_metrics_say(tmp_path, failed):
    parent = _write_runs(tmp_path / "a", [10.0] * 5)
    change = _write_runs(tmp_path / "b", [10.0] * 5, failed=failed)
    verdicts = _verdicts(compare(parent, change, SPEC))
    assert verdicts["correctness"] == "regressed"
    assert verdicts["setup_s"] == "unchanged"
    assert main([parent, change]) == 1


def test_a_metric_worse_by_more_than_its_bound_regresses(tmp_path):
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "latency_p50_ms")
    parent = _write_runs(tmp_path / "a", [10.0] * 5)
    change = _write_runs(tmp_path / "b", [10.0 * (1 + 2 * bound)] * 5)
    verdicts = _verdicts(compare(parent, change, SPEC))
    assert verdicts["correctness"] == "unchanged"
    assert verdicts["latency_p50_ms"] == "regressed"
    assert verdicts["throughput_rps"] == "improved"
