"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_gate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 20251017


def _config():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_and_workload_names():
    config = _config()
    declared = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    emitted = [name for name, _ in run.END_TO_END] + [m[0] for m in run.PER_LAYER]
    for name in declared + emitted + [w["name"] for w in config["workloads"]]:
        assert NAME.fullmatch(name), name
    assert sorted(declared) == sorted(emitted)
    assert len(set(emitted)) == len(emitted)
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    for w in config["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_reports_identical(workload, tmp_path):
    ops = WORKLOADS[workload].build(random.Random(f"{workload}:{SEED}"), tmp_path)
    plain = run.run_child(ops, tmp_path / "plain", traced=False)
    traced = run.run_child(ops, tmp_path / "traced", traced=True)
    assert "crashed" not in plain and "crashed" not in traced
    a = run.read_reports(tmp_path / "plain", len(ops))
    b = run.read_reports(tmp_path / "traced", len(ops))
    assert None not in a and a == b
    for op, outcome, report in zip(ops, plain["ops"], a):
        assert bench_gate.check(op, outcome["exit_code"], json.loads(report)) == []
    values = run.layer_values(traced)
    assert traced["trace"]["calls"]["cli.main"] == len(ops)
    assert abs(values["trace.unattributed_s"]) < 0.05 * traced["wall_s"]
    assert all(NAME.fullmatch(name) for name in values)

    # The gate is not vacuous: a flipped verdict or a wrong count is caught.
    report = json.loads(a[0])
    report["checks"][-1]["pass"] = False
    assert bench_gate.check(ops[0], 0, report)
    report = json.loads(a[0])
    report["checks"].pop()
    assert bench_gate.check(ops[0], 0, report)
    assert bench_gate.check(ops[0], 1, json.loads(a[0]))
