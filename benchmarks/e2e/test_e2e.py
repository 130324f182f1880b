"""Tests of the end-to-end benchmark at ``--quick`` sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import worker
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SIM_METRICS = ("sim_latency_p50_ms", "sim_latency_p99_ms",
               "slo_met_fraction", "cores_mean")


def bench(out: Path, *args: str) -> tuple[list[str], dict]:
    """Run ``run.py --quick``; return its stdout lines and final JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0.2",
         "--out", str(out), *args],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def all_seed0(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("all"), "--seed", "0")


def test_every_metric_of_every_workload_is_printed_with_its_unit(all_seed0):
    lines, final = all_seed0
    assert final["correct"] and final["failed"] == 0
    for w in SPEC["workloads"]:
        start = lines.index(next(l for l in lines
                                 if l.startswith(f"== {w['name']} ")))
        section = []
        for line in lines[start + 1:]:
            if line.startswith(("==", "{")):
                break
            section.append(line.split())
        for m in SPEC["end_to_end"]:
            assert [m["name"], m["unit"]] in [[r[0], r[-1]] for r in section]
            got = final["metrics"][f"{w['name']}/{m['name']}"]
            assert got["unit"] == m["unit"]


def test_sim_metrics_repeat_for_a_seed_and_change_with_it(all_seed0,
                                                          tmp_path):
    first = all_seed0[1]["metrics"]
    again = bench(tmp_path, "--workload", "serve-chiron", "--seed", "0")[1]
    other = bench(tmp_path, "--workload", "serve-chiron", "--seed", "1")[1]
    for name in SIM_METRICS:
        assert again["metrics"][name] == first[f"serve-chiron/{name}"]
    assert (other["metrics"]["sim_latency_p50_ms"]
            != again["metrics"]["sim_latency_p50_ms"])


def test_infeasible_slo_is_a_failed_operation_not_a_crash():
    wl = workloads.PlanCold(seed=0, quick=True)
    wl.slos[0] = 0.5 * wl.inputs[0].critical_path_ms
    result = worker.measure(wl, 0.0)
    assert result["failed"] == 1 and result["attempted"] == len(wl)
    assert list(result["failures"]) == ["SchedulingError"]
    assert result["problems"] == []
    assert result["metrics"]["slo_met_fraction"] == pytest.approx(
        (len(wl) - 1) / len(wl))


def test_trace_writes_chrome_json_with_a_span_for_every_coarse_layer(
        tmp_path):
    names = set()
    for workload in ("plan-cold", "serve-chiron", "fleet"):
        final = bench(tmp_path, "--workload", workload, "--trace", "1")[1]
        assert set(final["metrics"]) == {m["name"]
                                         for m in SPEC["per_layer"]}
        run_dir = tmp_path / f"{workload}-s0-trace-0"
        doc = json.loads((run_dir / "trace.json").read_text())
        names |= {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert json.loads((run_dir / "layers.json").read_text())["spans"]
    assert {"manager.deploy", "manager.profile", "manager.schedule",
            "manager.generate", "serve.request", "platform.run",
            "simcore.run", "fleet.op", "fleet.compile", "fleet.anneal",
            "fleet.run", "cluster.fleetsim.fifo"} <= names


def test_compare_verdicts():
    assert compare.verdict([10.0, 10.1, 10.2], [10.0, 10.1, 10.2],
                           False, 0.1) == "within"
    assert compare.verdict([10.0, 10.1, 10.2], [12.0, 12.1, 12.2],
                           False, 0.1) == "worse"
    assert compare.verdict([10.0, 10.1, 10.2], [12.0, 12.1, 12.2],
                           True, 0.1) == "better"
    assert compare.verdict([5.0, 10.0, 15.0], [10.0, 10.1, 10.2],
                           False, 0.1) == "unresolved"
