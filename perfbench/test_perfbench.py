"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The traced-count test runs every workload's traced pass twice in fresh
processes, about two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_every_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["mmp", "cli"]
    assert set(run.WORKLOADS) >= {w["name"] for w in BENCHMARK["workloads"]}
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == tracing.per_layer_metrics()


def test_untraced_result_line():
    result = bench("--workload", "cli", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= run.MIN_OPS
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [
        bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        for _ in range(2)
    ]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "ratio")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["trace.ops"] > 0
    assert set(runs[0]["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("make", [
    workloads.cone_check_corpus, workloads.mmp_corpus, workloads.cohomology_corpus,
])
def test_seed_fixes_the_inputs(make):
    first, again, other = make(7), make(7), make(8)
    data = lambda c: [op.data for g in c.groups for op in g.ops]  # noqa: E731
    assert data(first) == data(again)
    assert data(first) != data(other)


def test_box_undercount_is_a_known_defect_not_a_measured_op():
    c = workloads.cohomology_corpus(1)
    assert not any(op.name.startswith("box-undercount") for g in c.groups for op in g.ops)
    assert [g.ops[-1].name for g in c.known_defects] == ["box-undercount"]


def test_tracer_restores_the_package():
    import tfm.polyhedra
    import tfm.fan

    orig = tfm.polyhedra.lp_feasible
    tracer = tracing.Tracer()
    tracer.install()
    assert tfm.fan.polyhedra.lp_feasible is not orig
    tracer.uninstall()
    assert tfm.polyhedra.lp_feasible is orig


def test_twin_check_flags_the_sheared_and_dual_ops():
    check = workloads._twin_check
    assert check([(3, 0, 0), (3, 0, 0), (0, 0, 3)]) == {}
    assert set(check([(3, 0, 0), (2, 0, 0), (0, 0, 1)])) == {1, 2}
    assert set(check([(3, 0, 0), (2, 0, 0)])) == {1}


def test_cone_check_rejects_a_wrong_length():
    group = workloads.cone_check_corpus(1).groups[0]
    op = group.ops[0]
    report = op.run(op.data)
    assert op.verify(op.data, report)[0] is None
    report.rays[0].length += Fraction(1, 7)
    assert op.verify(op.data, report)[0] is not None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
