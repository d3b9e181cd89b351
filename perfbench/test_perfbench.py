"""Tests of the benchmark itself: smoke runs, failure counting, the tracer."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from torusbase import catalog, exact, sheaves, surgery  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def smoke(workload, tmp_path, trace=0):
    return run.measure(workload, 3, 0, trace, scale="smoke", workdir=str(tmp_path), setup_samples=1)


def test_workload_lists_agree():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS)


def test_per_layer_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    assert declared == spans.metric_specs()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_end_to_end(workload, tmp_path):
    result, detail = smoke(workload, tmp_path)
    assert detail["failures"] == []
    assert detail["fail_ratio"] == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert os.listdir(tmp_path) == []  # temp files are removed


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_traced(workload, tmp_path):
    result, detail = smoke(workload, tmp_path, trace=1)
    assert result["correct"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    if workload in ("sphere_moduli", "flat_torus_sweep"):  # validated in set-up only
        assert result["metrics"]["affine.validate_affine.calls"]["value"] >= 1
    with open(detail["spans_file"], encoding="utf-8") as fh:
        assert json.load(fh)["traceEvents"]


def test_traced_setup_is_counted_once_per_run():
    tracer = spans.Tracer()
    for setup in (True, False, False, False):
        tracer.begin_pass()
        sheaves.cohomology(sheaves.constant_sheaf(catalog.grid_torus_complex(3, 3), 1), 1)
        tracer.end_pass(setup=setup)
    assert len(tracer.passes) == 3 and tracer.setup is not None
    assert tracer.metrics(1.0)["sheaves.cohomology.calls"]["value"] == 2  # set-up plus one pass


def test_solve_is_split_by_ring():
    from fractions import Fraction

    tracer = spans.Tracer()
    tracer.begin_pass()
    exact.LinearSystem(exact.eye(2)).solve(exact.eye(2)[0])
    rational = exact.LinearSystem(exact.eye(2) * Fraction(1, 2))
    rational.solve(exact.eye(2)[0], "Q")
    tracer.end_pass()
    (p,) = tracer.passes
    assert [p["spans"]["exact.LinearSystem.%s" % n]["calls"] for n in ("init_z", "init_q", "solve_z", "solve_q")] == [1, 1, 1, 1]


def test_tail_needs_twenty_ops():
    assert run.tail([1.0] * 19) == (None, None)
    assert run.tail(list(range(20))) == (9, 50.0)


def test_ladder_reports_each_size(tmp_path):
    _, detail = smoke("flat_torus_sweep", tmp_path)
    assert detail["op_tail_ms"] is None
    assert detail["scaling_exponent"] > 0  # sizes 3 and 4


def test_wrong_golden_is_counted_not_fatal(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.GOLDEN["catalog_cli"]["smoke"]["h2"], "torus_morse_graph", "Z")
    result, detail = smoke("catalog_cli", tmp_path)
    assert result["failed"] == 1 and result["attempted"] == 12
    assert detail["fail_ratio"] == pytest.approx(1 / 12)
    assert not result["correct"]
    assert "H^2(torus_morse_graph; Z)" in detail["failures"][0]


def test_wrong_dhat_golden_is_counted(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.GOLDEN["sphere_moduli"]["smoke"], "moduli", (1, 0))
    result, detail = smoke("sphere_moduli", tmp_path)
    assert (result["failed"], result["attempted"], detail["fail_ratio"]) == (1, 1, 1.0)


def test_same_seed_same_inputs():
    def draws(seed):
        rng = workloads.rng_for("catalog_cli", seed)
        return [label for label, _ in workloads.catalog_pass({"dir": "."}, rng, "full")], rng.random()

    assert draws(5) == draws(5)
    assert draws(5)[1] != draws(6)[1]


def test_tracer_patches_every_namespace_and_restores():
    original = exact.snf
    assert surgery.cohomology is sheaves.cohomology
    tracer = spans.Tracer()
    tracer.begin_pass()
    try:
        assert exact.snf is not original
        assert sheaves.cohomology is surgery.cohomology  # the copy surgery imported is wrapped too
        assert sheaves.cohomology.__wrapped__ is not None
    finally:
        tracer.end_pass()
    assert exact.snf is original
    assert not hasattr(sheaves.cohomology, "__wrapped__")


def test_self_times_partition_the_pass():
    tracer = spans.Tracer()
    tracer.begin_pass()
    sheaves.cohomology(sheaves.constant_sheaf(catalog.grid_torus_complex(3, 3), 1), 1)
    tracer.end_pass()
    (p,) = tracer.passes
    self_total = sum(s["self_s"] for s in p["spans"].values())
    assert self_total + p["untraced_s"] == pytest.approx(p["wall_s"], rel=1e-9)
    assert p["spans"]["sheaves.cohomology"]["calls"] == 1
    assert p["spans"]["exact.hnf"]["calls"] >= 1
    assert 0 < p["spans"]["exact.hnf"]["rank"] <= p["spans"]["exact.hnf"]["rows"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "catalog_cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
