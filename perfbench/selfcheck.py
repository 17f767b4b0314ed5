"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work_dir(request):
    path = run.WORK / f"selfcheck-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(work_dir, names):
    import coesolve.cli  # noqa: F401

    work_dir.mkdir(parents=True)
    bench = run.Bench("presets", 0, work_dir)
    bench.ops = [op for op in bench.ops if op.name in names]
    for op in bench.ops:
        op.repeat = 1
    return bench


def _corrupt(path: Path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2] + "x,y\n")


def test_corrupted_reference_output_is_a_failed_op(work_dir):
    bench = _bench(work_dir, {"problem-3.7", "example-4.3"})
    _, runs, pass_dir = bench.run_pass(traced=False)
    for run_ in runs:
        name = "solution.csv" if run_.op.scenario == "solve-linear" else "trajectory.csv"
        _corrupt(run_.out_dir / name)
    bench.verify(runs, pass_dir)
    assert bench.attempted == 2 and bench.failed == 2


def test_corrupted_later_output_is_a_failed_op(work_dir):
    bench = _bench(work_dir, {"problem-3.7", "example-4.3-rbound"})
    bench.verify(*bench.run_pass(traced=False)[1:])
    assert bench.failed == 0
    _, runs, pass_dir = bench.run_pass(traced=False)
    (runs[1].out_dir / "rbound.json").write_text('{"value": 0.5, "uniform_bound": 0.1}')
    bench.verify(runs, pass_dir)
    assert bench.attempted == 4 and bench.failed == 1
    assert "differ from the first pass" in bench.failures[-1][1]


def test_oracle_rejects_wrong_parabolic_state(work_dir):
    bench = _bench(work_dir, {"example-4.3"})
    _, runs, pass_dir = bench.run_pass(traced=False)
    path = runs[0].out_dir / "trajectory.csv"
    lines = path.read_text().splitlines()
    row = lines[-1].split(",")
    row[2] = repr(float(row[2]) * (1 + 1e-6) + 1e-6)
    path.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    bench.verify(runs, pass_dir)
    assert bench.failed == 1 and "expm reference" in bench.failures[-1][1]


def test_repeated_op_runs_are_each_checked(work_dir):
    bench = _bench(work_dir, {"problem-3.7"})
    bench.ops[0].repeat = 3
    _, runs, pass_dir = bench.run_pass(traced=False)
    assert len({run_.out_dir for run_ in runs}) == 3
    assert len({run_.kernel for run_ in runs}) == 1 and runs[0].kernel > 0
    _corrupt(runs[2].out_dir / "solution.csv")
    bench.verify(runs, pass_dir)
    assert bench.attempted == 3 and bench.failed == 1


def test_weighted_median_follows_the_weights():
    assert hostspeed.weighted_median([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == 2.0
    assert hostspeed.weighted_median([1.0, 2.0, 3.0], [0.1, 0.1, 5.0]) == 3.0
    assert hostspeed.scale_factor([hostspeed.REFERENCE_S * 2], [1.0]) == 0.5


def test_self_times_sum_back_to_root_spans(work_dir):
    bench = _bench(work_dir, {"problem-3.7", "example-4.3-sweep", "example-4.4"})
    with tracing.Instrumentation(bench.recorder):
        bench.run_pass(traced=True)
    spans = bench.recorder.spans
    layer = tracing.aggregate(spans)
    roots = [s for s in spans if s[3] == -1]
    assert {s[0] for s in roots} == {"cli.main"}
    root_s = sum(end - start for _, start, end, *_ in roots) * 1e-9
    assert sum(row["self_s"] for row in layer.values()) == pytest.approx(root_s, rel=1e-9)
    assert layer["cli.main"]["s"] == pytest.approx(root_s, rel=1e-9)
    # Every nested span's self time fits inside its parent's duration.
    for name, row in layer.items():
        assert 0.0 <= row["self_s"] <= row["s"] + 1e-12 or row["calls"] == 0, name


def test_nested_same_name_spans_count_once_in_inclusive_time():
    rec = tracing.Recorder()
    rec.active = True

    def inner():
        return rec.call("fft.fft", lambda: None, (), {})

    rec.call("fft.fft", inner, (), {})
    layer = tracing.aggregate(rec.spans)
    outer = rec.spans[0][2] - rec.spans[0][1]
    assert layer["fft.fft"]["calls"] == 2
    assert layer["fft.fft"]["s"] == pytest.approx(outer * 1e-9)


def test_missing_target_is_absent_not_an_error(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("bvp.gone", "coesolve.bvp", "_solve_nothing", None),
        ("nowhere.f", "coesolve.nowhere", "f", None),
    ))
    with tracing.Instrumentation(tracing.Recorder()) as inst:
        pass
    assert inst.absent == ["bvp.gone", "nowhere.f"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_minimal_pass_of_each_workload(workload, work_dir):
    report = run.measure(workload, seed=1, seconds=0, trace=True, work_dir=work_dir)
    assert report["failed_ops"] == 0, report["failures"]
    assert report["passes"] == 1 and report["traced_passes"] == 1
    assert report["absent_targets"] == []
    assert all(report["end_to_end"][name] > 0 for name, _ in run.END_TO_END)
    assert report["per_layer"]["cli.main.calls"] > 0
    assert report["per_layer"]["config.build_problem_per_op"] == 3.0


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
