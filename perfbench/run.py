"""coesolve benchmark: seeded CLI workloads, oracle checks, traced layers.

    python3 perfbench/run.py --workload presets|dense|structured|all \
        --seed 0 --seconds 30 --trace 0|1

Run from a checkout of the repository: the program is imported from
``src/`` next to this directory.  One process runs one workload as a closed
loop with one client; every operation is one in-process
``coesolve.cli.main`` call (``positivity_scan`` is called directly).  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--workload all`` runs each
workload in its own process and prints every metric of every workload.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fingerprint import fingerprint  # noqa: E402

SETUP_SAMPLES = 7
END_TO_END = (
    ("wall_s", "s"),
    ("parabolic_s", "s"),
    ("elliptic_s", "s"),
    ("stationary_s", "s"),
    ("estimators_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Targets whose time (not only call count) goes into the --trace 1 JSON:
# those called on every workload, so no reported time is a constant zero.
# Every target's times are in the printed table and the report file.
TIMED_TARGETS = (
    "cli.main",
    "runner.run_scenario",
    "config.validate_config",
    "config.build_problem",
    "config.build_field",
    "symbols.char_poly",
    "symbols.check_symbol_conditions",
    "symbols.reduced_symbol",
    "kernels.fourier",
    "solver.solve_linear",
    "solver.apply_operator",
    "solver.coercive_report",
    "solver.lambda_sweep",
    "solver.eta_on_grid",
    "operators.resolvent_solve_many",
    "operators.apply_many",
    "operators.as_dense",
    "operators.diagonalization",
    "fft.fft",
    "fft.ifft",
    "grids.spectral_derivative",
    "norms.lp_norm",
    "rademacher.scaled_resolvent_rbound",
    "rademacher.empirical_rbound",
    "evolution.solve_cauchy_linear",
    "bvp.solve_bvp_linear",
    "output.write_csv",
    "output.write_json",
)
COUNTERS = (
    ("evolution.steps", "count"),
    ("evolution.evaluate_per_step", "ratio"),
    ("bvp.picard_iterations", "count"),
    ("config.build_problem_per_op", "ratio"),
    ("fft.points", "count"),
    ("output.bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics():
    """(name, unit) of every metric printed with --trace 1."""
    out = [(f"{name}.calls", "count") for name in tracing.SPAN_NAMES]
    for name in TIMED_TARGETS:
        out += [(f"{name}.s", "s"), (f"{name}.self_s", "s")]
    return out + list(COUNTERS)


SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import coesolve.cli\n"
    "dt = time.perf_counter() - t\n"
    "if not coesolve.cli.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit('coesolve imported from outside the checkout')\n"
    "print(repr(dt))\n"
)


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median import time of coesolve.cli over fresh interpreters, at the
    reference host speed (see hostspeed.py).

    One extra import runs first and is discarded: it may compile bytecode.
    """
    times = []
    for _ in range(samples + 1):
        before = hostspeed.kernel_seconds()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        kernel = (before + hostspeed.kernel_seconds()) / 2.0
        times.append(float(proc.stdout) * hostspeed.REFERENCE_S / kernel)
    return statistics.median(times[1:])


class OpRun:
    """One executed operation: exit code, captured stdout, output dir, its
    time, and the mean time of the calibration kernels around it."""

    def __init__(self, op, code, stdout, seconds, kernel, out_dir):
        self.op, self.code, self.stdout = op, code, stdout
        self.seconds, self.kernel, self.out_dir = seconds, kernel, out_dir


class Bench:
    """Runs passes over one workload's operations and checks their outputs."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        import coesolve

        # Entry points are looked up per call so that tracing sees them.
        self._program = coesolve
        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.ops = workloads.build_ops(workload, seed)
        self.config_paths = workloads.write_configs(self.ops, work_dir / "configs")
        self.recorder = tracing.Recorder()
        self.reference = {}
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self._passes = 0

    def _run_cli(self, op, out_dir):
        argv = [op.scenario, "--config", str(self.config_paths[op.name]),
                "--seed", str(self.seed), "--out", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self._program.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed op, not a failed run
                traceback.print_exc()
                code = 1
        if code != 0:
            self.failures.append((op.name, stderr.getvalue().strip()[-2000:]))
        return code, stdout.getvalue()

    def _run_scan(self, op, out_dir):
        operators, c = self._program.operators, op.config
        try:
            sector = self._program.symbols.Sector(c["sector_angle"])
            report = operators.positivity_scan(
                operators.make_operator(**c["operator"]), sector,
                operators.sector_samples(sector, n_moduli=c["n_moduli"]))
        except Exception:  # a traceback is a failed op, not a failed run
            self.failures.append((op.name, traceback.format_exc()[-2000:]))
            return 1, None
        return 0, report

    def _run_op(self, op, out_dir):
        """Run one op once; returns (exit code, stdout, seconds)."""
        t0 = time.perf_counter()
        if op.scenario != "positivity-scan":
            code, stdout = self._run_cli(op, out_dir)
            return code, stdout, time.perf_counter() - t0
        code, report = self._run_scan(op, out_dir)
        seconds = time.perf_counter() - t0
        if report is not None:
            out_dir.mkdir(parents=True)
            (out_dir / "positivity.json").write_text(json.dumps({
                "m_bound": report.m_bound,
                "samples": [[z.real, z.imag] for z in report.samples.tolist()],
                "values": report.values.tolist(),
            }))
        return code, "", seconds

    def run_pass(self, traced: bool):
        """One pass over every op, each run ``op.repeat`` times back to back
        between two calibration kernels; returns (summed op seconds as
        measured, [OpRun], pass dir)."""
        pass_dir = self.work_dir / f"pass{self._passes}"
        self._passes += 1
        runs = []
        for i, op in enumerate(self.ops):
            self.recorder.op = i
            gc.collect()
            before = hostspeed.kernel_seconds()
            self.recorder.active = traced
            batch = []
            for rep in range(op.repeat):
                out_dir = pass_dir / (op.name if rep == 0 else f"{op.name}~{rep}")
                batch.append((*self._run_op(op, out_dir), out_dir))
            self.recorder.active = False
            kernel = (before + hostspeed.kernel_seconds()) / 2.0
            for code, stdout, seconds, out_dir in batch:
                runs.append(OpRun(op, code, stdout, seconds, kernel, out_dir))
        return sum(run.seconds for run in runs), runs, pass_dir

    def verify(self, runs, pass_dir):
        """Check every op of a pass; the first pass is the reference.

        A later op whose stdout and result files hash like the reference
        inherits its verdict; one that differs is re-checked and fails the
        determinism check.
        """
        for run in runs:
            self.attempted += 1
            ok_files = run.code == 0 and run.out_dir.is_dir()
            dig = checks.digest(run.out_dir, run.stdout) if ok_files else None
            ref = self.reference.get(run.op.name)
            if ref is None:
                problems = checks.check_op(run.op, run.code, run.stdout, run.out_dir)
                self.reference[run.op.name] = (dig, problems)
            elif dig == ref[0] and dig is not None:
                problems = ref[1]
            else:
                problems = checks.check_op(run.op, run.code, run.stdout, run.out_dir)
                problems = problems + ["stdout or result files differ from the first pass"]
            if problems:
                self.failed += 1
                self.failures.append((run.op.name, "; ".join(problems)))
        shutil.rmtree(pass_dir, ignore_errors=True)


def _result_counts(runs):
    """Steps of parabolic runs and Picard iterations, from the result files.

    An op whose files cannot be read counts zero here; its oracle check
    already fails it.
    """
    steps = semilinear_steps = picard = 0
    for run in runs:
        section = run.op.config.get(run.op.scenario, {})
        nonlinear = section.get("nonlinearity", {"kind": "none"})["kind"] != "none"
        try:
            if run.op.scenario == "solve-parabolic":
                report = json.loads((run.out_dir / "report.json").read_text())
                n = int(round(report["t_max"] / section["dt"]))
                steps += n
                semilinear_steps += n if nonlinear else 0
            elif run.op.scenario == "solve-elliptic" and nonlinear:
                picard += json.loads((run.out_dir / "iterations.json").read_text())["iterations"]
        except (OSError, KeyError, TypeError, ValueError):
            continue
    return steps, semilinear_steps, picard


def _median(values):
    return statistics.median(values) if values else 0.0


def traced_pass(bench):
    """One traced pass; returns (wall, per-span aggregates, counters)."""
    spans, lo = bench.recorder.spans, len(bench.recorder.spans)
    bench.recorder.counters.clear()
    wall, runs, pass_dir = bench.run_pass(traced=True)
    layer = tracing.aggregate(spans, lo)
    steps, semi_steps, picard = _result_counts(runs)
    cli_ops = sum(r.op.scenario != "positivity-scan" for r in runs)
    evals = tracing.count_under(spans, "evolution.evaluate",
                                "evolution.solve_cauchy_semilinear", lo)
    counters = {
        "evolution.steps": steps,
        "evolution.evaluate_per_step": evals / semi_steps if semi_steps else 0.0,
        "bvp.picard_iterations": picard,
        "config.build_problem_per_op": layer["config.build_problem"]["calls"] / cli_ops,
        "fft.points": bench.recorder.counters["fft.points"],
        "output.bytes": bench.recorder.counters["output.bytes"],
    }
    bench.verify(runs, pass_dir)
    return wall, layer, counters


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Run one workload in this process; returns the full report.

    After a warm-up pass (whose outputs are the reference for every later
    pass) timed passes repeat while another one still fits in
    ``seconds``; with ``trace`` each untraced pass is followed by a traced
    one.  Each op's time is the median of its untraced runs, scaled to
    the reference host speed by the calibration kernels of the run (see
    hostspeed.py), and a pass (``wall_s``) or a class is the sum of its
    ops' times.  The fastest and the median time as measured are kept in
    the report.
    """
    setup_s = measure_setup()
    import coesolve.cli  # noqa: F401  (the timed imports ran in fresh processes)

    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    bench = Bench(workload, seed, work_dir)
    bench.verify(*bench.run_pass(traced=False)[1:])

    op_times = {op.name: [] for op in bench.ops}
    kernels, weights = [], []
    walls, traced_walls, layers, counters = [], [], [], []
    with tracing.Instrumentation(bench.recorder) if trace else contextlib.nullcontext() as inst:
        started = time.perf_counter()
        while True:
            iteration = time.perf_counter()
            wall, runs, pass_dir = bench.run_pass(traced=False)
            walls.append(wall)
            for run in runs:
                op_times[run.op.name].append(run.seconds)
                kernels.append(run.kernel)
                weights.append(run.seconds)
            bench.verify(runs, pass_dir)
            if trace:
                wall, layer, counter = traced_pass(bench)
                traced_walls.append(wall)
                layers.append(layer)
                counters.append(counter)
            now = time.perf_counter()
            if now - started + (now - iteration) > seconds:
                break
    if trace:
        bench.recorder.write(work_dir / "spans.jsonl")

    def pass_times(per_op):
        return {"wall_s": sum(per_op.values()),
                **{f"{k}_s": sum(per_op[op.name] for op in bench.ops if op.klass == k)
                   for k in workloads.CLASSES}}

    factor = hostspeed.scale_factor(kernels, weights)
    op_best = {name: min(times) for name, times in op_times.items()}
    op_median = {name: _median(times) for name, times in op_times.items()}
    scaled = {op.name: op_median[op.name] * (factor if op.host_scaled else 1.0)
              for op in bench.ops}
    end_to_end = {
        **pass_times(scaled),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = {}
    if trace:
        for name in tracing.SPAN_NAMES:
            for field in ("calls", "s", "self_s"):
                per_layer[f"{name}.{field}"] = _median([l[name][field] for l in layers])
        for key in counters[0]:
            per_layer[key] = _median([c[key] for c in counters])
        per_layer["trace.wall_s"] = _median(traced_walls)
        per_layer["trace.overhead_s"] = _median(traced_walls) - _median(walls)
    return {
        "workload": workload,
        "seed": seed,
        "passes": len(walls),
        "traced_passes": len(traced_walls),
        "scale_factor": factor,
        "kernel_median_s": hostspeed.REFERENCE_S / factor,
        "op_seconds_scaled": scaled,
        "op_seconds_best": op_best,
        "op_seconds_median": op_median,
        "op_samples": op_times,
        "fastest_pass": pass_times(op_best),
        "median_pass": pass_times(op_median),
        "ops": bench.attempted,
        "failed_ops": bench.failed,
        "failures": bench.failures,
        "absent_targets": inst.absent if trace else [],
        "fingerprint": fingerprint(ROOT),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def _print_report(report, trace: bool):
    fp = report["fingerprint"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"timed passes {report['passes']}  traced passes {report['traced_passes']}")
    print(f"python {fp['python']}  numpy {fp['numpy']}  scipy {fp['scipy']}  "
          f"coesolve {fp['coesolve']}  commit {fp['commit']}")
    print(f"cpu {fp['cpu']}  nproc {fp['nproc']}  caches {fp['caches']}")
    print(f"blas numpy {fp['numpy_blas']}  scipy {fp['scipy_blas']}")
    for name, why in report["failures"]:
        print(f"FAILED {name}: {why}")
    print(f"failed_ops {report['failed_ops']} count  (ops {report['ops']} count)")
    units = dict(END_TO_END)
    print(f"calibration kernel {report['kernel_median_s'] * 1e3:.3f} ms, "
          f"reference {hostspeed.REFERENCE_S * 1e3:.3f} ms: times below are scaled by "
          f"{report['scale_factor']:.4f}")
    print(f"{'metric':14s} {'value':>12s} unit  (as measured: median pass, fastest pass)")
    for name, value in report["end_to_end"].items():
        median = report["median_pass"].get(name)
        fastest = report["fastest_pass"].get(name)
        print(f"{name:14s} {value:12.6f} {units[name]:4s}" +
              (f"  ({median:.6f}, {fastest:.6f})" if median is not None else ""))
    if trace:
        if report["absent_targets"]:
            print(f"absent targets: {', '.join(report['absent_targets'])}")
        layer = report["per_layer"]
        print(f"{'target':40s} {'calls':>9s} {'s':>10s} {'self_s':>10s}")
        for name in tracing.SPAN_NAMES:
            print(f"{name:40s} {layer[name + '.calls']:9g} "
                  f"{layer[name + '.s']:10.4f} {layer[name + '.self_s']:10.4f}")
        for name, unit in COUNTERS:
            print(f"{name:40s} {layer[name]:g} {unit}")


def run_one(args) -> int:
    work_dir = WORK / args.workload
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    (work_dir / "report.json").write_text(json.dumps(report, indent=1))
    _print_report(report, bool(args.trace))
    if args.trace:
        names, source = per_layer_metrics(), report["per_layer"]
    else:
        names, source = END_TO_END, report["end_to_end"]
    print(json.dumps({
        "correct": report["failed_ops"] == 0,
        "attempted": report["ops"],
        "failed": report["failed_ops"],
        "metrics": {n: {"value": source[n], "unit": u} for n, u in names},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} dropped: exit code {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}")
            merged["correct"] = False
            continue
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coesolve" / "cli.py").is_file():
        print(f"error: no coesolve sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
