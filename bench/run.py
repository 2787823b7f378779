"""The repository benchmark: three CLI workloads, timed end to end, plus a
traced run that splits the time by layer.

    python3 bench/run.py --workload sweep-circle --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

A closed loop with one client: the benchmark writes the workload's config
from ``--seed``, runs the CLI on it as a child process, checks the CSV it
wrote, and starts the next run only when the last one has ended, until
``--seconds`` are used.  BLAS and OpenMP run one thread in every child.

With ``--trace 0`` it reports the end-to-end metrics: median wall time, CPU
time and peak RSS of the CLI process, and set-up time (median of runs on the
same config with an empty report list).  The times are scaled to the
reference host's speed by a calibration kernel timed between the CLI runs.

With ``--trace 1`` it alternates untraced runs with runs of
``traced_cli.py``, which calls ``cli.main`` in its own process with spans
around each layer, once timing the spans and once recording their
allocation peaks under tracemalloc, and reports the per-layer metrics and
the tracing overhead.  A workload with a check seed also runs the config of
that seed once, untimed, and checks its outputs against recorded values.
Metric names and units come from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (counts of (n, seed) cells) and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

from checks import check_outputs
from spans import layer_metrics
from workloads import WORKLOADS, config_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_RUNS = 5          # measured set-up runs, after one unmeasured warm-up
CAL_REF_S = 0.10        # the calibration kernel's time on the reference host
ALLOC_METRICS = ("graph.peak_alloc_mb", "regularity.peak_alloc_mb")
CHILD_TIMEOUT_S = 80.0          # a hung child is killed; normal runs take < 20 s
PINNED_THREADS = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    """The program under test could not be run at all."""


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int = 0          # (n, seed) cells the run computed
    host_s: float = 0.0         # calibration kernel time around the run
    exit_code: int = 0
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    spans: list | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), **versions,
            **PINNED_THREADS}


def run_child(argv, log_path) -> tuple:
    """Run one child to completion: (wall s, user+system CPU s, max RSS MB, exit code)."""
    env = child_env()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def _log_tail(path, lines=5) -> str:
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def cli_argv(workload, config_path, out_dir, traced_spans=None, run_id="",
             mode="time"):
    args = [workload.command, "--config", config_path, "--out", out_dir]
    if traced_spans is None:
        return [sys.executable, "-m", "spectral_limits.cli", *args]
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), traced_spans,
            run_id, mode, *args]


def run_rep(workload, config_path, work, cells, run_id=None, mode="time") -> Rep:
    """One CLI run on a fresh output directory, with its outputs checked.
    With ``run_id`` the run is traced in ``mode``, "time" or "alloc"."""
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    spans_path = os.path.join(work, "spans.json") if run_id else None
    log = os.path.join(work, "cli.log")
    wall, cpu, rss, code = run_child(
        cli_argv(workload, config_path, out, spans_path, run_id, mode), log)
    rep = Rep(wall, cpu, rss, attempted=len(cells), exit_code=code)
    if code != 0:
        rep.failed = set(cells)
        rep.problems = [f"exit code {code}: {_log_tail(log)}"]
        return rep
    rep.failed, rep.problems = check_outputs(workload.name, out, cells)
    if spans_path:
        with open(spans_path) as fh:
            rep.spans = json.load(fh)
    return rep


CAL_KERNEL = """
import time
import numpy as np
data, best = np.random.default_rng(0).random(4_000_000), float("inf")
for _ in range(3):
    start = time.perf_counter()
    np.sort(data)
    np.sort(data)
    best = min(best, time.perf_counter() - start)
print(best)
"""


def calibrate() -> float:
    """Seconds the calibration kernel takes now: the fastest of three rounds
    of sorting a fixed array of 4M floats twice.

    The host's speed drifts by tens of percent within minutes, and this
    kernel's time follows the CLI runs' (see README), so each time metric is
    scaled by CAL_REF_S over the kernel's time measured around it.  The
    kernel runs in a child of its own: run here, its memory would count in
    the peak RSS of every later child.
    """
    out = subprocess.run([sys.executable, "-c", CAL_KERNEL], env=child_env(),
                         capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout)


def measure_setup(workload, seed, work) -> tuple:
    """Wall times of the measured set-up runs, and the calibration kernel
    time around them."""
    path = os.path.join(work, "setup.txt")
    with open(path, "w") as fh:
        fh.write(config_text(workload, seed, setup=True))
    out = os.path.join(work, "setup")
    log = os.path.join(work, "setup.log")
    times, before = [], calibrate()
    for _ in range(1 + SETUP_RUNS):
        shutil.rmtree(out, ignore_errors=True)
        wall, _, _, code = run_child(cli_argv(workload, path, out), log)
        if code != 0 or not os.path.exists(os.path.join(out, "run_meta.json")):
            raise BenchError(f"set-up run failed (exit {code}): {_log_tail(log)}")
        times.append(wall)
    return times[1:], (before + calibrate()) / 2


def repeat(step, seconds: float) -> list:
    """Run ``step`` at least once, and again while another typical step
    would end at most half a step after ``seconds``, so that a run measures
    about ``seconds`` on average whatever the step's length."""
    start = time.perf_counter()
    results, took = [], []
    while True:
        t = time.perf_counter()
        results.append(step())
        took.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(took) / 2 > seconds:
            return results


def check_run(workload, work) -> list:
    """The untimed run on the workload's check seed, if it has one."""
    if workload.check_seed is None:
        return []
    path = os.path.join(work, "check.txt")
    with open(path, "w") as fh:
        fh.write(config_text(workload, workload.check_seed))
    return [run_rep(workload, path, work, workload.cells(workload.check_seed))]


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK, f"{workload.name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    notes = []
    try:
        checked = check_run(workload, work)
        cells = workload.cells(seed)
        config_path = os.path.join(work, "config.txt")
        with open(config_path, "w") as fh:
            fh.write(config_text(workload, seed))
        if trace:
            def traced(mode):
                return run_rep(workload, config_path, work, cells, mode=mode,
                               run_id=f"{workload.name}-{seed}-{time.time_ns()}")
            triples = repeat(lambda: (
                run_rep(workload, config_path, work, cells),
                traced("time"), traced("alloc"),
            ), seconds)
            reps = [r for triple in triples for r in triple]
            metrics = traced_metrics(workload, *zip(*triples))
        else:
            setup = measure_setup(workload, seed, work)
            host = [calibrate()]

            def step():
                rep = run_rep(workload, config_path, work, cells)
                host.append(calibrate())
                rep.host_s = (host[-2] + host[-1]) / 2
                return rep

            reps = repeat(step, seconds)
            metrics = end_to_end_metrics(reps, *setup)
            notes.append(as_measured(reps, setup[0]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runs = checked + reps
    return {
        "reps": len(reps),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(len(r.failed) for r in runs),
        "problems": [p for r in runs for p in r.problems],
        "notes": notes,
        "metrics": metrics,
    }


def _completed(reps) -> list:
    """The runs whose CLI exited 0.  A run whose outputs failed a check is
    timed all the same: its failed cells make the result incorrect."""
    done = [r for r in reps if r.exit_code == 0]
    if not done:
        raise BenchError("every run failed: " + "; ".join(reps[0].problems))
    return done


def end_to_end_metrics(reps, setup, setup_host_s) -> dict:
    """Medians over the runs; times in reference-host seconds, each scaled
    by CAL_REF_S over the calibration kernel's time around it."""
    done = _completed(reps)
    return {
        "wall_s": statistics.median(r.wall_s * CAL_REF_S / r.host_s for r in done),
        "cpu_s": statistics.median(r.cpu_s * CAL_REF_S / r.host_s for r in done),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in done),
        "setup_s": statistics.median(setup) * CAL_REF_S / setup_host_s,
    }


def as_measured(reps, setup) -> str:
    """The unscaled medians, for the log."""
    def med(key):
        return statistics.median(getattr(r, key) for r in reps)
    return (f"as measured: wall_s {med('wall_s'):.6g} s, cpu_s {med('cpu_s'):.6g} s,"
            f" setup_s {statistics.median(setup):.6g} s; calibration kernel"
            f" {med('host_s'):.4g} s (reference {CAL_REF_S} s)")


def traced_metrics(workload, plain, traced, alloc) -> dict:
    """Medians over the runs: span times from the ``time``-mode runs,
    allocation peaks from the ``alloc``-mode ones."""
    plain, traced, alloc = _completed(plain), _completed(traced), _completed(alloc)

    def medians(runs, names=None):
        per_run = [layer_metrics(r.spans, workload.cell_opener) for r in runs]
        return {k: statistics.median(m[k] for m in per_run)
                for k in names or per_run[0]}

    metrics = medians(traced)
    metrics.update(medians(alloc, ALLOC_METRICS))
    untraced_wall = statistics.median(r.wall_s for r in plain)
    metrics["trace.overhead_frac"] = (
        statistics.median(r.wall_s for r in traced) - untraced_wall) / untraced_wall
    return metrics


def declared_units(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "spectral_limits", "cli.py")):
        print(f"bench: no spectral_limits sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("environment " + json.dumps(environment(), sort_keys=True), flush=True)

    results = {}
    try:
        for name in names:
            results[name] = res = run_workload(WORKLOADS[name], args.seed,
                                               args.seconds, bool(args.trace))
            if set(res["metrics"]) != set(units):
                raise BenchError(f"metrics {sorted(res['metrics'])} differ from "
                                 f"BENCHMARK.json {sorted(units)}")
            print(f"{name} seed={args.seed} trace={args.trace} runs={res['reps']}")
            for metric, unit in units.items():
                print(f"  {metric:32s} {res['metrics'][metric]:.6g} {unit}")
            print(f"  {'fail_frac':32s} {res['failed'] / res['attempted']:.6g} fraction")
            for note in res["notes"]:
                print(f"  {note}")
            for problem in res["problems"]:
                print(f"  FAILED {problem}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    # with several workloads, each metric name is prefixed by its workload's
    metrics = {(f"{n}.{m}" if len(names) > 1 else m):
               {"value": results[n]["metrics"][m], "unit": u}
               for n in names for m, u in units.items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
