"""Benchmark of the ``casqed`` CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is one ``casqed`` CLI
invocation (``--workers 1``), started again and again as a fresh process
for about ``--seconds`` seconds (at least twice).  BLAS runs on one
thread in every process.

``--trace 0`` prints the end-to-end metrics: medians over the processes of
the run.  ``--trace 1`` alternates untraced and traced processes, and
prints the per-layer metrics from the traced ones, the tracing overhead
and the fixed-input layer probes.  Either way the outputs are checked
(see ``checks.py``) outside the timed region, and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout holds no ``src/casqed`` to run.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, here and in every child process.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

from workloads import NOT_RUN, REDUCED_EPSILONS, REDUCED_RATIOS, WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("converged_frac", "1"),
)
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120.0


@dataclass
class Proc:
    """One finished child process."""

    rc: int
    wall_s: float
    peak_rss_mb: float = 0.0    # reported by cli_entry.py
    stderr: str = ""
    csv: bytes = b""
    manifest: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, log: Path, ready_line: bool = False, cpu: int | None = None):
    """Run a child in its own process group; return (Proc, seconds to 'ready').

    ``cpu`` pins the child to one CPU.  A watchdog kills the group after
    CHILD_TIMEOUT_S.  The child is always reaped, whatever happens here.
    """
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stderr=err, start_new_session=True,
            stdout=subprocess.PIPE if ready_line else subprocess.DEVNULL,
        )
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        ready = None
        try:
            if ready_line:
                proc.stdout.readline()
                ready = time.perf_counter() - t0
                proc.stdout.read()
            rc = proc.wait()
            wall = time.perf_counter() - t0
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            if proc.stdout:
                proc.stdout.close()
    return Proc(rc, wall, stderr=log.read_text(errors="replace")), ready


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Run:
    """One workload invocation: config, output directories and results."""

    def __init__(self, workload, seed: int, seconds: int, work: Path):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = work / workload.name
        self.dir.mkdir(parents=True)
        self.cfg = self.dir / "config.cfg"
        self.cfg.write_text(workload.config(seed), encoding="utf-8")
        self.lines: list = []
        self.checks: list = []

    def cli(self, out: Path, traced_spans: Path | None = None, workers: int = 1,
            cpu: int | None = None) -> Proc:
        rss = self.dir / "rss.txt"
        argv = [sys.executable, str(HERE / "cli_entry.py"), str(rss)]
        if traced_spans is not None:
            argv += [str(traced_spans), f"{self.wl.name}-{self.seed}-{traced_spans.stem}"]
        argv += ["--", self.wl.command, "--config", str(self.cfg), "--out", str(out),
                 "--workers", str(workers), "--seed", str(self.seed)]
        csv_path = out / self.wl.csv_name
        manifest = out / "manifest.json"
        for stale in (rss, csv_path, manifest):
            stale.unlink(missing_ok=True)
        proc, _ = run_child(argv, self.dir / "stderr.log", cpu=cpu)
        proc.peak_rss_mb = int(rss.read_text()) / 1024.0 if rss.exists() else 0.0
        if csv_path.exists():
            proc.csv = csv_path.read_bytes()
        if manifest.exists():
            proc.manifest = json.loads(manifest.read_text(encoding="utf-8"))
        if proc.rc != 0:
            self.lines.append(f"  process exit {proc.rc}: {proc.stderr.strip()[-400:]}")
        return proc

    def setup_seconds(self) -> list:
        probe = [sys.executable, str(HERE / "setup_probe.py"), str(self.cfg)]
        run_child(probe, self.dir / "setup.log", ready_line=True)   # warm the bytecode cache
        return [run_child(probe, self.dir / "setup.log", ready_line=True, cpu=cpu_for(i))[1]
                for i in range(SETUP_REPEATS)]

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(ok)
        self.lines.append(f"  check {name}: {'ok' if ok else 'FAILED'} ({detail})")


def _points(procs) -> tuple:
    """(attempted, failed, done_per_process) from the manifests.

    A process that exited non-zero counts every one of its points failed.
    """
    attempted = failed = 0
    done = []
    for p in procs:
        pts = p.manifest.get("points", [])
        n_ok = sum(pt.get("n_times", 1) for pt in pts if pt.get("converged"))
        attempted += max(len(pts), 1)
        failed += max(len(pts), 1) if p.rc != 0 else sum(not pt.get("converged") for pt in pts)
        done.append(n_ok if p.rc == 0 else 0)
    return attempted, failed, done


def cpu_for(i: int) -> int:
    """CPU for the i-th timed process: each CPU in turn.

    Host load slows each CPU independently and drifts over tens of
    seconds, so spreading a run's processes over the CPUs averages it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[i % len(cpus)]


def timed_loop(run: Run, step, minimum: int) -> list:
    """Call ``step`` until the next call would end past ``seconds``."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - t0
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > run.seconds:
            return results


def output_checks(run: Run, procs: list) -> None:
    import checks

    csvs = {p.csv for p in procs}
    run.check("exit-codes", all(p.rc == 0 for p in procs), f"{len(procs)} processes")
    run.check("csv-identical", len(csvs) == 1 and b"" not in csvs,
              f"{len(csvs)} distinct CSV among {len(procs)} processes")
    csv = procs[0].csv
    name = run.wl.name
    try:
        if name == "sweep-eps-reduced":
            run.check("physics", *checks.check_reduced_sweep(
                csv.decode(), run.seed, REDUCED_RATIOS * REDUCED_EPSILONS))
        elif name == "sweep-eps-effective":
            run.check("physics", *checks.check_effective_sweep(
                csv.decode(), run.cfg, WORK / "cache", checks.source_digest(SRC / "casqed")))
            two = run.cli(run.dir / "workers2", workers=2)
            run.check("workers-2", two.rc == 0 and two.csv == csv,
                      "--workers 2 CSV " + ("identical to" if two.csv == csv else "DIFFERS from")
                      + " --workers 1")
        else:
            run.check("physics", *checks.check_evolve(csv, run.cfg, run.dir / "capture", run.seed))
    except Exception as exc:  # a check that cannot run is a failed check
        traceback.print_exc()
        run.check("physics", False, f"{type(exc).__name__}: {exc}")


def end_to_end(run: Run) -> tuple:
    setups = run.setup_seconds()
    out = run.dir / "out"
    procs = timed_loop(run, lambda i: run.cli(out, cpu=cpu_for(i)), minimum=2)
    attempted, failed, done = _points(procs)
    experiment_s = [p.manifest.get("wall_clock_s", 0.0) for p in procs]
    walls = [p.wall_s for p in procs]
    rate = [n / t for n, t in zip(done, experiment_s) if t > 0]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "points_per_s": statistics.median(rate) if rate else 0.0,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in procs),
        "converged_frac": 1.0 - failed / attempted,
    }
    run.lines.append(f"  {len(procs)} timed processes, {SETUP_REPEATS} set-up probes")
    for name, unit in END_TO_END:
        run.lines.append(f"  {name:<16} {metrics[name]:12.6g} {unit}")
    run.lines.append(f"  wall_s range {min(walls):.4g}..{max(walls):.4g} s; "
                     f"experiment time {statistics.median(experiment_s):.4g} s")
    if run.wl.command == "evolve":
        from casqed.config import load_config

        cfg = load_config(run.cfg)
        sim_us = cfg.t_max_us * len(cfg.tiers)
        run.lines.append(f"  sim_us_per_s     {sim_us / statistics.median(experiment_s):12.6g} us/s")
    output_checks(run, procs)
    return attempted, failed, metrics


def per_layer(run: Run) -> tuple:
    import layers
    import tracer

    spans_dir = run.dir / "spans"
    spans_dir.mkdir()
    out = run.dir / "out"

    def pair(i):
        return (run.cli(out, cpu=cpu_for(i)),
                run.cli(out, traced_spans=spans_dir / f"{i}.npz", cpu=cpu_for(i)))

    pairs = timed_loop(run, pair, minimum=1)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    docs = [tracer.load(path) for path in sorted(spans_dir.glob("*.npz"))]
    metrics = layers.combine([layers.run_metrics(d) for d in docs]) if docs else {}
    manifest = out / "manifest.json"
    metrics["experiments.manifest_bytes"] = manifest.stat().st_size if manifest.exists() else 0
    untraced_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
    })
    probe_proc = subprocess.run([sys.executable, str(HERE / "probes.py")], cwd=ROOT,
                                env=child_env(), capture_output=True, text=True,
                                timeout=CHILD_TIMEOUT_S)
    if probe_proc.returncode == 0:
        metrics.update(json.loads(probe_proc.stdout.strip().splitlines()[-1]))
    else:
        run.check("probes", False, probe_proc.stderr.strip()[-400:])
    for name, unit in layers.PER_LAYER:
        metrics.setdefault(name, 0.0)
    shares = ", ".join(f"{k.split('.')[1]} {metrics[k]:.1%}" for k, _ in layers.PER_LAYER
                       if k.startswith("layer.") and metrics[k] >= 0.005)
    run.lines.append(f"  {len(traced)} traced + {len(plain)} untraced processes; "
                     f"self-time shares: {shares}")
    run.lines.append(f"  tracing overhead {metrics['trace.overhead_s']:.3f} s "
                     f"({metrics['trace.overhead_frac']:.1%} of {untraced_wall:.3f} s)")
    attempted, failed, _ = _points(plain + traced)
    output_checks(run, plain + traced)
    return attempted, failed, {n: metrics[n] for n, _ in layers.PER_LAYER}


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    import checks

    return {
        "commit": commit,
        "src_sha256": checks.source_digest(SRC / "casqed"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(workload, args, work: Path) -> dict:
    run = Run(workload, args.seed, args.seconds, work)
    attempted, failed, metrics = (per_layer if args.trace else end_to_end)(run)
    print(f"workload {workload.name} (seed {args.seed}, trace {args.trace})")
    for line in run.lines:
        print(line)
    correct = bool(run.checks) and all(run.checks) and failed == 0
    if args.trace:
        import layers

        units = dict(layers.PER_LAYER)
    else:
        units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its children (see run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "casqed" / "__init__.py").is_file():
        print(f"no casqed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print("env: " + json.dumps(environment(args)))
    for case, why in NOT_RUN:
        print(f"not run: {case}: {why}")
    work = WORK / f"run-{os.getpid()}"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_one(WORKLOADS[n], args, work) for n in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
