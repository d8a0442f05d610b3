#!/usr/bin/env python3
"""qng benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
A run sets up the workload's inputs from the seed, then repeats the workload
until ``--seconds`` have passed (at least ``min_reps`` times), each
repetition starting with the package's in-process caches cold.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

--trace 0  wall_s and cpu_s (including --jobs children), the median over
           repetitions, peak_rss_mb (this process plus its largest child),
           and setup_s (imports plus input generation) as the median of this
           run's set-up and SETUP_PROBES fresh processes.  wall_s, cpu_s and
           setup_s are scaled to a reference host speed by the interleaved
           probe of hostspeed.py; the summary line also gives the raw times.
--trace 1  per-layer metrics from the tracer (see tracing.py), the median
           over traced repetitions, which alternate with untraced ones;
           trace.overhead_s is the difference of their median wall times.

fail_ratio is ``failed / attempted``.  The exit code is 0 whenever a result
is printed; 2 when the package source or an argument is missing.
"""

from __future__ import annotations

import time

START = time.perf_counter()

from hostspeed import Probe  # noqa: E402

SETUP_PROBE = Probe()
SETUP_PROBE.start(since=START)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("census-n8", "registry-n7", "proof-sweep", "stream-n9")
SETUP_PROBES = 2


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time and exit (used for setup_s probes)")
    return p.parse_args(argv)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def clear_package_caches() -> None:
    """Drop the in-process memo state a fresh ``qng`` invocation starts without."""
    from qng import enumeration

    getattr(enumeration, "_ALL_GRAPHS", {}).clear()
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("qng"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def setup_probe(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def measure(workload, state, seconds: float, tracer):
    """Repeat the workload; with a tracer, every second repetition is traced.

    Without a tracer every repetition runs under the host-speed probe, and
    ``walls``/``cpus`` hold (raw, scaled) pairs.
    """
    from tracing import layer_metrics

    probe = Probe(all_cores=workload.processes > 1) if tracer is None else None
    walls, cpus, traced_walls, layers = [], [], [], []
    attempted = failed = 0
    begin = time.perf_counter()
    rep = 0
    while True:
        traced = tracer is not None and rep % 2 == 1
        clear_package_caches()
        gc.collect()
        if traced:
            tracer.install()
            tracer.reset()
        if probe:
            probe.start()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            outcome = workload.rep(state)
        finally:
            if probe:
                probe.stop()  # its last probe closes the work, so it is inside the timing
        t1, cpu1 = time.perf_counter(), cpu_seconds()
        if traced:
            layers.append(layer_metrics(tracer.collect(), outcome.classes))
            tracer.uninstall()
            traced_walls.append(t1 - t0)
        elif probe:
            cpu = cpu1 - cpu0 - probe.overhead_cpu
            walls.append((probe.raw_wall(), probe.scaled_wall()))
            cpus.append((cpu, cpu * probe.cpu_factor()))
        else:
            walls.append(t1 - t0)
            cpus.append(cpu1 - cpu0)
        attempted += outcome.attempted
        failed += outcome.failed
        rep += 1
        done = traced_walls if tracer else len(walls) >= workload.min_reps
        if done and time.perf_counter() - begin >= seconds:
            return walls, cpus, traced_walls, layers, attempted, failed


def default_signals() -> None:
    """Give a forked pool worker the default handlers back.

    A pool stops its workers with SIGTERM and must not wait on one that
    unwinds instead; no worker runs the host-speed probe.
    """
    for signum in (signal.SIGTERM, signal.SIGALRM):
        signal.signal(signum, signal.SIG_DFL)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the scratch directory and any pool are cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.register_at_fork(after_in_child=default_signals)
    if not os.path.isfile(os.path.join(SRC, "qng", "__init__.py")):
        print(f"error: no package source at {SRC}/qng; run from a qng checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qng

    if not os.path.abspath(qng.__file__).startswith(SRC + os.sep):
        print(f"error: imported qng from {qng.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".run-", dir=HERE)
    try:
        state = workload.setup(args.seed, workdir)
        SETUP_PROBE.stop()
        raw_setup_s, setup_s = SETUP_PROBE.raw_wall(), SETUP_PROBE.scaled_wall()
        if args.setup_only:
            print(repr(setup_s))
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(workdir)
        walls, cpus, traced_walls, layers, attempted, failed = measure(
            workload, state, args.seconds, tracer)
        peak = peak_rss_mb()
        reps = (f"{w:.3f}" if tracer else f"{w[0]:.3f}->{w[1]:.3f}" for w in walls)
        print("rep wall_s: " + " ".join(reps)
              + " | traced: " + " ".join(f"{w:.3f}" for w in traced_walls), file=sys.stderr)
        failed += workload.finish(state, ROOT)
        raw = ""
        if tracer is None:
            setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
            metrics = {
                "wall_s": (statistics.median(w[1] for w in walls), "s"),
                "cpu_s": (statistics.median(c[1] for c in cpus), "s"),
                "peak_rss_mb": (peak, "MB"),
                "setup_s": (statistics.median(setups), "s"),
            }
            raw = (f" raw: wall_s={statistics.median(w[0] for w in walls):.6g}"
                   f" cpu_s={statistics.median(c[0] for c in cpus):.6g} setup_s={raw_setup_s:.6g}")
        else:
            metrics = {}
            for name, (_, unit) in layers[0].items():
                median = statistics.median_low if unit == "count" else statistics.median
                metrics[name] = (median([layer[name][0] for layer in layers]), unit)
            metrics["trace.overhead_s"] = (
                statistics.median(traced_walls) - statistics.median(walls), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = " ".join(f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items())
    print(f"{args.workload} seed={args.seed} reps={len(walls)} untraced, {len(traced_walls)} traced "
          f"fail_ratio={failed / attempted:.6g} ({failed}/{attempted}) {summary}{raw}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        SETUP_PROBE.stop()
    sys.exit(code)
