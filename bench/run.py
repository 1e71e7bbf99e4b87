"""frameport benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload transpile-mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the ops run untraced for ``--seconds`` and the last
stdout line holds the end-to-end metrics. With ``--trace 1`` the ops run
untraced for half of ``--seconds``, then the same ops run again under the
span tracer; the last line holds the per-layer metrics and the tracing
overhead. Earlier lines print every metric by name with its unit, plus the
machine and run facts. Reports and span files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS threads are pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("transpile-mix", "learn-corpus", "align-large-vocab")
SETUP_REPEATS = 3
# every run must end within 180 s, whatever --seconds and the op count ask
DEADLINE_S = 150.0
# The speed of a shared machine drifts by a quarter and more over periods
# of seconds. A fixed pure-Python loop, timed from a timer signal every
# REFERENCE_EVERY_S while ops run, tracks that drift; op times exclude the
# loop and are reported rescaled to the speed at which the loop takes
# REFERENCE_S (wall times are kept in the report).
REFERENCE_S = 0.010
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW_S = 1.0


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_facts(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def reference_loop() -> float:
    """Wall time of a fixed loop that runs no frameport code."""
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    return time.perf_counter() - t0


def at_reference_speed(ops, refs) -> list[float]:
    """Rescale each op's time by REFERENCE_S over the median reference loop
    time measured while the op ran, or, with fewer than three such samples,
    within REFERENCE_WINDOW_S of it."""
    import numpy

    ref_t = numpy.array([t for t, _ in refs])
    ref_d = numpy.array([d for _, d in refs])
    out = []
    for start, end, dt in ops:
        near = (ref_t >= start) & (ref_t <= end)
        if near.sum() < 3:
            near = (ref_t >= start - REFERENCE_WINDOW_S) & (
                ref_t <= end + REFERENCE_WINDOW_S
            )
        if not near.any():
            k = int(numpy.searchsorted(ref_t, start))
            near = slice(max(k - 1, 0), k + 1)
        out.append(dt * REFERENCE_S / float(numpy.median(ref_d[near])))
    return out


def setup(wl) -> list[tuple[float, float]]:
    """Set up SETUP_REPEATS times: a fresh interpreter importing the
    program, then the workload's inputs (and warm-up, if any). Returns
    (wall s, s at reference speed) per set-up; the speed is the median of
    three reference loops before and three after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        refs = [reference_loop() for _ in range(3)]
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import frameport.cli"],
            env=_child_env(), check=True,
        )
        wl.prepare()
        wall = time.perf_counter() - t0
        refs += [reference_loop() for _ in range(3)]
        times.append((wall, wall * REFERENCE_S / statistics.median(refs)))
    return times


class Loop:
    """Closed loop of one caller; op times exclude input making and checks."""

    def __init__(self, wl, started: float) -> None:
        self.wl = wl
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.dt = self.end = 0.0
        self.refs: list[tuple[float, float]] = []  # (time, reference loop s)
        self.paused = 0.0  # time spent in the reference loop so far

    def _sample_speed(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.refs.append((t0, reference_loop()))
        self.paused += time.perf_counter() - t0

    def _sampling(self, on: bool) -> None:
        if on:
            self._sample_speed()
            signal.signal(signal.SIGALRM, self._sample_speed)
            signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _clock(self) -> tuple[float, float]:
        """(now, reference loop time so far), read with the timer held off."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter(), self.paused
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def one(self, i: int, tracer=None) -> tuple[float, float, float]:
        """Run op ``i``; return its start, end and time without the
        reference loop, also if it failed."""
        wl = self.wl
        self.attempted += 1
        self.dt = 0.0
        start = self.end = time.perf_counter()
        try:
            inputs = wl.before(i)
            if tracer is None:
                start = self._run(i, inputs)
            else:
                tracer.begin_request(f"op{i}")
                try:
                    wl.instrument(tracer)
                    with tracer.span("bench.op"):
                        start = self._run(i, inputs)
                finally:
                    tracer.restore()
            wl.check(i, inputs)
        except Exception:
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(traceback.format_exc())
        return start, self.end, self.dt

    def _run(self, i: int, inputs) -> float:
        t0, paused0 = self._clock()
        try:
            self.wl.run(i, inputs)
        finally:
            self.end, paused1 = self._clock()
            self.dt = self.end - t0 - (paused1 - paused0)
        return t0

    def for_seconds(self, seconds: float, min_ops: int) -> list[tuple]:
        ops: list[tuple] = []
        t_start = time.perf_counter()
        self._sampling(True)
        try:
            while True:
                now = time.perf_counter()
                if now - self.started > DEADLINE_S:
                    break
                if now - t_start >= seconds and len(ops) >= min_ops:
                    break
                ops.append(self.one(len(ops)))
        finally:
            self._sampling(False)
        return ops

    def same_ops(self, n: int, tracer) -> list[tuple]:
        self._sampling(True)
        try:
            return [self.one(i, tracer) for i in range(n)]
        finally:
            self._sampling(False)


def _quantile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _args(argv)
    if not (SRC / "frameport" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'frameport'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import frameport
    import workloads
    from spans import Summary, Tracer

    if Path(frameport.__file__).resolve().parent != (SRC / "frameport").resolve():
        print(f"error: imported frameport from {frameport.__file__}", file=sys.stderr)
        return 2

    facts = machine_facts(args)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        setup_times = setup(wl)
        loop = Loop(wl, started)
        if args.trace == 0:
            ops = loop.for_seconds(args.seconds, wl.min_ops)
            times = at_reference_speed(ops, loop.refs)
            metrics = {
                "setup_s": (statistics.median(t for _, t in setup_times), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
                ),
                "op_p50_ms": (_quantile(times, 50) * 1000.0, "ms"),
                "op_p99_ms": (_quantile(times, 99) * 1000.0, "ms"),
                "ops_per_s": (len(times) / sum(times), "1/s"),
                "quality": (wl.quality()[wl.primary], "frac"),
            }
            extra = {}
        else:
            # both phases must fit in the deadline
            ops = loop.for_seconds(min(args.seconds, DEADLINE_S / 2.5) / 2.0, 1)
            tracer = Tracer()
            traced_ops = loop.same_ops(len(ops), tracer)
            times = at_reference_speed(ops, loop.refs)
            traced = at_reference_speed(traced_ops, loop.refs)
            summary = Summary(tracer.spans)
            values = workloads.layer_metrics(summary, len(traced))
            values.update(
                {f"evaluate.{k}": v for k, v in wl.quality().items()
                 if f"evaluate.{k}" in workloads.LAYER_UNITS}
            )
            metrics = {
                name: (values.get(name, 0.0), unit)
                for name, unit in workloads.LAYER_UNITS.items()
            }
            overhead = sum(traced) - sum(times)
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_pct"] = (100.0 * overhead / sum(times), "%")
            metrics["trace.spans_per_op"] = (len(tracer.spans) / len(traced), "count/op")
            extra = {
                "traced_op_wall_s": [dt for _, _, dt in traced_ops],
                "self_time": [
                    {"name": n, "calls": c, "total_s": t, "self_s": s}
                    for n, c, t, s in summary.rows()
                ],
            }
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "facts": facts,
        "setup_wall_s": [w for w, _ in setup_times],
        "setup_reference_speed_s": [t for _, t in setup_times],
        "op_wall_s": [dt for _, _, dt in ops],
        "op_start_end_s": [(a, b) for a, b, _ in ops],
        "op_reference_speed_s": times,
        "reference_loop_s": loop.refs,
        "fail_frac": loop.failed / loop.attempted,
        "quality": wl.quality(),
        "errors": loop.errors,
        **extra,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )

    for err in loop.errors:
        print(err, file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in facts.items() if k != "thread_env"))
    ref_ms = 1000.0 * statistics.median(d for _, d in loop.refs)
    print(
        f"# ops={len(times)} attempted={loop.attempted} failed={loop.failed} "
        f"reference_loop_ms={ref_ms:.4g} (op times below are rescaled to "
        f"{1000.0 * REFERENCE_S:g} ms)"
    )
    walls = [dt for _, _, dt in ops]
    print(f"op_p50_wall_ms = {_quantile(walls, 50) * 1000.0:.6g} ms")
    print(f"op_p99_wall_ms = {_quantile(walls, 99) * 1000.0:.6g} ms")
    print(f"fail_frac = {loop.failed / loop.attempted:.6g} frac")
    for name, value in wl.quality().items():
        print(f"{name} = {value:.6g} frac")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
        if name in wl.workload_names:
            alias, scale, alias_unit = wl.workload_names[name]
            print(f"{alias} = {value * scale:.6g} {alias_unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
