"""youngbounds benchmark: one run of one workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one seeded workload from workloads.py as a closed loop with a single
client and prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds (the gap is ``trace.overhead_frac``) and reports the per-layer
metrics from layers.py.  The line before the result is a JSON record of the
environment, the input digest, the failing op ids and the span profile.  The
package is imported from ``src/`` next to this directory; without it the run
exits with an error and prints no result.  NOTES.md describes the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# BLAS and OpenMP pools are pinned to one thread before numpy loads, here and
# (through the environment) in every child process: unpinned, dim-32
# certificates on a 2-core box varied from 2.4 ms to 48 ms.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CHILDREN = 20
TAIL_BEYOND = 10

# A fresh process: time `import youngbounds`, build the inputs (not timed),
# then time one warm-up op of each kind.  Prints the timed seconds.
SETUP_CHILD = """
import sys
from time import perf_counter
t0 = perf_counter()
import youngbounds, youngbounds.cli
t1 = perf_counter()
sys.path.insert(0, {bench!r})
import workloads
wl = workloads.WORKLOADS[{workload!r}]({seed!r}, {smoke!r}, {workdir!r})
ops = wl.warmup_ops()
t2 = perf_counter()
for op in ops:
    wl.run(op)
t3 = perf_counter()
print((t1 - t0) + (t3 - t2))
"""


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    path = env.get("PYTHONPATH", "")
    if path.split(os.pathsep)[0] != SRC:
        env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return env


def import_package():
    """Import youngbounds from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "youngbounds", "__init__.py")):
        sys.exit(f"error: no package at {SRC}/youngbounds")
    os.environ.update(child_env())
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import youngbounds
    if os.path.dirname(os.path.dirname(os.path.abspath(youngbounds.__file__))) != SRC:
        sys.exit(f"error: youngbounds imported from {youngbounds.__file__}, not {SRC}")
    return youngbounds


def _canonical(obj, h):
    """Feed a stable byte form of generated inputs to hash h."""
    import numpy as np
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            h.update(repr(key).encode())
            _canonical(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _canonical(item, h)
        h.update(b"]")
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    else:
        h.update(repr(obj).encode())


def input_digest(wl):
    """sha256 over the round's op ids and arguments."""
    h = hashlib.sha256()
    for op in wl.ops:
        h.update(op.id.encode())
        _canonical(op.args, h)
    return h.hexdigest()


class Setup:
    """Set-up children spread over the timed phase; ``seconds()`` is their minimum.

    Each child is a fresh process timed by SETUP_CHILD.  The host's speed
    moves in phases of seconds: 30 fresh imports in a row had a median of
    0.117 s in one batch and 0.141 s in the next, and the minimum of 7
    children run back to back still ranged over 0.099-0.139 s across runs.
    Spread over the run, like the repetitions behind the per-op minima, the
    children meet the host's fast phases as often as the timed ops do.
    """

    def __init__(self, name, seed, smoke, workdir, env):
        self.args = {"bench": BENCH_DIR, "workload": name, "seed": seed, "smoke": smoke}
        self.workdir = workdir
        self.env = env
        self.count = 1 if smoke else SETUP_CHILDREN
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples = []

    def child(self):
        """Run one child, on the next CPU in turn; returns its wall seconds."""
        start = perf_counter()
        k = len(self.samples)
        workdir = os.path.join(self.workdir, f"setup{k}")   # its own input files
        os.mkdir(workdir)
        code = SETUP_CHILD.format(workdir=workdir, **self.args)
        os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})
        try:   # the child inherits the affinity
            out = subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                                 capture_output=True, text=True).stdout
        finally:
            os.sched_setaffinity(0, self.cpus)
        self.samples.append(float(out.strip().splitlines()[-1]))
        return perf_counter() - start

    def due(self, elapsed, seconds):
        """Run the next child if elapsed has reached its share of the phase.

        Returns the wall seconds spent, which the caller adds to its deadline.
        """
        if len(self.samples) < self.count and elapsed >= len(self.samples) * seconds / self.count:
            return self.child()
        return 0.0

    def seconds(self):
        while len(self.samples) < self.count:
            self.child()
        return min(self.samples)


class Loop:
    """Closed-loop replay of whole rounds, with per-op latency and checks.

    ``best[i]`` is the fastest latency seen for op i of the round.  The host's
    speed swings by up to 1.6x in phases of several seconds (a fixed Python
    loop took 10.7-17.5 ms in 2 s windows), so the end-to-end timings are
    taken over these per-op minima, each from repetitions spread over the run.
    """

    def __init__(self, wl):
        self.wl = wl
        self.latencies = []
        self.best = [float("inf")] * len(wl.ops)
        self.failed = {}
        self.attempted = 0
        self.raised = 0
        self.rounds = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def op(self, index):
        op = self.wl.ops[index]
        start = perf_counter()
        try:
            out = self.wl.run(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            elapsed = perf_counter() - start
            self.raised += 1
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = perf_counter() - start
            reason = self.wl.check(op, out)
        self.latencies.append(elapsed)
        self.best[index] = min(self.best[index], elapsed)
        self.attempted += 1
        if reason is not None:
            self.failed.setdefault(op.id, [0, reason])[0] += 1

    def round(self):
        """One pass over the round's ops; returns the seconds spent inside ops.

        Successive rounds run on successive CPUs of the process's affinity
        set: the CPUs of a shared host slow down independently of each other.
        """
        cpus = self.cpus
        os.sched_setaffinity(0, {cpus[self.rounds % len(cpus)]})
        self.rounds += 1
        first = len(self.latencies)
        try:
            for index in range(len(self.wl.ops)):
                self.op(index)
        finally:
            os.sched_setaffinity(0, cpus)
        return sum(self.latencies[first:])


def timings(latencies):
    """ops/s, median and tail latency, the tail's percentile and samples beyond it.

    The tail is the highest percentile with TAIL_BEYOND samples beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return {"ops_per_s": n / sum(ordered), "op_p50_ms": statistics.median(ordered) * 1e3,
            "op_tail_ms": ordered[index] * 1e3, "tail_percentile": 100.0 * (index + 1) / n,
            "tail_beyond": n - index - 1, "samples": n}


def environment(youngbounds, numpy):
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "package_version": youngbounds.__version__,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    # The ceiling keeps git from searching the directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(workload, seed, seconds, trace, smoke=False, inject=False):
    """One benchmark run; returns (result line dict, detail dict)."""
    youngbounds = import_package()
    import numpy
    import layers
    import workloads
    env = child_env()
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        wl = workloads.WORKLOADS[workload](seed, smoke, workdir)
        digest = input_digest(wl)
        wl.expect()
        if inject:
            wl.inject(wl.ops[0])
        for op in wl.warmup_ops():
            wl.run(op)

        detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                  "input_digest": digest, "ops_per_round": len(wl.ops)}
        loops = [Loop(wl)]
        start = perf_counter()
        if trace:
            # Untraced and traced rounds alternate, so drift on a shared box
            # cancels out of the overhead estimate.
            tracer = layers.Tracer()
            loops.append(Loop(wl))
            while not loops[0].attempted or perf_counter() - start < seconds:
                loops[0].round()
                tracer.install()
                try:
                    loops[1].round()
                finally:
                    tracer.uninstall()
            metrics = layers.probe_layers(seed, smoke, workdir, env)
            overhead = sum(loops[1].best) / sum(loops[0].best) - 1.0
            metrics["trace.overhead_frac"] = (overhead, "frac")
            detail["spans"] = tracer.summary()
        else:
            setup = Setup(workload, seed, smoke, workdir, env)
            paused = 0.0     # wall seconds spent in set-up children
            while not loops[0].attempted or perf_counter() - start - paused < seconds:
                loops[0].round()
                paused += setup.due(perf_counter() - start - paused, seconds)
        attempted = sum(loop.attempted for loop in loops)
        failed = {}
        for loop in loops:
            for op_id, (count, reason) in loop.failed.items():
                failed.setdefault(op_id, [0, reason])[0] += count
        n_failed = sum(count for count, _ in failed.values())
        if not trace:
            # Over per-op minima, op_tail_ms is the fastest latency of the
            # round's slowest ops (dim-64 instances, remarks), not a tail of
            # stalls: intermittent GC or allocation pauses do not move it.
            # The tail over all samples is in the detail record.
            best = timings(loops[0].best)
            metrics = {
                "setup_s": (setup.seconds(), "s"),
                "ops_per_s": (best["ops_per_s"], "1/s"),
                "op_p50_ms": (best["op_p50_ms"], "ms"),
                "op_tail_ms": (best["op_tail_ms"], "ms"),
                "ok_frac": (1.0 - n_failed / attempted, "frac"),
                "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
            }
            detail["setup_samples_s"] = setup.samples
            detail["per_op_minima"] = best
            detail["all_samples"] = timings(loops[0].latencies)

    raised = sum(loop.raised for loop in loops)
    detail.update({
        "ops_attempted": attempted,
        "ops_failed": n_failed,
        "fail_frac": n_failed / attempted,
        "ops_raised": raised,
        "findings": wl.findings,
        "failed_ops": {op_id: {"count": c, "reason": r}
                       for op_id, (c, r) in sorted(failed.items())},
        "environment": environment(youngbounds, numpy),
    })
    result = {
        "correct": raised == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None):
    import_package()
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
