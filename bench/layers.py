"""Per-layer measurements, taken from outside the package.

Two instruments live here:

- ``Tracer`` swaps the public functions of each module (and numpy's two
  Hermitian eigensolvers) for wrappers that record a span per call.  Spans
  are aggregated in memory by name: calls, inclusive time, self time (the
  span minus its child spans) and eigendecompositions inside the span.
- ``probe_layers`` times calls into each module's public functions on fixed,
  seeded inputs and returns one metric per layer quantity.  Timings are
  batch medians with the tracer off; only the eigendecomposition counts come
  from traced calls.
"""

import contextlib
import io
import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from youngbounds import catalog, cli, operators, scalar, verify
from youngbounds.scalar import EvalPoint

import workloads

TRACED = {
    scalar: ("young_ratio", "kantorovich", "deformed_exp", "deformed_exp_raw",
             "kantorovich_identity_arg"),
    catalog: ("evaluate", "evaluate_grid", "certify_point", "tightest", "chain_check",
              "get_bound", "list_bounds", "bound_ids"),
    verify: ("sweep", "eval_diff", "find_sign_change", "reproduce_remarks", "diff_ids"),
    operators: ("hermitian_power", "weighted_arithmetic", "weighted_geometric",
                "loewner_leq", "validate_sandwich", "certify_corollary_one",
                "certify_corollary_two", "read_matrix", "write_matrix"),
    cli: ("main",),
    np.linalg: ("eigh", "eigvalsh"),
}
EIG_SPANS = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")


class Tracer:
    """Span statistics per wrapped function; install() ... uninstall()."""

    def __init__(self):
        self.stats = {}     # name -> [calls, total_s, self_s, eig_calls]
        self._stack = []    # open spans: [child_s, eig_calls]
        self._saved = []

    def install(self):
        for module, names in TRACED.items():
            prefix = module.__name__.replace("youngbounds.", "")
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(f"{prefix}.{name}", original))

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, label, fn):
        stack, stats = self._stack, self.stats
        is_eig = label in EIG_SPANS

        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                entry = stats.setdefault(label, [0, 0.0, 0.0, 0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                entry[3] += frame[1]
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += frame[1] + is_eig

        return traced

    def summary(self):
        """Per span name: calls, inclusive and self milliseconds, eig calls."""
        return {name: {"calls": c, "total_ms": t * 1e3, "self_ms": s * 1e3, "eig_calls": e}
                for name, (c, t, s, e) in sorted(self.stats.items())}


def _median_time(fn, reps, inner=1):
    """Median over reps of the per-call time of fn() run inner times."""
    samples = []
    for _ in range(reps):
        start = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - start) / inner)
    return statistics.median(samples)


def _loop_time(fn, items, reps):
    """Median over reps of the mean time of fn(item) across items."""
    def run_all():
        for item in items:
            fn(item)
    return _median_time(run_all, reps) / len(items)


def _eig_calls(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return sum(tracer.stats.get(name, [0, 0, 0, 0])[0] for name in EIG_SPANS)


def _child_ms(argv, env, reps):
    samples = []
    for _ in range(reps):
        start = perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        samples.append((perf_counter() - start) * 1e3)
    return statistics.median(samples)


def probe_scalar(rng, m, smoke):
    n = 500 if smoke else 5000
    pairs = [(float(10.0 ** rng.uniform(-9, 9)), float(rng.random())) for _ in range(n)]
    points = [EvalPoint(t, v) for t, v in pairs]
    m["scalar.evalpoint_us"] = (_loop_time(lambda tv: EvalPoint(*tv), pairs, 5) * 1e6, "us")
    m["scalar.young_ratio_us"] = (_loop_time(scalar.young_ratio, points, 5) * 1e6, "us")
    n_t, n_v = workloads.SMOKE_GRID if smoke else workloads.SWEEP_GRID
    x = rng.uniform(0.0, 10.0, n_t * n_v)
    per_call = _median_time(lambda: scalar.deformed_exp_raw(0.5, x), 9)
    m["scalar.deformed_exp_raw_ns_per_pt"] = (per_call / x.size * 1e9, "ns/pt")


def probe_grids(m, smoke):
    """evaluate_grid per entry, and the sweep around it, on the sweep-grid grid."""
    n_t, n_v = workloads.SMOKE_GRID if smoke else workloads.SWEEP_GRID
    specs = catalog.list_bounds()
    grid_s = {spec.id: [] for spec in specs}
    sweep_s, self_s = [], []
    for _ in range(9):
        total_sweep = total_grid = 0.0
        for spec in specs:
            region = workloads.region_of(spec.region, workloads.DEFAULT_WINDOWS, n_t, n_v)
            tg, vg = region.t_grid()[:, None], region.v_grid()[None, :]
            start = perf_counter()
            catalog.evaluate_grid(spec.id, tg, vg)
            mid = perf_counter()
            verify.sweep(spec.id, region)
            grid_s[spec.id].append(mid - start)
            total_grid += mid - start
            total_sweep += perf_counter() - mid
        sweep_s.append(total_sweep)
        self_s.append(total_sweep - total_grid)
    for bound_id, samples in grid_s.items():
        m[f"catalog.evaluate_grid_ns_per_pt.{bound_id}"] = (
            statistics.median(samples) / (n_t * n_v) * 1e9, "ns/pt")
    points = n_t * n_v * len(specs)
    m["verify.sweep_ns_per_pt"] = (statistics.median(sweep_s) / points * 1e9, "ns/pt")
    m["verify.sweep_self_ns_per_pt"] = (statistics.median(self_s) / points * 1e9, "ns/pt")
    m["verify.grid_points"] = (n_t * n_v, "count")


def probe_catalog(rng, m, smoke):
    n = 100 if smoke else 1000
    points = [EvalPoint(float(10.0 ** rng.uniform(-9, 9)), float(rng.random())) for _ in range(n)]
    pairs = [(spec.id, p) for p in points for spec in catalog.list_bounds()
             if workloads.valid_at(spec.region, p.t)]
    m["catalog.evaluate_us"] = (_loop_time(lambda a: catalog.evaluate(*a), pairs, 5) * 1e6, "us")
    m["catalog.certify_point_us"] = (
        _loop_time(lambda a: catalog.certify_point(*a), pairs, 5) * 1e6, "us")
    sides = [(side, p) for p in points for side in (catalog.UPPER, catalog.LOWER)]
    m["catalog.tightest_us"] = (_loop_time(lambda a: catalog.tightest(*a), sides, 5) * 1e6, "us")
    low = [EvalPoint(min(p.t, 1.0 / p.t), p.v) for p in points]
    m["catalog.chain_check_us"] = (_loop_time(catalog.chain_check, low, 5) * 1e6, "us")


def probe_verify(rng, m, smoke):
    for n in (41, 401):
        regions = []
        for diff_id in workloads.WITNESS_DIFFS:
            t_lo, t_hi, delta = verify.DIFF_PRESETS[diff_id]
            size = n if not smoke else min(n, 101)
            regions.append((diff_id, verify.Region(t_lo, t_hi, 0.0, 1.0, verify.LOG, size, size),
                            delta))
        per_call = _loop_time(lambda a: verify.find_sign_change(*a), regions, 3)
        m[f"verify.find_sign_change_ms.{n}"] = (per_call * 1e3, "ms")

    k = 100 if smoke else 1000
    cases = []
    for _ in range(k):
        p = EvalPoint(float(10.0 ** rng.uniform(-9, 9)), float(rng.random()))
        for diff_id in verify.diff_ids():
            if workloads.valid_at(workloads.DIFF_REGIONS[diff_id], p.t):
                cases.append((diff_id, p, 1.001))
    m["verify.eval_diff_us"] = (_loop_time(lambda a: verify.eval_diff(*a), cases, 5) * 1e6, "us")
    m["verify.reproduce_remarks_ms"] = (_median_time(verify.reproduce_remarks, 5, 20) * 1e3, "ms")


def probe_operators(rng, m, smoke, workdir):
    def instance(k, dim):
        """Raw instance data plus its matrix and sandwich objects A, B and S."""
        inst = workloads.sandwich_instance(k, rng, dim)
        return dict(inst, **dict(zip("ABS", workloads.operands(inst))))

    groups = {
        "small": [instance(k, int(rng.integers(1, 9))) for k in range(8 if smoke else 40)],
        "d64": [instance(k, 16 if smoke else 64) for k in range(3)],
    }
    for tag, instances in groups.items():
        def per_call_ms(fn):
            return _loop_time(fn, instances, 5) * 1e3

        m[f"operators.hermitian_matrix_us.{tag}"] = (
            per_call_ms(lambda i: operators.HermitianMatrix(i["a"])) * 1e3, "us")
        m[f"operators.validate_sandwich_ms.{tag}"] = (
            per_call_ms(lambda i: operators.validate_sandwich(i["A"], i["B"], i["S"])), "ms")
        m[f"operators.weighted_geometric_ms.{tag}"] = (
            per_call_ms(lambda i: operators.weighted_geometric(i["A"], i["B"], i["v"])), "ms")
        m[f"operators.loewner_leq_ms.{tag}"] = (
            per_call_ms(lambda i: operators.loewner_leq(i["A"], i["B"])), "ms")
        m[f"operators.certify_corollary_one_ms.{tag}"] = (per_call_ms(
            lambda i: operators.certify_corollary_one(i["A"], i["B"], i["v"], i["r"], i["S"])),
            "ms")
        m[f"operators.certify_corollary_two_ms.{tag}"] = (per_call_ms(
            lambda i: operators.certify_corollary_two(i["A"], i["B"], i["v"], i["r1"],
                                                      i["r2"], i["S"])), "ms")

    i = groups["small"][0]
    counted = {
        "validate_sandwich": lambda: operators.validate_sandwich(i["A"], i["B"], i["S"]),
        "certify_corollary_one": lambda: operators.certify_corollary_one(
            i["A"], i["B"], i["v"], i["r"], i["S"]),
        "certify_corollary_two": lambda: operators.certify_corollary_two(
            i["A"], i["B"], i["v"], i["r1"], i["r2"], i["S"]),
    }
    for name, fn in counted.items():
        m[f"operators.eig_calls.{name}"] = (_eig_calls(fn), "count")

    path = os.path.join(workdir, "probe_matrix.txt")
    operators.write_matrix(path, groups["small"][-1]["A"])
    m["operators.read_matrix_ms"] = (_median_time(lambda: operators.read_matrix(path), 5, 20)
                                     * 1e3, "ms")


def probe_cli(rng, m, smoke, workdir, env):
    reps = 2 if smoke else 5
    bare = _child_ms([sys.executable, "-c", "pass"], env, reps)
    imported = _child_ms([sys.executable, "-c", "import youngbounds.cli"], env, reps)
    m["cli.interpreter_start_ms"] = (bare, "ms")
    m["cli.import_ms"] = (imported - bare, "ms")

    inst = workloads.sandwich_instance(0, rng, 8)
    a_path = os.path.join(workdir, "probe_a.txt")
    b_path = os.path.join(workdir, "probe_b.txt")
    A, B, _ = workloads.operands(inst)
    operators.write_matrix(a_path, A)
    operators.write_matrix(b_path, B)
    args = {"bound": "K-upper", "t": 0.37, "v": 0.3, "diff": "diff-l", "pair": 0,
            "sandwich": inst["sandwich"], "claim": "two", "variant": "as-stated"}
    for sub in workloads.CliMain.SUBCOMMANDS:
        argv = workloads.cli_argv(sub, args, [(a_path, b_path)], "json")

        def call():
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
            return out.getvalue()

        m[f"cli.main_ms.{sub}"] = (_median_time(call, 5, 2 if smoke else 10) * 1e3, "ms")
        m[f"cli.envelope_bytes.{sub}"] = (len(call().encode()), "count")


def probe_layers(seed, smoke, workdir, env):
    """Every per-layer metric as name -> (value, unit)."""
    rng = np.random.default_rng([seed, 5])
    m = {}
    probe_scalar(rng, m, smoke)
    probe_grids(m, smoke)
    probe_catalog(rng, m, smoke)
    probe_verify(rng, m, smoke)
    probe_operators(rng, m, smoke, workdir)
    probe_cli(rng, m, smoke, workdir, env)
    return m
