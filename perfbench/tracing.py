"""In-memory span tracer around the public functions of the cqnls layers.

The package modules copy bindings with ``from .x import y``, so one
function can sit on several module attributes (``cqnls.waves.build_wave``,
``cqnls.curve.build_wave``, ``cqnls.build_wave``, ...).  ``Tracer.install``
replaces every ``cqnls.*`` attribute bound to a traced function by one
wrapper and ``uninstall`` puts the originals back.  The wrapper records a
span: function, start, end, parent span and the op id of the CLI
invocation it belongs to, plus an optional work amount (points, matrix
dimension).  Spans stay in flat arrays until ``save`` writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _points(args, kwargs):
    u = args[0] if args else kwargs["u"]
    return int(np.size(u))


def _dimension(args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    return int(np.shape(matrix)[0])


# Traced public functions per layer.  Deliberately left untraced:
# helpers that the layer metrics count as their caller's own work
# (collocation and the second-derivative matrix belong to the self time of
# spectrum_report) and cheap scalar helpers whose wrapper would cost more
# than the call.  `errors` does no work and is not a layer.
LAYERS = {
    "elliptic": ("complete_K", "jacobi_sn_cn_dn"),
    "fourier": ("spectral_derivative",),
    "waves": ("solve_alpha3", "period_map", "period_of_B", "build_wave"),
    "curve": ("curve_sample", "sample_curve", "derivative_audit",
              "d2d_direct", "d2d_identity", "identity_audit"),
    "hill": ("sym_eig", "spectrum_report", "theta_constant"),
    "evolve": ("run_fidelity", "run_stability", "orbital_distance"),
    "cli": ("main", "run"),
}
WORK = {"elliptic.jacobi_sn_cn_dn": _points, "hill.sym_eig": _dimension}


class Tracer:
    """Span recorder; ``op`` is the id stamped on spans opened from now on."""

    def __init__(self):
        self.names: list[str] = []
        self.op = -1
        self._name = array("h")
        self._parent = array("i")
        self._op = array("i")
        self._work = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patched: list = []

    def _wrap(self, fn, name_id, measure):
        names, parents, ops, work = self._name, self._parent, self._op, self._work
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer.op)
            work.append(measure(args, kwargs) if measure else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self) -> list:
        """Wrap the traced functions; returns the names that were not found."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cqnls" or name.startswith("cqnls."))]
        missing = []
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"cqnls.{layer}")
            for fname in functions:
                qualified = f"{layer}.{fname}"
                original = getattr(home, fname, None)
                if not callable(original):
                    missing.append(qualified)
                    continue
                self.names.append(qualified)
                wrapper = self._wrap(original, len(self.names) - 1, WORK.get(qualified))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans(self) -> dict:
        """The recorded spans as numpy arrays, with self times."""
        parent = np.array(self._parent, dtype=np.int64)
        start = np.array(self._start)
        end = np.array(self._end)
        duration = end - start
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=duration[inner],
                            minlength=len(duration))
        return {
            "name": np.array(self._name, dtype=np.int64),
            "parent": parent,
            "op": np.array(self._op, dtype=np.int64),
            "work": np.array(self._work, dtype=np.int64),
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - child,
        }

    def save(self, path) -> None:
        """Write the spans and the function-name table as an .npz file."""
        data = self.spans()
        np.savez(path, names=np.array(self.names),
                 **{k: data[k] for k in ("name", "parent", "op", "work", "start", "end")})


def layer_metrics(tracer: Tracer, ops: list, traced: list, plain: list) -> dict:
    """Per-layer metrics of a traced loop: name -> (value, unit, note).

    Counts (calls, steps, points, dim, per_solve, cache_hit_ratio,
    report_bytes) cover the first traced round, so they repeat exactly for
    a seed; times average over every traced op.  Times are inclusive per
    call unless named self_ms.  A layer the workload bypasses reads 0.
    """
    d = tracer.spans()
    ids = {name: i for i, name in enumerate(tracer.names)}
    in_round = d["op"] < len(ops)
    steps = np.array([op.steps for op in ops])[d["op"] % len(ops)]

    def sel(*names, first_round=False):
        mask = np.isin(d["name"], [ids[n] for n in names if n in ids])
        return mask & in_round if first_round else mask

    def calls(name):
        return int(np.count_nonzero(sel(name, first_round=True)))

    def per_call(name, scale, field="duration"):
        values = d[field][sel(name)]
        return float(values.mean()) * scale if values.size else 0.0

    def ratio(num, den):
        return float(num / den) if den else 0.0

    run = sel("evolve.run_fidelity", "evolve.run_stability")
    run_self = float(d["self"][run].sum())
    run_steps = int(steps[run].sum())
    parent_name = np.where(d["parent"] >= 0, d["name"][d["parent"]], -1)
    curve_ids = [i for name, i in ids.items() if name.startswith("curve.")]
    solve = sel("waves.solve_alpha3", first_round=True)
    solve_iters = np.count_nonzero(
        sel("waves.period_map", first_round=True)
        & (parent_name == ids.get("waves.solve_alpha3", -2)))
    built_by_curve = np.count_nonzero(
        sel("waves.build_wave", first_round=True) & np.isin(parent_name, curve_ids))
    cli_self = float(d["self"][sel("cli.main", "cli.run")].sum())
    plain_ms = _mean_latency(plain)
    traced_ms = _mean_latency(traced)
    shared = sorted(set(plain_ms) & set(traced_ms))

    table = {
        "evolve.step_us": (ratio(1e6 * run_self, run_steps), "us",
                           "self time of run_* per split step"),
        "evolve.steps_per_s": (ratio(run_steps, run_self), "1/s",
                               "split steps per second of run_* self time"),
        "evolve.steps": (int(steps[run & in_round].sum()), "count", "per round"),
        "evolve.orbital_distance.calls": (calls("evolve.orbital_distance"), "count",
                                          "per round"),
        "evolve.orbital_distance.us": (per_call("evolve.orbital_distance", 1e6), "us",
                                       "per call"),
        "fourier.spectral_derivative.calls": (calls("fourier.spectral_derivative"),
                                              "count", "per round"),
        "fourier.spectral_derivative.us": (per_call("fourier.spectral_derivative", 1e6),
                                           "us", "per call"),
        "hill.sym_eig.ms": (per_call("hill.sym_eig", 1e3), "ms", "per call"),
        "hill.sym_eig.dim": (int(d["work"][sel("hill.sym_eig", first_round=True)].max(
            initial=0)), "count", "largest matrix dimension"),
        "hill.spectrum_report.self_ms": (per_call("hill.spectrum_report", 1e3, "self"),
                                         "ms", "per call, without sym_eig"),
        "hill.theta_constant.self_ms": (per_call("hill.theta_constant", 1e3, "self"),
                                        "ms", "per call, without elliptic"),
        "hill.theta_constant.steps": (
            int(steps[sel("hill.theta_constant", first_round=True)].sum()), "count",
            "RK4 steps per round"),
        "elliptic.complete_K.calls": (calls("elliptic.complete_K"), "count", "per round"),
        "elliptic.complete_K.us": (per_call("elliptic.complete_K", 1e6), "us", "per call"),
        "elliptic.jacobi.points": (
            int(d["work"][sel("elliptic.jacobi_sn_cn_dn", first_round=True)].sum()),
            "count", "sn/cn/dn arguments per round"),
        "elliptic.jacobi.ms": (per_call("elliptic.jacobi_sn_cn_dn", 1e3), "ms", "per call"),
        "waves.solve_alpha3.calls": (calls("waves.solve_alpha3"), "count", "per round"),
        "waves.solve_alpha3.ms": (per_call("waves.solve_alpha3", 1e3), "ms", "per call"),
        "waves.build_wave.ms": (per_call("waves.build_wave", 1e3), "ms", "per call"),
        "waves.period_map.per_solve": (ratio(solve_iters, np.count_nonzero(solve)),
                                       "count", "period_map calls per solve_alpha3"),
        "curve.curve_sample.calls": (calls("curve.curve_sample"), "count", "per round"),
        "curve.cache_hit_ratio": (
            1.0 - ratio(built_by_curve, calls("curve.curve_sample"))
            if calls("curve.curve_sample") else 0.0, "ratio",
            "1 - build_wave calls from curve / curve_sample calls"),
        "curve.derivative_audit.ms": (per_call("curve.derivative_audit", 1e3), "ms",
                                      "per call"),
        "cli.self_ms": (1e3 * cli_self / len(traced), "ms",
                        "per op: cli spans minus library spans"),
        "cli.report_bytes": (sum(len(r.report.encode()) for r in traced[:len(ops)]),
                             "bytes", "per round"),
        "trace.overhead_ratio": (
            sum(plain_ms[i] for i in shared) / sum(traced_ms[i] for i in shared),
            "ratio", "traced over untraced ops_per_s, same op mix"),
    }
    return table


def _mean_latency(results) -> dict:
    by_index: dict = {}
    for r in results:
        by_index.setdefault(r.index, []).append(r.latency)
    return {i: sum(v) / len(v) for i, v in by_index.items()}
