"""Benchmark of the cqnls command line: seeded workloads in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 30 --trace 0

One client calls ``cqnls.cli.main(argv)`` in process, waiting for each
call before the next; an op is one such CLI invocation.  The workload's
seeded round of argv vectors (see workloads.py) is replayed until
``--seconds`` have passed, and always at least once.  Every op's exit code
and JSON report are checked; a failed op counts against ``ok_ratio`` and is
never dropped, and a replayed op must reproduce its first report byte for
byte.  The curve module's LRU cache is cleared before every op, as each
CLI invocation starts in a fresh process.

--trace 0 reports the end-to-end metrics.  --trace 1 runs half the time
untraced and half traced (each at least one round), checks that traced
reports equal the untraced ones byte for byte, writes the spans to
.perfbench/spans-<workload>.npz and reports the per-layer metrics.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Lines before it record the environment and a table of
the metrics with their sample counts.

cqnls is imported from ./src of the checkout; without it the run exits 2
before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 8  # fresh interpreters timing set-up, besides this process
# Printed in the table but left out of the result line.  On a shared 2-vCPU
# host an op's latency swings between a fast and a slow mode, so these
# percentiles spread across ten runs by up to 0.45 (p90) and 0.53 (p50) of
# their median, above the largest bound a result metric may have;
# ops_per_s, a mean over the run, spread least.
TABLE_ONLY = ("op_p50_ms", "op_p90_ms")


def _import_cli():
    """Import cqnls.cli from the checkout's src, never from elsewhere."""
    if not (SRC / "cqnls" / "__init__.py").is_file():
        raise ImportError(f"no cqnls package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cqnls.cli

    if Path(cqnls.__file__).resolve().parent != SRC / "cqnls":
        raise ImportError(f"cqnls imported from {cqnls.__file__}, not {SRC}")
    return cqnls.cli


def fresh_state() -> None:
    """Drop state a fresh CLI process would not have: the curve LRU cache."""
    sample = getattr(sys.modules.get("cqnls.curve"), "_sample", None)
    if hasattr(sample, "cache_clear"):
        sample.cache_clear()


def invoke(cli, argv):
    """One CLI invocation; returns (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # an uncaught error is a failed op, not a crashed run
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def setup(workload: str):
    """Import cqnls and run the untimed warm-up op; returns (cli, seconds, error)."""
    start = time.perf_counter()
    cli = _import_cli()
    # the first edge probe, a fixed op: lazy FFT plan and BLAS set-up happen here
    op = workloads.PROBES[workload][0]
    code, report, _ = invoke(cli, op.argv)
    seconds = time.perf_counter() - start
    fresh_state()
    error, _ = workloads.check(op, code, report)
    return cli, seconds, error


def probe_setups(workload: str, count: int) -> list:
    """Set-up times measured in fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


@dataclass(slots=True)
class Result:
    """Outcome of one op; report is kept for the first round only."""

    index: int  # position in the round
    latency: float  # seconds
    error: str | None
    report: str | None
    accuracy: float | None


def loop(cli, ops, seconds, reference=None, tracer=None):
    """Closed loop over the round until `seconds` pass, at least one round.

    Reports are compared with `reference` (the first round's reports, or
    this loop's own first round when None).  Returns (results, wall s).
    """
    results = []
    own_reference = reference is None
    reference = [] if own_reference else reference
    start = time.perf_counter()
    deadline = start + seconds
    n = 0
    while n < len(ops) or time.perf_counter() < deadline:
        index = n % len(ops)
        op = ops[index]
        fresh_state()
        if tracer is not None:
            tracer.op = n
        t0 = time.perf_counter()
        code, report, stderr = invoke(cli, op.argv)
        latency = time.perf_counter() - t0
        error, accuracy = workloads.check(op, code, report)
        if own_reference and n < len(ops):
            reference.append(report)
        elif error is None and report != reference[index]:
            error = "report differs from the op's first report"
        if error is not None:
            print(f"op failed: {' '.join(op.argv)}: {error}\n{stderr}", file=sys.stderr)
        results.append(Result(index, latency, error, report if n < len(ops) else None,
                              accuracy))
        n += 1
    return results, time.perf_counter() - start


def end_to_end(ops, results, wall, setup_times):
    """The end-to-end metrics of one untraced loop, plus table notes."""
    passed = sum(r.error is None for r in results)
    # a failed op misses every latency limit: it counts as taking the window
    lat_ms = sorted(1e3 * (r.latency if r.error is None else wall) for r in results)
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0]
    beyond = sum(x > p90 for x in lat_ms)
    accuracy = [r.accuracy for r in results if r.accuracy is not None]
    probed = [r.accuracy for r in results
              if r.accuracy is not None and ops[r.index].probe]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "ops_per_s": (passed / wall, "ops/s", f"{passed} passed ops in {wall:.2f} s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms", f"n={len(lat_ms)}"),
        "op_p90_ms": (p90, "ms", f"n={len(lat_ms)}, {beyond} beyond"),
        "ok_ratio": (passed / len(results), "ratio",
                     f"failed_ratio={(len(results) - passed) / len(results)!r}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB", "process high-water mark"),
        "err_max": (max(probed) if probed else float("nan"), "1",
                    f"over the edge probes; {max(accuracy, default=float('nan')):.3e} "
                    "over all ops"),
    }
    return metrics


def traced_run(cli, ops, seconds, path):
    """Untraced then traced loop, half the time each.

    Returns (untraced results, untraced wall s, traced results, per-layer table).
    """
    import tracing

    plain, plain_wall = loop(cli, ops, 0.5 * seconds)
    tracer = tracing.Tracer()
    missing = tracer.install()
    if missing:
        print(f"# not traced (absent): {', '.join(missing)}")
    try:
        traced, _ = loop(cli, ops, 0.5 * seconds,
                         reference=[r.report for r in plain[:len(ops)]], tracer=tracer)
    finally:
        tracer.uninstall()
    path.parent.mkdir(exist_ok=True)
    tracer.save(path)
    return plain, plain_wall, traced, tracing.layer_metrics(tracer, ops, traced, plain)


def _blas_threads(np) -> str:
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unverified (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def _commit() -> str:
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        proc = None
    if proc is None or proc.returncode != 0:
        return "unavailable (not a git checkout)"
    return proc.stdout.strip()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "commit": _commit(),
    }


def _print_table(metrics: dict) -> None:
    for name, (value, unit, note) in metrics.items():
        print(f"{name:36s} {value!r:<24} {unit:8s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # BLAS threads: at most the CPUs this process may use, set before numpy loads
    nproc = len(os.sched_getaffinity(0))
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not threads.isdigit() or not 1 <= int(threads) <= nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)

    try:
        cli, setup_s, warmup_error = setup(args.workload)
    except ImportError as exc:
        print(f"perfbench: cannot import cqnls from the checkout: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_times = [setup_s] + probe_setups(args.workload, SETUP_PROBES)

    ops = workloads.make_round(args.workload, args.seed)
    kinds = sorted({op.kind for op in ops})
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment()))
    print(f"# round of {len(ops)} ops: " + ", ".join(
        f"{sum(op.kind == k for op in ops)} {k}" for k in kinds))
    if warmup_error:
        print(f"warm-up op failed: {warmup_error}", file=sys.stderr)

    if args.trace == 0:
        results, wall = loop(cli, ops, args.seconds)
        table = end_to_end(ops, results, wall, setup_times)
    else:
        plain, wall, traced, table = traced_run(cli, ops, args.seconds,
                                                OUT / f"spans-{args.workload}.npz")
        print("# untraced half")
        _print_table(end_to_end(ops, plain, wall, setup_times))
        print("# traced half")
        results = plain + traced
    _print_table(table)
    failed = sum(r.error is not None for r in results)
    print(json.dumps({
        "correct": failed == 0 and warmup_error is None,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in table.items() if name not in TABLE_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
