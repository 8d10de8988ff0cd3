"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload detect-hashtable --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs an
untraced pass and then a traced pass over the same schedule, and prints
the per-layer metrics of :data:`perfbench.layers.PER_LAYER`.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.

The program runs from ``src/`` of the checkout; its durable stores
(journals, checkpoints, WALs, snapshots) live under ``.bench_work/`` there
and are removed on exit.  ``--scale`` shrinks every input, for the smoke
test.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one thread, as the program's
# own engines are single-threaded, and no pool noise between runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: A p90 is reported only from this many ops: ten samples beyond it.
MIN_OPS = 100
#: No run measures longer than this, to end well inside 180 seconds.
MAX_MEASURE_S = 120.0


def _memory_fsync(fd: int) -> None:
    """``os.fsync`` as a memory file system has it: no device flush.

    The stores must stay inside the checkout, which sits on a shared disk
    whose flush latency swings from run to run; on tmpfs ``fsync`` returns
    at once.  ``fstat`` keeps the bad-descriptor error of the real call.
    """
    os.fstat(fd)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    return parser.parse_args(argv)


def _measure(workload, seconds: float, *, min_rounds: int = 1,
             rounds: int | None = None):
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` are
    done (or exactly ``rounds``); returns samples, attempts, rounds."""
    samples, attempted, done = [], 0, 0
    start = time.perf_counter()
    while True:
        got, tried = workload.round()
        samples += got
        attempted += tried
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
            continue
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and done >= min_rounds):
            break
    workload.finish()
    return samples, attempted, done


def _end_to_end(samples, setups: list[float], modularity: list[float]) -> dict:
    seconds = np.asarray([s.seconds for s in samples])
    reads = np.asarray([s.read_s for s in samples])
    total_s = float(seconds.sum())
    edges = float(sum(s.edges for s in samples))
    out = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_p50_ms": (1e3 * float(np.median(seconds)), "ms"),
        "edges_per_s": (edges / total_s, "edges/s"),
        "modeled_edges_per_s": (edges / sum(s.modeled_s for s in samples), "edges/s"),
        "modularity": (statistics.fmean(modularity), "Q"),
        "deltas_per_s": (sum(s.deltas for s in samples) / total_s, "deltas/s"),
        "read_p50_ms": (1e3 * float(np.median(reads)), "ms"),
    }
    if len(samples) >= MIN_OPS:
        out["op_p90_ms"] = (1e3 * float(np.percentile(seconds, 90)), "ms")
        out["read_p90_ms"] = (1e3 * float(np.percentile(reads, 90)), "ms")
    return out


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.layers import PER_LAYER
    from perfbench.trace import SpanRecorder, UntracedRecorder, layer_metrics
    from perfbench.workloads import WORKLOADS
    from repro.errors import ConvergenceWarning

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", ConvergenceWarning)

    os.fsync = _memory_fsync
    store = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    store.mkdir(parents=True)
    print(f"store: {store.relative_to(ROOT)}")
    try:
        untraced = UntracedRecorder()
        workload = WORKLOADS[args.workload](args.seed, args.scale, store, untraced)
        # setup_s is the median of these and of set-ups inside rounds.
        setups = []
        for i in range(workload.SETUPS):
            setups.append(workload.setup())
            if i == 0:
                workload.warmup()
        workload.begin_pass()
        if not args.trace:
            samples, attempted, rounds = _measure(
                workload, args.seconds, min_rounds=workload.ROUNDS
            )
            values = _end_to_end(
                samples, setups + workload.round_setups, workload.modularity
            )
        else:
            samples, attempted, rounds = _measure(workload, args.seconds / 2)
            recorder = SpanRecorder()
            workload.rec = recorder
            recorder.install()
            try:
                workload.begin_pass()
                with recorder.root("setup"):
                    workload.setup()
                traced, traced_attempts, _ = _measure(
                    workload, 0.0, rounds=rounds
                )
            finally:
                recorder.uninstall()
            samples += traced
            attempted += traced_attempts
            layers = layer_metrics(
                recorder, workload.layer_extra, untraced.mean_op_s()
            )
            units = {m.name: m.unit for m in PER_LAYER}
            values = {name: (value, units[name]) for name, value in layers.items()}
    finally:
        shutil.rmtree(store, ignore_errors=True)
        try:
            store.parent.rmdir()
        except OSError:
            pass  # another run's store is still there

    failed = attempted - len(samples)
    print(f"ops: {len(samples)} measured of {attempted} attempted in {rounds} round(s)")
    print(json.dumps({
        "correct": failed == 0 and workload.failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
