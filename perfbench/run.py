"""kplane benchmark: one workload, one process, one caller, closed loop.

    python3 perfbench/run.py --workload radon3d --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run sets up the workload's inputs ``SETUPS`` times (each from its own
sub-stream of the seed), then runs passes one after another, cycling over
the input sets, until ``--seconds`` have elapsed and every set has been
used.  Gates are checked after every pass, outside the timer.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (untraced and traced passes alternate, so the
tracing overhead is measured in the same process) and writes its spans to
``perfbench/out/``.  The last stdout line is the JSON result; the line
before it is the environment stamp.  Exit 2 means the benchmark could not
start (for example, ``src/kplane`` is missing) and no result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

# Pinned before numpy is imported, so BLAS and OpenMP pools have one thread.
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "KPLANE_THREADS": "1",
}
SETUPS = 5  # input sets per run; rel_l2 is their mean, which damps seed-to-seed noise
IMPORTS = 3  # fresh-interpreter imports timed for setup_s; one alone varies by +-30%
TRACED_MIN = 2  # traced runs alternate at least this many untraced and traced passes
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
_TIME_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import kplane; print(time.perf_counter() - t)"
)


def _load() -> None:
    """Import kplane from ``src/``, never from an installed copy."""
    if not (SRC / "kplane" / "__init__.py").is_file():
        raise ImportError(f"kplane sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import kplane

    if Path(kplane.__file__).resolve().parent != (SRC / "kplane").resolve():
        raise ImportError(f"kplane imported from {kplane.__file__}, not {SRC}")


def import_seconds() -> float:
    """Median time to import numpy, scipy and kplane in a fresh interpreter."""
    times = []
    for _ in range(IMPORTS):
        proc = subprocess.run([sys.executable, "-c", _TIME_IMPORT, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(proc.stdout))
    return _median(times)


def _median(xs: list[float]) -> float:
    return float(statistics.median(xs))


def env_stamp() -> dict:
    import numpy
    import scipy

    import kplane

    return {
        "kplane": kplane.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


class Run:
    """State of one benchmark run: input sets, pass timings and operation counts."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.inputs: list[dict] = []
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rel_l2: dict[int, float] = {}

    def setup(self) -> None:
        for index in range(SETUPS):
            start = perf_counter()
            self.inputs.append(self.workload.setup(self.seed, index))
            self.setup_times.append(perf_counter() - start)

    def timed(self, inp: dict):
        """One pass over ``inp``; returns (seconds, outputs or None, ops)."""
        from workloads import Ops, PassAborted

        ops = Ops()
        start = perf_counter()
        try:
            out = self.workload.run(inp, ops)
        except PassAborted:
            out = None
        return perf_counter() - start, out, ops

    def record(self, index: int, inp: dict, out: dict | None, ops) -> None:
        """Check the gates of a pass over input set ``index`` and book its operations."""
        if out is None:
            ops.gate("pass_completed", False, "a stage failed")
        else:
            self.rel_l2.setdefault(index, self.workload.check(inp, out, ops))
        self.absorb(ops)

    def absorb(self, ops) -> None:
        self.attempted += ops.attempted
        self.failed += ops.failed
        self.errors.extend(ops.errors)

    def one_pass(self, index: int) -> float:
        inp = self.inputs[index]
        wall, out, ops = self.timed(inp)
        self.record(index, inp, out, ops)
        return wall

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.rel_l2)


def run_untraced(run: Run, seconds: float) -> dict:
    import_s = import_seconds()
    run.setup()
    run.one_pass(0)  # warm-up, untimed: it also pays for lazy imports and allocator growth
    walls: list[float] = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(walls) < SETUPS:
        walls.append(run.one_pass(len(walls) % SETUPS))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rel = statistics.fmean(run.rel_l2.values()) if run.rel_l2 else 0.0
    print(f"perfbench: {len(walls)} passes, {SETUPS} input sets", file=sys.stderr)
    return {
        "wall_s": (_median(walls), "s"),
        "setup_s": (import_s + _median(run.setup_times), "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
        "rel_l2": (rel, "1"),
    }


def thread_scaling(run: Run) -> float:
    """forward + backproject on a radon3d subset at threads=1 and threads=nproc.

    Outputs must be bit-identical; returns t(1) / t(nproc).
    """
    import numpy as np

    from kplane import transform
    from workloads import Ops, Radon3d

    ops = Ops()
    inp = Radon3d(frames=128).setup(run.seed, 0)
    times, outputs = [], []
    for threads in (1, os.cpu_count() or 1):
        start = perf_counter()
        sino = transform.forward(inp["mix"], inp["frames"], inp["t_grid"], inp["quad"],
                                 order=1, threads=threads)
        recon = transform.backproject(sino, inp["spec"], threads=threads)
        times.append(perf_counter() - start)
        outputs.append((sino.values, recon.values))
    same = all(np.array_equal(a, b) for a, b in zip(outputs[0], outputs[1]))
    ops.gate("thread_invariance", same, "forward/backproject differ between thread counts")
    run.absorb(ops)
    return times[0] / times[1]


def run_traced(run: Run, seconds: float, spans_path: Path, stamp: dict) -> dict:
    import tracing

    run.setup()
    run.one_pass(0)  # warm-up, untimed
    tracer = tracing.Tracer()
    reported: dict[str, float] = {}
    plain, traced = [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(traced) < TRACED_MIN:
        index = len(traced) % SETUPS
        plain.append(run.one_pass(index))
        tracer.pass_id = len(traced)
        tracer.install()
        try:
            span = tracer.open("setup")
            inp = run.workload.setup(run.seed, index)
            tracer.close(span)
            span = tracer.open("pass")
            wall, out, ops = run.timed(inp)
            tracer.close(span)
        finally:
            tracer.uninstall()
        traced.append(wall)
        run.record(index, inp, out, ops)
        for command, secs in (out or {}).get("reported_s", {}).items():
            reported[command] = reported.get(command, 0.0) + secs
    scaling = thread_scaling(run)
    tracer.write(spans_path, stamp)
    overhead = _median(traced) / _median(plain) - 1.0
    return tracing.layer_metrics(tracer, len(traced), scaling, overhead, reported)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["radon3d", "ridge3d", "iso-mc", "cli2d"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    os.environ.update(THREAD_VARS)
    try:
        _load()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    from kplane.errors import TruncationWarning
    from workloads import OUT, WORKLOADS

    warnings.simplefilter("ignore", TruncationWarning)
    OUT.mkdir(exist_ok=True)
    stamp = env_stamp()
    workload = WORKLOADS[args.workload]()
    run = Run(workload, args.seed)
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics = run_traced(run, args.seconds, spans, stamp)
        else:
            metrics = {name: {"value": float(v), "unit": u}
                       for name, (v, u) in run_untraced(run, args.seconds).items()}
    finally:
        if hasattr(workload, "close"):
            workload.close()
    for err in run.errors:
        print(f"perfbench: {err}", file=sys.stderr)
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
