#!/usr/bin/env python3
"""dmrbf benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig4_n4 --seed 0 --seconds 20 --trace 0

It imports ``dmrbf`` from the checkout's ``src/``, generates its inputs
from ``--seed``, runs whole passes of the workload for ``--seconds``,
checks every pass's output, prints a human-readable report and, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits 1 when an output
is wrong and 2 when the checkout has no ``src/dmrbf``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from layers import COUNT_UNITS, UNITS, pass_metrics
from spans import Tracer
from workloads import WORKLOADS, check_pass, ci95_rel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1  # workers x BLAS threads <= nproc for every workload on 2 cores
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9  # spread evenly over the timed passes, so they see the same machine
MIN_PASSES = 3
SETUP_CODE = "import sys, dmrbf; dmrbf.load_config(sys.argv[1])"
OPENBLAS_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_mb": "MB",
    "setup_s": "s",
}


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in OPENBLAS_GET_THREADS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup_seconds(config: Path) -> float:
    """One cold start of a fresh interpreter up to a parsed config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, str(config)]
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


class Gate:
    """Counts attempted and failed rows over every pass of a run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.first_error: str | None = None

    def __call__(self, out) -> None:
        self.attempted += self.workload.attempted
        bad = check_pass(self.workload, out)
        if self.digest is None:
            self.digest = out.digest
        elif out.digest != self.digest:
            bad = self.workload.attempted  # same seed, same code: output must repeat
            out.error = out.error or "output differs from the first pass of this run"
        self.failed += min(bad, self.workload.attempted)
        if out.error and self.first_error is None:
            self.first_error = out.error


def quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f" (IQR {q1:.4g}..{q3:.4g}, n={len(xs)})"


def timed_run(args, workload, lib, out_dir: Path, config: Path, gate: Gate):
    # The first pass warms caches and measures memory, so it is not timed.
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    first = workload.run_pass(lib, args.seed, out_dir)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    gate(first)
    walls, cpus, setups, rows = [], [], [], first.rows
    t_start = time.perf_counter()
    t_end = t_start + args.seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < t_end:
        # A set-up probe is due every 1/SETUP_PROBES of the run; it is not
        # inside a timed pass.
        if time.perf_counter() - t_start >= len(setups) * args.seconds / SETUP_PROBES:
            setups.append(setup_seconds(config))
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        out = workload.run_pass(lib, args.seed, out_dir)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        gate(out)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(config))
    print(f"wall_s = {statistics.median(walls):.6g} s{quartiles(walls)}")
    print(f"cpu_s = {statistics.median(cpus):.6g} s{quartiles(cpus)}")
    print(f"peak_mb = {peak / 1e6:.6g} MB (tracemalloc, first pass)")
    print(f"setup_s = {statistics.median(setups):.6g} s{quartiles(setups)}")
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_mb": peak / 1e6,
        "setup_s": statistics.median(setups),
    }
    return metrics, rows  # rows of the first pass; every pass must repeat them


def traced_run(args, workload, lib, out_dir: Path, gate: Gate) -> dict[str, float]:
    trace_path = out_dir / "trace.jsonl"
    trace_path.unlink(missing_ok=True)
    gate(workload.run_pass(lib, args.seed, out_dir))  # warm-up
    plain, traced, missing = [], [], set()
    t_end = time.perf_counter() + args.seconds
    while len(traced) < 2 or time.perf_counter() < t_end:
        gc.collect()
        t0 = time.perf_counter()
        gate(workload.run_pass(lib, args.seed, out_dir))
        plain.append(time.perf_counter() - t0)

        gc.collect()
        tracer, gens = Tracer(), []
        workload.wrap(tracer, lib, lambda g: gens.append(g) or {})
        root = tracer.open("bench.pass", {})
        try:
            out = workload.run_pass(lib, args.seed, out_dir)
        finally:
            tracer.close(root)
            tracer.unwrap()
        gate(out)
        traced.append(pass_metrics(tracer, workload, gens, out.rows))
        tracer.write_jsonl(trace_path, f"traced-{len(traced)}")
        missing |= tracer.missing
    metrics = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        if UNITS[name] in COUNT_UNITS and len(set(values)) > 1:
            gate.failed += 1
            gate.first_error = gate.first_error or f"count {name} differs: {values}"
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - statistics.median(plain)
    for name in UNITS:
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {UNITS[name]}")
    if missing:
        print(f"missing (not found, metrics left out): {', '.join(sorted(missing))}")
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return metrics


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {name} exited with status {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if not (SRC / "dmrbf" / "__init__.py").is_file():
        print(f"error: no dmrbf sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import dmrbf
    import dmrbf.cli  # noqa: F401 - makes lib.cli available to the workloads

    if Path(dmrbf.__file__).resolve().parent != (SRC / "dmrbf").resolve():
        print(f"error: imported dmrbf from {dmrbf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = OUT / f"{workload.name}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config = workload.prepare(out_dir)
    env = environment(np)
    (out_dir / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print(f"env: {json.dumps(env)}")
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")

    gate = Gate(workload)
    if args.trace:
        metrics = traced_run(args, workload, dmrbf, out_dir, gate)
        units = UNITS
    else:
        metrics, rows = timed_run(args, workload, dmrbf, out_dir, config, gate)
        units = END_TO_END
        rel = ci95_rel(rows)
        if rel is not None:
            print(f"ber_ci95_rel = {rel:.6g} ratio (median Wilson half-width / BER)")
        if workload.n_symbols:
            print(f"CSV sha256 = {gate.digest} (seed {args.seed}; information only)")
    frac = gate.failed / gate.attempted
    print(f"failed_frac = {frac:.6g} ratio ({gate.failed} of {gate.attempted} rows)")
    if gate.first_error:
        print(f"first failure:\n{gate.first_error}", file=sys.stderr)
    correct = gate.failed == 0
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
