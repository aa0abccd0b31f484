"""convmotion benchmark: run one workload, print its metrics, check outputs.

    python3 perfbench/run.py --workload train_paper --seed 0 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, nothing is installed. Without
``--workload`` every workload of ``BENCHMARK.json`` runs, one at a time,
each in its own process.

Standard output carries an ``env`` line (commit, versions, BLAS, cores,
memory, seed), a ``digest`` line (hash of the deterministic outputs, equal
across runs at one seed), one ``problem`` line per failed check, and as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a run that alternates untraced and traced operations.
Scratch files go to ``.bench_work/`` in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up is repeated (at least SETUPS times and SETUP_MIN_S seconds) and
# its median reported, so that work moved into set-up shows in setup_s
SETUPS = 3
SETUP_MIN_S = 1.5
CHILD_TIMEOUT_S = 900


def _percentile(values, q):
    v = float(np.percentile(values, q)) if values else float("inf")
    return v if np.isfinite(v) else None


def _blas_threads(limit: int):
    """Thread count of the loaded OpenBLAS, capped at ``limit``; None when
    the library exposes no thread-count call."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "blas" in line.rsplit("/", 1)[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is None or put is None:
                    continue
                get.restype = ctypes.c_int
                if get() > limit:
                    put(ctypes.c_int(limit))
                return get()
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(nproc),
        "nproc": nproc,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                        // 2**20,
        "seed": seed,
    }


def measure(workload, state, seconds: float, tracer=None):
    """Run ops until ``seconds`` are used up (at least one op; with a tracer,
    alternate untraced and traced ops, at least one of each).

    Returns ``(records, traced)`` where ``traced[i]`` says whether record
    ``i`` ran under the tracer.
    """
    records, traced = [], []
    t_start = perf_counter()
    while True:
        under_trace = tracer is not None and len(records) % 2 == 1
        if under_trace:
            tracer.install()
        try:
            records.append(workload.op(state, tracer if under_trace else None))
        finally:
            if under_trace:
                tracer.remove()
        traced.append(under_trace)
        elapsed = perf_counter() - t_start
        enough = tracer is None or len(records) >= 2
        # stop when the next op would end more than half an op past the deadline
        if enough and elapsed + 0.5 * elapsed / len(records) > seconds:
            return records, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    tracer = Tracer(workload.cem_names) if trace else None
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    problems = []
    try:
        setup_s, state = [], None
        if tracer:
            tracer.install()
        try:
            while len(setup_s) < SETUPS or sum(setup_s) < SETUP_MIN_S:
                state = None
                t0 = perf_counter()
                state = workload.setup(workdir, seed)
                setup_s.append(perf_counter() - t0)
        finally:
            if tracer:
                tracer.remove()
        setup_trace = tracer.take() if tracer else None
        problems += workload.check(state)
        records, traced = measure(workload, state, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = 1 + sum(r.attempted for r in records)
    failed = (1 if problems else 0) + sum(r.failed for r in records)
    first = records[0].fingerprint
    for i, rec in enumerate(records):
        problems += rec.problems
        if rec.fingerprint != first:
            problems.append(f"determinism: op {i} output differs from op 0")
            failed += rec.attempted - rec.failed
            rec.latencies_ms = [float("inf")] * len(rec.latencies_ms)
            rec.work = 0.0

    latencies = [v for r in records for v in r.latencies_ms]
    if trace:
        plain = [r.wall_s for r, t in zip(records, traced) if not t]
        under = [r.wall_s for r, t in zip(records, traced) if t]
        overhead = statistics.median(under) / statistics.median(plain) - 1.0
        values = layer_metrics(setup_trace, tracer.take(), len(setup_s),
                               len(under) * workload.ops_per_record, overhead)
        wanted = spec["per_layer"]
    else:
        work_s = sum(r.work_s for r in records)
        values = {
            "setup_s": statistics.median(setup_s),
            "op_ms_p50": _percentile(latencies, 50),
            "throughput_per_s": (sum(r.work for r in records) / work_s
                                 if work_s > 0 else None),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError("computed metrics do not match BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in wanted})}")
    if any(v is None for v in values.values()):
        problems.append("a metric has no finite value")
    return {
        "latency": f"op_ms p50={_percentile(latencies, 50)} "
                   f"p90={_percentile(latencies, 90)} n={len(latencies)}",
        "digest": hashlib.sha256(first).hexdigest(),
        "problems": problems,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        },
    }


def run_all(args, spec) -> int:
    code = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               w["name"], "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        print(f"workload {w['name']}", flush=True)
        done = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S)
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "convmotion" / "__init__.py").is_file():
        print(f"run.py: convmotion sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(environment(args.seed)), flush=True)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       spec)
    print("latency " + out["latency"])
    print("digest " + out["digest"])
    for p in out["problems"]:
        print("problem " + p.replace("\n", "\n  "))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
