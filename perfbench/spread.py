"""Repeat benchmark runs and report their spread and repeatability.

    python3 perfbench/spread.py --workloads predict_eval,gradcheck --seeds 0-9
    python3 perfbench/spread.py --workloads gradcheck --seeds 0-1 --repeat 2 --trace 1

Runs ``run.py`` once per (workload, seed, repeat), one at a time. For each
end-to-end metric it prints the median and the quartile spread
``(q3 - q1) / median`` over the runs, as ``statistics.quantiles(n=4)`` gives
them, next to a third of the metric's bound. It flags runs that are not
correct, digests that differ between repeats of one seed, and, with
``--trace 1``, exact per-layer counts that differ between any two runs.
Exits non-zero when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# per-layer values that must repeat exactly run to run, at any seed
EXACT_COUNTS = ("autodiff.tape_nodes", "autodiff.conv2d.calls",
                "autodiff.conv2d.gflop", "autodiff.conv2d.out_mb",
                "autodiff.grads_used_frac", "autodiff.partials_discarded_frac")


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    return {"seed": seed, "digest": digest, **json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    flagged = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            for _ in range(args.repeat):
                run = run_once(workload, seed, seconds, args.trace)
                runs.append(run)
                print(json.dumps({"workload": workload, **run}), flush=True)
        for run in runs:
            if not run["correct"] or run["failed"]:
                flagged = True
                print(f"FLAG {workload} seed {run['seed']}: correct="
                      f"{run['correct']} failed={run['failed']}")
        for seed in {r["seed"] for r in runs}:
            digests = {r["digest"] for r in runs if r["seed"] == seed}
            if len(digests) > 1:
                flagged = True
                print(f"FLAG {workload} seed {seed}: digests differ {digests}")
        if args.trace:
            for name in EXACT_COUNTS:
                seen = {r["metrics"][name]["value"] for r in runs}
                if len(seen) > 1:
                    flagged = True
                    print(f"FLAG {workload} {name} differs run to run: {seen}")
                else:
                    print(f"{workload:13s} {name:34s} {seen.pop()!r} (exact)")
            continue
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bound / 3
            flagged |= not ok
            print(f"{workload:13s} {name:17s} median {med:12.6g}  spread "
                  f"{spread:7.4f}  bound/3 {bound / 3:.4f}  "
                  f"{'ok' if ok else 'WIDE'}  n={len(values)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
