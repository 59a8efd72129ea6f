"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/steadiness.py --seeds 1-10 [--out FILE]

Runs bench/run.py once per workload of BENCHMARK.json and seed, for its
run_seconds, one run at a time, each in a fresh interpreter, and reports for every metric the median of the runs and
the distance between their first and third quartiles as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound in
BENCHMARK.json.  A spread below a third of the bound counts as steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    info["run_s"] = time.perf_counter() - t0
    return json.loads(lines[-1]), info


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", help="write the runs and spreads as JSON")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "workloads": {}}
    all_steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in _seeds(args.seeds):
            result, info = run_once(workload, seed, seconds)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: checks failed: {info['failures']}")
            runs.append({"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "pass_s": info["pass_s"], "pass_speed": info["pass_speed"],
                         "attempted": result["attempted"], "run_s": info["run_s"]})
            summary["environment"] = {k: info[k] for k in ("python", "nproc", "git_sha")}
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        table = {}
        for name, bound in bounds.items():
            med, q1, q3, s = spread([r["metrics"][name] for r in runs])
            steady = s < bound / 3
            all_steady &= steady
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": s, "bound": bound}
            print(f"  {name:14s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {s:.3f}  bound {bound}  {'steady' if steady else 'NOT STEADY'}")
        summary["workloads"][workload] = {"runs": runs, "spread": table}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
