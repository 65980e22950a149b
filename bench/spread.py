"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload dickson103_n400 --seeds 1-10

Runs ``run.py`` once per seed (one process after another, never two at
once) and prints, for each metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
spread as a share of the median, next to the metric's bound in
BENCHMARK.json.  ``--out`` keeps every run's result as JSON, so that two
commits can be compared run by run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--out", help="write every run's result here as JSON")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    runs = {}
    status = 0
    for name in args.workload:
        runs[name] = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                sys.exit(f"{name} seed={seed}: exit {proc.returncode}, no result\n"
                         f"{proc.stderr}")
            result = json.loads(lines[-1])
            status |= proc.returncode or not result["correct"]
            runs[name].append({"seed": seed, "wall_s": wall, **result})
            print(f"{name} seed={seed} exit={proc.returncode} wall={wall:.1f}s "
                  f"ops={result['attempted']} failed={result['failed']}",
                  flush=True)
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in runs[name]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {metric:14s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {(q3 - q1) / med:7.4f}  bound {bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return int(bool(status))


if __name__ == "__main__":
    sys.exit(main())
