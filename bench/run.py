"""Benchmark for kummerlcp: fixed, seeded workloads measured end to end,
plus a traced run that reports per-layer time and counts.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, with a summary table (and optionally a
trajectory record written as JSON):

    python3 bench/run.py --workload all --seed 1 [--out FILE]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

The program is imported from ``src/`` next to this directory and nowhere
else.  All work runs in one process on one thread, in a closed loop: the next
op starts only when the previous one has returned and been checked.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every op passed its output check (and, traced, the tracer's self-checks).
See README.md in this directory for the workloads and metrics.
"""

import os

# one thread: numpy must not start BLAS or OpenMP worker threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import stagetrace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: fresh-process set-ups per run; setup_s is their median
SETUP_RUNS = 5

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "tuples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import kummerlcp from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import kummerlcp
    except ImportError as exc:
        sys.exit(f"bench: cannot import kummerlcp from {SRC}: {exc}")
    if Path(kummerlcp.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: kummerlcp was imported from {kummerlcp.__file__}, "
                 f"not from {SRC}")
    return kummerlcp


def check_declared(spec, layer_units):
    """The metrics and units reported must be the ones BENCHMARK.json declares."""
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", layer_units)):
        if {m["name"]: m["unit"] for m in spec[key]} != emitted:
            sys.exit(f"bench: BENCHMARK.json {key} differs from the metrics "
                     f"this script reports")


def run_op(wl, inputs, i):
    """Run and check op i; return (op seconds, error text or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.op(inputs, i)
        dt = time.perf_counter() - t0
        err = wl.check(inputs, i, out)
    except Exception as exc:  # a failed op is counted, not fatal
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        err = f"raised {type(exc).__name__}: {exc}"
    if err is not None:
        print(f"bench: {wl.name} op {i} failed: {err}", file=sys.stderr)
    return dt, err


class Tally:
    def __init__(self):
        self.times = []
        self.tuples = 0
        self.attempted = 0
        self.failed = 0

    def add(self, wl, inputs, i):
        dt, err = run_op(wl, inputs, i)
        self.attempted += 1
        self.failed += err is not None
        return dt

    def measure(self, wl, inputs, first: int, seconds: float):
        """Closed loop from op index `first` until `seconds` have passed."""
        start = time.perf_counter()
        i = first
        while True:
            self.times.append(self.add(wl, inputs, i))
            self.tuples += wl.tuples(inputs, i)
            i += 1
            if time.perf_counter() - start >= seconds:
                return


def p90(times):
    return statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh processes that import the program and build
    the workload's inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_RUNS):
        # no timeout: a wait with a timeout polls in steps of up to 50 ms,
        # which would quantize the sample; the same set-up has just
        # completed in this process, so the child cannot hang on it
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def untraced(wl, seed: int, seconds: float):
    inputs = wl.setup(seed)
    wl.prepare(inputs)
    tally = Tally()
    tally.measure(wl, inputs, 0, seconds)
    metrics = {
        "setup_s": setup_seconds(wl.name, seed),
        "op_s_p50": statistics.median(tally.times),
        "op_s_p90": p90(tally.times),
        "tuples_per_s": tally.tuples / sum(tally.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    problems = [f"{name} is wrapped in an untraced run"
                for name in stagetrace.installed_wrappers()]
    return tally, metrics, problems


def traced(wl, seed: int, seconds: float, program):
    """Untraced ops alternating with two traced passes, so that drift in
    machine speed hits both alike.  Each traced pass is a fresh set-up (field
    cache cleared) plus the workload's fixed trace ops."""
    inputs = wl.setup(seed)
    wl.prepare(inputs)
    tally = Tally()
    traced_times = []
    snaps = []
    tracer = stagetrace.Tracer()
    clear_fields = getattr(program.ffield.make_field, "cache_clear", lambda: None)
    for _ in range(2):
        tally.measure(wl, inputs, len(tally.times), seconds / 4)
        with tracer:
            clear_fields()
            pass_inputs = wl.setup(seed)
            wl.prepare(pass_inputs)
            for i in wl.trace_ops(pass_inputs):
                traced_times.append(tally.add(wl, pass_inputs, i))
            snaps.append(tracer.snapshot())
    problems = [f"{layer} recorded no call"
                for snap in snaps for layer in stagetrace.coverage_gaps(snap, wl.name)]
    problems += [f"{key} differs between two traced passes: "
                 f"{snaps[0].get(key)} vs {snaps[1].get(key)}"
                 for key in stagetrace.count_mismatches(*snaps)]
    problems += [f"{name} still wrapped after tracing"
                 for name in stagetrace.installed_wrappers()]
    metrics = stagetrace.report(snaps)
    metrics["trace.overhead_frac"] = (statistics.median(traced_times)
                                      / statistics.median(tally.times) - 1)
    return tally, metrics, problems


def run_workload(args, spec, program, wl) -> int:
    if args.setup_only:
        wl.setup(args.seed)
        return 0
    layer_units = {n: u for n, u, _ in stagetrace.metric_names()}
    check_declared(spec, layer_units)
    if args.trace:
        tally, metrics, problems = traced(wl, args.seed, args.seconds, program)
        units = layer_units
    else:
        tally, metrics, problems = untraced(wl, args.seed, args.seconds)
        units = END_TO_END
    for text in problems:
        print(f"bench: {wl.name}: {text}", file=sys.stderr)
    correct = tally.failed == 0 and not problems
    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"ops={tally.attempted} fail_frac={tally.failed / tally.attempted:g}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {"cpu": model, "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_all(args, names) -> int:
    """Every workload untraced and traced, each in its own process."""
    record = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
              "machine": machine(), "workloads": {}}
    status = 0
    for name in names:
        entry = record["workloads"][name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if result is None or not result["correct"]:
                status = 1
            if result is None:
                print(f"{name} trace={trace}: exit {proc.returncode}, no result")
                continue
            entry[key] = {n: m["value"] for n, m in result["metrics"].items()}
            entry[f"{key}_ops"] = {"attempted": result["attempted"],
                                   "failed": result["failed"]}
            print("\n".join(lines[:-1]))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    program = load_program()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write the results here")
    ap.add_argument("--label", default="", help="with --out: e.g. the commit measured")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    return run_workload(args, spec, program, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
