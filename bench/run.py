"""Run one stratakit benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload borel_pair --seed 1 --seconds 30 --trace 0

The run writes the workload's description files to a scratch directory under
.bench_work/, times set-up in fresh processes (untraced runs only), then runs
the operations in a fresh single-threaded worker process for about --seconds
seconds (at least one full pass), checking every answer against its
reference.  The last line of stdout is one JSON object: correct/attempted/
failed and the metrics named in BENCHMARK.json, the end-to-end ones with
--trace 0 and the per-layer ones with --trace 1.  Failed operations are
listed on stderr.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH, "worker.py")

# Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_SAMPLES = 5
# A run must end within 180 s; the worker gets what is left of this.
RUN_LIMIT = 172.0


def worker(args, env, timeout):
    """Last stdout line of a worker as JSON; raises on a crash or timeout."""
    proc = subprocess.run([sys.executable, WORKER, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def counts(passes):
    """(operations attempted, operations failed) over the passes."""
    return (sum(len(p["times"]) for p in passes),
            sum(e is not None for p in passes for e in p["errors"]))


def scaled(passes):
    """Operation times of each pass in seconds at the reference host speed."""
    return [[t * f for t, f in zip(p["times"], p["speed"])] for p in passes]


def end_to_end(res, setups):
    attempted, failed = counts(res["passes"])
    times = scaled(res["passes"])
    return {"run_s": statistics.median(sum(s) for s in times),
            "slowest_op_s": statistics.median(max(s) for s in times),
            "setup_s": statistics.median(s["setup_s"] * s["setup_speed"]
                                         for s in setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ops_ok_frac": 1 - failed / attempted}


def per_layer(res, workload):
    """Median of each traced-pass metric, plus the tracing overhead in
    scaled seconds."""
    summaries = res["summaries"]
    out = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    traced = statistics.median(sum(s) for s in scaled(res["traced"]))
    out["trace.run_s"] = traced
    out["trace.overhead_s"] = traced - statistics.median(
        sum(s) for s in scaled(res["passes"]))
    problems = [f"{k} is 0 but {workload} must reach it"
                for k in workloads.REACH[workload] if not out.get(k)]
    problems += [f"{k} is {v} but {workload} must not reach `{k.split('.')[0]}`"
                 for k, v in out.items() if k.endswith(".calls") and v
                 and k.split(".")[0] in workloads.AVOID_LAYERS[workload]]
    return out, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "stratakit", "__init__.py")):
        sys.exit(f"error: {src}/stratakit not found; run from the root of a "
                 "stratakit checkout")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")

    workroot = os.path.join(root, ".bench_work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    try:
        ops = workloads.make_ops(args.workload, args.seed, workdir)
        ops_path = os.path.join(workdir, "ops.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        setups = [worker(["--setup-only"], env, 60)
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        worker_args = [ops_path, str(args.seconds), str(args.trace)]
        if args.trace:
            worker_args.append(os.path.join(workroot, f"spans-{args.workload}.tsv"))
        res = worker(worker_args, env, RUN_LIMIT - (time.monotonic() - t_start))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res)

    problems = []
    for p in res["passes"] + res["traced"]:
        problems += [f"{op}: {e}" for op, e in zip(res["ops"], p["errors"]) if e]
    if args.trace:
        values, unreached = per_layer(res, args.workload)
        problems += unreached
    else:
        values = end_to_end(res, setups)
        print("wall: run_s", statistics.median(sum(p["times"]) for p in res["passes"]),
              "setup_s", statistics.median(s["setup_s"] for s in setups),
              file=sys.stderr)
    for line in problems:
        print("FAIL", line, file=sys.stderr)
    attempted, failed = counts(res["passes"] + res["traced"])
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
