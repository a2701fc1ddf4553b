"""Ten-seed baseline of the benchmark: medians, quartiles and spreads.

    python3 perfbench/baseline.py [--seeds 1001-1010] [--out perfbench/baseline.json]

Run from the root of a checkout.  For each workload of BENCHMARK.json it
runs ``run.py --trace 0`` once per seed, one after the other, and reports
each end-to-end metric's median, quartiles and spread, (q3 - q1) / median
by ``statistics.quantiles(n=4)``, each seed's output digest, and the
measured (unscaled) ``wall_s`` and yardstick time; then one ``--trace 1``
run on the first seed gives the per-layer metrics.  Takes about
(seeds + 1) x run_seconds per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(command, workload, seed, seconds, trace):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return lines, json.loads(lines[-1])


def summary(values, unit):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1001-1010"))
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    result = {
        "machine": f"{os.cpu_count()}-core shared VM, Python {platform.python_version()}",
        "command": " ".join(spec["command"]) + f" --workload W --seed S --seconds {seconds} --trace 0, "
                   "one run per seed, one after the other; one --trace 1 run on the first seed",
        "spread": "(q3 - q1) / median over the runs, statistics.quantiles(n=4)",
        "seeds": args.seeds,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in workloads:
        runs, digests, measured, yardsticks = [], {}, [], []
        for seed in args.seeds:
            lines, res = bench(spec["command"], workload, seed, seconds, 0)
            runs.append(res)
            digests[seed] = next(line.split()[1] for line in lines if line.startswith("digest "))
            speed = next(line for line in lines if line.startswith("times at the reference speed")).split()
            yardsticks.append(float(speed[speed.index("median") + 1]))
            measured.append(float(speed[speed.index("wall_s") + 1]))
            print(workload, seed, {k: round(v["value"], 5) for k, v in res["metrics"].items()}, flush=True)
        e2e = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs], m["unit"])
               for m in spec["end_to_end"]}
        lines, traced = bench(spec["command"], workload, args.seeds[0], seconds, 1)
        result["workloads"][workload] = {
            "runs": len(runs),
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted_per_run": [r["attempted"] for r in runs],
            "failed_per_run": [r["failed"] for r in runs],
            "digests": digests,
            "end_to_end": e2e,
            "measured_wall_s": summary(measured, "s"),
            "measured_yardstick_ms": yardsticks,
            "trace_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "dominant": next(line for line in lines if line.startswith("largest traced self time")),
        }
        for name, s in e2e.items():
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}, spread {s['spread']:.3f}", flush=True)
        m = result["workloads"][workload]["measured_wall_s"]
        print(f"  {workload} measured wall_s: median {m['median']:.6g} s, spread {m['spread']:.3f}", flush=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
