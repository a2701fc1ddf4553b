"""ramseyforge benchmark: seeded verdict workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ramseyforge checkout.  Each timed pass over the
workload's task list runs in a fresh interpreter (``child.py``) with
PYTHONHASHSEED fixed, so module-level memos never carry over between
passes.  Passes repeat back to back (one client, closed loop) until the
time budget is spent; several set-up-only children add samples for
``setup_s``.  The first pass re-checks every verdict; the others must
reproduce its output digest.  Each task's time is its median over the
passes, scaled to a fixed reference speed of the machine by a yardstick
loop that every child times first (see ``speed_factor``); the measured,
unscaled figures are printed too.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("completion-sweep", "morphism-arrow")
HASHSEED = "0"
SETUP_PROBES = 8
# Times are reported at a fixed reference speed of the machine: the speed at
# which one run of child.py's yardstick loop takes this long.
REFERENCE_YARDSTICK_S = 0.005
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
LAST_START_S = 110  # no pass starts later than this, to end within 180 s

# The unit each workload is predicted to spend most traced self time in:
# a whole layer, or one function.
PREDICTED = {
    "completion-sweep": "completion",
    "morphism-arrow": "structures.search_morphisms",
}

CALLS = (
    "structures.canonical_key", "structures.Structure.init", "structures.induced_substructure",
    "structures.verify_morphism", "structures.are_isomorphic", "structures.copies_of",
    "closures.closed_violation", "closures.semi_closed_violation", "closures.u_closure_set",
    "completion.try_strong_completion", "completion.try_completion",
    "metric.four_values", "metric.complete_metric_graph",
    "metric.structure_to_sgraph", "metric.sgraph_to_structure",
    "pieces.PieceFamily.init", "pieces.canonical_lift", "pieces.forb_membership",
    "ramsey.verify_arrow",
)
SELF_ONLY = (
    "completion.patterns", "completion.obstacles_up_to", "completion.completion_iff_strong",
    "ramsey.partite_construction", "ramsey.partite_lemma", "ramsey.identification_step",
    "ramsey.unary_ramsey", "ramsey.hales_jewett_N", "structures.search_morphisms",
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def spawn(root, workload, seed, mode, hashseed=HASHSEED):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode],
        cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def passes(root, workload, seed, seconds, modes, start):
    """Run ``modes`` in rotation until the budget, counted from ``start``,
    is spent: at least MIN_PASSES passes of a single mode, or one full
    rotation."""
    out = {m: [] for m in modes}
    durations = []
    minimum = MIN_PASSES if len(modes) == 1 else len(modes)
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        expected = statistics.median(durations) if durations else 0.0
        whole = i >= minimum and i % len(modes) == 0
        if whole and (elapsed + expected > seconds or elapsed > LAST_START_S):
            break
        mode = "check" if i == 0 else modes[i % len(modes)]
        t0 = time.perf_counter()
        out[modes[i % len(modes)]].append(spawn(root, workload, seed, mode))
        durations.append(time.perf_counter() - t0)
        i += 1
    return out


def consistent(results):
    """Digests, verdict counts and (for traced passes) counters repeat."""
    first = results[0]
    keys = ("digest", "attempted", "decided")
    same = all(all(r[k] == first[k] for k in keys) for r in results)
    traced = [r["trace"] for r in results if "trace" in r]
    if traced:
        same = same and all(t["counts"] == traced[0]["counts"] and t["spans"] == traced[0]["spans"] for t in traced)
    return same


def speed_factor(child):
    """Scales a child's times to the reference speed.

    On a shared machine other tenants move this one between a slower and a
    faster state, about 1.5x apart, for seconds to minutes at a time.  Each
    child times the yardstick before it imports anything; its times divided
    by the yardstick's change far less between the states than the times
    themselves."""
    return REFERENCE_YARDSTICK_S / child["yardstick_s"]


def median_task_times(passes):
    """Each task's median time over the passes, at the reference speed.

    The median, not the fastest run: a task's fastest run follows whichever
    rare undisturbed stretch a run happens to catch."""
    scaled = ([t * speed_factor(p) for t in p["task_s"]] for p in passes)
    return [statistics.median(ts) for ts in zip(*scaled)]


def measured_wall_s(passes):
    """Sum of the tasks' median times as measured, without scaling."""
    return sum(statistics.median(ts) for ts in zip(*(p["task_s"] for p in passes)))


def end_to_end(runs, setups):
    typical = median_task_times(runs)
    attempted, failed = runs[0]["attempted"], runs[0]["failed"]
    metrics = {
        "wall_s": (sum(typical), "s"),
        "setup_s": (statistics.median(s["setup_s"] * speed_factor(s) for s in setups), "s"),
        "task_p50_ms": (1000 * statistics.median(typical), "ms"),
        "task_p90_ms": (1000 * percentile(typical, 90), "ms"),
        "decided_ratio": (runs[0]["decided"] / attempted, "ratio"),
        "passed_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    return metrics, len(typical)


def per_layer(workload, runs, traced):
    first = traced[0]["trace"]
    spans, counts = first["spans"], first["counts"]

    def self_s(name):
        return statistics.median(t["trace"]["self_s"].get(name, 0.0) * speed_factor(t) for t in traced)

    metrics = {}
    for name in CALLS:
        metrics[name + ".calls"] = (spans.get(name, 0), "count")
        metrics[name + ".self_s"] = (self_s(name), "s")
    for name in SELF_ONLY:
        metrics[name + ".self_s"] = (self_s(name), "s")
    metrics["structures.search_morphisms.calls"] = (counts.get("structures.search_morphisms.calls", 0), "count")
    metrics["structures.search_morphisms.yielded"] = (counts.get("structures.search_morphisms.yielded", 0), "count")
    metrics["completion.patterns.yielded"] = (counts.get("completion.patterns.yielded", 0), "count")
    tsc = spans.get("completion.try_strong_completion", 0)
    ok = counts.get("completion.try_strong_completion.ok", 0)
    metrics["completion.try_strong_completion.ok_ratio"] = (ok / tsc if tsc else 0.0, "ratio")
    metrics["completion.completion_iff_strong.checked"] = (counts.get("completion.completion_iff_strong.checked", 0), "count")
    nodes = counts.get("ramsey.verify_arrow.nodes", 0)
    arrow_self = self_s("ramsey.verify_arrow")
    metrics["ramsey.verify_arrow.nodes"] = (nodes, "count")
    metrics["ramsey.nodes_per_s"] = (nodes / arrow_self if arrow_self > 0 else 0.0, "1/s")
    metrics["ramsey.hales_jewett_N.colourings_examined"] = (
        counts.get("ramsey.hales_jewett_N.colourings_examined", 0), "count")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (
            statistics.median(t["trace"]["layer_self_s"][layer] * speed_factor(t) for t in traced), "s")
    metrics["trace.unattributed_s"] = (self_s("task"), "s")
    traced_wall = sum(median_task_times(traced))
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / sum(median_task_times(runs)), "ratio")
    return metrics


def dominance_report(workload, metrics):
    """Which unit has the most traced self time, against the prediction."""
    predicted = PREDICTED[workload]
    if "." in predicted:
        pool = {k[: -len(".self_s")]: v for k, (v, _) in metrics.items()
                if k.endswith(".self_s") and not k.startswith(("layer.", "trace."))}
    else:
        pool = {k[len("layer."): -len(".self_s")]: v for k, (v, _) in metrics.items() if k.startswith("layer.")}
    largest = max(pool, key=pool.get)
    verdict = "as predicted" if largest == predicted else f"NOT as predicted ({predicted} has {pool[predicted]:.3f} s)"
    return f"largest traced self time: {largest} {pool[largest]:.3f} s; {verdict}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ramseyforge", "__init__.py")):
        return fail(f"no ramseyforge sources under {root}/src; run from the root of a checkout")
    start = time.perf_counter()
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [spawn(root, args.workload, args.seed, "setup") for _ in range(probes)]
        modes = ("run", "trace") if args.trace else ("run",)
        done = passes(root, args.workload, args.seed, args.seconds, modes, start)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        return fail(str(e))
    runs, traced = done["run"], done.get("trace", [])
    checked = runs[0]
    correct = consistent(runs + traced) and checked["failed"] == 0

    e2e, samples = end_to_end(runs, setups + runs)
    print(f"workload {args.workload} seed {args.seed} PYTHONHASHSEED={HASHSEED}: "
          f"{len(runs)} timed passes, {len(traced)} traced passes, {len(setups) + len(runs)} set-ups")
    print(f"digest {runs[0]['digest']}")
    yardstick = statistics.median(c["yardstick_s"] for c in setups + runs)
    print(f"times at the reference speed (yardstick {1000 * REFERENCE_YARDSTICK_S:g} ms); "
          f"measured yardstick median {1000 * yardstick:.4f} ms, "
          f"measured wall_s {measured_wall_s(runs):.6g} s")
    print(f"tasks per pass {runs[0]['attempted']}; percentiles over {samples} tasks, "
          f"each its median over {len(runs)} passes")
    if runs[0]["undecided"]:
        print("undecided: " + ", ".join(runs[0]["undecided"]))
    for name, problems in checked["failures"].items():
        print(f"FAILED {name}: {'; '.join(problems)}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    metrics = e2e
    if args.trace:
        metrics = per_layer(args.workload, runs, traced)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<48} {value:.6g} {unit}")
        print(dominance_report(args.workload, metrics))
    print(json.dumps({
        "correct": correct,
        "attempted": checked["attempted"] * len(runs),
        "failed": checked["failed"] * len(runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
