"""One timed pass over a workload's task list, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode check|run|trace|setup

Run from the root of a ramseyforge checkout; the library is imported from
``src/`` of that checkout and nowhere else.  Prints one JSON object on
stdout.  ``setup`` stops after import and input generation; ``check`` also
re-checks every verdict after the timed list; ``trace`` installs the
per-layer tracer for the task list.  Passes that skip the checks are held
to the checked pass by the output digest.

Before anything else the child times a fixed pure-Python loop, the
yardstick, so that ``run.py`` can tell how fast the machine was during
this pass.
"""

from __future__ import annotations

import time

YARDSTICK_REPEATS = 9


def yardstick() -> float:
    """One run of a fixed loop over tuples, frozensets, dicts and sets, the
    kinds of object the library spends its time on; no library code."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(3000):
        key = frozenset((i % 17, i % 13, i % 7))
        ordered = tuple(sorted(key))
        counts[ordered] = counts.get(ordered, 0) + len({x * y for x in ordered for y in ordered})
    total = 0
    for k, v in counts.items():
        total += hash(k) % 7 + v
    return time.perf_counter() - t0


YARDSTICK_S = sorted(yardstick() for _ in range(YARDSTICK_REPEATS))[YARDSTICK_REPEATS // 2]

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("check", "run", "trace", "setup"), required=True)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import ramseyforge
    from ramseyforge.errors import CapError

    if not os.path.abspath(ramseyforge.__file__).startswith(src + os.sep):
        print(f"ramseyforge imported from {ramseyforge.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    tasks = workloads.build_tasks(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    out = {"setup_s": setup_s, "yardstick_s": YARDSTICK_S, "hashseed": os.environ.get("PYTHONHASHSEED")}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install(ramseyforge, extra_modules=[workloads])
        task_nid = tracer.name_id(tracer_mod.TASK_SPAN)

    times, records, checks, errors = [], [], [], []
    for task in tasks:
        if tracer is not None:
            span = tracer.open(task_nid)
        exc = None
        t0 = time.perf_counter()
        try:
            result = task.run()
        except Exception as e:  # recorded as a verdict, never propagated
            exc = e
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        times.append(dt)
        if exc is None:
            status, payload, check = task.settle(result)
        elif isinstance(exc, CapError):
            status, payload, check = "cap", str(exc), None
        else:
            status, payload, check = "error", f"{type(exc).__name__}: {exc}", None
            errors.append((task.name, payload))
        result = None
        records.append((task.name, status, payload))
        checks.append(check)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    failures = {name: [f"unexpected {message}"] for name, message in errors}
    for (name, _, _), check in zip(records, checks):
        if args.mode == "check" and check is not None:
            try:
                problems = check()
            except Exception as e:  # a crashing check is a failed task
                problems = [f"check raised {type(e).__name__}: {e}"]
            if problems:
                failures[name] = problems
    statuses = [status for _, status, _ in records]
    out.update(
        wall_s=sum(times),
        task_s=times,
        attempted=len(records),
        decided=sum(s in workloads.CONCLUSIVE for s in statuses),
        undecided=[name for name, status, _ in records if status not in workloads.CONCLUSIVE and status != "error"],
        failed=len(failures),
        failures=failures,
        digest=workloads.digest(records),
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
