"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--pairs 10 --seconds 36 --seed 7]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, the
parent first in even pairs and the change first in odd ones.  Every run gets
``PYTHONDONTWRITEBYTECODE=1`` and a fresh, empty ``PYTHONPYCACHEPREFIX``.  The
prefix is where bytecode is looked for, so every run compiles the sources
afresh: it reads neither a ``__pycache__`` inside a checkout nor bytecode
another run wrote, and it writes none.

For each end-to-end metric of the parent's ``BENCHMARK.json`` the summary
gives the parent's median with its quartiles [q1, q3], the change's median,
and the pairs in which the change read better; a tie counts for neither side.
The exit status is 1 as soon as a run is not ``correct``, else 0.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def quartiles(values):
    """(q1, median, q3) of ``values``, by statistics.quantiles (inclusive)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent, change, better):
    """Parent median and quartiles, change median and pairs won, for one metric
    read on paired runs; ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    q1, median, q3 = quartiles(parent)
    sign = 1 if better == "lower" else -1
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    return {"parent": median, "q1": q1, "q3": q3, "change": statistics.median(change),
            "won": won, "pairs": len(parent)}


def run_once(checkout, args):
    """One benchmark run in ``checkout``; returns its final JSON object."""
    cache = tempfile.mkdtemp(prefix="bench_pairs_pycache_")
    try:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=checkout, env=env, capture_output=True, text=True, timeout=4 * args.seconds + 300, check=False,
        )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "problem": proc.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    for n in range(args.pairs):
        for side in ("parent", "change") if n % 2 == 0 else ("change", "parent"):
            result = run_once(sides[side], args)
            if not result.get("correct"):
                print("pair %d %s: not correct: %s" % (n + 1, side, result.get("problem", result)))
                return 1
            read = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
            for name, value in read.items():
                values[side][name].append(value)
            print("pair %d %s: %s" % (n + 1, side, " ".join("%s=%.6g" % item for item in read.items())), flush=True)
    for m in metrics:
        s = summarize(values["parent"][m["name"]], values["change"][m["name"]], m["better"])
        print("%s: parent %.6g [%.6g, %.6g] %s, change %.6g %s (%+.1f %%), change better in %d/%d pairs" % (
            m["name"], s["parent"], s["q1"], s["q3"], m["unit"], s["change"], m["unit"],
            100 * (s["change"] / s["parent"] - 1) if s["parent"] else 0.0, s["won"], s["pairs"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
