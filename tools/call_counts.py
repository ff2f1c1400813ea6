"""Function call counts of one benchmark pass, which repeat exactly across runs.

Usage, from anywhere:

    python3 tools/call_counts.py CHECKOUT --workload W [--seed 7] [--smoke]

The tool writes the documents of workload W of ``CHECKOUT/perfbench`` for
the seed into a temporary directory, imports ``lra`` from ``CHECKOUT/src``
and runs every job of the workload once, in process, under ``cProfile``.
It prints the total number of function calls, then the calls of each
function in ``COUNTED``, a fixed list (0 for one the checkout does not
have), then the number of jobs whose answer was wrong.  Timings would move
with the machine's load; the counts depend only on the checkout, the
workload and the seed, so a parent and a change can be compared on them
from one run each.  Set ``PYTHONHASHSEED`` for counts that also repeat in
the few places where the order of a set of strings decides the work.
"""

import argparse
import contextlib
import cProfile
import io
import os
import pstats
import sys
import tempfile

# (label, file name, function name) of each counted function
COUNTED = (
    ("_add_product", "poly.py", "_add_product"),
    ("parse_poly", "poly.py", "parse_poly"),
    ("_read_poly", "poly.py", "_read_poly"),
    ("to_palg", "documents.py", "to_palg"),
    ("axioms_check", "pseudoalgebra.py", "axioms_check"),
    ("Fraction.__new__", "fractions.py", "__new__"),
)


def counts(checkout, workload, seed, smoke):
    """(total calls, {label: calls}, wrong answers) of one pass of ``workload``."""
    checkout = os.path.abspath(checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import workloads  # noqa: E402 -- from the checkout's perfbench
    from lra import cli  # noqa: E402 -- from the checkout's src

    with tempfile.TemporaryDirectory(prefix="call_counts_") as workdir:
        load = workloads.build(workload, seed, workdir, smoke, os.path.join(checkout, "tests", "data"))
        profile = cProfile.Profile()
        wrong = 0
        for job in load.jobs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = profile.runcall(cli.main, job.argv)
            wrong += job.check(code, out.getvalue()) is not None
    stats = pstats.Stats(profile).stats
    calls = {label: 0 for label, _, _ in COUNTED}
    for (path, _, function), (_, total, _, _, _) in stats.items():
        for label, name, counted in COUNTED:
            if function == counted and os.path.basename(path) == name:
                calls[label] += total
    return sum(total for _, total, _, _, _ in stats.values()), calls, wrong


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true", help="the benchmark's tiny instances")
    args = parser.parse_args(argv)
    total, calls, wrong = counts(args.checkout, args.workload, args.seed, args.smoke)
    print("%-18s %10d" % ("total", total))
    for label, value in calls.items():
        print("%-18s %10d" % (label, value))
    print("%-18s %10d" % ("wrong answers", wrong))
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
