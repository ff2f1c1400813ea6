"""End-to-end and per-layer benchmark of ``lra`` verdicts.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One client in one process runs whole CLI verdicts back to back (a closed
loop) through ``lra.cli.main(argv)`` on documents generated from the seed.
A pass runs the workload's job list once; passes repeat for ``--seconds``.
Every job's exit code and output are checked against an answer known from
how its input was built.

Every time is scaled to a fixed host speed: a short calibration kernel runs
before each timed job and set-up, and the time measured is multiplied by
``CAL_REF_S`` over the kernel's time measured next to it.  See README.md.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it name every metric
with its unit.  ``--smoke`` uses tiny instances.  See README.md.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 3
# verdict_p90_ms needs at least 10 samples beyond the 90th percentile
MIN_SAMPLES = 100
# Median time of calibration_s() on the machine described in README.md.  The
# shared host runs the same code up to 2x slower for minutes at a time, and the
# kernel slows with it, so a time scaled by CAL_REF_S / calibration_s() reads
# what it would at that machine's usual speed.
CAL_REF_S = 0.007

# a job is scaled by the median kernel time of the jobs this close to it in its
# pass, which evens out the jitter of a single kernel run
CAL_WINDOW = 2

# the kernel's inputs: a polynomial with rational coefficients, and a table
_CAL_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
_CAL_TABLE = {(i, j): (i * j + 1) % 13 for i in range(13) for j in range(13)}


def calibration_s():
    """Time a fixed kernel shaped like lra's work: a product of polynomials
    held as dicts of exponent tuples to Fractions, and lookups and inserts of
    tuple keys in a table, as the groupoid checks do.  The collector is off
    while it runs, so the program's heap does not change its time."""
    gc.disable()
    try:
        start = time.perf_counter()
        product = {}
        for (a, b), c in _CAL_TERMS.items():
            for (d, e), f in _CAL_TERMS.items():
                key = (a + d, b + e)
                product[key] = product.get(key, 0) + c * f
        for _ in range(6):
            composed = {}
            for a, c in _CAL_TABLE:
                for b in range(13):
                    composed[(a, b)] = _CAL_TABLE[(c, b)]
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(seconds, calibration):
    return seconds * CAL_REF_S / calibration


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def import_lra():
    """Import ``lra`` afresh from this checkout; returns the ``lra.cli`` module."""
    for key in [k for k in sys.modules if k == "lra" or k.startswith("lra.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    cli = importlib.import_module("lra.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError("lra was imported from %s, not from %s" % (cli.__file__, SRC))
    return cli


def setup(args, workdir):
    """Import ``lra`` and write the documents, several times; keep the last.
    Returns the scaled set-up times."""
    times = []
    for _ in range(SETUP_REPEATS):
        calibration = calibration_s()
        start = time.perf_counter()
        cli = import_lra()
        load = workloads.build(args.workload, args.seed, workdir, args.smoke, os.path.join(ROOT, "tests", "data"))
        times.append(scaled(time.perf_counter() - start, calibration))
    return cli, load, times


# -- known answers outside the timed region ---------------------------------------


def reference_problems(load):
    """Compare each loaded reduced basis with sympy's, computed in a subprocess."""
    firsts = {}
    for path, names, texts, system in load.systems:
        firsts.setdefault(system, {"variables": names, "generators": texts})
    order = list(firsts)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "reference.py")],
        input=json.dumps([firsts[s] for s in order]),
        capture_output=True,
        text=True,
        timeout=150,
        check=False,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),  # write nothing outside the checkout
    )
    if proc.returncode != 0:
        return ["reference computation failed: %s" % proc.stderr.strip()[-500:]]
    expected = {}
    for system, basis in zip(order, json.loads(proc.stdout)):
        expected[system] = {
            frozenset((tuple(exp), Fraction(c)) for exp, c in poly) for poly in basis
        }
    docs = sys.modules["lra.documents"]
    problems = []
    for path, _, _, system in load.systems:
        algebra = docs.to_algebra(docs.load_document(path).body)
        got = {frozenset(g.terms.items()) for g in algebra.ideal.groebner}
        if got != expected[system]:
            problems.append("%s: reduced basis differs from the reference" % os.path.basename(path))
    return problems


# -- the closed loop ----------------------------------------------------------------


class Runner:
    def __init__(self, cli, jobs):
        self.cli = cli
        self.groebner = sys.modules["lra.groebner"]
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.raw_walls = []
        self.calibrations = []

    def run_pass(self):
        """Run every job once; returns (pass time, per-job times), scaled.

        The pass time is the sum of its jobs' times, so the calibration
        kernel that runs before each job is not part of it."""
        gc.collect()
        default_cap = self.groebner.DEFAULT_STEP_CAP
        results = []
        elapsed_times = []
        calibrations = []
        for job in self.jobs:
            out = io.StringIO()
            calibration = calibration_s()
            begin = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(job.argv)
            except Exception as exc:  # a raising job is a failed job, not a crash
                code = exc
            elapsed_times.append(time.perf_counter() - begin)
            calibrations.append(calibration)
            cap = self.groebner.default_step_cap()
            results.append((job, code, out.getvalue(), cap == default_cap))
        times = [
            scaled(elapsed, statistics.median(calibrations[max(0, i - CAL_WINDOW) : i + CAL_WINDOW + 1]))
            for i, elapsed in enumerate(elapsed_times)
        ]
        self.raw_walls.append(sum(elapsed_times))
        self.calibrations.extend(calibrations)
        wall = sum(times)
        for job, code, text, cap_ok in results:
            self.attempted += 1
            problem = self._check(job, code, text, cap_ok)
            if problem:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append("%s: %s" % (job.label, problem))
        return wall, times

    @staticmethod
    def _check(job, code, text, cap_ok):
        if isinstance(code, Exception):
            return "raised %r" % (code,)
        if not cap_ok:
            return "the step cap was not restored"
        if code in (2, 3):
            return "exit %d" % code
        try:
            return job.check(code, text)
        except (ValueError, KeyError, TypeError) as exc:
            return "unreadable output: %r" % (exc,)


def percentile(samples, q):
    """The q-th percentile (0 < q < 100), by statistics.quantiles."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(args, runner, setup_times):
    walls, samples = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(walls) >= MIN_PASSES and len(samples) >= MIN_SAMPLES
        if (elapsed >= args.seconds and enough) or elapsed >= 3 * args.seconds:
            break
        wall, times = runner.run_pass()
        walls.append(wall)
        samples.extend(times)
    beyond = sum(1 for t in samples if t > percentile(samples, 90))
    print("passes %d, verdict samples %d, samples beyond p90 %d" % (len(walls), len(samples), beyond))
    print("pass walls %s" % " ".join("%.3f" % t for t in walls))
    print("unscaled pass walls %s" % " ".join("%.3f" % t for t in runner.raw_walls))
    print("calibration median %.6f s over %d, reference %.6f s" % (
        statistics.median(runner.calibrations), len(runner.calibrations), CAL_REF_S))
    return {
        "wall_s": (statistics.median(walls), "s"),
        "verdict_p50_ms": (1000 * statistics.median(samples), "ms"),
        "verdict_p90_ms": (1000 * percentile(samples, 90), "ms"),
        "error_rate": (runner.failed / runner.attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(args, runner):
    tracer = tracing.Tracer()
    plain, traced, layers, counts = [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and len(traced) >= 2) or elapsed >= 3 * args.seconds:
            break
        plain.append(runner.run_pass()[0])
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass()[0])
        finally:
            tracer.uninstall()
        # layer times are scaled by the pass's own scaling factor, so they
        # compare with trace.wall_s
        factor = traced[-1] / runner.raw_walls[-1]
        layers.append({kind: {name: t * factor for name, t in getattr(tracer, kind).items()}
                       for kind in ("self_s", "total_s")})
        counts.append(tracer.counts())
    if any(c != counts[0] for c in counts):
        runner.problems.append("per-layer call counts differ between traced passes")
    print("plain passes %d, traced passes %d" % (len(plain), len(traced)))
    metrics = {name: (n, "count") for name, n in counts[0].items()}
    for kind in ("self_s", "total_s"):
        for name in tracer.calls:
            metrics["%s.%s" % (name, kind)] = (statistics.median(p[kind][name] for p in layers), "s")
    candidates = counts[0]["groupoid.candidates"]
    found = counts[0]["groupoid.enumerate_maps.found"]
    metrics["groupoid.enumerate_maps.hit_ratio"] = (found / candidates if candidates else 0.0, "ratio")
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    # each traced pass against the plain pass just before it
    metrics["trace.overhead_ratio"] = (statistics.median(t / p for t, p in zip(traced, plain)), "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny instances")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lra", "__init__.py")):
        return fail("no lra package under %s" % SRC)
    contract = load_contract()
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, SRC)
    os.environ.pop("LRA_STEP_CAP", None)  # every job runs under the default cap
    scratch = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(scratch, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        cli, load, setup_times = setup(args, workdir)
        runner = Runner(cli, load.jobs)
        if load.systems:
            runner.problems.extend(reference_problems(load))
        if args.trace:
            metrics = per_layer(args, runner)
        else:
            metrics = end_to_end(args, runner, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other run is using it

    for name, (value, unit) in sorted(metrics.items()):
        print("metric %s %r %s" % (name, value, unit))
    for problem in runner.problems:
        print("problem %s" % problem)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail("metrics not measured: %s" % ", ".join(missing))
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
