"""``tools/call_counts.py`` on the benchmark's smoke instances."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _counts(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "call_counts.py"), str(ROOT), "--workload", workload, "--smoke"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_call_counts_repeat_and_name_every_counted_function():
    first = _counts("palg-verdicts")
    assert _counts("palg-verdicts") == first
    rows = dict(line.rsplit(None, 1) for line in first.splitlines())
    assert list(rows) == [
        "total", "_add_product", "parse_poly", "_read_poly", "to_palg", "axioms_check", "Fraction.__new__",
        "wrong answers",
    ]
    counts = {label: int(value) for label, value in rows.items()}
    assert counts["wrong answers"] == 0
    assert counts["total"] > counts["_add_product"] > 0
    assert counts["to_palg"] > counts["axioms_check"] > 0
    assert _counts("groupoid-search").splitlines()[1:-1] == [
        "%-18s %10d" % (label, 0) for label in list(rows)[1:-1]
    ]
