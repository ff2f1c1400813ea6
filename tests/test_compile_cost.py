"""``tools/compile_cost.py`` on two small modules in a temporary directory."""

import pathlib
import subprocess
import sys

COMPILE_COST = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compile_cost.py"


def test_rows_give_lines_tokens_and_peak_largest_peak_first(tmp_path):
    # a.py: x = 1 NEWLINE ENDMARKER; the comment and the blank line's NL do not count
    (tmp_path / "a.py").write_text("x = 1  # one\n\n", encoding="utf-8")
    # b.py: v = ( n ) NEWLINE for each two-line statement, the NL inside the brackets
    # left out, and ENDMARKER
    (tmp_path / "b.py").write_text("".join("v%d = (%d\n)\n" % (i, i) for i in range(300)), encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(COMPILE_COST), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout
    header, *rows = [line.split() for line in out.splitlines()]
    assert header == ["module", "lines", "tokens", "peak_kb"]
    assert [row[:3] for row in rows] == [["b.py", "600", "1801"], ["a.py", "2", "5"]]
    assert int(rows[0][3]) > int(rows[1][3]) > 0
