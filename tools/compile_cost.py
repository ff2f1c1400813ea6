"""Source size and compile memory of each module in a directory.

Usage, from the root of the repository:

    python3 tools/compile_cost.py [DIR]

DIR defaults to ``src/lra``.  For each ``*.py`` file in DIR the tool prints
the line count, the token count and the peak memory of ``compile()`` on the
file, largest peak first.  Tokens are counted with ``tokenize``, leaving out
comments and the NL tokens of blank and continued lines.  The peak is read
with ``tracemalloc`` and printed in KB.  It steps up where a module passes a
power of two in tokens; on ``groupoid.py`` under CPython 3.11 the step sits
at 8,192 tokens and costs about 0.5 MB.  Under ``PYTHONDONTWRITEBYTECODE=1``
every fresh import pays that peak, which is why the benchmark's set-up
memory moves with it.
"""

import argparse
import io
import os
import pathlib
import tokenize
import tracemalloc

DEFAULT_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "lra"


def count_tokens(source):
    """Tokens of ``source`` other than comments and NL (blank or continued lines)."""
    skip = (tokenize.COMMENT, tokenize.NL)
    return sum(1 for tok in tokenize.generate_tokens(io.StringIO(source).readline) if tok.type not in skip)


def compile_peak_kb(source, name):
    """The peak memory, in KB, that ``compile(source, name, "exec")`` allocates."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        compile(source, name, "exec")
        return (tracemalloc.get_traced_memory()[1] - before) / 1024
    finally:
        if started:
            tracemalloc.stop()


def costs(directory):
    """(name, lines, tokens, peak KB) of each ``*.py`` file in ``directory``, largest peak first."""
    rows = []
    for path in sorted(pathlib.Path(directory).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, len(source.splitlines()), count_tokens(source),
                     compile_peak_kb(source, os.fspath(path))))
    return sorted(rows, key=lambda row: -row[3])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", nargs="?", default=DEFAULT_DIR)
    args = parser.parse_args(argv)
    print("%-20s %7s %7s %9s" % ("module", "lines", "tokens", "peak_kb"))
    for name, lines, tokens, peak in costs(args.directory):
        print("%-20s %7d %7d %9.0f" % (name, lines, tokens, peak))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
