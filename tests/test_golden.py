"""Every command line of the golden corpus prints exactly its committed record.

See ``tests/golden/corpus.py`` for the command lines and for how to
rewrite the records after an intended change of output.
"""

import importlib.util
import pathlib

CORPUS = pathlib.Path(__file__).resolve().parent / "golden" / "corpus.py"


def _load_corpus():
    spec = importlib.util.spec_from_file_location("lra_golden_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_records(tmp_path):
    corpus = _load_corpus()
    expected = corpus.load_records()
    actual = corpus.generate(tmp_path)
    difference = corpus.diff(expected, actual)
    assert not difference, "output differs from tests/golden/records.json:\n" + difference
