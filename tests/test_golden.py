"""Every row of the golden corpus (tests/golden.txt) gives the same exit code and output.

A row that differs is reported as a unified diff of its file lines, pinned
against what ``main()`` gives now, so the moved digits show in the failure.
"""

import difflib
import sys

from golden_corpus import Row, corpus_lines, outcome, read_rows, row_lines, write_rows


def test_corpus_lists_every_generated_line():
    assert [row.args for row in read_rows()] == [" ".join(argv) for argv in corpus_lines()]


# each output must come back byte for byte, or the text pins would compare two
# lossy copies: empty output, no final newline, tabs, backslashes, carriage
# returns, and lines that read like the file's own markers
def test_corpus_format_round_trips(tmp_path):
    markers = "$ construct --l 1\n> x\n! conicarcs: y\nexit 0\nsha256 0123456789abcdef\n"
    rows = [
        Row("construct --l 1 --f 0.25 --e 0.5", "0", "", ""),
        Row("arclen --l 1", "3", "no newline", "conicarcs: two\nlines, no newline"),
        Row("oracle --l 1", "1", "a\tb\\c\\\n\r\n\n", "conicarcs: \\ no newline at end\n"),
        Row("verify --e 1", "ValueError", markers + "# The golden corpus\n\\ no newline at end",
            "\n"),
        Row("scene --leg2 3", "0", "0123456789abcdef", "conicarcs: e must be finite\n"),
    ]
    path = tmp_path / "golden.txt"
    write_rows(rows, path)
    assert read_rows(path) == rows


def test_golden_corpus_unchanged():
    diffs = []
    for row in read_rows():
        got = outcome(row.args.split(" "))
        if got != row:
            diffs += difflib.unified_diff(row_lines(row), row_lines(got), f"pinned: {row.args}",
                                          f"main(): {row.args}", lineterm="")
    assert not diffs, ("rows differ (if intended, regenerate with "
                       "`PYTHONPATH=src python tests/golden_corpus.py`):\n" + "\n".join(diffs))


# Without numpy, a scene of more than 64 samples per arc is built in pure Python,
# as one of at most 64 always is: the corpus's scene rows, its 12 at 100 samples
# included, and a 1,001-sample scene in both formats print the bytes that numpy's
# builder gives.
def test_scene_rows_without_numpy(monkeypatch):
    rows = [row for row in read_rows() if row.args.startswith("scene ")]
    assert sum("--samples=100 " in row.args for row in rows) == 12
    large = [f"scene --leg2 3 --leg3 4 --e {e} --k 8 --samples 1001 --format {form}".split()
             for e in (0.5, 1, 2) for form in ("svg", "json")]
    rows += [outcome(argv) for argv in large]
    assert all(row.code == "0" for row in rows[-len(large):])
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert [outcome(row.args.split(" ")) for row in rows] == rows
