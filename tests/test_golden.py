"""Every row of the golden corpus (tests/golden.tsv) gives the same exit code and bytes."""

from golden_corpus import corpus_lines, outcome, read_rows


def test_corpus_lists_every_generated_line():
    assert [row[0] for row in read_rows()] == [" ".join(argv) for argv in corpus_lines()]


def test_golden_corpus_unchanged():
    changed = []
    for args, *pinned in read_rows():
        got = outcome(args.split(" "))
        if list(got) != pinned:
            changed.append(f"{args}\n    pinned {' '.join(pinned)}\n    got    {' '.join(got)}")
    assert not changed, (f"{len(changed)} rows differ (if intended, regenerate with "
                         "`PYTHONPATH=src python tests/golden_corpus.py`):\n" + "\n".join(changed))
