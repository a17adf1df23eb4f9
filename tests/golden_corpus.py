"""The golden corpus: command lines whose exit codes and output are pinned.

``PYTHONPATH=src python tests/golden_corpus.py`` rewrites ``tests/golden.txt``
from the code as it stands; ``tests/test_golden.py`` runs every row through
``main()`` and prints a unified diff of each row that differs.  A change that
moves an output on purpose regenerates the file, and ``git diff tests/`` then
shows each moved line, digits and all.

The lines are the README's examples, the ``cli_cold`` lines of
``perfbench/gen.py`` for seeds 1-3, the 300 lines of the contract fuzz in
``test_cli.py``, every input that a FOUND or MENDED line of CHANGES.md names
and the example of ROADMAP item 14 (as they behave at the commit that pins
them), a sweep whose e and k are -0.0, and the exact-output cases of
``centre``, ``arclen`` and ``sweep_csv``, and the usage errors, help texts and
flag forms of the CLI's parse rules.  Each row holds the arguments, the text of
stdout and of the stderr lines that start with ``conicarcs:``, and the exit
code (or the name of an exception that escaped ``main``).  A scene's stdout,
which runs to kilobytes, is kept as the first 16 hex digits of its SHA-256.

The file format is written out in ``HEADER``.  Every output line carries a
prefix, so no output line can be read as a row marker, and every output comes
back from the file byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import math
import random
import shlex
from pathlib import Path
from typing import NamedTuple

from conicarcs.cli import main
from test_cli import fuzz_line  # this directory is on sys.path, as a script and under pytest
from test_readme import cli_examples

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "golden.txt"

EDGE_LINES = [
    "sweep --leg2 2.6316502917382712e+172 --leg3 1.1986423241946675e-278 --e-list 2 "
    "--k-list 548553.6234063043",
    "verify --leg2 1.5896682892121024e-259 --leg3 2.4459310261616e-235 --e 1 "
    "--k 1.852674373876284e-184",
    "centre --leg2 1.5706889045639205e-131 --leg3 2.98799538935463e-301 "
    "--k-list 3.5571716530064955e+223",
    "scene --leg2 2.4406638657537616e-288 --leg3 1.4119728365866371e-58 --e 1e6 "
    "--k 2.0676034113574253e+25",
    "oracle --l 2.6472860049620684e-159 --f 3.420752431176742e+74 --e 1",
    "centre --leg2 2.4774103921533255e+34 --leg3 9.593303873166702e+93 "
    "--k-list 9.500296558812161e-85",
    "scene --leg2 4 --leg3 3 --e 1 --k 1e-9",
    "sweep --leg2 3 --leg3 4 --e-list 0,1 --k-list 5e-324,8",
    "sweep --leg2 3 --leg3 4 --e-list 2 --k-list 3.4641017,8",
    "centre --leg2 1e200 --leg3 1e200",
    "centre --leg2 1e150 --leg3 1e200",
    "scene --leg2 1e150 --leg3 1e200 --e 1 --k 8 --format json",
    f"verify --leg2 103.03701503899477 --leg3 26.050732201274545 --e 0.2546159854767649 "
    f"--k {math.nextafter(1.93408448619981, math.inf)!r}",
    "centre --leg2 1e-200 --leg3 1e-200",
    "centre --leg2 1.22e-269 --leg3 1.04e-51 --k-list 0.153",
    "arclen --l 0.8193141995619333 --f 0.4497990671475703 --e 1.3525812688823207",
    "centre --leg2 1e154 --leg3 1.1e154 --k-list 8",
    "scene --leg2 1e154 --leg3 1.1e154 --e 1 --k 8 --format json",
    "centre --leg2 1e-160 --leg3 3e-161 --k-list 8",
    "centre --leg2 1 --leg3 1e-300 --k-list 1e-10",
    "centre --leg2 1e300 --leg3 1e300 --k-list 1e-10",
    "centre --leg2 2.0637662528914005e-198 --leg3 2.7345506905916405e-208 "
    "--k-list 2.4954549189704416e-116",
    "sweep --leg2 3 --leg3 4 --e-list=-0,1 --k-list=-0,8",
    "scene --leg2 2.505949602059389e+295 --leg3 3.5e-323 --e 1 --k 14.413404039972242",
    "scene --leg2 2e-323 --leg3 8.015632967165127e+307 --e 1 --k 1.7580264592430306e+226",
    "arclen --l 0.003999997999934722 --f 1 --e 0.999998",
    "centre --leg2 1e308 --leg3 1.5e308",
    "verify --leg2 1e308 --leg3 1.5e308 --e 1 --k 8",
    "scene --leg2 1e308 --leg3 1.5e308 --e 1 --k 8",
    "centre --leg2 1000 --leg3 0.01 --k-list 1e5",
    "centre --leg2 1e100 --leg3 1e-100 --k-list 8",
    # FOUND line 64 of CHANGES.md and ROADMAP item 14: wrong answers, pinned so that
    # their fix shows as a diff
    "arclen --l 1 --f 1e-201 --e 1e200",
    "construct --l 1.7320508093009281 --f 0.5 --e 2",
    # exact digits: centre's envelope at its default k-list, and arc_length's
    # (length, error_estimate, evaluations) of unit-chord arcs as the integrand with
    # two cosines per evaluation gave them (at e = 5e-324, e*cos(theta) is
    # subnormal, where 2*e*cos(theta) and 2*(e*cos(theta)) can differ)
    "centre --leg2 4 --leg3 3",
    "arclen --l 1 --f 0.125 --e 0",
    "arclen --l 1 --f 0.25 --e 0.5",
    "arclen --l 1 --f 0.125 --e 2",
    "arclen --l 1 --f 0.0004 --e 1000",
    "arclen --l 1 --f 0.25 --e 5e-324",
    # a sweep whose cells all went through conic_triple when it was pinned; its grid
    # holds k <= 0, the exact limit (e = 0, k = 2), k = 3.7, where l/(l/k) != k on
    # two sides, and the float just above e = 1000's limit, where the hypotenuse's
    # l/(l/k) rounds onto the limit and conic_triple raises
    "sweep --leg2 7 --leg3 4 --e-list 1000,2,1,0.5,0 "
    "--k-list=2500,1999.9989999997501,8,3.7,2,0,-1",
    # the parse rules: usage errors (exit 1, one line on stderr), help on stdout,
    # unique prefixes of --e-list and --k-list, an ambiguous prefix, and a value
    # after a flag that reads like a flag
    "construct --l 1",
    "bogus",
    "construct --l nan --f 0.1 --e 0",
    "arclen --l 1 --f 0.25 --e 0.5 --rel-tol 1e-6",
    "--help",
    "verify --help",
    "sweep --leg2 3 --leg3 4 --e 0,1 --k 4,8",
    "verify --leg 3 --leg3 4 --e 1 --k 8",
    "verify --leg2 3 --leg3 4 --e 1 --k -1e5",
    # too few samples per arc: the message names --samples
    "scene --leg2 4 --leg3 3 --e 1 --k 8 --samples 0",
]


def _perfbench_gen():
    """perfbench's input generators, loaded read-only from their file."""
    path = HERE.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus_lines() -> list[list[str]]:
    """Every command line of the corpus, in order, as ``main()`` arguments."""
    lines = [shlex.split(line)[1:] for line in cli_examples()]
    gen = _perfbench_gen()
    lines += [op["argv"] for seed in (1, 2, 3) for op in gen.cli_cold(seed)["timed"]]
    rng = random.Random("cli contract")
    lines += [fuzz_line(rng) for _ in range(300)]
    lines += [line.split() for line in EDGE_LINES]
    return lines


HEADER = """\
# The golden corpus of conicarcs: regenerate it with
# `PYTHONPATH=src python tests/golden_corpus.py`.
# A row starts with "$ " and the arguments of main(). Then come "> " and each
# line of stdout, "! " and each line of stderr that starts with "conicarcs:",
# and "exit " and the exit code (or the name of the exception that escaped
# main()). A stream whose last line has no newline is followed by a line
# "\\ no newline at end". A scene's stdout is one line: "sha256 " and the first
# 16 hex digits of its SHA-256.
"""
ROW, STDOUT, STDERR, NO_NEWLINE = "$ ", "> ", "! ", "\\ no newline at end"


class Row(NamedTuple):
    args: str  # main()'s arguments, joined by spaces
    code: str  # the exit code, or the name of the exception that escaped main()
    stdout: str  # a scene's: the first 16 hex digits of its SHA-256
    stderr: str  # the lines that start with "conicarcs:"


def _digested(args: list[str]) -> bool:
    return args[0] == "scene"


def outcome(argv: list[str]) -> Row:
    """What ``main(argv)`` returns and prints, as a corpus row."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except Exception as exc:
            code = type(exc).__name__
    stdout = out.getvalue()
    if _digested(argv):
        stdout = hashlib.sha256(stdout.encode()).hexdigest()[:16]
    ours = "".join(line for line in err.getvalue().splitlines(keepends=True)
                   if line.startswith("conicarcs:"))
    return Row(" ".join(argv), code, stdout, ours)


def _prefixed(prefix: str, text: str) -> list[str]:
    *lines, last = text.split("\n")  # last is "" when text is empty or ends with a newline
    lines = [prefix + line for line in lines]
    return lines + [prefix + last, NO_NEWLINE] if last else lines


def row_lines(row: Row) -> list[str]:
    """The file lines of one row."""
    lines = [ROW + row.args]
    if _digested(row.args.split(" ")):
        lines.append(f"sha256 {row.stdout}")
    else:
        lines += _prefixed(STDOUT, row.stdout)
    return lines + _prefixed(STDERR, row.stderr) + [f"exit {row.code}"]


def write_rows(rows: list[Row], path: Path = CORPUS) -> None:
    text = HEADER + "".join("\n" + "\n".join(row_lines(row)) + "\n" for row in rows)
    path.write_text(text, encoding="utf-8", newline="")


def read_rows(path: Path = CORPUS) -> list[Row]:
    """The rows of a corpus file; the inverse of ``write_rows``."""
    with open(path, encoding="utf-8", newline="") as f:  # only "\n" ends a line
        text = f.read()
    rows, streams, last = [], {}, None
    for line in text.split("\n"):
        tag = line[:2]
        if tag == ROW:
            args, streams, last = line[2:], {STDOUT: "", STDERR: ""}, None
        elif tag in streams:
            last = tag
            streams[tag] += line[2:] + "\n"
        elif line == NO_NEWLINE:
            streams[last] = streams[last][:-1]
        elif line.startswith("sha256 "):
            streams[STDOUT] = line.removeprefix("sha256 ")
        elif line.startswith("exit "):
            rows.append(Row(args, line.removeprefix("exit "), streams[STDOUT], streams[STDERR]))
        elif line and not line.startswith("#"):
            raise ValueError(f"not a corpus line: {line!r}")
    return rows


def main_write() -> None:
    rows = [outcome(argv) for argv in corpus_lines()]
    write_rows(rows)
    print(f"wrote {len(rows)} rows to {CORPUS}")


if __name__ == "__main__":
    main_write()
