"""The golden corpus: command lines whose exit codes and output bytes are pinned.

``PYTHONPATH=src python tests/golden_corpus.py`` rewrites ``tests/golden.tsv``
from the code as it stands; ``tests/test_golden.py`` runs every row through
``main()`` and prints each row that differs.  A change that moves an output on
purpose regenerates the file, and the diff of the TSV lists exactly what moved.

The lines are the README's examples, the ``cli_cold`` lines of
``perfbench/gen.py`` for seeds 1-3, the 300 lines of the contract fuzz in
``test_cli.py``, every input that a FOUND or MENDED line of CHANGES.md names
(as it behaves at the commit that pins it), and a sweep whose e and k are
-0.0.  Each row holds the arguments joined by spaces, the exit code (or the
name of an exception that escaped ``main``), and the first 16 hex digits of
the SHA-256 of stdout and of the stderr lines that start with ``conicarcs:``.
argparse's own text is left out, since it differs across Python versions.
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

from conicarcs.cli import main
from test_cli import fuzz_line  # this directory is on sys.path, as a script and under pytest
from test_readme import cli_examples

HERE = Path(__file__).resolve().parent
TSV = HERE / "golden.tsv"

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


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome(argv: list[str]) -> tuple[str, str, str]:
    """Exit code (or escaped exception's name), stdout digest, ``conicarcs:`` stderr digest."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except Exception as exc:
            code = type(exc).__name__
    ours = "".join(line for line in err.getvalue().splitlines(keepends=True)
                   if line.startswith("conicarcs:"))
    return code, _digest(out.getvalue()), _digest(ours)


def read_rows() -> list[tuple[str, str, str, str]]:
    """``(args, exit, stdout digest, stderr digest)`` per committed row."""
    return [tuple(line.split("\t")) for line in TSV.read_text().splitlines()[1:]]


def main_write() -> None:
    rows = ["args\texit\tstdout_sha256\tstderr_sha256"]
    rows += ["\t".join((" ".join(argv), *outcome(argv))) for argv in corpus_lines()]
    TSV.write_text("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} rows to {TSV}")


if __name__ == "__main__":
    main_write()
