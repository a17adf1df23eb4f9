"""Fresh Python processes: set-up timing, CLI calls and the import-time split.

Children are started with ``posix_spawn`` and reaped with ``wait4``, which
gives each child's own peak RSS.  Their output goes to files in the scratch
directory, so no pipe can fill up and no reader thread is needed.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Interpreter start to "import conicarcs" plus one small operation of the
# workload; the child prints CLOCK_MONOTONIC when done.
WARM_UP = {
    "grid_sweep": "from conicarcs import make_right_triangle, sweep, sweep_csv\n"
                  "sweep_csv(sweep(make_right_triangle(3, 4), [0.0, 1.0, 2.0], [4.0, 8.0]))",
    "boundary_layer": "from conicarcs import arc_length, construct_arc\n"
                      "arc_length(construct_arc(3.4641016151377544 * 1.001, 1.0, 2.0))",
    "scene_render": "from conicarcs import build_scene, place_triangle, scene_to_json, "
                    "scene_to_svg, verify_homothety\n"
                    "t = place_triangle(4, 3)\ns = build_scene(t, 1.0, 8.0, 64)\n"
                    "scene_to_svg(s)\nscene_to_json(s)\nverify_homothety(t, 8.0)",
    "cli_cold": "from conicarcs.cli import main\n"
                "main(['construct', '--l', '1', '--f', '0.25', '--e', '0.5'])",
}
SETUP_CODE = "import time\nimport conicarcs\n{warm_up}\nprint(repr(time.monotonic()))"
# Runs the CLI's main() in a fresh interpreter and reports when the import
# finished and when main() returned, on the last line of stderr.
CLI_SHIM = ("import sys, time\nt0 = time.monotonic()\nfrom conicarcs.cli import main\n"
            "t1 = time.monotonic()\nrc = main(sys.argv[1:])\nt2 = time.monotonic()\n"
            "sys.stdout.flush()\nsys.stderr.write('\\nperfbench %r %r %r\\n' % (t0, t1, t2))\n"
            "sys.exit(rc)")
IMPORT_GROUPS = ("numpy", "scipy", "conicarcs")


@dataclass
class Child:
    status: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    started: float  # CLOCK_MONOTONIC just before the spawn
    maxrss_kb: int


class Spawner:
    def __init__(self, root: Path, scratch: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONSTARTUP", None)
        self.out = scratch / "child.out"
        self.err = scratch / "child.err"

    def run(self, args: list[str]) -> Child:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(self.out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.err), flags, 0o644),
        ]
        argv = [sys.executable, *args]
        started = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.monotonic() - started
        return Child(os.waitstatus_to_exitcode(status), self.out.read_bytes(),
                     self.err.read_bytes(), wall, started, usage.ru_maxrss)

    def setup(self, workload: str, importtime: bool = False) -> tuple[float, Child]:
        """Seconds from spawn until the child has imported conicarcs and warmed up."""
        code = SETUP_CODE.format(warm_up=WARM_UP[workload])
        child = self.run((["-X", "importtime"] if importtime else []) + ["-c", code])
        if child.status != 0:
            raise RuntimeError(f"set-up process failed: {child.stderr.decode(errors='replace')}")
        ready = float(child.stdout.decode().strip().splitlines()[-1])
        return ready - child.started, child

    def floor(self) -> float:
        """Wall seconds of an interpreter that imports numpy and scipy.integrate."""
        return self.run(["-c", "import numpy, scipy.integrate"]).wall_s

    def bare(self) -> float:
        """Wall seconds of an interpreter that runs nothing: the floor under every CLI call."""
        return self.run(["-c", "pass"]).wall_s

    def cli(self, argv: list[str], traced: bool) -> Child:
        if traced:
            return self.run(["-X", "importtime", "-c", CLI_SHIM, *argv])
        return self.run(["-m", "conicarcs.cli", *argv])


def import_split_ms(stderr: str) -> dict:
    """Self time of imported modules, in ms, summed by top-level package.

    Parses ``-X importtime`` lines ``import time: self | cumulative | name``.
    """
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if not self_us.isdigit():
            continue  # the header line
        group = name.split(".")[0]
        if group in totals:
            totals[group] += int(self_us) / 1000.0
    return totals


def shim_times(stderr: str) -> tuple[float, float, float]:
    """(start, import done, main returned) reported by CLI_SHIM."""
    for line in reversed(stderr.splitlines()):
        if line.startswith("perfbench "):
            t0, t1, t2 = (float(x) for x in line.split()[1:])
            return t0, t1, t2
    raise ValueError("the CLI shim reported no timings")
