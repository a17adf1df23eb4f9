"""Command-line front end.

Subcommands: construct, arclen, verify, sweep, scene, centre, oracle.
Exit codes: 0 success, 1 usage or invalid input, 2 verification failure,
3 infeasible (e, k).  All numeric output uses 17 significant digits and
repeated invocations with identical arguments produce byte-identical output.

Flags are parsed against one table, ``_COMMANDS``, by a short loop rather than
argparse, whose import (with gettext and locale) and parser tree cost a cold
command about 5 ms.  ``_NOTES``, the end of the help text, states the parse
rules.
"""

from __future__ import annotations

import math
import sys

# Each command imports the library modules it runs, so a cold command loads
# only those.  main() catches these errors, and perfbench counts calls
# through cli.fmt.
from .errors import InfeasibleSagitta, QuadratureNonConvergence
from .textfmt import fmt

__all__ = ["main"]


# Flag types: each turns a flag's text into its value, or raises ValueError,
# which main() reports as a usage error
def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {text!r}")
    return value


def _finite_list(text: str) -> list[float]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return [_finite(t) for t in items]


def _svg_or_json(text: str) -> str:
    if text not in ("svg", "json"):
        raise ValueError(f"expected svg or json, got {text!r}")
    return text


_METAVAR = {_finite: "X", _finite_list: "X,...", int: "N", _svg_or_json: "svg|json"}


def _cmd_construct(l, f, e) -> int:
    from .conic import construct_arc

    arc = construct_arc(l, f, e)
    fields = [f'"class": "{arc.conic_class.value}"']  # then every other field, in order
    fields += [f'"{name}": {"null" if value is None else fmt(value)}'
               for name, value in zip(arc._fields[1:], arc[1:])]
    print("{" + ", ".join(fields) + "}")
    return 0


def _cmd_arclen(l, f, e) -> int:
    from .arclength import arc_length
    from .conic import construct_arc

    arc = construct_arc(l, f, e)
    res = arc_length(arc)
    print(f"length={fmt(res.length)}")
    print(f"error_estimate={fmt(res.error_estimate)}")
    print(f"evaluations={res.evaluations}")
    return 0


def _cmd_verify(leg2, leg3, e, k, threshold) -> int:
    from .triples import conic_triple, make_right_triangle

    tri = make_right_triangle(leg2, leg3)
    triple = conic_triple(tri, e, k)
    c1, c2, c3 = triple.lengths
    print(f"c1={fmt(c1)}")
    print(f"c2={fmt(c2)}")
    print(f"c3={fmt(c3)}")
    print(f"residual={fmt(triple.residual)}")
    return 0 if triple.residual < threshold else 2


def _cmd_sweep(leg2, leg3, e_list, k_list) -> int:
    from .triples import make_right_triangle, sweep, sweep_csv

    tri = make_right_triangle(leg2, leg3)
    rows = sweep(tri, e_list, k_list)
    sys.stdout.write(sweep_csv(rows))
    return 0


def _cmd_scene(leg2, leg3, e, k, samples, format) -> int:
    from .homothety import place_triangle
    from .scene import build_scene, scene_to_json, scene_to_svg

    tri = place_triangle(leg2, leg3)
    scene = build_scene(tri, e, k, samples)
    doc = scene_to_svg(scene) if format == "svg" else scene_to_json(scene)
    sys.stdout.write(doc)
    return 0


def _cmd_centre(leg2, leg3, k_list) -> int:
    from .homothety import place_triangle, verify_homothety

    tri = place_triangle(leg2, leg3)
    reports = [verify_homothety(tri, k) for k in k_list]
    print(f"centre_x={fmt(reports[0].centre.x)}")
    print(f"centre_y={fmt(reports[0].centre.y)}")
    for k, rep in zip(k_list, reports):
        print(f"k={fmt(k)} ratio={fmt(rep.ratio)} max_deviation={fmt(rep.max_deviation)}")
    return 0


def _cmd_oracle(l, f, e, n) -> int:
    from .arclength import arc_length
    from .conic import ConicClass, construct_arc
    from .oracle import closed_form_circle, closed_form_parabola, polyline_length

    arc = construct_arc(l, f, e)
    c = arc_length(arc).length
    others = [("polyline", polyline_length(arc, n))]
    closed_form = {ConicClass.CIRCLE: closed_form_circle,
                   ConicClass.PARABOLA: closed_form_parabola}.get(arc.conic_class)
    if closed_form is not None:
        others.append(("closed_form", closed_form(arc)))
    table = ["method,value,rel_gap_vs_quadrature", f"quadrature,{fmt(c)},"]
    table += [f"{name},{fmt(v)},{fmt(abs(v - c) / c)}" for name, v in others]
    print("\n".join(table))
    return 0


# Each command's handler and flags.  A flag maps to its type and its default,
# written as text that the type reads, or None if the flag is required; the
# handler takes the flags as keyword arguments, "-" read as "_".
_ARC = {"--l": (_finite, None), "--f": (_finite, None), "--e": (_finite, None)}
_LEGS = {"--leg2": (_finite, None), "--leg3": (_finite, None)}
_EK = {"--e": (_finite, None), "--k": (_finite, None)}
_COMMANDS = {
    "construct": (_cmd_construct, _ARC),
    "arclen": (_cmd_arclen, _ARC),
    "verify": (_cmd_verify, {**_LEGS, **_EK, "--threshold": (_finite, "1e-8")}),
    "sweep": (_cmd_sweep, {**_LEGS, "--e-list": (_finite_list, None),
                           "--k-list": (_finite_list, None)}),
    "scene": (_cmd_scene, {**_LEGS, **_EK, "--samples": (int, "64"),
                           "--format": (_svg_or_json, "svg")}),
    "centre": (_cmd_centre, {**_LEGS, "--k-list": (_finite_list, "4,8,16")}),
    "oracle": (_cmd_oracle, {**_ARC, "--n": (int, "100000")}),
}
_HELP = ("-h", "--help")
_NOTES = """\
X is a finite number, X,... a comma-separated list of them and N an integer.
A flag takes its value as --flag value or --flag=value, and a unique prefix
of its name will do; the token after a flag is always its value, and a
repeated flag keeps its last value.
Exit codes: 0 success, 1 usage or invalid input, 2 verification failure,
3 infeasible (e, k)."""


def _help(command: str | None) -> int:
    """Prints the flags of one command, or of every command, for -h or --help."""
    lines = []
    for name in [command] if command else _COMMANDS:
        flags = _COMMANDS[name][1]
        lines.append(" ".join(["conicarcs", name, *(
            f"{flag} {_METAVAR[kind]}" if default is None else f"[{flag} {_METAVAR[kind]}]"
            for flag, (kind, default) in flags.items())]))
        lines += [f"  {flag} defaults to {default}"
                  for flag, (_, default) in flags.items() if default is not None]
    head = "usage: " if command else "usage: conicarcs <command> [flags]\n\n"
    print(head + "\n".join(lines) + "\n\n" + _NOTES)
    return 0


def _flag(name: str, flags) -> str | None:
    """The flag that name is, or is the unique prefix of; None if neither."""
    if name in flags:
        return name
    if not name.startswith("--") or name == "--":
        return None
    found = [flag for flag in flags if flag.startswith(name)]
    if len(found) > 1:
        raise ValueError(f"ambiguous option: {name} could match {', '.join(found)}")
    return found[0] if found else None


def _parse(argv: list[str]):
    """The handler of a command line and its keyword arguments: the command's, or
    _help's for -h or --help.  A line that does not parse raises ValueError."""
    command, table, values, unknown = None, {}, {}, []
    tokens = iter(argv)
    for token in tokens:
        if command is None and not token.startswith("-"):
            if token not in _COMMANDS:
                raise ValueError(f"unknown command {token!r}; choose from {', '.join(_COMMANDS)}")
            command, table = token, _COMMANDS[token][1]
            continue
        name, eq, value = token.partition("=")
        flag = _flag(name, [*table, *_HELP])
        if flag is None:
            unknown.append(token)  # reported last, so that a later --help still wins
        elif flag in _HELP:
            if eq:
                raise ValueError(f"{flag} takes no value")
            return _help, {"command": command}
        else:
            value = value if eq else next(tokens, None)
            if value is None:
                raise ValueError(f"{flag} expects a value")
            try:
                values[flag] = table[flag][0](value)
            except ValueError as exc:
                raise ValueError(f"{flag}: {exc}") from None
    if command is None:
        raise ValueError(f"expected a command: {', '.join(_COMMANDS)}")
    missing = [flag for flag, (_, default) in table.items()
               if default is None and flag not in values]
    if missing:
        raise ValueError(f"{command} needs {', '.join(missing)}")
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    handler = _COMMANDS[command][0]
    return handler, {flag[2:].replace("-", "_"): values[flag] if flag in values else kind(default)
                     for flag, (kind, default) in table.items()}


def main(argv: list[str] | None = None) -> int:
    try:
        handler, kwargs = _parse(sys.argv[1:] if argv is None else argv)
        return handler(**kwargs)
    except InfeasibleSagitta as exc:
        print(f"conicarcs: infeasible: {exc}", file=sys.stderr)
        return 3
    # a usage error is a ValueError too; MemoryError: a huge --samples, whose
    # points fit in no numpy array or Python list (a list's says nothing more)
    except (ValueError, MemoryError, QuadratureNonConvergence) as exc:
        print(f"conicarcs: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
