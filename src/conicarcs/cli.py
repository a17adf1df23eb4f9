"""Command-line front end.

Subcommands: construct, arclen, verify, sweep, scene, centre, oracle.
Exit codes: 0 success, 1 usage or invalid input, 2 verification failure,
3 infeasible (e, k).  All numeric output uses 17 significant digits and
repeated invocations with identical arguments produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys

# Each command imports the library modules it runs, so a cold command loads
# only those.  main() catches these errors, and perfbench counts calls
# through cli.fmt.
from .errors import InfeasibleSagitta, QuadratureNonConvergence
from .textfmt import fmt

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract reserves 2 for
    # verification failure, so remap parse errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite, got {text!r}")
    return value


def _finite_list(text: str) -> list[float]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return [_finite(t) for t in items]


def _cmd_construct(args) -> int:
    from .conic import construct_arc

    arc = construct_arc(args.l, args.f, args.e)
    fields = [f'"class": "{arc.conic_class.value}"']  # then every other field, in order
    fields += [f'"{name}": {"null" if value is None else fmt(value)}'
               for name, value in zip(arc._fields[1:], arc[1:])]
    print("{" + ", ".join(fields) + "}")
    return 0


def _cmd_arclen(args) -> int:
    from .arclength import arc_length
    from .conic import construct_arc

    arc = construct_arc(args.l, args.f, args.e)
    res = arc_length(arc)
    print(f"length={fmt(res.length)}")
    print(f"error_estimate={fmt(res.error_estimate)}")
    print(f"evaluations={res.evaluations}")
    return 0


def _cmd_verify(args) -> int:
    from .triples import conic_triple, make_right_triangle

    tri = make_right_triangle(args.leg2, args.leg3)
    triple = conic_triple(tri, args.e, args.k)
    c1, c2, c3 = triple.lengths
    print(f"c1={fmt(c1)}")
    print(f"c2={fmt(c2)}")
    print(f"c3={fmt(c3)}")
    print(f"residual={fmt(triple.residual)}")
    return 0 if triple.residual < args.threshold else 2


def _cmd_sweep(args) -> int:
    from .triples import make_right_triangle, sweep, sweep_csv

    tri = make_right_triangle(args.leg2, args.leg3)
    rows = sweep(tri, args.e_list, args.k_list)
    sys.stdout.write(sweep_csv(rows))
    return 0


def _cmd_scene(args) -> int:
    from .homothety import place_triangle
    from .scene import build_scene, scene_to_json, scene_to_svg

    tri = place_triangle(args.leg2, args.leg3)
    scene = build_scene(tri, args.e, args.k, args.samples)
    doc = scene_to_svg(scene) if args.format == "svg" else scene_to_json(scene)
    sys.stdout.write(doc)
    return 0


def _cmd_centre(args) -> int:
    from .homothety import place_triangle, verify_homothety

    tri = place_triangle(args.leg2, args.leg3)
    reports = [verify_homothety(tri, k) for k in args.k_list]
    print(f"centre_x={fmt(reports[0].centre.x)}")
    print(f"centre_y={fmt(reports[0].centre.y)}")
    for k, rep in zip(args.k_list, reports):
        print(f"k={fmt(k)} ratio={fmt(rep.ratio)} max_deviation={fmt(rep.max_deviation)}")
    return 0


def _cmd_oracle(args) -> int:
    from .arclength import arc_length
    from .conic import ConicClass, construct_arc
    from .oracle import closed_form_circle, closed_form_parabola, polyline_length

    arc = construct_arc(args.l, args.f, args.e)
    c = arc_length(arc).length
    others = [("polyline", polyline_length(arc, args.n))]
    closed_form = {ConicClass.CIRCLE: closed_form_circle,
                   ConicClass.PARABOLA: closed_form_parabola}.get(arc.conic_class)
    if closed_form is not None:
        others.append(("closed_form", closed_form(arc)))
    table = ["method,value,rel_gap_vs_quadrature", f"quadrature,{fmt(c)},"]
    table += [f"{name},{fmt(v)},{fmt(abs(v - c) / c)}" for name, v in others]
    print("\n".join(table))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="conicarcs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **flags):
        p = sub.add_parser(name)
        for flag, opts in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **opts)
        p.set_defaults(func=func)
        return p

    num = {"type": _finite, "required": True}
    nums = {"type": _finite_list, "required": True}

    add("construct", _cmd_construct, l=num, f=num, e=num)
    add("arclen", _cmd_arclen, l=num, f=num, e=num)
    add("verify", _cmd_verify, leg2=num, leg3=num, e=num, k=num,
        threshold={"type": _finite, "default": 1e-8})
    add("sweep", _cmd_sweep, leg2=num, leg3=num, e_list=nums, k_list=nums)
    add("scene", _cmd_scene, leg2=num, leg3=num, e=num, k=num,
        samples={"type": int, "default": 64},
        format={"choices": ("svg", "json"), "default": "svg"})
    add("centre", _cmd_centre, leg2=num, leg3=num,
        k_list={"type": _finite_list, "default": [4.0, 8.0, 16.0]})
    add("oracle", _cmd_oracle, l=num, f=num, e=num, n={"type": int, "default": 100000})
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InfeasibleSagitta as exc:
        print(f"conicarcs: infeasible: {exc}", file=sys.stderr)
        return 3
    # MemoryError: numpy refuses the arrays of a huge --samples
    except (ValueError, MemoryError, QuadratureNonConvergence) as exc:
        print(f"conicarcs: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
