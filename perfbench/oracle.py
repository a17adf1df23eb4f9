"""Reference arc lengths from mpmath, independent of conicarcs.

The length of the symmetric arc with ratio k = l/f and eccentricity e is
l * g(e, k), where

    g = p * 2 * integral_0^beta sqrt(1 + 2 e cos t + e^2) / (1 + e cos t)^2 dt,
    p = (k^2 + 4 (1 - e^2)) / (8 k),
    beta = atan2(1/2, (k^2 - 4 (1 + e)^2) / (8 k (1 + e))).

p and the focus offset are formed from exact rationals of the binary inputs,
so the cancellation next to the feasibility limit costs no digits.  The
integrand has its nearest singularity where 1 + e cos t = 0, just beyond beta
in the hyperbola boundary layer; both quadratures split [0, beta] into pieces
that shrink geometrically towards beta until they are no wider than the
distance to that singularity.

The reference is mpmath's adaptive ``mp.quad`` (Gauss-Legendre) at 40
digits.  Every reference is cross-checked against a fixed 48-node
Gauss-Legendre rule at 60 digits with its own nodes and a different set of
pieces, and ``OracleDisagreement`` is raised if the two differ by more
than 1e-28 relative.

mpmath is not a declared dependency of conicarcs, so it is imported only by
``load()``, after the timed part of a run, which also keeps it out of the
workload's peak RSS.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction

mp = None

PRIMARY_DPS = 40
CHECK_DPS = 60
CHECK_NODES = 48
AGREEMENT = 1e-28


class OracleDisagreement(ArithmeticError):
    """The 40-digit reference and the 60-digit cross-check disagree."""


def available() -> bool:
    return importlib.util.find_spec("mpmath") is not None


def load() -> None:
    global mp
    mp = importlib.import_module("mpmath")


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def _geometry(e: float, k: float):
    """(p, beta, distance from beta to the nearest singularity), at current precision."""
    fe, fk = Fraction(e), Fraction(k)
    p = _mpf((fk * fk + 4 * (1 - fe * fe)) / (8 * fk))
    s = _mpf((fk * fk - 4 * (1 + fe) ** 2) / (8 * fk * (1 + fe)))
    beta = mp.atan2(mp.mpf(1) / 2, s)
    dist = mp.inf if e == 0.0 else abs(mp.acos(-1 / mp.mpf(e)) - beta)
    return p, beta, dist


def _pieces(beta, dist, ratio):
    pts = [mp.mpf(0)]
    width = beta
    while width > dist and len(pts) < 400:
        width *= ratio
        pts.append(beta - width)
    pts.append(beta)
    return pts


def _integrand(e):
    e = mp.mpf(e)
    e2 = 1 + e * e

    def f(t):
        c = mp.cos(t)
        return mp.sqrt(e2 + 2 * e * c) / (1 + e * c) ** 2

    return f


_NODES: dict = {}


def _gauss_legendre(n: int, dps: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by Newton."""
    key = (n, dps)
    if key not in _NODES:
        with mp.workdps(dps + 10):
            rule = []
            for i in range(1, n + 1):
                x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
                for _ in range(100):
                    p0, p1 = mp.mpf(1), x
                    for j in range(2, n + 1):
                        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                    dp = n * (x * p1 - p0) / (x * x - 1)
                    step = p1 / dp
                    x -= step
                    if abs(step) < mp.mpf(10) ** (-dps - 5):
                        break
                rule.append((x, 2 / ((1 - x * x) * dp * dp)))
        _NODES[key] = rule
    return _NODES[key]


def _primary(e: float, k: float):
    with mp.workdps(PRIMARY_DPS):
        p, beta, dist = _geometry(e, k)
        integral = mp.quad(_integrand(e), _pieces(beta, dist, 0.25), method="gauss-legendre")
        return +(2 * p * integral)


def _cross_check(e: float, k: float):
    with mp.workdps(CHECK_DPS):
        p, beta, dist = _geometry(e, k)
        f = _integrand(e)
        rule = _gauss_legendre(CHECK_NODES, CHECK_DPS)
        pts = _pieces(beta, dist, 0.5)
        total = mp.mpf(0)
        for a, b in zip(pts, pts[1:]):
            half, mid = (b - a) / 2, (a + b) / 2
            total += half * mp.fsum(w * f(mid + half * x) for x, w in rule)
        return 2 * p * total


def g_reference(e: float, k: float):
    """Length per unit chord of the feasible (e, k) arc, as a 40-digit mpf."""
    ref = _primary(e, k)
    check = _cross_check(e, k)
    with mp.workdps(CHECK_DPS):
        gap = abs(ref - check) / check
    if gap > AGREEMENT:
        raise OracleDisagreement(f"e={e!r} k={k!r}: 40- and 60-digit references differ by {gap}")
    return ref


def references(pairs) -> dict:
    """g(e, k) as a 40-digit mpf for each distinct feasible (e, k) pair."""
    return {pair: g_reference(*pair) for pair in sorted(set(pairs))}


def rel_err(value: float, ref) -> float:
    """|value - ref| / ref, evaluated at the reference precision."""
    with mp.workdps(PRIMARY_DPS):
        return float(abs(mp.mpf(value) - ref) / ref)


def side_lengths(legs):
    """Exact hypotenuse and legs of the right triangle with the given legs, l2 >= l3."""
    l2, l3 = sorted((float(legs[0]), float(legs[1])), reverse=True)
    with mp.workdps(PRIMARY_DPS):
        return (mp.sqrt(_mpf(Fraction(l2) ** 2 + Fraction(l3) ** 2)), mp.mpf(l2), mp.mpf(l3))
