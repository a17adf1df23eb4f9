"""Numeric text formatting shared by the CSV, JSON, and SVG emitters.

All numeric output across the package uses 17 significant digits with a
locale-independent decimal point, enough to round-trip any double exactly and
to keep repeated runs byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported where used, so that `import conicarcs` loads no numpy
    import numpy as np

__all__ = ["fmt", "fmt_rows", "negate_y_rows"]


def fmt(value: float) -> str:
    """17-significant-digit decimal representation of a float."""
    return format(float(value) + 0.0, ".17g")  # +0.0 folds -0.0 into 0.0


def fmt_rows(pts: np.ndarray, row: str, sep: str) -> str:
    """Every (x, y) row of ``pts`` through the template ``row``, joined by ``sep``.

    ``row`` holds two ``%.17g`` slots, which print a float exactly as ``fmt``
    does; the whole array goes through one ``%`` instead of a call per number.
    """
    flat = (pts + 0.0).ravel().tolist()  # +0.0 folds -0.0 into 0.0, as in fmt
    return sep.join([row] * len(pts)) % tuple(flat)


def negate_y_rows(rows: str, ys: np.ndarray) -> str:
    """``fmt_rows`` text of (x, y) rows with every y negated as text, as ``fmt(-y)`` prints it.

    ``rows`` holds one ``"x y\\n"`` row per value of ``ys``.  A y token follows
    the only space of its row (``%.17g`` never prints a space or a newline):
    negation drops its leading ``-`` and gives anything else one, except ``0``
    (``fmt`` folds -0.0) and ``nan`` (printed without a sign).  ``ys`` only
    counts each kind of value, so that every pass over the text stops at the
    last row it has to change, and a pass with nothing to change never runs.
    """
    import numpy as np

    negative, zero, nan = (np.count_nonzero(m) for m in (ys < 0, ys == 0, np.isnan(ys)))
    if negative + zero + nan == len(ys):  # no positive y: dropping each "-" is all
        return rows.replace(" -", " ", negative)
    text = rows.replace(" ", " -")
    text = text.replace(" --", " ", negative)
    return text.replace(" -0\n", " 0\n", zero).replace(" -nan\n", " nan\n", nan)
