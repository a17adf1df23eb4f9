"""Numeric text formatting shared by the CSV, JSON, and SVG emitters.

All numeric output across the package uses 17 significant digits with a
locale-independent decimal point, enough to round-trip any double exactly and
to keep repeated runs byte-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fmt", "fmt_rows"]


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
