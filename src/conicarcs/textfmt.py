"""Numeric text formatting shared by the CSV, JSON, and SVG emitters.

All numeric output across the package uses 17 significant digits with a
locale-independent decimal point, enough to round-trip any double exactly and
to keep repeated runs byte-identical.
"""

__all__ = ["fmt"]


def fmt(value: float) -> str:
    """17-significant-digit decimal representation of a float."""
    return format(float(value) + 0.0, ".17g")  # +0.0 folds -0.0 into 0.0
