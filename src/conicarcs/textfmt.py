"""Numeric text formatting: ``fmt`` prints one float.

All numeric output across the package uses 17 significant digits with a
locale-independent decimal point, enough to round-trip any double exactly and
to keep repeated runs byte-identical.  The CLI's fields, the messages and the
SVG's viewBox, stroke width and centre mark go through ``fmt``.  The CSV rows
of ``sweep_csv`` and the point rows of ``scene.fmt_rows``, which the JSON and
the SVG paths print, go through their own ``%.17g`` templates, which print
each float exactly as ``fmt`` does.
"""

__all__ = ["fmt"]


def fmt(value: float) -> str:
    """17-significant-digit decimal representation of a float."""
    return format(float(value) + 0.0, ".17g")  # +0.0 folds -0.0 into 0.0
