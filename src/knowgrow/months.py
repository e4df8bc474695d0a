"""Calendar-month arithmetic on ISO ``YYYY-MM`` strings.

All time series and growth models are anchored to calendar months; a model's
``t_origin`` is the month that maps to index t = 1.
"""
from __future__ import annotations

import re

_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")  # ASCII digits, matched whole


def parse_month(month: str) -> tuple[int, int]:
    """Parse ``YYYY-MM`` into (year, month), validating the month number."""
    m = _MONTH_RE.fullmatch(month)
    if not m:
        raise ValueError(f"not an ISO year-month (expected YYYY-MM): {month!r}")
    year, mon = int(m.group(1)), int(m.group(2))
    if not 1 <= mon <= 12:
        raise ValueError(f"month out of range in {month!r}")
    return year, mon


def month_ordinal(month: str) -> int:
    """Months elapsed since 0000-01 (a total order on calendar months)."""
    year, mon = parse_month(month)
    return year * 12 + (mon - 1)


def format_month(ordinal: int) -> str:
    year, mon = divmod(ordinal, 12)
    return f"{year:04d}-{mon + 1:02d}"


def add_months(month: str, k: int) -> str:
    return format_month(month_ordinal(month) + k)


def months_between(start: str, end: str) -> int:
    """Signed number of months from ``start`` to ``end``."""
    return month_ordinal(end) - month_ordinal(start)


def month_index(origin: str, month: str) -> int:
    """Index of ``month`` when ``origin`` is t = 1."""
    return months_between(origin, month) + 1
