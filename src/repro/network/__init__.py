"""Run-time resource accounting: the struct-of-arrays link table."""

from __future__ import annotations

from repro.network.link_table import LinkTable
from repro.units import EPSILON

__all__ = ["EPSILON", "LinkTable"]
