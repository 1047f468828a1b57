"""Bandwidth units and the paper's default parameter values.

The paper expresses all bandwidths in bits per second; the experiments in
Section 4 use a 10 Mb/s link bandwidth, a 100 Kb/s minimum, a 500 Kb/s
maximum and increments of 50 or 100 Kb/s.  The library stores bandwidth
as plain floats in Kb/s (the unit the paper quotes its results in), and
this module centralises the constants so that every experiment,
benchmark and test agrees on them.
"""

from __future__ import annotations

#: One kilobit per second — the library's base bandwidth unit.
KBPS: float = 1.0

#: One megabit per second expressed in Kb/s.
MBPS: float = 1000.0

#: Link capacity used throughout the paper's evaluation (10 Mb/s).
PAPER_LINK_CAPACITY: float = 10 * MBPS

#: Minimum bandwidth of a DR-connection in the paper (100 Kb/s) — the
#: rate quoted for "recognizable continuous images" of a video service.
PAPER_B_MIN: float = 100 * KBPS

#: Maximum bandwidth of a DR-connection in the paper (500 Kb/s) — the
#: rate quoted for "a high-quality image".
PAPER_B_MAX: float = 500 * KBPS

#: The two increment sizes evaluated in the paper.  Δ = 50 Kb/s yields a
#: 9-state Markov chain, Δ = 100 Kb/s a 5-state chain.
PAPER_INCREMENT_SMALL: float = 50 * KBPS
PAPER_INCREMENT_LARGE: float = 100 * KBPS

#: DR-connection request arrival rate (= termination rate) used in the
#: paper's experiments.
PAPER_ARRIVAL_RATE: float = 0.001

#: Link failure rates swept in Figure 4 (per-link, per unit time).
PAPER_FAILURE_RATES: tuple[float, ...] = (
    1e-7,
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    1e-2,
)

#: Numerical slack for capacity comparisons.  All paper bandwidths are
#: exact binary floats (multiples of 50 Kb/s), so this only guards
#: against pathological user inputs.
EPSILON: float = 1e-6


def mbps(value: float) -> float:
    """Convert a value given in Mb/s to the library unit (Kb/s)."""
    return value * MBPS


def kbps(value: float) -> float:
    """Identity helper; documents that a literal is in Kb/s."""
    return value * KBPS
