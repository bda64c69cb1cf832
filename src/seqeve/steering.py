"""Fine-grained steering inequality and the secret-key-rate lower bound.

The inequality bounds the averaged conditional agreement between Alice and
the probed party at 3/4 for unsteerable correlations.  Each of the two
terms pairs equal input indices (input 0 with input 0, input 1 with
input 1).  Since relabeling dichotomic outcomes is free classical
post-processing, each term is maximized over the two outcome relabelings;
within a relabeling the agreement is evaluated at the least favorable
Alice outcome, so perfect correlations score 1 and product states can
never exceed the bound.
"""

from __future__ import annotations

import math
import numpy as np

from .chain import ChainSpec, ConditionalTable, conditional_table, tables
from .value import Value

THRESHOLD = 0.75
MAX_DELTA = 0.25
DELTA_SLACK = 1e-9


class SteeringReport(Value):
    """Inequality value, violation degree, and key-rate bound for one party."""

    __slots__ = ("lhs", "delta", "key_rate", "violated")

    def __init__(
        self, lhs: float, delta: float, key_rate: float, violated: bool
    ) -> None:
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "key_rate", key_rate)
        object.__setattr__(self, "violated", violated)


def fgi_lhs(table: ConditionalTable) -> float | np.ndarray:
    """Left-hand side of the steering inequality for a conditional table.

    Values above 3/4 certify steering; 1 is maximal.  A stack of tables
    gives an array of values, one per table.
    """
    probs = table.probs
    # Rows (k, i) = (0, 0) and (1, 1); columns (a, c) = 00, 01, 10, 11.
    cells = probs.reshape(probs.shape[:-4] + (4, 4))[..., ::3, :]
    # Columns (00, 01) against (11, 10): the kept and the flipped relabeling.
    best = np.minimum(cells[..., :2], cells[..., :1:-1]).max(axis=-1)
    # Added, not summed: a sum starts from +0.0 and would turn -0.0 + -0.0
    # into +0.0.
    lhs = 0.5 * (best[..., 0] + best[..., 1])
    return lhs if lhs.ndim else float(lhs)


def key_rate(delta: float) -> float:
    """Secret-key-rate lower bound log2((3/4 + delta)/(3/4 - delta)) in bits.

    Zero at delta = 0, one bit at the maximal violation delta = 1/4.
    """
    if not -DELTA_SLACK <= delta <= MAX_DELTA + DELTA_SLACK:
        raise ValueError(f"violation degree must lie in [0, 1/4], got {delta}")
    delta = min(max(delta, 0.0), MAX_DELTA)
    if delta == 0.0:
        return 0.0
    return math.log2((THRESHOLD + delta) / (THRESHOLD - delta))


def delta_for_rate(rate: float) -> float:
    """Inverse of key_rate: the violation degree needed for a given rate."""
    if rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    scale = 2.0**rate
    return THRESHOLD * (scale - 1.0) / (scale + 1.0)


def _scored(lhs: float) -> SteeringReport:
    delta = max(lhs - THRESHOLD, 0.0)
    return SteeringReport(
        lhs=lhs, delta=delta, key_rate=key_rate(delta), violated=delta > 0.0
    )


def report_from_table(table: ConditionalTable) -> SteeringReport:
    return _scored(fgi_lhs(table))


def report(spec: ChainSpec, party: int | str) -> SteeringReport:
    """Steering report for one Eve (1-based index) or BOB in a chain."""
    return report_from_table(conditional_table(spec, party))


def table_reports(table: ConditionalTable) -> list[SteeringReport]:
    """Steering report of each table of a stack, or of a single table.

    The inequality values come from one array computation; each key rate
    is a scalar ``math.log2``.
    """
    return [_scored(lhs) for lhs in np.atleast_1d(fgi_lhs(table)).tolist()]


def reports(spec: ChainSpec) -> list[SteeringReport]:
    """Steering reports of Eve 1..N and then Bob, from one stacked pass."""
    return table_reports(tables(spec))
