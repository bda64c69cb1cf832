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


def scores(table: ConditionalTable) -> tuple[list, list, list]:
    """The (lhs, delta, key_rate) columns of a stack of tables, or of one table.

    Each column has one float per stacked table, in row-major order of the
    stack axes: the inequality value, its violation degree
    max(lhs - 3/4, 0), and the key-rate bound of that degree.  This is the
    one place where an inequality value becomes a degree and a rate.  The
    values come from one array computation; each key rate is a scalar
    ``math.log2``.
    """
    lhs = np.ravel(fgi_lhs(table)).tolist()
    delta = [max(value - THRESHOLD, 0.0) for value in lhs]
    return lhs, delta, [key_rate(value) for value in delta]


def report_rows(columns: tuple[list, list, list]) -> list[SteeringReport]:
    """A steering report per row of ``scores`` columns."""
    return [
        SteeringReport(lhs, delta, rate, delta > 0.0)
        for lhs, delta, rate in zip(*columns)
    ]


def report_from_table(table: ConditionalTable) -> SteeringReport:
    """Steering report of one table; a stack of several raises ValueError."""
    (one,) = report_rows(scores(table))
    return one


def report(spec: ChainSpec, party: int | str) -> SteeringReport:
    """Steering report of one Eve (1-based index) or BOB, from its row of ``tables``."""
    return report_from_table(conditional_table(spec, party))


def reports(spec: ChainSpec) -> list[SteeringReport]:
    """Steering reports of Eve 1..N and then Bob, from one stacked pass."""
    return report_rows(scores(tables(spec)))
