"""Operation-count instrumentation for the group layer.

A measured region is opened with `measure()`; inside it, every public group
operation reports itself via `tally`.  Counts are per operation *kind* at the
protocol level of accounting: a scalar multiplication counts once no matter
how many internal doublings it performs, and a map-to-point hash counts once
even though it clears the cofactor internally.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

G1_SCALAR_MUL = "g1_scalar_mul"
G1_GROUP_OP = "g1_group_op"
PAIRING = "pairing"
MAP_TO_POINT = "map_to_point"

KINDS = (
    G1_SCALAR_MUL,
    G1_GROUP_OP,
    PAIRING,
    MAP_TO_POINT,
)


class OpCounter:
    """Monotone per-kind counters for one measured region."""

    def __init__(self):
        self.counts = {k: 0 for k in KINDS}

    def bump(self, kind: str) -> None:
        self.counts[kind] += 1


_active: ContextVar[OpCounter | None] = ContextVar("dvbsig_op_counter", default=None)


def tally(kind: str) -> None:
    counter = _active.get()
    if counter is not None:
        counter.bump(kind)


@contextmanager
def measure():
    """Collect operation counts for the enclosed region.

    Regions are per thread of control (contextvar-scoped); nesting replaces
    the active counter for the inner region.
    """
    counter = OpCounter()
    token = _active.set(counter)
    try:
        yield counter
    finally:
        _active.reset(token)
