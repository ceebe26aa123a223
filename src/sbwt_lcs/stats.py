"""Deterministic instrumentation counters for the construction algorithms."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BuildStats:
    """Filled in by an LCS construction run when passed as an out-param.

    rounds is the algorithm's primary round counter: matrix scans for the
    basic algorithm, gathers through the c-step map for the super-alphabet
    one, and for the linear and adaptive ones the width-1 rounds before the
    hand-over plus the executed BFS rounds: one width-1 round for linear,
    and handover rounds for adaptive, whose handover is None if its rounds
    closed every slot by themselves. Counters are deterministic for a given
    index; wall time is not tracked here.
    """

    rounds: int = 0
    rank_queries: int = 0
    intervals_pushed: int = 0
    lcs_writes: int = 0
    handover: int | None = None
