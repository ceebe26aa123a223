"""Deterministic instrumentation counters for the construction algorithms."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BuildStats:
    """Filled in by an LCS construction run when passed as an out-param.

    rounds is the algorithm's primary round counter: matrix scans for the
    basic algorithm, gathers through the c-step map for the super-alphabet
    one, executed BFS rounds for the linear one, and both for the adaptive
    one, whose handover is the width-1 round after which its BFS took over
    (None if it did not). Counters are deterministic for a given index;
    wall time is not tracked here.
    """

    rounds: int = 0
    rank_queries: int = 0
    intervals_pushed: int = 0
    lcs_writes: int = 0
    handover: int | None = None
