"""What the untraced and traced runs share: the program's modules, one
workload instance with its expected outputs, and the operation ledger."""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import ref

ROOT = Path(__file__).resolve().parent.parent


def program(module: str):
    """A module of the package under test, imported from ./src."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return importlib.import_module(f"sbwt_lcs.{module}")


def run_cli(argv: list[str]) -> int:
    """sbwt-lcs with argv, in this process; its report on stdout is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return program("cli").main(argv)


class Ledger:
    """Operations attempted and failed, and whether every output checked out."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def fail(self, what: str, exc: BaseException | str) -> None:
        self.failed += 1
        print(f"failed: {what}: {exc}", file=sys.stderr)

    def wrong(self, what: str, exc: BaseException | str) -> None:
        self.correct = False
        print(f"incorrect: {what}: {exc}", file=sys.stderr)

    def check(self, what: str, fn, *args) -> None:
        try:
            fn(*args)
        except ref.CheckError as exc:
            self.wrong(what, exc)


@dataclass
class Case:
    """One workload instance: input files plus every expected output."""

    inputs: gen.Inputs
    spectrum: ref.Spectrum
    work: Path
    fasta: Path
    expected_lcs: np.ndarray
    expected_ranks: np.ndarray
    contract_ranks: np.ndarray
    contract_orders: np.ndarray
    expected_runs: np.ndarray

    @classmethod
    def prepare(cls, inputs: gen.Inputs, work: Path) -> "Case":
        pieces = list(inputs.records)
        if inputs.add_rc:
            pieces += [ref.revcomp(p) for p in pieces]
        spectrum = ref.extended_spectrum(pieces, inputs.k)
        paths = gen.write_inputs(inputs, work)
        lcs = spectrum.lcs()
        ranks = spectrum.ranks(inputs.queries)
        # cycle c contracts present lookup results to each order 1..k-1 once
        present = ranks[ranks > 0]
        orders = inputs.contract_orders.ravel()
        picks = present[np.arange(len(orders)) % len(present)]
        runs = ref.contractions(lcs, picks, orders)
        return cls(inputs, spectrum, work, paths["fasta"], lcs, ranks, picks, orders, runs)

    @property
    def k(self) -> int:
        return self.inputs.k

    def build_flags(self) -> list[str]:
        return ["--add-rc"] if self.inputs.add_rc else []

    def check_lookups(self, got: list, ledger: Ledger) -> None:
        ledger.attempted += len(got)
        for q, g, e in zip(self.inputs.queries, got, self.expected_ranks):
            if isinstance(g, Exception):
                ledger.fail(f"lookup {q}", repr(g))
            elif (g or 0) != e:
                ledger.wrong(f"lookup {q}", f"returned {g}, expected {e or None}")

    def check_contractions(self, got: list, ledger: Ledger) -> None:
        ledger.attempted += len(got)
        rows = zip(self.contract_ranks, self.contract_orders, got, self.expected_runs)
        for r, m, res, (lo, hi) in rows:
            if isinstance(res, Exception):
                ledger.fail(f"contract {r} to {m}", repr(res))
            elif (res.interval.lo, res.interval.hi, res.suffix_len) != (lo, hi, m):
                ledger.wrong(f"contract {r} to {m}", f"returned {res}, expected [{lo}, {hi}]")

    def contraction_calls(self) -> list[tuple]:
        """left_contract arguments after the LCS array: (SuffixInterval, t)."""
        interval = program("index").ColexInterval
        suffix = program("queries").SuffixInterval
        k = self.k
        return [
            (suffix(interval(int(r), int(r)), k), k - int(m) + 1)
            for r, m in zip(self.contract_ranks, self.contract_orders)
        ]
