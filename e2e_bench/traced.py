"""Traced run: per-layer metrics from timed calls into each module.

Spans (id, name, start, end, parent) and counters are recorded around
calls made from this file into the public functions of the modules cli,
oracle, index, lcs_basic, lcs_linear, lcs_superalphabet and queries.
They are kept in memory and written as JSON when the run ends. Peak
allocation comes from tracemalloc, in a call of its own, because tracing
allocations slows the call it watches. A function a module no longer has
is reported as absent and its metrics are left out; the run goes on.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import ref
from case import Case, Ledger, program, run_cli

REPS = 3  # timed calls of each layer function outside the query loops
# shares of --seconds for the query loops: lookups, extend_right replay, contractions
LOOKUP_SHARE, REPLAY_SHARE, CONTRACT_SHARE = 0.35, 0.15, 0.3
MIN_PASSES = 4


class Tracer:
    """Spans and counters, kept in memory until write()."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][2] if self.spans else 0.0
        spans = [
            {"id": i, "name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
            for i, n, s, e, p in self.spans
        ]
        path.write_text(json.dumps({**header, "spans": spans}) + "\n")


def _percentile_us(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1e6, q))


class TracedRun:
    def __init__(self, case: Case, ledger: Ledger, seconds: float) -> None:
        self.case, self.ledger, self.seconds = case, ledger, seconds
        self.tracer = Tracer()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.absent: list[str] = []
        self.idx = case.work / "traced.sbwt"
        self.lcs_path = case.work / "traced.lcs"
        self.overhead: list[tuple[float, float]] = []  # (traced, untraced) pass medians

    def need(self, dotted: str):
        module, name = dotted.rsplit(".", 1)
        try:
            return getattr(program(module), name)
        except (ImportError, AttributeError):
            self.absent.append(dotted)
            print(f"absent: sbwt_lcs.{dotted}", file=sys.stderr)
            return None

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def timed(self, name: str, fn, *args, reps: int = 1, **kwargs):
        """(result of the last call, median seconds per call)."""
        durations = []
        for _ in range(reps):
            self.ledger.attempted += 1
            with self.tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            durations.append(rec[3] - rec[2])
        return result, statistics.median(durations)

    def peak_mb(self, name: str, fn, *args, **kwargs) -> float:
        self.ledger.attempted += 1
        with self.tracer.span(name + ".peak"):
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peak / 2**20

    def passes(self, share: float, once) -> None:
        deadline = time.perf_counter() + share * self.seconds
        done = 0
        while done < MIN_PASSES or time.perf_counter() < deadline:
            once(done)
            done += 1

    # -- layers -------------------------------------------------------------

    def parse(self) -> list[str]:
        read_fasta, clean_pieces = self.need("cli.read_fasta"), self.need("cli.clean_pieces")
        inputs = self.case.inputs
        if read_fasta is None or clean_pieces is None:
            pieces = list(inputs.records)
            return pieces + [ref.revcomp(p) for p in pieces] if inputs.add_rc else pieces

        def parse():
            records = read_fasta(str(self.case.fasta))
            return clean_pieces([seq for _, seq in records], inputs.add_rc)

        pieces, s = self.timed("cli.read_fasta", parse, reps=REPS)
        self.put("cli.read_fasta_s", s, "s")
        return pieces

    def build(self, pieces: list[str]):
        """Index through oracle and index; the CLI's build if either is gone."""
        k = self.case.k
        extended_spectrum = self.need("oracle.extended_spectrum")
        build_index, save_index = self.need("index.build_index"), self.need("index.save_index")
        index = None
        if extended_spectrum is not None:
            spectrum, s = self.timed("oracle.extended_spectrum", extended_spectrum, pieces, k)
            self.put("oracle.extended_spectrum_s", s, "s")
            self.put("oracle.extended_spectrum_peak_mb",
                     self.peak_mb("oracle.extended_spectrum", extended_spectrum, pieces, k), "MB")
            self.put("oracle.padded_kmers", sum(1 for x in spectrum.kmers if x[0] == "$") - 1, "count")
            if build_index is not None:
                index, s = self.timed("index.build_index", build_index, spectrum)
                self.put("index.build_index_s", s, "s")
                self.put("index.build_index_peak_mb",
                         self.peak_mb("index.build_index", build_index, spectrum), "MB")
            del spectrum
        if index is not None and save_index is not None:
            _, s = self.timed("index.save_index", save_index, index, str(self.idx), reps=REPS)
            self.put("index.save_index_ms", s * 1e3, "ms")
        else:
            argv = ["build", str(self.case.fasta), "-k", str(k), "-o", str(self.idx)]
            self.timed("cli.main.build", run_cli, argv + self.case.build_flags())
        self.ledger.check("index file", ref.check_index, self.idx, self.case.spectrum)

        load_index = self.need("index.load_index")
        if load_index is not None:
            index, s = self.timed("index.load_index", load_index, str(self.idx), reps=REPS)
            self.put("index.load_index_ms", s * 1e3, "ms")
            self.put("index.load_index_peak_mb",
                     self.peak_mb("index.load_index", load_index, str(self.idx)), "MB")
        return index

    def construct(self, index) -> np.ndarray:
        """Every LCS construction, each checked against the reference."""
        build_stats = self.need("stats.BuildStats")
        expected = self.case.expected_lcs
        n = index.n
        values = expected
        for module, name in (
            ("lcs_basic", "lcs_basic"),
            ("lcs_linear", "lcs_linear"),
            ("lcs_linear", "lcs_linear_endpoints"),
            ("lcs_superalphabet", "lcs_super"),
        ):
            fn = self.need(f"{module}.{name}")
            if fn is None:
                continue
            kwargs = {"stats": build_stats()} if build_stats is not None else {}
            got, s = self.timed(f"{module}.{name}", fn, index, reps=REPS, **kwargs)
            self.ledger.check(name, ref.check_lcs, got, expected, name)
            self.put(f"{module}.{name}_ms", s * 1e3, "ms")
            if name == "lcs_linear_endpoints":
                continue
            self.put(f"{module}.peak_mb", self.peak_mb(f"{module}.{name}", fn, index), "MB")
            stats = kwargs.get("stats")
            if stats is None:
                continue
            self.put(f"{module}.rounds", stats.rounds, "count")
            if name == "lcs_basic":
                self.put("lcs_basic.write_ratio", stats.lcs_writes / (stats.rounds * n), "ratio")
            if name == "lcs_linear":
                values = got
                self.put("lcs_linear.rank_queries", stats.rank_queries, "count")
                self.put("lcs_linear.intervals_pushed", stats.intervals_pushed, "count")
                # two rank queries per extension tried
                self.put("lcs_linear.push_ratio", 2 * stats.intervals_pushed / stats.rank_queries, "ratio")

        save_lcs, load_lcs = self.need("cli.save_lcs"), self.need("cli.load_lcs")
        if save_lcs is None:
            return values
        _, s = self.timed("cli.save_lcs", save_lcs, values, self.case.k, str(self.lcs_path), reps=REPS)
        self.put("cli.save_lcs_ms", s * 1e3, "ms")
        self.ledger.check("lcs file", ref.check_lcs, ref.read_lcs(self.lcs_path), expected, "lcs file")
        if load_lcs is None:
            return values
        loaded, s = self.timed("cli.load_lcs", load_lcs, str(self.lcs_path), reps=REPS)
        self.put("cli.load_lcs_ms", s * 1e3, "ms")
        self.ledger.check("load_lcs", ref.check_lcs, loaded, expected, "loaded LCS array")
        return loaded

    def query(self, index, lcs: np.ndarray) -> None:
        case, tracer = self.case, self.tracer
        qs, n = case.inputs.queries, index.n
        lookup, left_contract = self.need("queries.lookup"), self.need("queries.left_contract")
        extend_right = self.need("index.extend_right")

        def loop(name: str, fn, args: list, traced: bool) -> tuple[list, float]:
            got = [None] * len(args)
            with tracer.span(f"{name}.{'traced' if traced else 'plain'}_pass") as rec:
                for j, a in enumerate(args):
                    try:
                        if traced:
                            with tracer.span(name):
                                got[j] = fn(*a)
                        else:
                            got[j] = fn(*a)
                    except Exception as exc:
                        got[j] = exc
            return got, rec[3] - rec[2]

        def alternate(name: str, fn, args: list, share: float, check) -> None:
            times = {True: [], False: []}

            def once(i):
                got, t = loop(name, fn, args, traced=i % 2 == 0)
                times[i % 2 == 0].append(t)
                check(got, self.ledger)

            self.passes(share, once)
            self.overhead.append((statistics.median(times[True]), statistics.median(times[False])))

        if lookup is not None:
            alternate("queries.lookup", lookup, [(index, q) for q in qs], LOOKUP_SHARE, case.check_lookups)
            per_call = tracer.durations("queries.lookup")
            self.put("queries.lookup_us.p50", _percentile_us(per_call, 50), "us")
            self.put("queries.lookup_us.p99", _percentile_us(per_call, 99), "us")

        if extend_right is not None:
            rates = []

            def replay(_):
                steps = 0
                ends = []
                with tracer.span("index.extend_right.replay") as rec:
                    for q in qs:
                        lo, hi = 1, n
                        for ch in q:
                            steps += 1
                            found = extend_right(index, lo, hi, ch)
                            if found is None:
                                lo = hi = 0
                                break
                            lo, hi = found
                        ends.append(lo if lo == hi else -1)
                rates.append(steps / (rec[3] - rec[2]))
                self.ledger.attempted += len(qs)
                if ends != [int(r) for r in case.expected_ranks]:
                    self.ledger.wrong("extend_right", "replayed lookups end off their expected ranks")

            self.passes(REPLAY_SHARE, replay)
            self.put("index.extend_right_per_s", statistics.median(rates), "1/s")

        if left_contract is not None:
            calls = [(lcs, *c) for c in case.contraction_calls()]
            alternate("queries.left_contract", left_contract, calls, CONTRACT_SHARE, case.check_contractions)
            per_call = tracer.durations("queries.left_contract")
            self.put("queries.left_contract_us.p50", _percentile_us(per_call, 50), "us")
            self.put("queries.left_contract_us.p99", _percentile_us(per_call, 99), "us")
            # LCS entries each call reads: both runs outward, plus the entry that stops each
            r = case.contract_ranks
            lo, hi = case.expected_runs[:, 0], case.expected_runs[:, 1]
            scanned = (hi - r) + (r - lo) + (hi < n) + (lo > 1)
            self.put("queries.contract_scan_len", scanned.mean(), "count")

    def run(self, trace_path: Path) -> dict:
        case = self.case
        with self.tracer.span("run"):
            pieces = self.parse()
            index = self.build(pieces)
            del pieces
            if index is not None:  # else no way to load it is left
                self.query(index, self.construct(index))
        self.put("workload.n", case.spectrum.n, "count")
        self.put("workload.distinct_kmers", case.spectrum.distinct, "count")
        self.put("workload.sources", case.spectrum.sources, "count")
        self.put("workload.max_lcs", case.expected_lcs.max(), "count")
        if self.overhead:
            traced = sum(t for t, _ in self.overhead)
            plain = sum(p for _, p in self.overhead)
            self.put("trace.overhead_pct", 100.0 * (traced - plain) / plain, "%")
        self.tracer.write(trace_path, {
            "workload": case.inputs.workload,
            "k": case.k,
            "absent": self.absent,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in self.metrics.items()},
        })
        return self.metrics
