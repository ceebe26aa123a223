"""End-to-end benchmark of sbwt-lcs: build, LCS, load and query.

    python3 e2e_bench/run.py --workload genome-k31 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src. The seed fixes the generated inputs (see gen.py). With --trace 0
the run times `sbwt-lcs build` in fresh processes (main() only, so
interpreter start-up is not counted), `sbwt-lcs lcs` in-process, index
and LCS loading, and lookup and left contraction on the loaded index; it
reads peak memory from the build processes and one fresh `sbwt-lcs lcs`. With --trace 1 it instead times the public functions of each
module (traced.py). Every output is checked against ref.py. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import ref  # noqa: E402
from case import ROOT, Case, Ledger, program, run_cli  # noqa: E402

WORK = BENCH / "_work"
OUT = BENCH / "_out"

# Each round builds in fresh processes for at least BUILD_SECONDS, then
# cycles the query-side stages in this process for QUERY_SHARE of
# --seconds; rounds repeat until --seconds have passed, at least twice.
# Interleaving spreads each stage's samples over the whole run.
BUILD_SECONDS = 5.0
QUERY_SHARE = 0.2
MIN_ROUNDS = 2
# A timing is the 90th percentile of its samples, setup_s the median. The
# machine's CPUs are shared: in uncontended spells samples run up to twice
# as fast, and how much of a run such spells cover varies. That moved
# per-run medians by up to 45% between runs and 90th percentiles by at
# most 17% (README.md, "Spread").
TIMING_PERCENTILE = 90
SETUPS_PER_CYCLE = 3
CHILD_TIMEOUT_S = 150

# Runs the CLI in a fresh interpreter, then writes the seconds spent in
# main() and the process's own peak resident size (VmHWM, KiB). VmHWM
# belongs to the exec'd image alone; ru_maxrss of a child would also count
# the parent's pages at fork time.
_CHILD = """import sys, time
from sbwt_lcs.cli import main
start = time.perf_counter()
code = main(sys.argv[2:])
seconds = time.perf_counter() - start
with open("/proc/self/status") as st, open(sys.argv[1], "w") as out:
    kib = next(line for line in st if line.startswith("VmHWM:")).split()[1]
    out.write(f"{seconds!r} {kib}")
sys.exit(code)
"""


def run_child(argv: list[str], work: Path) -> tuple[float, float]:
    """(seconds in main, peak resident MB) of `sbwt-lcs argv` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    report, log = work / "child.report", work / "child.log"
    cmd = [sys.executable, "-c", _CHILD, str(report), *argv]
    with open(log, "wb") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"exit {code}: {log.read_text(errors='replace')[-500:]}")
    seconds, kib = report.read_text().split()
    return float(seconds), int(kib) / 1024.0


class Untraced:
    """The end-to-end run: CLI commands in-process, then queries on the loaded index."""

    def __init__(self, case: Case, ledger: Ledger) -> None:
        self.case, self.ledger = case, ledger
        self.idx, self.lcs_path = case.work / "index.sbwt", case.work / "index.lcs"
        self.build_argv = ["build", str(case.fasta), "-k", str(case.k), "-o", str(self.idx)]
        self.build_argv += case.build_flags()
        self.lcs_argv = ["lcs", str(self.idx), "-o", str(self.lcs_path)]
        self.samples: dict[str, list[float]] = {
            s: [] for s in ("build", "build_peak", "lcs", "setup", "lookup", "contract")
        }
        self.first: dict[str, bytes] = {}
        self.index = self.lcs = None
        self.calls = case.contraction_calls()
        self.lookup = program("queries").lookup
        self.contract = program("queries").left_contract
        self.load_index = program("index").load_index
        self.load_lcs = program("cli").load_lcs

    def first_output(self, stage: str, out: Path, check) -> None:
        """Check the first output of a stage; later ones must equal it."""
        data = out.read_bytes()
        if stage not in self.first:
            self.first[stage] = data
            self.ledger.check(stage, check)
        elif data != self.first[stage]:
            self.ledger.wrong(stage, "output differs between repetitions")

    def build(self) -> None:
        self.ledger.attempted += 1
        try:
            seconds, peak = run_child(self.build_argv, self.case.work)
        except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            self.ledger.fail("build", exc)
            return
        self.samples["build"].append(seconds)
        self.samples["build_peak"].append(peak)
        self.first_output("build", self.idx, lambda: ref.check_index(self.idx, self.case.spectrum))

    def make_lcs(self) -> None:
        self.ledger.attempted += 1
        start = time.perf_counter()
        try:
            code = run_cli(self.lcs_argv)
        except Exception as exc:  # a crash counts against the operation
            self.ledger.fail("lcs", repr(exc))
            return
        self.samples["lcs"].append(time.perf_counter() - start)
        if code != 0:
            self.ledger.fail("lcs", f"exit code {code}")
            return
        self.first_output("lcs", self.lcs_path, lambda: ref.check_lcs(
            ref.read_lcs(self.lcs_path), self.case.expected_lcs, "lcs file"))

    def lcs_peak_mb(self) -> float:
        child_out = Path(str(self.lcs_path) + ".child")
        argv = [str(child_out) if a == str(self.lcs_path) else a for a in self.lcs_argv]
        self.ledger.attempted += 1
        try:
            _, peak = run_child(argv, self.case.work)
        except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            self.ledger.fail("lcs in a fresh process", exc)
            return float("nan")
        if child_out.read_bytes() != self.first.get("lcs"):
            self.ledger.wrong("lcs in a fresh process", "output differs from the in-process run")
        return peak

    def setup(self) -> None:
        self.ledger.attempted += 1
        start = time.perf_counter()
        try:
            index = self.load_index(str(self.idx))
            lcs = self.load_lcs(str(self.lcs_path))
        except Exception as exc:
            self.ledger.fail("setup", repr(exc))
            return
        self.samples["setup"].append(time.perf_counter() - start)
        if self.index is None:
            case = self.case
            self.ledger.check("load_lcs", ref.check_lcs, lcs, case.expected_lcs, "loaded LCS array")
            if (index.k, index.n) != (case.k, case.spectrum.n):
                self.ledger.wrong("load_index", f"k={index.k} n={index.n}, expected n={case.spectrum.n}")
        self.index, self.lcs = index, lcs

    def lookups(self) -> None:
        qs, step = self.case.inputs.queries, self.case.inputs.slice_len
        index, lookup = self.index, self.lookup
        got = [None] * len(qs)
        for s in range(0, len(qs), step):
            stop = min(s + step, len(qs))
            start = time.perf_counter()
            for j in range(s, stop):
                try:
                    got[j] = lookup(index, qs[j])
                except Exception as exc:
                    got[j] = exc
            self.samples["lookup"].append((time.perf_counter() - start) / (stop - s))
        self.case.check_lookups(got, self.ledger)

    def contractions(self) -> None:
        calls, lcs, contract, cycle = self.calls, self.lcs, self.contract, self.case.k - 1
        got = [None] * len(calls)
        for s in range(0, len(calls), cycle):
            start = time.perf_counter()
            for j in range(s, s + cycle):
                try:
                    got[j] = contract(lcs, *calls[j])
                except Exception as exc:
                    got[j] = exc
            self.samples["contract"].append((time.perf_counter() - start) / cycle)
        self.case.check_contractions(got, self.ledger)

    def run(self, seconds: float) -> dict:
        start = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            building = time.perf_counter()
            while True:
                self.build()
                if not self.first.get("build"):
                    raise RuntimeError("the index was never built")
                if time.perf_counter() - building >= BUILD_SECONDS:
                    break
            block_end = time.perf_counter() + QUERY_SHARE * seconds
            while True:
                self.make_lcs()
                for _ in range(SETUPS_PER_CYCLE):
                    self.setup()
                if self.index is None:
                    raise RuntimeError("the index and LCS files never loaded")
                self.lookups()
                self.contractions()
                if time.perf_counter() >= block_end:
                    break
            rounds += 1
        lcs_peak = self.lcs_peak_mb()

        def slow(stage):
            return float(np.percentile(self.samples[stage], TIMING_PERCENTILE))

        bits = 8.0 / self.case.spectrum.distinct
        return {
            "setup_s": (statistics.median(self.samples["setup"]), "s"),
            "build_s": (slow("build"), "s"),
            "lcs_ms": (slow("lcs") * 1e3, "ms"),
            "lookup_kmers_per_s": (1.0 / slow("lookup"), "1/s"),
            "contract_per_s": (1.0 / slow("contract"), "1/s"),
            "build_peak_mb": (statistics.median(self.samples["build_peak"]), "MB"),
            "lcs_peak_mb": (lcs_peak, "MB"),
            "index_bits_per_kmer": (bits * self.idx.stat().st_size, "bits"),
            "lcs_bits_per_kmer": (bits * self.lcs_path.stat().st_size, "bits"),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sbwt_lcs" / "__init__.py").is_file():
        print(f"error: no sbwt_lcs package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ledger = Ledger()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        case = Case.prepare(gen.generate(args.workload, args.seed), work)
        if args.trace:
            from traced import TracedRun

            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            metrics = TracedRun(case, ledger, args.seconds).run(trace_path)
        else:
            metrics = Untraced(case, ledger).run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": v, "unit": u} for name, (v, u) in metrics.items() if v == v  # not NaN
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
