"""End-to-end command behaviour: exit codes, formats, cross-validation."""

import json
import mmap
import os
import re
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbwt_lcs import (
    FormatError,
    SbwtIndex,
    build_index,
    cli,
    decode_spectrum,
    extended_spectrum,
    lcs_adaptive,
    lcs_basic,
    lcs_linear,
    lcs_super,
    load_index,
    naive_lcs,
    naive_subset_sequence,
    save_index,
    verify,
)
from sbwt_lcs.cli import load_lcs, main
from sbwt_lcs.lcs_basic import lcs_dtype
from sbwt_lcs.stats import BuildStats

from conftest import WORKED_LCS, moved_bit_index


WORKED_FASTA = ">s1\nAGGTAAA\n>s2\nACAGGTAGGAAAGGAAAGT\n"


@pytest.fixture
def worked_fasta(tmp_path):
    path = tmp_path / "worked.fa"
    path.write_text(WORKED_FASTA)
    return str(path)


@pytest.fixture
def worked_files(worked_fasta, tmp_path):
    index = str(tmp_path / "worked.sbwt")
    lcs = str(tmp_path / "worked.lcs")
    assert main(["build", worked_fasta, "-k", "4", "-o", index]) == 0
    assert main(["lcs", index, "-o", lcs]) == 0
    return index, lcs


@pytest.fixture
def short_fasta(tmp_path):
    # no record holds a 5-mer once split at N
    path = tmp_path / "short.fa"
    path.write_text(">a\nACG\n>b\nNNNN\n")
    return str(path)


@pytest.fixture
def random_fasta(tmp_path):
    path = tmp_path / "random.fa"
    rng = Random(5)
    path.write_text(">r\n" + "".join(rng.choice("ACGT") for _ in range(400)) + "\n")
    return str(path)


def assert_usage_error(argv, capsys):
    """argv ends in exit code 1 with a usage message, not a traceback."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert "usage:" in stderr and "Traceback" not in stderr


class TestBuild:
    def test_worked_example(self, worked_fasta, tmp_path, capsys):
        out = str(tmp_path / "i.sbwt")
        assert main(["build", worked_fasta, "-k", "4", "-o", out]) == 0
        assert capsys.readouterr().out.strip() == "n=18 k=4"

    def test_split_at_invalid_symbols(self, tmp_path, capsys):
        fa = tmp_path / "n.fa"
        fa.write_text(">r\nACNGT\n")
        out = str(tmp_path / "n.sbwt")
        assert main(["build", str(fa), "-k", "2", "-o", out]) == 0
        capsys.readouterr()
        # pieces AC and GT: spectrum {AC, GT}, both sources
        assert main(["dump", out]) == 0
        kmers = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()]
        assert kmers == ["$$", "$A", "AC", "$G", "GT"]

    def test_lowercase_accepted(self, tmp_path, capsys):
        fa = tmp_path / "lc.fa"
        fa.write_text(">r\nacgt\n")
        out = str(tmp_path / "lc.sbwt")
        assert main(["build", str(fa), "-k", "2", "-o", out]) == 0
        assert "n=" in capsys.readouterr().out

    def test_reverse_complement_flag(self, tmp_path, capsys):
        fa = tmp_path / "rc.fa"
        fa.write_text(">r\nAAAC\n")
        for flags, expected_kmers in ((), {"AA", "AC"}), (("--add-rc",), {"AA", "AC", "GT", "TT"}):
            out = str(tmp_path / "rc.sbwt")
            assert main(["build", str(fa), "-k", "2", "-o", out, *flags]) == 0
            capsys.readouterr()
            assert main(["dump", out]) == 0
            kmers = {
                line.split("\t")[1]
                for line in capsys.readouterr().out.splitlines()
            }
            assert {x for x in kmers if "$" not in x} == expected_kmers

    def test_empty_fasta_exits_2(self, tmp_path, capsys):
        fa = tmp_path / "empty.fa"
        fa.write_text("")
        assert main(["build", str(fa), "-k", "4", "-o", str(tmp_path / "x")]) == 2

    def test_too_short_sequences_exit_2(self, tmp_path):
        fa = tmp_path / "short.fa"
        fa.write_text(">r\nAC\n")
        assert main(["build", str(fa), "-k", "4", "-o", str(tmp_path / "x")]) == 2

    def test_unreadable_input_exits_2(self, tmp_path):
        assert main(["build", str(tmp_path / "no.fa"), "-k", "4", "-o", str(tmp_path / "x")]) == 2

    def test_no_kmer_after_splitting_exits_2(self, short_fasta, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["build", short_fasta, "-k", "5", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no 5-mers extracted" in captured.err
        assert not out.exists()

    def test_bad_k_exits_1(self, worked_fasta, tmp_path, capsys):
        assert_usage_error(["build", worked_fasta, "-k", "0", "-o", str(tmp_path / "x")], capsys)
        assert_usage_error(["build", worked_fasta, "-k", "5000", "-o", str(tmp_path / "x")], capsys)

    def test_non_utf8_bytes_split_like_n(self, tmp_path):
        # 0xA0 and 0x85 are whitespace to str.strip(), yet must split at a line end too
        raw = b">r\xff\nACGTTGCA\xffACGGA\xfe\xfeTTGACCA\xa0\nGG\xffT\x85\r\nCA\n"
        as_n = re.sub(b"[\xff\xfe\xa0\x85]", b"N", raw)
        outputs = []
        for name, data in (("bytes", raw), ("n", as_n)):
            fa, out = tmp_path / f"{name}.fa", tmp_path / f"{name}.sbwt"
            fa.write_bytes(data)
            assert main(["build", str(fa), "-k", "3", "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_headerless_data_exits_2(self, tmp_path):
        fa = tmp_path / "raw.fa"
        fa.write_text("ACGT\n")
        assert main(["build", str(fa), "-k", "2", "-o", str(tmp_path / "x")]) == 2


class TestLcsCommand:
    def test_outputs_worked_values(self, worked_files):
        _, lcs = worked_files
        assert list(load_lcs(lcs)) == WORKED_LCS

    def test_prints_timing_line(self, worked_files, tmp_path, capsys):
        index, _ = worked_files
        capsys.readouterr()
        out = str(tmp_path / "out.lcs")
        assert main(["lcs", index, "-o", out]) == 0
        line = capsys.readouterr().out.strip()
        # the worked rounds close every slot by round 4 = k: no hand-over
        assert re.fullmatch(r"algo=adaptive handover=none ms=[0-9.]+ bytes=[0-9]+", line)

    def test_report_names_the_handover(self, tmp_path, capsys):
        # 4000 uniform bases at k = 63: the rounds close most slots by
        # round log4(4000) + a few, and the BFS claims the last ones
        rng = Random(9)
        fasta = tmp_path / "u.fa"
        fasta.write_text(">u\n" + "".join(rng.choice("ACGT") for _ in range(4000)) + "\n")
        index, out, expected = (str(tmp_path / name) for name in ("u.sbwt", "u.lcs", "naive.lcs"))
        assert main(["build", str(fasta), "-k", "63", "-o", index]) == 0
        capsys.readouterr()
        assert main(["lcs", index, "-o", out]) == 0
        line = capsys.readouterr().out.strip()
        handover = re.fullmatch(r"algo=adaptive handover=(\d+) ms=[0-9.]+ bytes=[0-9]+", line)
        assert handover, line
        stats = BuildStats()
        lcs_adaptive(load_index(index), stats)
        assert int(handover.group(1)) == stats.handover
        pieces = cli.clean_pieces([seq for _, seq in cli.read_fasta(str(fasta))], False)
        cli.save_lcs(naive_lcs(extended_spectrum(pieces, 63)), 63, expected)
        assert Path(out).read_bytes() == Path(expected).read_bytes()

    def test_all_algorithms_byte_identical(self, worked_files, tmp_path):
        index, basic_path = worked_files
        reference = Path(basic_path).read_bytes()
        loaded = load_index(index)
        for name, construct in (("super", lcs_super), ("linear", lcs_linear)):
            out = str(tmp_path / f"{name}.lcs")
            cli.save_lcs(construct(loaded), loaded.k, out)
            assert Path(out).read_bytes() == reference

    def test_unknown_algorithm_exits_1(self, worked_files, tmp_path):
        index, _ = worked_files
        with pytest.raises(SystemExit) as err:
            main(["lcs", index, "-a", "magic", "-o", str(tmp_path / "x")])
        assert err.value.code == 1

    def test_bad_index_exits_2(self, tmp_path):
        bad = tmp_path / "bad.sbwt"
        bad.write_bytes(b"garbage")
        assert main(["lcs", str(bad), "-o", str(tmp_path / "x")]) == 2

    def test_set_padding_bit_exits_2(self, worked_files, tmp_path, capsys):
        # n=18: the last byte of each row holds 2 column bits and 6 padding bits
        index, _ = worked_files
        data = bytearray(Path(index).read_bytes())
        data[-1] |= 0x40
        bad = tmp_path / "pad.sbwt"
        bad.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["lcs", str(bad), "-o", str(tmp_path / "x")]) == 2
        assert "padding" in capsys.readouterr().err

    def test_value_width_tracks_k(self, tmp_path, capsys):
        fa = tmp_path / "w.fa"
        fa.write_text(">r\n" + "ACGTTGCAAC" * 40 + "\n")
        index = str(tmp_path / "w.sbwt")
        out = str(tmp_path / "w.lcs")
        assert main(["build", fa.as_posix(), "-k", "300", "-o", index]) == 0
        assert main(["lcs", index, "-o", out]) == 0
        with open(out, "rb") as fh:
            magic, n, width = struct.unpack("<8sQB", fh.read(17))
        assert magic == b"LCSARR01" and width == 2


class TestValueType:
    """One LCS value type, lcs_dtype(k), from the constructions to the query,
    at the edges of one and two bytes."""

    @pytest.mark.parametrize("k, dtype", [(255, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_edges_of_the_type(self, tmp_path, capsys, k, dtype):
        # the two k-mers that end in the first k-1 symbols of R share them
        r = "".join(Random(k).choice("ACGT") for _ in range(300))
        fasta = tmp_path / "edge.fa"
        fasta.write_text(f">a\nA{r}\n>c\nC{r}\n")
        spectrum = extended_spectrum(cli.clean_pieces(["A" + r, "C" + r], False), k)
        index = build_index(spectrum)
        expected = naive_lcs(spectrum)
        assert lcs_dtype(k) == expected.dtype == dtype
        assert expected.max() == k - 1
        for construct in (lcs_basic, lcs_super, lcs_linear, lcs_adaptive):
            values = construct(index)
            assert values.dtype == dtype and values.tobytes() == expected.tobytes()

        index_path, lcs_path = str(tmp_path / "edge.sbwt"), str(tmp_path / "edge.lcs")
        assert main(["build", str(fasta), "-k", str(k), "-o", index_path]) == 0
        assert main(["lcs", index_path, "-o", lcs_path]) == 0
        width = struct.unpack_from("<8sQB", Path(lcs_path).read_bytes())[2]
        assert width == np.dtype(dtype).itemsize
        loaded = load_lcs(lcs_path)
        assert loaded.dtype == dtype and loaded.flags.writeable
        assert loaded.tobytes() == expected.tobytes()

        # the rank whose slot holds k-1, contracted by one symbol (no link
        # reaches k; at k = 256 a uint8 array meets 256) and by two, against
        # a scan of the reference values as Python ints
        links = expected.tolist()
        rank = links.index(k - 1) + 1
        for point in (1, 2):
            m = k - point + 1
            lo = hi = rank
            while lo > 1 and links[lo - 1] >= m:
                lo -= 1
            while hi < len(links) and links[hi] >= m:
                hi += 1
            capsys.readouterr()
            args = ["--interval", f"{rank},{rank}", "--suffix-len", str(k), "--point", str(point)]
            assert main(["query", index_path, lcs_path, "contract", *args]) == 0
            assert capsys.readouterr().out == f"{lo}\t{hi}\t{m}\n"


class TestLcsMapping:
    """load_lcs maps a regular file copy-on-write, and save_lcs replaces a
    regular output, so a loaded array and its file never change each other."""

    def test_write_to_array_leaves_file(self, worked_files):
        _, lcs = worked_files
        before = Path(lcs).read_bytes()
        values = load_lcs(lcs)
        values[:] = 7
        assert Path(lcs).read_bytes() == before
        assert load_lcs(lcs).tolist() == WORKED_LCS

    def test_array_survives_rewrite_of_its_file(self, worked_fasta, tmp_path):
        # the worked strings give n=20 at k=6 and at k=8, with other values
        index6, index8, lcs = (str(tmp_path / name) for name in ("k6.sbwt", "k8.sbwt", "x.lcs"))
        assert main(["build", worked_fasta, "-k", "6", "-o", index6]) == 0
        assert main(["build", worked_fasta, "-k", "8", "-o", index8]) == 0
        assert main(["lcs", index6, "-o", lcs]) == 0
        values = load_lcs(lcs)
        before = values.tolist()
        assert main(["lcs", index8, "-o", lcs]) == 0
        rewritten = load_lcs(lcs).tolist()
        assert len(rewritten) == len(before) == 20 and rewritten != before
        assert values.tolist() == before
        # the temporary file was renamed over the output
        assert sorted(os.listdir(tmp_path)) == ["k6.sbwt", "k8.sbwt", "worked.fa", "x.lcs"]

    def test_rewrite_through_symlink_keeps_the_link(self, worked_files, tmp_path):
        _, lcs = worked_files
        link = tmp_path / "link.lcs"
        link.symlink_to(lcs)
        cli.save_lcs(np.zeros(18, dtype=np.uint8), 4, str(link))
        assert link.is_symlink() and load_lcs(lcs).tolist() == [0] * 18

    def test_refused_populate_still_loads(self, worked_files, monkeypatch):
        _, lcs = worked_files
        with pytest.raises(OSError):
            mmap.mmap(-1, mmap.PAGESIZE).madvise(-1)
        monkeypatch.setattr(cli, "_MADV_POPULATE_READ", -1)
        values = load_lcs(lcs)
        assert values.tolist() == WORKED_LCS and values.flags.writeable

    def test_empty_file_exits_2(self, worked_files, tmp_path, capsys):
        index, _ = worked_files
        empty = tmp_path / "empty.lcs"
        empty.write_bytes(b"")
        capsys.readouterr()
        assert main(["query", index, str(empty), "lookup", "GTAA"]) == 2
        assert "truncated LCS file" in capsys.readouterr().err

    def test_save_writes_the_array_once(self, tmp_path):
        values = (np.arange(10**6) % 31).astype(np.uint8)
        out = tmp_path / "big.lcs"
        tracemalloc.start()
        try:
            cli.save_lcs(values, 31, str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 19
        assert out.read_bytes()[17:] == values.tobytes()


@contextmanager
def fifo_peer(fifo: Path, data: bytes | None = None):
    """The other end of a FIFO, in a thread: it writes data, or with data
    None reads to the end into the yielded list."""
    got: list[bytes] = []

    def peer():
        if data is None:
            got.append(fifo.read_bytes())
        else:
            fifo.write_bytes(data)

    # a daemon: if the test never opens the FIFO, the peer stays blocked in open()
    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    try:
        yield got
    finally:
        thread.join(timeout=30)
    assert not thread.is_alive(), "the FIFO's other end was never opened"


class TestLcsThroughFifo:
    """A FIFO cannot be mapped or replaced: load_lcs reads it, and save_lcs
    writes into it."""

    def test_load_and_contract(self, worked_files, tmp_path, capsys):
        index, lcs = worked_files
        fifo = tmp_path / "lcs.fifo"
        os.mkfifo(fifo)
        with fifo_peer(fifo, Path(lcs).read_bytes()):
            values = load_lcs(str(fifo))
        assert values.tolist() == WORKED_LCS and values.flags.writeable
        contract = ["contract", "--interval", "13,13", "--suffix-len", "3", "--point", "3"]
        capsys.readouterr()
        assert main(["query", index, lcs, *contract]) == 0
        expected = capsys.readouterr().out
        with fifo_peer(fifo, Path(lcs).read_bytes()):
            assert main(["query", index, str(fifo), *contract]) == 0
        assert capsys.readouterr().out == expected == "11\t16\t1\n"

    def test_lcs_output(self, worked_files, tmp_path):
        index, lcs = worked_files
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        with fifo_peer(fifo) as got:
            assert main(["lcs", index, "-o", str(fifo)]) == 0
        assert got == [Path(lcs).read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)


class TestDump:
    def test_worked_table(self, worked_files, capsys):
        index, lcs = worked_files
        capsys.readouterr()
        assert main(["dump", index, lcs]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 18
        assert lines[0] == "1\t$$$$\tA\t0"
        assert lines[3] == "4\tTAAA\t-\t3"
        assert lines[10] == "11\tAAAG\tGT\t0"
        assert [int(l.split("\t")[3]) for l in lines] == WORKED_LCS

    def test_reader_closing_the_pipe_exits_0(self, tmp_path):
        # about 1 MB of table, far more than a pipe buffers, so the writer
        # is still writing when the reader closes its end
        rng = Random(3)
        fasta, index = tmp_path / "r.fa", str(tmp_path / "r.sbwt")
        fasta.write_text(">r\n" + "".join(rng.choice("ACGT") for _ in range(20_000)) + "\n")
        assert main(["build", str(fasta), "-k", "31", "-o", index]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-m", "sbwt_lcs.cli", "dump", index],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert child.stdout.readline().startswith(b"1\t$")
        child.stdout.close()
        assert child.wait(timeout=60) == 0
        assert child.stderr.read() == b""
        child.stderr.close()

    def test_without_lcs_file(self, worked_files, capsys):
        index, _ = worked_files
        capsys.readouterr()
        assert main(["dump", index]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(len(line.split("\t")) == 3 for line in lines)

    @pytest.mark.parametrize("k", (7, 33))
    @pytest.mark.parametrize("with_lcs", (False, True))
    def test_table_matches_per_rank_reference(self, tmp_path, capsys, k, with_lcs):
        # one line per rank, its subset from the string reference
        rng = Random(k)
        stem = "".join(rng.choice("ACGT") for _ in range(2 * k))
        records = [stem + b + "".join(rng.choice("ACGT") for _ in range(k)) for b in "ACGT"]
        records += ["A" * (2 * k) + "C", "".join(rng.choice("ACGT") for _ in range(5 * k))]
        fasta = tmp_path / "in.fa"
        fasta.write_text("".join(f">r{i}\n{seq}\n" for i, seq in enumerate(records)))
        index_path, lcs_path = str(tmp_path / "in.sbwt"), str(tmp_path / "in.lcs")
        assert main(["build", str(fasta), "-k", str(k), "-o", index_path]) == 0
        assert main(["lcs", index_path, "-o", lcs_path]) == 0
        spectrum = decode_spectrum(load_index(index_path))
        subsets = [s or "-" for s in naive_subset_sequence(spectrum)]
        assert {"-", "A", "ACGT"} <= set(subsets)
        rows = [f"{r}\t{x}\t{s}" for r, (x, s) in enumerate(zip(spectrum.kmers, subsets), 1)]
        argv = ["dump", index_path]
        if with_lcs:
            rows = [f"{row}\t{v}" for row, v in zip(rows, load_lcs(lcs_path).tolist())]
            argv.append(lcs_path)
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == "".join(row + "\n" for row in rows)

    def test_one_column_row(self, one_column_index, tmp_path, capsys):
        from sbwt_lcs import save_index

        index = str(tmp_path / "one.sbwt")
        lcs = str(tmp_path / "one.lcs")
        save_index(one_column_index, index)
        assert main(["lcs", index, "-o", lcs]) == 0
        capsys.readouterr()
        assert main(["dump", index, lcs]) == 0
        assert capsys.readouterr().out == "1\t$$$$\t-\t0\n"

    def test_n_mismatch_exits_2(self, worked_files, tmp_path, capsys):
        index, _ = worked_files
        other_fa = tmp_path / "o.fa"
        other_fa.write_text(">r\nAAAA\n")
        other_index = str(tmp_path / "o.sbwt")
        other_lcs = str(tmp_path / "o.lcs")
        assert main(["build", str(other_fa), "-k", "2", "-o", other_index]) == 0
        assert main(["lcs", other_index, "-o", other_lcs]) == 0
        assert main(["dump", index, other_lcs]) == 2

    def test_lcs_from_larger_k_exits_2(self, worked_fasta, tmp_path, capsys):
        # the worked strings give n=20 at k=6 and at k=8; the k=8 array holds a 7
        index = str(tmp_path / "k6.sbwt")
        other_index, other_lcs = str(tmp_path / "k8.sbwt"), str(tmp_path / "k8.lcs")
        assert main(["build", worked_fasta, "-k", "6", "-o", index]) == 0
        assert main(["build", worked_fasta, "-k", "8", "-o", other_index]) == 0
        assert main(["lcs", other_index, "-o", other_lcs]) == 0
        assert load_index(index).n == load_index(other_index).n
        for argv in (["dump", index, other_lcs], ["query", index, other_lcs, "lookup", "AGGTAA"]):
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert index in err and other_lcs in err and "k-1=5" in err

    @pytest.mark.parametrize(
        "rank, value, message",
        [(1, 1, "first LCS value is 1"), (6, 4, "LCS value 4 exceeds k-1=3")],
    )
    def test_out_of_range_value_exits_2(self, worked_files, tmp_path, capsys, rank, value, message):
        index, lcs = worked_files
        values = load_lcs(lcs)
        values[rank - 1] = value
        bad = str(tmp_path / "bad.lcs")
        cli.save_lcs(values, 4, bad)
        for argv in (["dump", index, bad], ["query", index, bad, "lookup", "GTAA"]):
            capsys.readouterr()
            assert main(argv) == 2
            assert message in capsys.readouterr().err

    def test_value_beyond_int32_exits_2(self, worked_files, tmp_path, capsys):
        # a hand-made width-4 file, which save_lcs never writes (MAX_K is 4096);
        # values load uncast, and the input guard still rejects one beyond int32
        index, lcs = worked_files
        values = load_lcs(lcs).astype("<u4")
        values[5] = 0xFFFFFFFF
        bad = tmp_path / "wide.lcs"
        bad.write_bytes(struct.pack("<8sQB", b"LCSARR01", len(values), 4) + values.tobytes())
        for argv in (["dump", index, str(bad)], ["query", index, str(bad), "lookup", "GTAA"]):
            capsys.readouterr()
            assert main(argv) == 2
            assert "4294967295 does not fit in int32" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [cli.MAX_K + 1, 1 << 40])
    def test_k_above_max_exits_2(self, worked_files, tmp_path, capsys, k):
        index, _ = worked_files
        with open(index, "rb") as fh:
            data = bytearray(fh.read())
        data[8:16] = k.to_bytes(8, "little")
        bad = tmp_path / "big-k.sbwt"
        bad.write_bytes(bytes(data))
        for argv in (["dump", str(bad)], ["lcs", str(bad), "-o", str(tmp_path / "x.lcs")]):
            capsys.readouterr()
            assert main(argv) == 2
            assert f"k={k}" in capsys.readouterr().err

    def test_rebuild_from_dump_is_fixed_point(self, worked_files, tmp_path, capsys):
        index, _ = worked_files
        capsys.readouterr()
        assert main(["dump", index]) == 0
        kmers = [l.split("\t")[1] for l in capsys.readouterr().out.splitlines()]
        fa = tmp_path / "redump.fa"
        fa.write_text("".join(f">{i}\n{x}\n" for i, x in enumerate(kmers)))
        rebuilt = str(tmp_path / "re.sbwt")
        assert main(["build", str(fa), "-k", "4", "-o", rebuilt]) == 0
        capsys.readouterr()
        assert main(["dump", rebuilt]) == 0
        again = [l.split("\t")[1] for l in capsys.readouterr().out.splitlines()]
        assert again == kmers


class TestQuery:
    def test_lookup(self, worked_files, capsys):
        index, lcs = worked_files
        capsys.readouterr()
        assert main(["query", index, lcs, "lookup", "GTAA", "CCCC"]) == 0
        assert capsys.readouterr().out == "GTAA\t6\nCCCC\tabsent\n"

    def test_contract(self, worked_files, capsys):
        index, lcs = worked_files
        capsys.readouterr()
        args = ["query", index, lcs, "contract", "--interval", "13,13", "--suffix-len", "3"]
        assert main(args + ["--point", "2"]) == 0
        assert capsys.readouterr().out == "11\t13\t2\n"
        assert main(args + ["--point", "3"]) == 0
        assert capsys.readouterr().out == "11\t16\t1\n"

    def test_contract_at_last_rank(self, worked_files, capsys):
        # n = 18, k = 4: the last rank contracted to its last symbol T, whose
        # run reaches the end of the LCS array
        index, lcs = worked_files
        capsys.readouterr()
        args = ["--interval", "18,18", "--suffix-len", "4", "--point", "4"]
        assert main(["query", index, lcs, "contract", *args]) == 0
        assert capsys.readouterr().out == "17\t18\t1\n"

    @pytest.mark.parametrize("seed", range(12))
    def test_moved_bit_exits_0_or_2(self, tmp_path, capsys, seed):
        # a matrix with one set bit moved keeps n-1 set bits and loads; every
        # command ends in exit 0 or 2, never in a traceback
        rng = Random(seed)
        text = "".join(rng.choice("ACGT") for _ in range(300))
        good = extended_spectrum([text], 7)
        index, lcs = str(tmp_path / "m.sbwt"), str(tmp_path / "m.lcs")
        save_index(moved_bit_index(build_index(good), rng), index)
        cli.save_lcs(naive_lcs(good), 7, lcs)
        kmers = [text[i : i + 7] for i in range(0, 294, 7)]
        for argv in (
            ["lcs", index, "-o", str(tmp_path / "out.lcs")],
            ["dump", index, lcs],
            ["query", index, lcs, "lookup", *kmers],
            ["query", index, lcs, "contract", "--interval", "5,5", "--suffix-len", "7", "--point", "7"],
        ):
            assert main(argv) in (0, 2), argv
        capsys.readouterr()

    @pytest.mark.parametrize("suffix_len", ["40", "0"])
    def test_suffix_len_outside_1_to_k_exits_1(self, random_fasta, tmp_path, capsys, suffix_len):
        index, lcs = str(tmp_path / "r.sbwt"), str(tmp_path / "r.lcs")
        assert main(["build", random_fasta, "-k", "31", "-o", index]) == 0
        assert main(["lcs", index, "-o", lcs]) == 0
        capsys.readouterr()
        args = ["--interval", "5,5", "--suffix-len", suffix_len, "--point", "3"]
        assert main(["query", index, lcs, "contract", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "1..k=31" in captured.err

    def test_inconsistent_index_exits_2(self, tmp_path, capsys):
        # k=1, n=3, row A = 110: the bit total is right, but A spans ranks 2..3
        rows = np.zeros((4, 1), dtype=np.uint8)
        rows[0, 0] = 0b011
        index, lcs = str(tmp_path / "bad.sbwt"), str(tmp_path / "bad.lcs")
        save_index(SbwtIndex(1, 3, rows), index)
        cli.save_lcs(np.zeros(3, dtype=np.int32), 1, lcs)
        capsys.readouterr()
        assert main(["query", index, lcs, "lookup", "A"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "ranks 2..3" in captured.err
        # ranks 2 and 3 hold the same k-mer A
        assert main(["lcs", index, "-o", str(tmp_path / "out.lcs")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "still open" in captured.err
        assert main(["dump", index]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "colex-increasing" in captured.err

    def test_malformed_kmer_exits_1(self, worked_files):
        index, lcs = worked_files
        assert main(["query", index, lcs, "lookup", "GT"]) == 1
        assert main(["query", index, lcs, "lookup", "GTNA"]) == 1

    def test_bad_interval_exits_1(self, worked_files, capsys):
        index, lcs = worked_files
        base = ["query", index, lcs, "contract", "--suffix-len", "3", "--point", "2"]
        capsys.readouterr()
        assert main(base + ["--interval", "13"]) == 1
        assert capsys.readouterr().err == "error: malformed interval '13'\n"
        assert main(base + ["--interval", "0,40"]) == 1


class TestVerify:
    def test_worked_fasta(self, worked_fasta, capsys):
        assert main(["verify", worked_fasta, "-k", "4"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_no_kmer_after_splitting_exits_2(self, short_fasta, capsys):
        assert main(["verify", short_fasta, "-k", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no 5-mers extracted" in captured.err

    @pytest.mark.parametrize("with_input", (False, True))
    def test_missing_input_or_k_exits_1(self, worked_fasta, with_input, capsys):
        capsys.readouterr()
        assert main(["verify"] + ([worked_fasta] if with_input else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: verify needs an input file and -k, or --random\n"

    def test_random_mode(self, capsys):
        assert main(["verify", "--random", "--trials", "20", "--seed", "42"]) == 0
        assert "20 random trials" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--trials", "--count", "--length"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_random_settings_exit_1(self, flag, value, capsys):
        assert_usage_error(["verify", "--random", flag, value], capsys)

    @pytest.mark.parametrize("k", ["0", "-1", "5000"])
    def test_random_mode_bad_k_exits_1(self, k, capsys):
        assert_usage_error(["verify", "--random", "-k", k, "--trials", "1"], capsys)

    def test_corrupted_path_exits_3(self, worked_fasta, monkeypatch, capsys):
        def corrupted(index, c=2, stats=None):
            values = lcs_basic(index)
            values[-1] += 1
            return values

        monkeypatch.setattr(verify, "lcs_super", corrupted)
        assert main(["verify", worked_fasta, "-k", "4"]) == 3
        err = capsys.readouterr().err
        assert "mismatch" in err and "rank" in err

    def test_wrong_lookup_exits_3(self, worked_fasta, monkeypatch, capsys):
        lookup = cli.lookup

        def off_by_one(index, kmer):
            rank = lookup(index, kmer)
            return rank + 1 if kmer == "GTAA" else rank

        monkeypatch.setattr(verify, "lookup", off_by_one)
        assert main(["verify", worked_fasta, "-k", "4"]) == 3
        err = capsys.readouterr().err
        assert "lookup of GTAA gave 7, expected 6" in err

    def test_lookup_format_error_exits_3(self, worked_fasta, monkeypatch, capsys):
        def broken(index, kmer):
            raise cli.FormatError("spans ranks 2..3")

        monkeypatch.setattr(verify, "lookup", broken)
        assert main(["verify", worked_fasta, "-k", "4"]) == 3
        assert "FormatError (spans ranks 2..3)" in capsys.readouterr().err

    def test_lookups_are_capped(self, tmp_path, monkeypatch):
        # about 2 990 distinct $-free 8-mers: every second one is looked up,
        # and a substitution of each
        rng = Random(6)
        path = tmp_path / "long.fa"
        path.write_text(">r\n" + "".join(rng.choice("ACGT") for _ in range(3000)) + "\n")
        seen = []
        lookup = cli.lookup

        def counted(index, kmer):
            seen.append(kmer)
            return lookup(index, kmer)

        monkeypatch.setattr(verify, "lookup", counted)
        assert main(["verify", str(path), "-k", "8"]) == 0
        present = len(seen) // 2
        assert present <= verify.VERIFY_LOOKUPS and len(seen) == 2 * present
        assert len(set(seen[:present])) == present > 1000


class TestIndexFileCompat:
    def test_cli_index_loadable_via_library(self, worked_files):
        index, _ = worked_files
        assert load_index(index).n == 18


# Runs build, lcs and query in one fresh interpreter; prints their exit
# codes, the sbwt_lcs modules they loaded, and what the package's names
# lcs_basic and lcs_linear are once their submodules are imported too.
_LAYERING_CHILD = """
import json, sys
from sbwt_lcs.cli import main
fasta, folder = sys.argv[1:]
index, lcs = folder + "/w.sbwt", folder + "/w.lcs"
codes = [
    main(["build", fasta, "-k", "4", "-o", index]),
    main(["lcs", index, "-o", lcs]),
    main(["query", index, lcs, "lookup", "GTAA"]),
]
loaded = sorted(m for m in sys.modules if m.startswith("sbwt_lcs"))
import sbwt_lcs.lcs_basic, sbwt_lcs.lcs_linear
kinds = [type(sbwt_lcs.lcs_basic).__name__, type(sbwt_lcs.lcs_linear).__name__]
print(json.dumps([codes, loaded, kinds]))
"""


class TestLayering:
    def test_production_commands_load_no_reference_module(self, worked_fasta, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", _LAYERING_CHILD, worked_fasta, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        codes, loaded, kinds = json.loads(result.stdout.splitlines()[-1])
        assert codes == [0, 0, 0]
        assert "sbwt_lcs.cli" in loaded
        for reference in ("sbwt_lcs.oracle", "sbwt_lcs.lcs_superalphabet", "sbwt_lcs.verify"):
            assert reference not in loaded
        # both names are also submodules: importing one must not rebind the function
        assert kinds == ["function", "function"]


# the 8-byte header fields of each file, by byte offset
_FIELDS = {"index": {"k": 8, "n": 16}, "lcs": {"n": 8}}
_HEADER_SIZE = {"index": 24, "lcs": 17}
_EXTREMES = (0, 1 << 63, (1 << 64) - 1)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A scratch folder and the bytes of the worked index and LCS files."""
    folder = tmp_path_factory.mktemp("mutated")
    fasta, index, lcs = (str(folder / name) for name in ("w.fa", "p.sbwt", "p.lcs"))
    Path(fasta).write_text(WORKED_FASTA)
    assert main(["build", fasta, "-k", "4", "-o", index]) == 0
    assert main(["lcs", index, "-o", lcs]) == 0
    return folder, {"index": Path(index).read_bytes(), "lcs": Path(lcs).read_bytes()}


class TestMutatedFiles:
    """A damaged index or LCS file: the loader raises FormatError and query
    exits 2, except for the two flips named below. Never another exception,
    and never an allocation sized from the header."""

    @settings(max_examples=300, deadline=None)
    @given(
        which=st.sampled_from(["index", "lcs"]),
        kind=st.sampled_from(["cut", "flip", "set"]),
        data=st.data(),
    )
    def test_loader_rejects(self, pristine, which, kind, data):
        folder, files = pristine
        raw = bytearray(files[which])
        at = None
        if kind == "cut":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "flip":
            at = data.draw(st.sampled_from([*range(_HEADER_SIZE[which]), len(raw) - 1]))
            raw[at] ^= 1 << data.draw(st.integers(0, 7))
        else:
            field = _FIELDS[which][data.draw(st.sampled_from(sorted(_FIELDS[which])))]
            raw[field : field + 8] = data.draw(st.sampled_from(_EXTREMES)).to_bytes(8, "little")
        paths = {"index": folder / "w.sbwt", "lcs": folder / "w.lcs"}
        for name, path in paths.items():
            path.write_bytes(bytes(raw) if name == which else files[name])
        load = load_index if which == "index" else load_lcs
        tracemalloc.start()
        try:
            loaded = load(str(paths[which]))
        except FormatError:
            loaded = None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 1 << 20
        query = ["query", str(paths["index"]), str(paths["lcs"]), "lookup", "GTAA"]
        # two flips no loader can catch alone: k of the index, whose rows
        # do not depend on it, and the last LCS value
        k_flip = which == "index" and at is not None and 8 <= at < 16
        new_k = int.from_bytes(raw[8:16], "little")
        if k_flip and 1 <= new_k <= cli.MAX_K:
            assert (loaded.k, loaded.n) == (new_k, 18)
        elif which == "lcs" and at == len(raw) - 1:
            assert loaded[:-1].tolist() == WORKED_LCS[:-1]
            assert main(query) == (2 if loaded[-1] > 3 else 0)
        else:
            assert loaded is None
            assert main(query) == 2
