import errno
import mmap
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bit_lists, family_of, identity_matrix, transpose
from qextract import extractor
from qextract.extractor import (
    DEOR,
    IP,
    ExtractionJob,
    ExtractorSpec,
    OutputError,
    TruncatedStreamError,
    deor_extract,
    extract_blocks,
    extract_file,
    ip_extract,
)
from qextract.gf2 import (
    BitMatrix,
    BitVector,
    build_circulant_family,
    build_field_family,
    is_prime,
    is_primitive_root_2,
)


def naive_deor_bit(k_lists, x_bits, y_bits):
    """Triple-loop oracle for one output bit x^T K y over GF(2)."""
    acc = 0
    for i, row in enumerate(k_lists):
        for j, kij in enumerate(row):
            acc ^= x_bits[i] & kij & y_bits[j]
    return acc


def identity_family(n):
    return family_of(n, 0, "explicit", (identity_matrix(n),))


class TestIpExtract:
    def test_zero_vector(self):
        assert ip_extract(BitVector.from_bits([0, 0, 0, 0]),
                          BitVector.from_bits([1, 1, 1, 1])) == 0

    def test_single_overlap(self):
        assert ip_extract(BitVector.from_bits([1, 1, 0, 0]),
                          BitVector.from_bits([0, 1, 1, 0])) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            ip_extract(BitVector(3, 0), BitVector(4, 0))

    def test_disjoint_halves_always_zero(self):
        # x supported on the low half, y on the high half
        n = 4
        for xl in range(4):
            for yh in range(4):
                x = BitVector(n, xl)
                y = BitVector(n, yh << 2)
                assert ip_extract(x, y) == 0

    def test_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            a, b, y = (BitVector(n, int(rng.integers(0, 1 << n))) for _ in range(3))
            assert ip_extract(a ^ b, y) == ip_extract(a, y) ^ ip_extract(b, y)


class TestDeorExtract:
    def test_identity_family_reduces_to_ip(self):
        spec = ExtractorSpec(DEOR, 3, 1, identity_family(3))
        for x in range(8):
            for y in range(8):
                xv, yv = BitVector(3, x), BitVector(3, y)
                assert deor_extract(spec, xv, yv).bits == ip_extract(xv, yv)

    def test_against_triple_loop_oracle(self):
        fam = build_circulant_family(3, 2)
        spec = ExtractorSpec(DEOR, 3, 2, fam)
        k_lists = [bit_lists(k) for k in fam.matrices]
        for x in range(8):
            for y in range(8):
                xv, yv = BitVector(3, x), BitVector(3, y)
                out = deor_extract(spec, xv, yv)
                for i, kl in enumerate(k_lists):
                    assert out[i] == naive_deor_bit(kl, xv.to_list(), yv.to_list())

    def test_specific_block(self):
        fam = build_circulant_family(3, 2)
        spec = ExtractorSpec(DEOR, 3, 2, fam)
        x = BitVector.from_bits([1, 0, 1])
        y = BitVector.from_bits([1, 1, 0])
        k_lists = [bit_lists(k) for k in fam.matrices]
        expected = [naive_deor_bit(kl, x.to_list(), y.to_list()) for kl in k_lists]
        assert deor_extract(spec, x, y).to_list() == expected

    @pytest.mark.parametrize("fam", [build_field_family(4, 3),
                                     build_field_family(8, 8),
                                     build_circulant_family(5, 4)])
    def test_parity_consistency_with_span(self, fam):
        # s . DEOR(x, y) must equal IP(K_s^T x, y) for every nonzero s
        from qextract.gf2 import matvec_gf2

        spec = ExtractorSpec(DEOR, fam.n, fam.m, fam)
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = BitVector(fam.n, int(rng.integers(0, 1 << fam.n)))
            y = BitVector(fam.n, int(rng.integers(0, 1 << fam.n)))
            z = deor_extract(spec, x, y)
            for s in range(1, 1 << fam.m):
                parity = (s & z.bits).bit_count() & 1
                ks_t = transpose(fam.span(s))
                assert parity == ip_extract(matvec_gf2(ks_t, x), y)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="family required"):
            ExtractorSpec(DEOR, 3, 2)
        with pytest.raises(ValueError, match="exactly one bit"):
            ExtractorSpec(IP, 3, 2)
        with pytest.raises(ValueError, match="spec wants"):
            ExtractorSpec(DEOR, 4, 2, build_circulant_family(3, 2))
        with pytest.raises(ValueError, match="unknown extractor kind"):
            ExtractorSpec("XOR", 3)


def pack_bits(bits):
    return np.packbits(np.array(bits, dtype=np.uint8), bitorder="little").tobytes()


def unpack_bits(data, count):
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         bitorder="little")[:count].tolist()


class TestExtractStream:
    def test_zero_blocks(self):
        job = ExtractionJob(ExtractorSpec(IP, 8), 0)
        assert extract_blocks(job, b"", b"") == b""

    def test_single_bit_block(self):
        job = ExtractionJob(ExtractorSpec(IP, 1), 1)
        assert extract_blocks(job, b"\x01", b"\x01") == b"\x01"

    def test_truncated_reports_block_index(self):
        job = ExtractionJob(ExtractorSpec(IP, 8), 9)
        with pytest.raises(TruncatedStreamError) as exc:
            extract_blocks(job, b"\x00" * 3, b"\x00" * 9)
        assert exc.value.which == "x"
        assert exc.value.block_index == 3

    @pytest.mark.parametrize("n", [1, 3, 8, 13, 64, 1024])
    def test_matches_scalar_oracle(self, n):
        rng = np.random.default_rng(n)
        blocks = 40
        nbytes = (blocks * n + 7) // 8
        x = rng.bytes(nbytes)
        y = rng.bytes(nbytes)
        job = ExtractionJob(ExtractorSpec(IP, n), blocks)
        out = unpack_bits(extract_blocks(job, x, y), blocks)
        xb = unpack_bits(x, blocks * n)
        yb = unpack_bits(y, blocks * n)
        for b in range(blocks):
            xv = BitVector.from_bits(xb[b * n:(b + 1) * n])
            yv = BitVector.from_bits(yb[b * n:(b + 1) * n])
            assert out[b] == ip_extract(xv, yv)

    def test_deor_stream_matches_blockwise(self):
        fam = build_circulant_family(5, 3)
        spec = ExtractorSpec(DEOR, 5, 3, fam)
        rng = np.random.default_rng(9)
        blocks = 60
        nbytes = (blocks * 5 + 7) // 8
        x, y = rng.bytes(nbytes), rng.bytes(nbytes)
        job = ExtractionJob(spec, blocks)
        out = unpack_bits(extract_blocks(job, x, y), blocks * 3)
        xb, yb = unpack_bits(x, blocks * 5), unpack_bits(y, blocks * 5)
        for b in range(blocks):
            xv = BitVector.from_bits(xb[b * 5:(b + 1) * 5])
            yv = BitVector.from_bits(yb[b * 5:(b + 1) * 5])
            assert out[b * 3:(b + 1) * 3] == deor_extract(spec, xv, yv).to_list()

    def test_strong_mode_layout(self):
        # each output block is the extractor bits followed by y verbatim
        n = 5
        job = ExtractionJob(ExtractorSpec(IP, n), 7, strong=True)
        assert job.out_bits_per_block == n + 1
        rng = np.random.default_rng(4)
        nbytes = (7 * n + 7) // 8
        x, y = rng.bytes(nbytes), rng.bytes(nbytes)
        out = unpack_bits(extract_blocks(job, x, y), 7 * (n + 1))
        xb, yb = unpack_bits(x, 7 * n), unpack_bits(y, 7 * n)
        for b in range(7):
            block = out[b * (n + 1):(b + 1) * (n + 1)]
            yblk = yb[b * n:(b + 1) * n]
            assert block[0] == ip_extract(BitVector.from_bits(xb[b * n:(b + 1) * n]),
                                          BitVector.from_bits(yblk))
            assert block[1:] == yblk

    def test_worker_determinism(self):
        rng = np.random.default_rng(2)
        blocks = 10_000
        x, y = rng.bytes(blocks * 4), rng.bytes(blocks * 4)
        job = ExtractionJob(ExtractorSpec(IP, 32), blocks)
        single = extract_blocks(job, x, y, workers=1)
        assert extract_blocks(job, x, y, workers=4) == single
        assert extract_blocks(job, x, y, workers=7) == single

    def test_golden_three_blocks(self):
        x = bytes([0b10110001, 0xFF, 0x00])
        y = bytes([0b10010001, 0x0F, 0xAA])
        job = ExtractionJob(ExtractorSpec(IP, 8), 3)
        # parities of 0x91&0xb1=0x91 (3 ones), 0x0f (4), 0x00 (0)
        assert extract_blocks(job, x, y) == bytes([0b001])

    def test_file_round_trip(self, tmp_path):
        xp, yp, op = tmp_path / "x", tmp_path / "y", tmp_path / "z"
        xp.write_bytes(b"\xff\x00\x12")
        yp.write_bytes(b"\x0f\xf0\x34")
        job = ExtractionJob(ExtractorSpec(IP, 8), 3)
        written = extract_file(job, str(xp), str(yp), str(op))
        assert written == 1
        assert op.read_bytes() == extract_blocks(job, b"\xff\x00\x12", b"\x0f\xf0\x34")

    def test_file_error_leaves_no_output(self, tmp_path):
        xp, yp, op = tmp_path / "x", tmp_path / "y", tmp_path / "z"
        xp.write_bytes(b"\xff")
        yp.write_bytes(b"\x0f")
        job = ExtractionJob(ExtractorSpec(IP, 8), 5)
        with pytest.raises(TruncatedStreamError):
            extract_file(job, str(xp), str(yp), str(op))
        assert not op.exists()
        assert not list(tmp_path.glob(".qextract-*"))


class TestExtractFileInputs:
    """extract_file maps regular input files and reads anything else."""

    @staticmethod
    def ip_job(n, blocks):
        return ExtractionJob(ExtractorSpec(IP, n), blocks)

    def test_inputs_are_not_copied(self, tmp_path):
        # two 8 MB streams; a copy of either would allocate 8 MiB
        size = 8 << 20
        rng = random.Random(0)
        xp, yp, op = tmp_path / "x", tmp_path / "y", tmp_path / "z"
        x, y = rng.randbytes(size), rng.randbytes(size)
        xp.write_bytes(x)
        yp.write_bytes(y)
        job = self.ip_job(1024, size * 8 // 1024)
        tracemalloc.start()
        try:
            extract_file(job, str(xp), str(yp), str(op), workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert op.read_bytes() == extract_blocks(job, x, y)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    @pytest.mark.parametrize("strong", [False, True])
    def test_peak_memory_does_not_grow_with_stream(self, tmp_path, strong):
        # IP n=1024 over 32 and 64 MiB per stream at --workers 2: both
        # lengths are past 2 * MIN_CHUNKS_PER_THREAD chunks, so both run two
        # threads, and only the stream length differs between the runs
        size = 64 << 20
        rng = random.Random(3)
        for name in ("x", "y"):
            with open(tmp_path / name, "wb") as f:
                for _ in range(size // extractor.CHUNK_BYTES):
                    f.write(rng.randbytes(extractor.CHUNK_BYTES))
        child = ("import sys\nfrom qextract.cli import main\n"
                 "assert main(sys.argv[1:]) == 0\n"
                 "print(open('/proc/self/status').read())\n")
        src = os.path.dirname(os.path.dirname(extractor.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        peaks = []
        for stream_bytes in (size // 2, size):
            argv = ["extract", "--n", "1024", "--blocks", str(stream_bytes * 8 // 1024),
                    "--x", str(tmp_path / "x"), "--y", str(tmp_path / "y"),
                    "--out", str(tmp_path / "z"), "--workers", "2"] + ["--strong"] * strong
            proc = subprocess.run([sys.executable, "-c", child, *argv], env=env, check=True,
                                  capture_output=True, text=True, timeout=120)
            hwm = next(line for line in proc.stdout.splitlines() if line.startswith("VmHWM:"))
            peaks.append(int(hwm.split()[1]) * 1024)
        # a reader that keeps every mapped page and the whole output grows
        # by 64 MiB (weak) and 128 MiB (strong) here; thread timing alone
        # moved a peak by up to 4 MiB on a loaded 2-vCPU VM
        assert abs(peaks[1] - peaks[0]) < 8 * extractor.CHUNK_BYTES, peaks

    def test_fifo_input_is_read(self, tmp_path):
        job = self.ip_job(13, 50)
        rng = random.Random(1)
        x, y = rng.randbytes(82), rng.randbytes(82)
        xp, yp, op = tmp_path / "x", tmp_path / "y", tmp_path / "z"
        os.mkfifo(xp)
        yp.write_bytes(y)

        def feed():
            with open(xp, "wb") as f:
                f.write(x)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        extract_file(job, str(xp), str(yp), str(op))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert op.read_bytes() == oracle_stream(job, x, y)

    def test_output_over_input_replaces_it_by_rename(self, tmp_path):
        job = self.ip_job(16, 40)
        rng = random.Random(2)
        x, y = rng.randbytes(80), rng.randbytes(80)
        xp, yp = tmp_path / "x", tmp_path / "y"
        xp.write_bytes(x)
        yp.write_bytes(y)
        with open(xp, "rb") as old:
            extract_file(job, str(xp), str(yp), str(xp))
            # the original file was never written: the rename replaced it
            assert old.read() == x
            assert os.fstat(old.fileno()).st_ino != os.stat(xp).st_ino
        assert xp.read_bytes() == oracle_stream(job, x, y)
        assert not list(tmp_path.glob(".qextract-*"))

    def test_short_mapped_input_is_truncated(self, tmp_path):
        xp, yp, op = tmp_path / "x", tmp_path / "y", tmp_path / "z"
        xp.write_bytes(b"\x00" * 9)
        yp.write_bytes(b"\x00" * 4)
        with pytest.raises(TruncatedStreamError) as exc:
            extract_file(self.ip_job(8, 9), str(xp), str(yp), str(op))
        assert (exc.value.which, exc.value.block_index) == ("y", 4)
        assert not op.exists()

    def test_kernel_error_surfaces_as_itself(self, tmp_path, monkeypatch):
        # a numpy view of the map is alive in the traceback when the error
        # leaves extract_file; closing the map then would raise BufferError.
        # An OSError of the kernel is not one of the output file's.
        for error in (MemoryError("injected"), OSError(errno.EIO, "injected")):
            def failing_chunk(job, table, x, y, start, count):
                assert isinstance(x, mmap.mmap)
                view = np.frombuffer(x, dtype=np.uint8)  # noqa: F841
                raise error

            monkeypatch.setattr(extractor, "_extract_chunk", failing_chunk)
            xp, yp, op = tmp_path / "x", tmp_path / "y", tmp_path / "z"
            xp.write_bytes(b"\x01" * 8)
            yp.write_bytes(b"\x01" * 8)
            with pytest.raises(type(error), match="injected") as exc:
                extract_file(self.ip_job(8, 8), str(xp), str(yp), str(op))
            assert not isinstance(exc.value, OutputError)
            assert not op.exists()
            assert not list(tmp_path.glob(".qextract-*"))


CIRCULANT_N = [n for n in range(3, 201) if is_prime(n) and is_primitive_root_2(n)]


def oracle_stream(job, x, y):
    """Expected stream output, block by block from ip_extract/deor_extract."""
    n, m = job.spec.n, job.spec.m
    xi, yi = int.from_bytes(x, "little"), int.from_bytes(y, "little")
    out = 0
    for b in range(job.blocks):
        xv = BitVector(n, (xi >> (b * n)) & ((1 << n) - 1))
        yv = BitVector(n, (yi >> (b * n)) & ((1 << n) - 1))
        z = ip_extract(xv, yv) if job.spec.kind == IP else deor_extract(job.spec, xv, yv).bits
        if job.strong:
            z |= yv.bits << m
        out |= z << (b * job.out_bits_per_block)
    return out.to_bytes((job.blocks * job.out_bits_per_block + 7) // 8, "little")


@st.composite
def stream_specs(draw):
    """IP at any n in 1..200 (word boundaries included) or at the
    benchmark's block sizes, or a circulant, field or random
    arbitrary-matrix family."""
    kind = draw(st.sampled_from(["ip", "circulant", "field", "random"]))
    if kind == "ip":
        n = draw(st.one_of(st.sampled_from([63, 64, 65, 127, 128, 129, 191, 192, 200,
                                            512, 1023, 1024, 1025]),
                           st.integers(1, 200)))
        return ExtractorSpec(IP, n)
    if kind == "circulant":
        n = draw(st.sampled_from(CIRCULANT_N))
        fam = build_circulant_family(n, draw(st.integers(1, min(n - 1, 6))))
    elif kind == "field":
        n = draw(st.integers(1, 64))
        fam = build_field_family(n, draw(st.integers(1, min(n, 6))))
    else:
        n, m = draw(st.integers(1, 200)), draw(st.integers(1, 6))
        rng = random.Random(draw(st.integers(0, 2**32)))
        fam = family_of(n, 0, "random", tuple(
            BitMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n))) for _ in range(m)))
    return ExtractorSpec(DEOR, fam.n, fam.m, fam)


# block sizes on both sides of one, two and sixteen words
WRITER_N = [*range(1, 9), 63, 64, 65, 127, 128, 129, 1023, 1024, 1025]


@st.composite
def strong_writer_specs(draw):
    """IP, or a random arbitrary-matrix family with up to 70 matrices, so
    that a block's extractor bits may span two words, at block sizes
    around the word boundaries; families stop at n = 129, where the
    block oracle still runs in time."""
    n = draw(st.one_of(st.sampled_from(WRITER_N), st.integers(1, 200)))
    if n > 129 or draw(st.booleans()):
        return ExtractorSpec(IP, n)
    m = draw(st.integers(1, 70))
    rng = random.Random(draw(st.integers(0, 2**32)))
    fam = family_of(n, 0, "random", tuple(
        BitMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n))) for _ in range(m)))
    return ExtractorSpec(DEOR, n, m, fam)


class TestStreamDifferential:
    """The packed stream kernels against the block oracles."""

    @settings(max_examples=80, deadline=None)
    @given(spec=stream_specs(), blocks=st.integers(0, 70), strong=st.booleans(),
           workers=st.integers(1, 3), chunk_bytes=st.sampled_from([8, 100, 1 << 20]),
           slack=st.integers(0, 9), seed=st.integers(0, 2**32))
    def test_matches_block_oracles(self, spec, blocks, strong, workers, chunk_bytes,
                                   slack, seed):
        # small chunks put many chunk boundaries inside the stream, and one
        # chunk per thread lets every worker count run the pool
        rng = random.Random(seed)
        nbytes = (blocks * spec.n + 7) // 8 + slack
        x, y = rng.randbytes(nbytes), rng.randbytes(nbytes)
        job = ExtractionJob(spec, blocks, strong)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extractor, "CHUNK_BYTES", chunk_bytes)
            mp.setattr(extractor, "MIN_CHUNKS_PER_THREAD", 1)
            assert extract_blocks(job, x, y, workers=workers) == oracle_stream(job, x, y)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_extract_file_matches_extract_blocks(self, tmp_path, monkeypatch, workers):
        # chunks of 16 to 64 blocks: hundreds of chunks per job wrap
        # the window of in-flight chunks many times and release many pages
        monkeypatch.setattr(extractor, "CHUNK_BYTES", 512)
        monkeypatch.setattr(extractor, "MIN_CHUNKS_PER_THREAD", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        released = []
        release = extractor._release

        def spy(maps, lo, hi):
            released.append(release(maps, lo, hi))
            return released[-1]

        monkeypatch.setattr(extractor, "_release", spy)
        rng = random.Random(workers)
        xp, yp, op = tmp_path / "x", tmp_path / "y", tmp_path / "z"
        for spec, blocks, strong in [(ExtractorSpec(IP, 64), 20_000, False),
                                     (ExtractorSpec(IP, 13), 30_000, True),
                                     (ExtractorSpec(DEOR, 61, 4, build_circulant_family(61, 4)),
                                      3_000, False)]:
            job = ExtractionJob(spec, blocks, strong)
            x, y = (rng.randbytes((blocks * spec.n + 7) // 8 + 5) for _ in range(2))
            xp.write_bytes(x)
            yp.write_bytes(y)
            released.clear()
            written = extract_file(job, str(xp), str(yp), str(op), workers=workers)
            want = extract_blocks(job, x, y, workers=workers)
            assert op.read_bytes() == want and written == len(want)
            assert released[-1] == blocks * spec.n // 8 // mmap.PAGESIZE * mmap.PAGESIZE
            assert released == sorted(released)

    @pytest.mark.parametrize("n", [13, 64, 1023])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ip_plan_built_once_per_job(self, monkeypatch, n, workers):
        # every chunk of a job, the short last one included, reads the one
        # read-only plan; none is built for a job with no blocks, for one
        # that fails its stream check, or before the first chunk is asked for
        monkeypatch.setattr(extractor, "CHUNK_BYTES", 64)
        monkeypatch.setattr(extractor, "MIN_CHUNKS_PER_THREAD", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        built, used = [], set()
        ip_plan, extract_chunk = extractor._ip_plan, extractor._extract_chunk

        def plan_spy(*args):
            built.append(ip_plan(*args))
            return built[-1]

        def chunk_spy(job, plan, *args):
            used.add(id(plan))
            return extract_chunk(job, plan, *args)

        monkeypatch.setattr(extractor, "_ip_plan", plan_spy)
        monkeypatch.setattr(extractor, "_extract_chunk", chunk_spy)
        chunk = extractor._chunk_blocks(ExtractionJob(ExtractorSpec(IP, n), 1), None)
        rng = random.Random(n * 10 + workers)
        for blocks in (1, chunk, 5 * chunk + 3, 12 * chunk):
            job = ExtractionJob(ExtractorSpec(IP, n), blocks)
            x, y = (rng.randbytes((blocks * n + 7) // 8) for _ in range(2))
            built.clear()
            used.clear()
            chunks = extractor._chunks(job, x, y, workers)
            assert built == []
            assert b"".join(piece for _, piece in chunks) == oracle_stream(job, x, y)
            assert len(built) == 1 and used == {id(built[0])}
            assert not any(a.flags.writeable for a in (built[0].w, built[0].low, built[0].inword)
                           if a is not None)
        built.clear()
        assert extract_blocks(ExtractionJob(ExtractorSpec(IP, n), 0), b"", b"", workers) == b""
        with pytest.raises(TruncatedStreamError):
            extract_blocks(ExtractionJob(ExtractorSpec(IP, n), 9), b"\0" * n, b"", workers)
        assert built == []

    @settings(max_examples=100, deadline=None)
    @given(spec=strong_writer_specs(), blocks=st.integers(0, 300), workers=st.integers(1, 3),
           chunk_bytes=st.sampled_from([8, 100, 1000, 5000, 1 << 20]),
           slack=st.integers(0, 9), seed=st.integers(0, 2**32))
    def test_strong_writer_matches_block_oracles(self, spec, blocks, workers, chunk_bytes,
                                                 slack, seed):
        # up to five 64-block groups; chunks below a group's words are 8
        # blocks long and start inside a group, and the slack bytes after
        # the last block must not reach the output's last byte
        rng = random.Random(seed)
        nbytes = (blocks * spec.n + 7) // 8 + slack
        x, y = rng.randbytes(nbytes), rng.randbytes(nbytes)
        job = ExtractionJob(spec, blocks, strong=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extractor, "CHUNK_BYTES", chunk_bytes)
            mp.setattr(extractor, "MIN_CHUNKS_PER_THREAD", 1)
            assert extract_blocks(job, x, y, workers=workers) == oracle_stream(job, x, y)

    @pytest.mark.parametrize("spec", [ExtractorSpec(IP, 13), ExtractorSpec(IP, 1024),
                                      ExtractorSpec(DEOR, 5, 3, build_circulant_family(5, 3))],
                             ids=["IP-13", "IP-1024", "circulant-5-3"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_strong_plan_built_once_per_job(self, monkeypatch, spec, workers):
        # every chunk of a strong job reads the one read-only writer plan;
        # none is built for a weak job, for a job with no blocks, for one
        # that fails its stream check, or before the first chunk is asked for
        monkeypatch.setattr(extractor, "CHUNK_BYTES", 2048)
        monkeypatch.setattr(extractor, "MIN_CHUNKS_PER_THREAD", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        built, used = [], set()
        weave, extract_chunk = extractor._weave, extractor._extract_chunk

        def weave_spy(*args):
            built.append(weave(*args))
            return built[-1]

        def chunk_spy(job, plan, *args):
            used.add(id(plan[1]) if job.strong else None)
            return extract_chunk(job, plan, *args)

        monkeypatch.setattr(extractor, "_weave", weave_spy)
        monkeypatch.setattr(extractor, "_extract_chunk", chunk_spy)
        n = spec.n
        chunk = extractor._chunk_blocks(ExtractionJob(spec, 1, strong=True), weave(n, spec.m))
        rng = random.Random(n * 10 + workers)
        for blocks in (1, chunk, 5 * chunk + 3):
            job = ExtractionJob(spec, blocks, strong=True)
            x, y = (rng.randbytes((blocks * n + 7) // 8) for _ in range(2))
            built.clear()
            used.clear()
            chunks = extractor._chunks(job, x, y, workers)
            assert built == []
            assert b"".join(piece for _, piece in chunks) == oracle_stream(job, x, y)
            assert len(built) == 1 and used == {id(built[0])}
            plan = built[0]
            arrays = [plan.run_right, plan.run_left, plan.words, plan.at, plan.right,
                      plan.left, plan.mask]
            assert not any(a.flags.writeable for a in arrays)
        built.clear()
        job = ExtractionJob(spec, 3 * chunk)
        x = rng.randbytes(3 * chunk * n // 8 + 1)
        assert extract_blocks(job, x, x, workers) == oracle_stream(job, x, x)
        assert extract_blocks(ExtractionJob(spec, 0, strong=True), b"", b"", workers) == b""
        with pytest.raises(TruncatedStreamError):
            extract_blocks(ExtractionJob(spec, 9, strong=True), b"\0" * n, b"", workers)
        assert built == []

    @pytest.mark.parametrize("n,m,r", [(61, 32, 1), (64, 32, 0), (1019, 3, 1)])
    def test_large_families(self, n, m, r):
        from qextract.gf2 import build_family

        spec = ExtractorSpec(DEOR, n, m, build_family(n, m, r))
        rng = random.Random(n)
        blocks = 24
        x, y = rng.randbytes(blocks * n // 8 + 1), rng.randbytes(blocks * n // 8 + 1)
        job = ExtractionJob(spec, blocks, strong=True)
        assert extract_blocks(job, x, y) == oracle_stream(job, x, y)


def reference_row_table(fam):
    """The row table built from the BitMatrix rows with Python ints:
    entry [p, v, i] is the XOR of rows 4p + j of K_i over the set bits j
    of v, as little-endian words."""
    n, nw = fam.n, -(-fam.n // 64)
    table = np.zeros((-(-n // 4), 16, fam.m, nw), dtype=np.uint64)
    for p in range(len(table)):
        for v in range(16):
            for i, k in enumerate(fam.matrices):
                acc = 0
                for j in range(4):
                    if v >> j & 1 and 4 * p + j < n:
                        acc ^= k.row_bits[4 * p + j]
                table[p, v, i] = np.frombuffer(acc.to_bytes(8 * nw, "little"), dtype="<u8")
    return table


class TestRowTable:
    @pytest.mark.parametrize("n,m", [(1, 1), (5, 3), (63, 2), (64, 3), (65, 2), (130, 3)])
    def test_explicit_family_matches_its_bitmatrix_rows(self, n, m):
        rng = random.Random(n * 10 + m)
        fam = family_of(n, 0, "random", tuple(
            BitMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n))) for _ in range(m)))
        assert np.array_equal(extractor.row_table(fam), reference_row_table(fam))


# IP at n = 1..5, the families of the deor-bound suite, and two n = 5
# families, whose row table spans a second nibble of x
TABLE_SPECS = [ExtractorSpec(IP, n) for n in range(1, 6)] + [
    ExtractorSpec(DEOR, f.n, f.m, f) for f in (
        build_field_family(2, 1), build_field_family(2, 2), build_field_family(3, 1),
        build_field_family(3, 2), build_circulant_family(3, 1), build_circulant_family(3, 2),
        build_field_family(5, 2), build_circulant_family(5, 2))]


class TestOutputTable:
    """The stream kernel's table of every block pair, which the bound
    suites measure epsilon from, against the per-pair oracle."""

    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: (
        f"IP-{s.n}" if s.family is None else f"{s.family.construction}-{s.n}-{s.m}"))
    def test_matches_apply_ints(self, spec):
        size = 2 ** spec.n
        want = [[spec.apply_ints(x, y) for y in range(size)] for x in range(size)]
        assert np.array_equal(extractor.output_table(spec), want)


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs inline."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        RecordingPool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestWorkers:
    @pytest.fixture
    def pool(self, monkeypatch):
        RecordingPool.started = []
        monkeypatch.setattr(extractor, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(extractor, "CHUNK_BYTES", 64)  # 8 blocks per chunk
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        return RecordingPool.started

    @staticmethod
    def job_with_chunks(chunks):
        n = 64
        blocks = chunks * extractor._chunk_blocks(ExtractionJob(ExtractorSpec(IP, n), 8), None)
        data = random.Random(chunks).randbytes(blocks * n // 8)
        return ExtractionJob(ExtractorSpec(IP, n), blocks), data

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one(self, workers):
        job = ExtractionJob(ExtractorSpec(IP, 8), 1)
        with pytest.raises(ValueError, match="workers"):
            extract_blocks(job, b"\x01", b"\x01", workers=workers)

    def test_threads_capped_by_cores_and_chunks(self, pool, monkeypatch):
        monkeypatch.setattr(extractor, "MIN_CHUNKS_PER_THREAD", 1)
        job, data = self.job_with_chunks(3)
        serial = extract_blocks(job, data, data, workers=1)
        assert extract_blocks(job, data, data, workers=100_000) == serial
        assert extract_blocks(job, data, data, workers=2) == serial
        job, data = self.job_with_chunks(6)
        extract_blocks(job, data, data, workers=100_000)
        assert pool == [3, 2, 4]

    def test_small_jobs_run_in_calling_thread(self, pool):
        per_thread = extractor.MIN_CHUNKS_PER_THREAD
        job, data = self.job_with_chunks(2 * per_thread - 1)
        extract_blocks(job, data, data, workers=2)
        assert pool == []
        job, data = self.job_with_chunks(2 * per_thread)
        extract_blocks(job, data, data, workers=8)
        assert pool == [2]
