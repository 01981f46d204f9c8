"""Block and stream evaluation of the parity extractors.

Two extractors are provided, each with an exact block-level oracle:

* ``ip_extract`` -- the inner product mod 2 of two n-bit blocks, one
  output bit per block pair.
* ``deor_extract`` -- the multi-bit variant: output bit i is
  ``x^T K_i y`` for the matrices of a :class:`~qextract.gf2.MatrixFamily`.

Stream processing works on raw bit files: bytes are interpreted
LSB-first (bit j of the stream is bit ``j mod 8`` of byte ``j div 8``),
blocks are packed back to back with no header or padding between them.
Each processed block emits m output bits, or m + n bits in strong mode
where the y block is appended verbatim after the extractor output.

The stream kernels work on little-endian uint64 words and
``np.bitwise_count``:

* IP, any n: ``z = x & y`` once over the words of a chunk.  One
  ``bitwise_xor.reduceat`` XORs the whole words from the word where each
  block starts up to the word where it ends; the low bits of those two
  words, below each block boundary, are XORed in, and the block's bit is
  the popcount parity of the result.  Every chunk starts on a byte and
  spans the same blocks, so the boundary words and masks are one plan
  per job, built once and shared by every chunk.  When n is a multiple
  of 64 the plan has no masks, and a chunk is one AND, one
  ``reduceat`` and one popcount.
* Matrix family, any construction: a row table (:func:`row_table`),
  built once per call from the family's row words, maps each 4-bit
  slice of x to the XOR of the matching rows of every K_i.  ``K_i^T x``
  is the XOR of ceil(n/4) table entries, and output bit i is the parity
  of ``popcount(y & K_i^T x)``.  The kernel reads only the row words,
  so every family gets ``deor_extract``'s bits.
* Strong mode writes the extractor bits and the unpacked y bits into one
  array per chunk and packs it once.

Chunks are whole multiples of 8 blocks, so every chunk starts on a byte
of input and of output and the output is bit-identical for any worker
count.  Each chunk's largest array is capped at ``CHUNK_BYTES``, so
kernel memory does not grow with the stream.  Chunks run in a thread
pool only when every thread gets at least ``MIN_CHUNKS_PER_THREAD`` of
them; smaller jobs run in the calling thread, where they are faster.
At most ``WINDOW_PER_THREAD`` chunks per thread are in flight.

``extract_file`` streams.  It memory-maps each input that is a regular,
non-empty file, so the kernels read the page cache with no copy of the
stream, and it releases the mapped pages behind the oldest chunk in
flight with ``madvise(MADV_DONTNEED)``, in spans of at least
``4 * CHUNK_BYTES``.  Each chunk's output is written,
in order, to the temporary output file as the chunk completes.  So its
memory does not grow with the stream length.  The one exception is an
input that cannot be mapped (an empty file, a FIFO, ``/dev/stdin``): it
is read whole.  As with any mmap reader, truncating a mapped input while
extraction runs kills the process with SIGBUS.
"""

from __future__ import annotations

import contextlib
import errno
import mmap
import os
import stat
import tempfile
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gf2 import WORD, BitVector, MatrixFamily, matvec_gf2

IP = "IP"
DEOR = "DEOR"


class TruncatedStreamError(ValueError):
    """An input stream ended before the declared block count was read."""

    def __init__(self, which: str, block_index: int, needed_bits: int, have_bits: int):
        self.which = which
        self.block_index = block_index
        super().__init__(
            f"{which} stream truncated in block {block_index}: "
            f"need {needed_bits} bits, have {have_bits}")


@dataclass(frozen=True)
class ExtractorSpec:
    """Extractor selection: kind, block size n and output width m."""

    kind: str
    n: int
    m: int = 1
    family: MatrixFamily | None = None

    def __post_init__(self) -> None:
        if self.kind == IP:
            if self.m != 1:
                raise ValueError("inner product extractor emits exactly one bit")
            if self.family is not None:
                raise ValueError("inner product extractor takes no matrix family")
        elif self.kind == DEOR:
            if self.family is None:
                raise ValueError("matrix family required")
            if self.family.n != self.n or self.family.m != self.m:
                raise ValueError(
                    f"family is {self.family.m} matrices of size {self.family.n}, "
                    f"spec wants n={self.n}, m={self.m}")
        else:
            raise ValueError(f"unknown extractor kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("block size must be positive")

    def apply_ints(self, x: int, y: int) -> int:
        """Evaluate on blocks given as little-endian integers."""
        if self.kind == IP:
            return (x & y).bit_count() & 1
        z = deor_extract(self, BitVector(self.n, x), BitVector(self.n, y))
        return z.bits


@dataclass(frozen=True)
class ExtractionJob:
    spec: ExtractorSpec
    blocks: int
    strong: bool = False

    def __post_init__(self) -> None:
        if self.blocks < 0:
            raise ValueError("block count must be non-negative")

    @property
    def out_bits_per_block(self) -> int:
        return self.spec.m + (self.spec.n if self.strong else 0)


def ip_extract(x: BitVector, y: BitVector) -> int:
    """Inner product of two bit vectors mod 2."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} != {y.n}")
    return (x.bits & y.bits).bit_count() & 1


def deor_extract(spec: ExtractorSpec, x: BitVector, y: BitVector) -> BitVector:
    """Multi-bit extraction: bit i of the output is x . (K_i y)."""
    if spec.kind != DEOR:
        raise ValueError("spec does not describe a multi-bit extractor")
    if x.n != spec.n or y.n != spec.n:
        raise ValueError(f"blocks must be {spec.n} bits, got {x.n} and {y.n}")
    bits = 0
    for i, k in enumerate(spec.family.matrices):
        bits |= ip_extract(x, matvec_gf2(k, y)) << i
    return BitVector(spec.m, bits)


# ---------------------------------------------------------------------------
# Stream kernels

# Cap on the largest array one chunk makes, in bytes: the words of a stream
# span, the K_i^T x words of a matrix family, or the unpacked output bits
# of strong mode.
CHUNK_BYTES = 1 << 20
# A thread pool pays only when each thread gets this many chunks.  On 2
# cores (numpy 2.4.6; extract_blocks in memory, 1 MiB chunks, median of 31
# alternating runs), 2 threads ran IP and strong jobs of 2 to 4 chunks at
# 0.61-0.93x the speed of 1: pool start-up and the hand-off of each chunk
# outweighed the second core.  IP n=1024 and n=1023 broke even at 8 to 16
# chunks and ran 1.03-1.22x from 24 chunks on; strong n=1024 broke even
# near 32 chunks (0.97x at 24, 1.06x at 48).
MIN_CHUNKS_PER_THREAD = 12
# Chunks in flight per thread: each thread has a chunk queued behind the one
# it runs while the calling thread writes the oldest.  On 2 cores, windows
# of 2 to 8 chunks per thread timed the same on IP and strong jobs.
WINDOW_PER_THREAD = 2


def _words(span: np.ndarray) -> np.ndarray:
    """The bytes of a stream span as little-endian uint64 words, followed by
    one zero word so that a block may read one word past the span."""
    words = np.empty(len(span) // 8 + 2, dtype=WORD)
    words[-2:] = 0
    words.view(np.uint8)[:len(span)] = span
    return words


def _block_words(words: np.ndarray, n: int, count: int) -> np.ndarray:
    """Each of ``count`` back-to-back n-bit blocks as a row of ceil(n/64)
    words.  Bits past n hold whatever follows the block in the stream: the
    family kernel ignores them, since the rows of K_i have n bits and the
    row table is zero past row n."""
    t = np.arange(count)[:, None] * n + 64 * np.arange(-(-n // 64))
    w, s = t >> 6, (t & 63).astype(WORD)
    # numpy defines a shift by 64 as 0, so s = 0 takes no bits from w + 1
    return (words[w] >> s) | (words[w + 1] << (np.uint64(64) - s))


@dataclass(frozen=True)
class _IpPlan:
    """The block boundaries of an IP chunk of ``count`` n-bit blocks that
    starts on a byte, the same for every such chunk.  Boundary b is bit
    t_b = b n of the chunk: ``w`` holds its word t_b >> 6 and ``low`` the
    mask of the bits of that word below it; ``inword`` marks the blocks
    that lie inside one word.  ``low`` is None when every boundary is on a
    word (n a multiple of 64), ``inword`` when no block lies inside one
    word (n >= 64).  The arrays are read-only: pool threads share them."""

    w: np.ndarray
    low: np.ndarray | None
    inword: np.ndarray | None


def _ip_plan(n: int, count: int) -> _IpPlan:
    t = np.arange(count + 1) * n
    w = t >> 6
    low = (np.uint64(1) << (t & 63).astype(WORD)) - np.uint64(1)
    inword = w[1:] == w[:-1]
    for a in (w, low, inword):
        a.setflags(write=False)
    return _IpPlan(w, low if low.any() else None, inword if inword.any() else None)


def _ip_bits(xs: np.ndarray, ys: np.ndarray, count: int, plan: _IpPlan) -> np.ndarray:
    """Inner-product bit of each block of a byte-aligned span of ``count``
    blocks; ``plan`` is for at least ``count`` blocks."""
    z = np.empty(len(xs) // 8 + 2, dtype=WORD)
    z[-2:] = 0
    np.bitwise_and(xs, ys, out=z.view(np.uint8)[:len(xs)])
    # block b is the whole words w_b up to w_b+1, less the bits of word w_b
    # below t_b, plus the bits of word w_b+1 below t_b+1; a block inside
    # one word takes no whole word
    w = plan.w[:count + 1]
    acc = np.bitwise_xor.reduceat(z, w)[:-1]
    if plan.inword is not None:
        acc[plan.inword[:count]] = 0
    if plan.low is not None:
        below = z[w] & plan.low[:count + 1]
        acc ^= below[:-1]
        acc ^= below[1:]
    return np.bitwise_count(acc) & 1


def row_table(family: MatrixFamily) -> np.ndarray:
    """Row table of a matrix family for the stream kernel.

    ``T[p, v, i]`` is the XOR, over the set bits j of the 4-bit value v, of
    row 4p + j of K_i, as ceil(n/64) little-endian words taken from
    ``family.words``; rows past n are zero.  So ``K_i^T x`` is the XOR over
    p of ``T[p, nibble p of x, i]``.  Shape ``(ceil(n/4), 16, m,
    ceil(n/64))``, about n^2 m / 2 bytes, which ``gf2.MAX_FAMILY_ENTRIES``
    caps at 1 GiB.
    """
    n, m = family.n, family.m
    nw, nibbles = family.words.shape[2], -(-n // 4)
    rows = np.zeros((m, 4 * nibbles, nw), dtype=WORD)
    rows[:, :n] = family.words
    rows = rows.reshape(m, nibbles, 4, nw).transpose(1, 2, 0, 3)
    table = np.zeros((nibbles, 16, m, nw), dtype=WORD)
    for v in range(1, 16):
        low = v & -v
        table[:, v] = table[:, v ^ low] ^ rows[:, low.bit_length() - 1]
    return table


def _family_bits(table: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                 count: int, n: int) -> np.ndarray:
    """Bits x . (K_i y) = (K_i^T x) . y of each block, shape (count, m)."""
    xb = _block_words(_words(xs), n, count).view(np.uint8)
    yw = _block_words(_words(ys), n, count)
    nib = np.empty((count, 2 * xb.shape[1]), dtype=np.uint8)
    np.bitwise_and(xb, 15, out=nib[:, 0::2])
    np.right_shift(xb, 4, out=nib[:, 1::2])
    acc = table[0][nib[:, 0]]  # acc[b, i] = K_i^T x_b, four rows at a time
    for p in range(1, len(table)):
        acc ^= table[p][nib[:, p]]
    acc &= yw[:, None, :]
    return np.bitwise_count(acc).sum(axis=2, dtype=np.uint8) & 1


def _chunk_blocks(job: ExtractionJob) -> int:
    """Blocks per chunk: a multiple of 8, so that every chunk starts on a
    byte of input and of output, and at most CHUNK_BYTES of its largest
    array (at least 8 blocks).  An IP job holds one plan for this many
    blocks, once per job: at most 17 bytes per block, 8 when n is a
    multiple of 64 (64 KiB at n = 1024)."""
    spec = job.spec
    per_block = max(8 * -(-spec.n // 64) * (spec.m if spec.kind == DEOR else 1),
                    job.out_bits_per_block if job.strong else 0)
    return max(8, CHUNK_BYTES // per_block // 8 * 8)


def _extract_chunk(job: ExtractionJob, plan: _IpPlan | np.ndarray, x: bytes, y: bytes,
                   start: int, count: int) -> bytes:
    """Output bytes of ``count`` blocks from block ``start``; ``plan`` is the
    job's IP plan or its family's row table."""
    n, m = job.spec.n, job.spec.m
    lo, nbytes = start * n // 8, (count * n + 7) // 8
    xs = np.frombuffer(x, dtype=np.uint8, count=nbytes, offset=lo)
    ys = np.frombuffer(y, dtype=np.uint8, count=nbytes, offset=lo)
    if isinstance(plan, _IpPlan):
        bits = _ip_bits(xs, ys, count, plan)
    else:
        bits = _family_bits(plan, xs, ys, count, n)
    if job.strong:
        out = np.empty((count, m + n), dtype=np.uint8)
        out[:, :m] = bits.reshape(count, m)
        out[:, m:] = np.unpackbits(ys, count=count * n, bitorder="little").reshape(count, n)
        bits = out
    return np.packbits(bits, axis=None, bitorder="little").tobytes()


def _check_stream(which: str, data: bytes, blocks: int, n: int) -> None:
    have_bits = 8 * len(data)
    need_bits = blocks * n
    if have_bits < need_bits:
        raise TruncatedStreamError(which, have_bits // n, need_bits, have_bits)


def _chunks(job: ExtractionJob, x: bytes, y: bytes, workers: int) -> Iterator[tuple[int, bytes]]:
    """Check the job against both streams, then return an iterator over the
    chunks in stream order: the block where each chunk ends and the
    chunk's output bytes.  No kernel work is done before the first chunk
    is asked for."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    _check_stream("x", x, job.blocks, job.spec.n)
    _check_stream("y", y, job.blocks, job.spec.n)
    return _run_chunks(job, x, y, workers)


def _run_chunks(job: ExtractionJob, x: bytes, y: bytes,
                workers: int) -> Iterator[tuple[int, bytes]]:
    if job.blocks == 0:
        return
    chunk = _chunk_blocks(job)
    if job.spec.kind == DEOR:
        plan = row_table(job.spec.family)
    else:
        plan = _ip_plan(job.spec.n, min(chunk, job.blocks))
    starts = range(0, job.blocks, chunk)

    def run(start: int) -> tuple[int, bytes]:
        end = min(start + chunk, job.blocks)
        return end, _extract_chunk(job, plan, x, y, start, end - start)

    threads = min(workers, os.cpu_count() or 1, len(starts) // MIN_CHUNKS_PER_THREAD)
    if threads <= 1:
        yield from map(run, starts)
        return
    # at most WINDOW_PER_THREAD chunks per thread are in flight, so the
    # chunks done but not yet taken, and the input they span, stay bounded
    window = deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for start in starts:
            if len(window) == WINDOW_PER_THREAD * threads:
                yield window.popleft().result()
            window.append(pool.submit(run, start))
        while window:
            yield window.popleft().result()


def extract_blocks(job: ExtractionJob, x: bytes, y: bytes, workers: int = 1) -> bytes:
    """Run the extractor over all blocks of two bit streams.

    Deterministic: the result is bit-identical for any worker count.
    """
    # every chunk but the last covers a multiple of 8 blocks, so each piece
    # but the last is a whole number of output bytes with no slack
    return b"".join(piece for _, piece in _chunks(job, x, y, workers))


def _read_input(path: str) -> bytes | mmap.mmap:
    """The bytes of an input file: a read-only map of a regular, non-empty
    file, or the whole contents of anything else, which mmap cannot map."""
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size > 0:
            return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        return f.read()


def _release(maps: list[mmap.mmap], lo: int, hi: int) -> int:
    """Drop the whole pages of ``[lo, hi)`` from each read-only map, where
    ``lo`` is page-aligned, once they span ``4 * CHUNK_BYTES``; return the
    new page-aligned low end.  A dropped page is read again from the page
    cache if it is touched later."""
    hi -= hi % mmap.PAGESIZE
    # each madvise flushes the TLB of every thread at work: on 2 cores, one
    # call per 1 MiB chunk cost IP n=1024 jobs at 2 threads 4% of their
    # time, one per 4 MiB at most 1.4%
    if hi - lo < 4 * CHUNK_BYTES:
        return lo
    if hasattr(mmap, "MADV_DONTNEED"):
        for m in maps:
            m.madvise(mmap.MADV_DONTNEED, lo, hi - lo)
    return hi


class OutputError(OSError):
    """Writing an output file failed; ``filename`` is the output path."""


@contextlib.contextmanager
def _output_errors(path: str) -> Iterator[None]:
    try:
        yield
    except OSError as exc:
        raise OutputError(exc.errno, exc.strerror, path) from exc


def write_atomic(path: str, pieces: Iterable[bytes]) -> int:
    """Write the concatenation of ``pieces`` to ``path`` through a temporary
    file in the same directory and one rename, so that a failure leaves no
    partial output.  Returns the number of bytes written.

    Each piece is written as it arrives.  The output is checked and the
    temporary file made before the first piece is asked for.  An
    ``OSError`` from the output side is raised again as
    :class:`OutputError` naming ``path`` rather than the temporary file;
    an error raised by ``pieces`` leaves as itself.
    """
    if os.path.isdir(path):
        raise OutputError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = None
    written = 0
    try:
        with _output_errors(path):
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".qextract-")
            # a buffer larger than any chunk array: when it is freed, glibc
            # raises its mmap threshold above the chunk arrays, which later
            # calls then take from the heap.  Without it, an n=1024 strong
            # job at 2 threads mapped fresh pages for each chunk and spent 3x
            # the system time (2-vCPU VM).
            f = os.fdopen(fd, "wb", buffering=2 * CHUNK_BYTES)
        with f:
            for piece in pieces:
                with _output_errors(path):
                    f.write(piece)
                written += len(piece)
            with _output_errors(path):
                f.flush()
        with _output_errors(path):
            os.replace(tmp, path)
    finally:
        # the temporary file is left only if the rename did not happen
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return written


def extract_file(job: ExtractionJob, x_path: str, y_path: str, out_path: str,
                 workers: int = 1) -> int:
    """File-to-file extraction with an atomic output write.

    Returns the number of output bytes written.  The streams are checked
    before the output file is made, and the output before any kernel work.
    Each chunk's output bytes are written as the chunk completes, and the
    mapped pages of both inputs behind the oldest chunk in flight are
    released, so memory does not grow with the stream length.  The one
    exception is an input that cannot be mapped (an empty file, a FIFO,
    ``/dev/stdin``), which is read whole.

    The input maps are not closed here: they unmap when their last
    reference goes.  On an error that is the traceback, whose frames may
    hold numpy views of a map, and closing a map with a live view raises
    ``BufferError`` in place of the error.
    """
    x = _read_input(x_path)
    y = _read_input(y_path)
    chunks = _chunks(job, x, y, workers)
    maps = [data for data in (x, y) if isinstance(data, mmap.mmap)]

    def pieces() -> Iterator[bytes]:
        released = 0
        for end, piece in chunks:
            # no chunk still to come reads a byte below this one's end
            released = _release(maps, released, end * job.spec.n // 8)
            yield piece

    with contextlib.closing(chunks):
        return write_atomic(out_path, pieces())
