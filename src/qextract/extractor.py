"""Block and stream evaluation of the parity extractors.

Two extractors are provided, each with an exact block-level oracle:

* ``ip_extract`` -- the inner product mod 2 of two n-bit blocks, one
  output bit per block pair.
* ``deor_extract`` -- the multi-bit variant: output bit i is
  ``x^T K_i y`` for the matrices of a :class:`~qextract.gf2.MatrixFamily`.

``ExtractorSpec.apply_ints`` is the per-pair oracle on integer blocks.
``output_table`` runs the stream kernel over every pair of n-bit blocks
and returns the table of outputs, so that the exact bound checks measure
the bytes ``extract_blocks`` writes.

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
* Strong mode, any n and m: one word-level writer.  A group of 64
  blocks is n words of y and m words of extractor bits, packed as weak
  mode writes them: one source row of n + m words, whose output is
  n + m words.  Output bit o of the group's block j is row bit o - j n
  (an extractor bit) or o + m (63 - j) (a y bit), so each output word
  is the OR of a few shifted and masked funnels of two row words.  A
  plan per job, read-only like the IP plan, places them.  When most
  output words are whole words of y at one row offset (IP at n = 1024),
  one run moves them with slices and a per-word shift array.  Every
  other word is the OR of its pieces, gathered for all groups at once
  by fancy indexing.  Nothing is unpacked, and no array holds a byte
  per output bit.

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
import functools
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
        """The per-pair oracle: the output z of blocks given as
        little-endian integers, from ``ip_extract``'s formula or
        ``deor_extract``."""
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
# span, the K_i^T x words of a matrix family, or the strong writer's source
# rows and output, which it holds together.
CHUNK_BYTES = 1 << 20
# A thread pool pays only when each thread gets this many chunks.  On 2
# cores (numpy 2.4.6; extract_blocks in memory, two measurements, medians
# of 21 and of 31 alternating runs), 2 threads ran jobs of 8 chunks at
# 0.76-1.13x the speed of 1 (IP n=1024 and 1023; strong n=1024, 4,032-block
# chunks), of 16 chunks at 1.00-1.08x (IP) and 0.95-1.19x (strong), and of
# 24 chunks at 0.95-1.26x (IP) and 1.00-1.21x (strong); from 32 chunks on,
# 1.12-1.50x.  Pool start-up and the hand-off of each chunk outweigh the
# second core below about 16 chunks for both kinds of job.
MIN_CHUNKS_PER_THREAD = 12
# Chunks in flight per thread: each thread has a chunk queued behind the one
# it runs while the calling thread writes the oldest.  On 2 cores, windows
# of 2 to 8 chunks per thread timed the same on IP and strong jobs.
WINDOW_PER_THREAD = 2


def _low(bits: np.ndarray) -> np.ndarray:
    """The masks of the low ``bits`` bits of a word, for bits in [0, 64]."""
    # numpy defines a shift by 64 as 0, so 64 bits is 0 - 1, every bit
    return (np.uint64(1) << bits.astype(WORD)) - np.uint64(1)


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
    low = _low(t & 63)
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


@dataclass(frozen=True)
class _Weave:
    """The strong writer's plan for n-bit blocks with m extractor bits,
    the same for every chunk of a job.

    A chunk is read as groups of 64 blocks.  A group's source row is
    n + m words: its blocks' extractor bits packed as weak mode packs
    them (m words), then its y bits (n words).  Its output is n + m words
    as well, and output word k is the OR, over the segments that meet it
    (a block's extractor bits or its y bits), of a funnel of row words
    ``(row[a] >> r) | (row[a + 1] << 64 - r)`` masked to the segment.

    When most words of the output are whole words of y, all at one row
    offset a - k (as when m = 1), output words 0 to len(run_right) - 1
    are one run: the whole funnels of row words k + ``offset`` and the
    next, shifted by ``run_right`` and ``run_left`` = 64 - run_right.
    The run spans the pieced words, which are written again.  Otherwise
    the run is empty and every word is pieced.  The pieced words and
    every word outside the run are ``words``, in order.  Their pieces are
    ``at`` (row word a, as column a + 1 of the writer's row view),
    ``right``, ``left`` and ``mask``, each a (layers, len(words)) grid
    flattened: piece i of ``words[c]`` is at row i, column c, and a word
    with fewer pieces is padded with empty ones.  ``group_words`` is what
    the writer holds at once per group, in words: the source row, and
    the output row or the two arrays of pieces, whichever is larger.  The
    arrays are read-only: pool threads share them."""

    offset: int
    run_right: np.ndarray
    run_left: np.ndarray
    words: np.ndarray
    at: np.ndarray
    right: np.ndarray
    left: np.ndarray
    mask: np.ndarray
    layers: int
    group_words: int


def _weave(n: int, m: int) -> _Weave:
    w = n + m
    # the 128 segments of a group's output in order, block j's m extractor
    # bits at output bit j w and then its n y bits: the output bit where
    # each starts, its length and the row bit where it starts
    j, y = np.arange(128) >> 1, np.arange(128) & 1
    size = m + y * (n - m)
    lo = j * w + y * m
    first = j * size + y * 64 * m
    # one piece per segment and output word that meet, in word order
    span = (lo + size - 1 >> 6) - (lo >> 6) + 1
    seg = np.arange(128).repeat(span)
    k = np.arange(len(seg)) + (lo >> 6).repeat(span) - (span.cumsum() - span).repeat(span)
    bottom = lo[seg] - 64 * k
    p = first[seg] - bottom  # row bit under bit 0 of word k, >= -63
    at, right = p >> 6, (p & 63).astype(WORD)
    top = np.minimum(bottom + size[seg], 64)
    np.maximum(bottom, 0, out=bottom)
    mask = _low(top) & ~_low(bottom)
    # one run when most words are whole words of y at one row offset; it
    # ends where its last funnel reads the row's last word
    whole = top - bottom == 64
    offsets = at[whole] - k[whole]
    one = 2 * len(offsets) > w and (offsets == offsets[0]).all()
    run = whole if one else np.zeros_like(whole)
    offset = int(offsets[0]) if one else 0
    run_right = np.zeros(w - offset if one else 0, dtype=WORD)
    run_right[k[run]] = right[run]
    # the other words: their pieces in word order, padded with empty
    # pieces, which read row word 0 and keep none of it
    k, at, right, mask = k[~run], at[~run], right[~run], mask[~run]
    per_word = np.bincount(k, minlength=w)
    words = np.flatnonzero(per_word)
    per_word = per_word[words]
    layers = int(per_word.max())
    cell = (np.arange(len(k)) - (per_word.cumsum() - per_word).repeat(per_word),
            np.arange(len(words)).repeat(per_word))

    def grid(values: np.ndarray) -> np.ndarray:
        g = np.zeros((layers, len(words)), dtype=values.dtype)
        g[cell] = values
        return g.ravel()

    at, right = grid(at + 1), grid(right)
    weave = _Weave(offset, run_right, np.uint64(64) - run_right, words, at, right,
                   np.uint64(64) - right, grid(mask), layers, w + max(w, 2 * len(at)))
    for a in (weave.run_right, weave.run_left, words, at, right, weave.left, weave.mask):
        a.setflags(write=False)
    return weave


def _fill(rows: np.ndarray, data: np.ndarray) -> None:
    """Copy ``data`` into the rows of a 2-D byte array in order."""
    width = rows.shape[1]
    full, tail = divmod(len(data), width)
    rows[:full] = data[:full * width].reshape(full, width)
    if tail:
        rows[full, :tail] = data[full * width:]


def _strong_words(weave: _Weave, z: np.ndarray, ys: np.ndarray, count: int,
                  n: int, m: int) -> memoryview:
    """Strong output bytes of ``count`` blocks from their packed extractor
    bits ``z`` and the byte-aligned y span ``ys``."""
    w, groups = n + m, -(-count // 64)
    # the source rows back to back, between two spare words; a row view
    # that starts one word early reads row word a at column a + 1.  The
    # spare words and the row bytes past z and ys are left unset: every
    # output bit they reach is masked off or lies past the last block.
    src = np.empty(groups * w + 2, dtype=WORD)
    body = src[1:-1].view(np.uint8).reshape(groups, 8 * w)
    _fill(body[:, :8 * m], z)
    _fill(body[:, 8 * m:], ys)
    # row g of this view is every word its funnels read: the word before
    # it (a spare word or the last of row g - 1), its w words, and the
    # word after it
    rows = np.lib.stride_tricks.as_strided(src, (groups, w + 2), (8 * w, 8))
    pieces = rows[:, weave.at]
    pieces >>= weave.right
    high = rows[:, weave.at + 1]
    high <<= weave.left
    pieces |= high
    pieces &= weave.mask
    out = np.bitwise_or.reduce(pieces.reshape(groups, weave.layers, -1), axis=1)
    r = len(weave.run_right)
    if r:
        # every word not in the run is pieced; the rows are read no more,
        # so the run shifts the second word of each funnel in place
        # (columns c + 1 to c + r of two rows are different words, r <= w)
        pieced, out = out, np.empty((groups, w), dtype=WORD)
        c = weave.offset + 1
        np.right_shift(rows[:, c:c + r], weave.run_right, out=out[:, :r])
        high = rows[:, c + 1:c + 1 + r]
        high <<= weave.run_left
        out[:, :r] |= high
        out[:, weave.words] = pieced
    # the bits past the last block are not output
    nbits = count * w
    piece = out.reshape(-1).view(np.uint8)[:(nbits + 7) // 8]
    if nbits % 8:
        piece[-1] &= (1 << nbits % 8) - 1
    return memoryview(piece)


def _chunk_blocks(job: ExtractionJob, weave: _Weave | None) -> int:
    """Blocks per chunk: a multiple of 8, so that every chunk starts on a
    byte of input and of output, and at most CHUNK_BYTES of its largest
    array (at least 8 blocks).  The kernel arrays take 8 bytes per block
    and word of a block, times m for a family.  The strong writer holds
    ``weave.group_words`` words per 64 blocks at once, its source rows and
    its output, about (n + m) / 4 bytes per block when n is large; a
    strong chunk is capped by those together and is whole groups of 64
    blocks when one fits (4,032 blocks at n = 1024).  Capped by one of
    them (8,128 blocks), a chunk's 2 MiB and ``write_atomic``'s 2 MiB
    buffer passed glibc's 4 MiB heap trim threshold, so every warm call
    gave its heap back and faulted 567-1,090 pages in again.  An IP job
    holds one plan for this many blocks, once per job: at most 17 bytes
    per block, 8 when n is a multiple of 64 (64 KiB at n = 1024)."""
    spec = job.spec
    group = 512 * -(-spec.n // 64) * (spec.m if spec.kind == DEOR else 1)
    if weave is not None:
        group = max(group, 8 * weave.group_words)
    blocks = 64 * CHUNK_BYTES // group
    step = 64 if weave is not None and blocks >= 64 else 8
    return max(8, blocks // step * step)


def _extract_chunk(job: ExtractionJob,
                   plan: _IpPlan | np.ndarray | tuple[_IpPlan | np.ndarray, _Weave],
                   x: bytes, y: bytes, start: int, count: int) -> memoryview:
    """Output bytes of ``count`` blocks from block ``start``; ``plan`` is the
    job's IP plan or its family's row table, paired with the writer's plan
    in a strong job."""
    n, m = job.spec.n, job.spec.m
    lo, nbytes = start * n // 8, (count * n + 7) // 8
    xs = np.frombuffer(x, dtype=np.uint8, count=nbytes, offset=lo)
    ys = np.frombuffer(y, dtype=np.uint8, count=nbytes, offset=lo)
    kernel, weave = plan if job.strong else (plan, None)
    if isinstance(kernel, _IpPlan):
        bits = _ip_bits(xs, ys, count, kernel)
    else:
        bits = _family_bits(kernel, xs, ys, count, n)
    z = np.packbits(bits, axis=None, bitorder="little")
    if weave is not None:
        return _strong_words(weave, z, ys, count, n, m)
    return memoryview(z)


def _check_stream(which: str, data: bytes, blocks: int, n: int) -> None:
    have_bits = 8 * len(data)
    need_bits = blocks * n
    if have_bits < need_bits:
        raise TruncatedStreamError(which, have_bits // n, need_bits, have_bits)


def _chunks(job: ExtractionJob, x: bytes, y: bytes,
            workers: int) -> Iterator[tuple[int, memoryview]]:
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
                workers: int) -> Iterator[tuple[int, memoryview]]:
    if job.blocks == 0:
        return
    weave = _weave(job.spec.n, job.spec.m) if job.strong else None
    chunk = _chunk_blocks(job, weave)
    if job.spec.kind == DEOR:
        plan = row_table(job.spec.family)
    else:
        plan = _ip_plan(job.spec.n, min(chunk, job.blocks))
    if weave is not None:
        plan = plan, weave
    starts = range(0, job.blocks, chunk)

    def run(start: int) -> tuple[int, memoryview]:
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


# the bound suites measure epsilon through 10 specs: IP at n = 1 to 4 and
# six families
@functools.lru_cache(maxsize=16)
def output_table(spec: ExtractorSpec) -> np.ndarray:
    """The stream kernel's output z for every pair of n-bit blocks, as a
    read-only (2^n, 2^n) int64 table indexed by [x, y].

    One weak ``extract_blocks`` job on one worker runs over all 4^n pairs
    in x-major order, packed as the stream format says, and each block's
    m output bits are read back LSB-first.  The table grows as 4^n, so it
    is meant for the small n of the exact bound checks.  It is built once
    per spec while the spec stays among the 16 most recently used.  Specs
    compare their family by value: ``MatrixFamily`` equality reads (n, m,
    r, construction, words) and its hash reads the words, so equal
    families built apart share one entry.
    """
    n, m = spec.n, spec.m
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    x = np.packbits(np.repeat(bits, 2 ** n, axis=0), axis=None, bitorder="little")
    y = np.packbits(np.tile(bits, (2 ** n, 1)), axis=None, bitorder="little")
    out = extract_blocks(ExtractionJob(spec, 4 ** n), x.tobytes(), y.tobytes())
    z = np.unpackbits(np.frombuffer(out, dtype=np.uint8), count=4 ** n * m,
                      bitorder="little").reshape(-1, m)
    table = (z.astype(np.int64) << np.arange(m)).sum(axis=1).reshape(2 ** n, 2 ** n)
    table.setflags(write=False)
    return table


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


def write_atomic(path: str, pieces: Iterable[bytes | memoryview]) -> int:
    """Write the concatenation of ``pieces`` to ``path`` through a temporary
    file in the same directory and one rename, so that a failure leaves no
    partial output.  Returns the number of bytes written.

    The output is readable by its owner only (mode 0600), whatever the
    umask: ``tempfile.mkstemp`` makes the temporary file so and the rename
    keeps its mode, also over an existing file of another mode.  Extracted
    bits are secret randomness, so this is deliberate.

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
            # calls then take from the heap.  Without it, IP n=1024 jobs
            # on 2 threads ran 5% slower (extract-aligned, 5 of 6 pairs)
            # and strong n=1024 ones faulted 230-290 pages a call, not 40
            # (2-vCPU VM).
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
