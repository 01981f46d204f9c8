"""GF(2) linear algebra on packed bit vectors.

Vectors and matrix rows are stored as Python integers interpreted as
little-endian bit masks: bit j of a vector is ``(bits >> j) & 1``.  All
public contracts are expressed in bits; the word-level packing is an
implementation detail of the integer type.  A matrix family is stored
once, as the rows of its matrices in little-endian uint64 words, the
form the extractor's stream kernel reads; its ``BitMatrix`` form is
derived from those words for the exact oracles.

Besides plain vector/matrix arithmetic, this module builds the matrix
families used by the multi-bit parity extractor: collections
``K_1, ..., K_m`` of n x n matrices such that every nonzero GF(2)
combination ``sum_i s_i K_i`` has rank at least ``n - r``.  Two
constructions are provided:

* ``build_field_family`` -- multiplication operators by powers of a
  generator of GF(2^n), giving a certified rank deficiency r = 0.
* ``build_circulant_family`` -- powers of the cyclic shift, giving r = 1
  whenever n is a prime with 2 as a primitive root.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

# one word of a packed matrix row: bit j of a row is bit j % 64 of word j // 64
WORD = np.dtype("<u8")


class FamilyConstructionError(ValueError):
    """Raised when a matrix family cannot be built for the given (n, m)."""


def _check_bits(n: int, bits: int) -> None:
    if n < 0:
        raise ValueError(f"bit length must be non-negative, got {n}")
    if bits < 0 or bits >> n:
        raise ValueError(f"bit pattern 0x{bits:x} does not fit in {n} bits")


@dataclass(frozen=True)
class BitVector:
    """Bit vector of fixed length with little-endian integer storage."""

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        _check_bits(self.n, self.bits)

    @classmethod
    def from_bits(cls, seq) -> "BitVector":
        bits = 0
        seq = list(seq)
        for j, b in enumerate(seq):
            if b:
                bits |= 1 << j
        return cls(len(seq), bits)

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise IndexError(j)
        return (self.bits >> j) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        return BitVector(self.n, self.bits ^ other.bits)

    def to_list(self) -> list[int]:
        return [(self.bits >> j) & 1 for j in range(self.n)]

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.to_list())


@dataclass(frozen=True)
class BitMatrix:
    """Dense matrix over GF(2); rows stored as little-endian bit masks."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.row_bits) != self.rows:
            raise ValueError("row count does not match storage")
        for r in self.row_bits:
            _check_bits(self.cols, r)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(idx)
        return (self.row_bits[i] >> j) & 1

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return BitMatrix(self.rows, self.cols,
                         tuple(a ^ b for a, b in zip(self.row_bits, other.row_bits)))


def rank_gf2(m: BitMatrix) -> int:
    """GF(2) rank via Gaussian elimination on a copy; input is not modified."""
    work = list(m.row_bits)
    rank = 0
    for col in range(m.cols):
        pivot = None
        for r in range(rank, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and ((work[r] >> col) & 1):
                work[r] ^= work[rank]
        rank += 1
        if rank == len(work):
            break
    return rank


def matvec_gf2(m: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product over GF(2): word-AND plus parity per row."""
    if m.cols != v.n:
        raise ValueError(f"dimension mismatch: matrix has {m.cols} columns, vector {v.n} bits")
    bits = 0
    for i, row in enumerate(m.row_bits):
        bits |= ((row & v.bits).bit_count() & 1) << i
    return BitVector(m.rows, bits)


# ---------------------------------------------------------------------------
# Polynomials over GF(2), as little-endian coefficient masks


def _poly_mulmod(a: int, b: int, mod: int, n: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> n) & 1:
            a ^= mod
    return r


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_gcd(a: int, b: int) -> int:
    """Euclidean gcd of two GF(2) polynomials."""
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def irreducible(p: int) -> bool:
    """Rabin irreducibility test over GF(2) of the polynomial with
    coefficient mask ``p``."""
    n = p.bit_length() - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if not p & 1:
        return False  # divisible by x

    def x_pow_pow2(k: int) -> int:
        r = 0b10
        for _ in range(k):
            r = _poly_mulmod(r, r, p, n)
        return r

    if x_pow_pow2(n) != 0b10:
        return False
    return all(_poly_gcd(p, x_pow_pow2(n // q) ^ 0b10) == 1 for q in _prime_factors(n))


# Lowest-weight irreducible polynomial of each degree (smallest trinomial,
# else smallest pentanomial), little-endian coefficient masks.
IRREDUCIBLE_POLY: dict[int, int] = {
    1: 0x3, 2: 0x7, 3: 0xb, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83,
    8: 0x11b, 9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201b,
    14: 0x4021, 15: 0x8003, 16: 0x1002b, 17: 0x20009, 18: 0x40009,
    19: 0x80027, 20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021,
    24: 0x100001b, 25: 0x2000009, 26: 0x400001b, 27: 0x8000027,
    28: 0x10000003, 29: 0x20000005, 30: 0x40000003, 31: 0x80000009,
    32: 0x10000008d, 33: 0x200000401, 34: 0x400000081, 35: 0x800000005,
    36: 0x1000000201, 37: 0x2000000053, 38: 0x4000000063, 39: 0x8000000011,
    40: 0x10000000039, 41: 0x20000000009, 42: 0x40000000081,
    43: 0x80000000059, 44: 0x100000000021, 45: 0x20000000001b,
    46: 0x400000000003, 47: 0x800000000021, 48: 0x100000000002d,
    49: 0x2000000000201, 50: 0x400000000001d, 51: 0x800000000004b,
    52: 0x10000000000009, 53: 0x20000000000047, 54: 0x40000000000201,
    55: 0x80000000000081, 56: 0x100000000000095, 57: 0x200000000000011,
    58: 0x400000000080001, 59: 0x800000000000095, 60: 0x1000000000000003,
    61: 0x2000000000000027, 62: 0x4000000020000001, 63: 0x8000000000000003,
    64: 0x1000000000000001b,
}


# ---------------------------------------------------------------------------
# Matrix families


@dataclass(frozen=True, eq=False)
class MatrixFamily:
    """Family of m n x n matrices with certified rank deficiency r.

    Invariant: for every nonzero s in {0,1}^m the GF(2) span
    ``sum_i s_i K_i`` has rank >= n - r.

    ``words[i, k]`` is row k of K_i as ceil(n/64) words of type
    :data:`WORD`, with entry (k, j) at bit j of the row and zeros past
    bit n.  The array is read-only.
    """

    n: int
    m: int
    r: int
    construction: str
    words: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"family needs n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        shape = (self.m, self.n, -(-self.n // 64))
        if self.words.dtype != WORD or self.words.shape != shape:
            raise ValueError(f"family words must be an array of {shape} {WORD} words")
        # the stream kernel ANDs whole words of K_i^T x with y, so the bits
        # past n must be zero
        if self.n % 64 and (self.words[..., -1] >> np.uint64(self.n % 64)).any():
            raise ValueError(f"family rows have bits past column {self.n}")
        self.words.flags.writeable = False

    @functools.cached_property
    def matrices(self) -> tuple[BitMatrix, ...]:
        """The family as BitMatrix values, derived from the words on first use."""
        row_bytes = 8 * self.words.shape[2]
        out = []
        for k in self.words:
            raw = k.tobytes()
            out.append(BitMatrix(self.n, self.n, tuple(
                int.from_bytes(raw[lo:lo + row_bytes], "little")
                for lo in range(0, len(raw), row_bytes))))
        return tuple(out)

    def _key(self) -> tuple:
        return self.n, self.m, self.r, self.construction

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key() and np.array_equal(self.words, other.words)

    def __hash__(self) -> int:
        return hash((self._key(), self.words.tobytes()))

    def span(self, s: int) -> BitMatrix:
        """The combination sum over set bits of s of the family matrices."""
        if s <= 0 or s >> self.m:
            raise ValueError(f"selector must be a nonzero {self.m}-bit pattern")
        acc = BitMatrix.zero(self.n, self.n)
        for i in range(self.m):
            if (s >> i) & 1:
                acc = acc ^ self.matrices[i]
        return acc

    def certify(self, max_exhaustive_m: int = 16, samples: int = 200, seed: int = 0) -> bool:
        """Check the rank invariant, exhaustively for m <= max_exhaustive_m.

        Larger families are checked on pseudo-random nonzero selectors.
        """
        if self.m <= max_exhaustive_m:
            selectors = range(1, 1 << self.m)
        else:
            import random

            rng = random.Random(seed)
            selectors = (rng.randrange(1, 1 << self.m) for _ in range(samples))
        return all(rank_gf2(self.span(s)) >= self.n - self.r for s in selectors)

    def to_json_dict(self) -> dict:
        """The family's name: the loader rebuilds the matrices from it."""
        return {"n": self.n, "m": self.m, "r": self.r, "construction": self.construction}

    @classmethod
    def from_json_dict(cls, d: dict) -> "MatrixFamily":
        """The family that ``d`` names, rebuilt by :func:`build_family`.

        A file lists no matrices: the construction is the rank proof.
        """
        keys = ("n", "m", "r", "construction")
        if not isinstance(d, dict) or set(d) != set(keys):
            missing = [k for k in keys if k not in d] if isinstance(d, dict) else []
            raise ValueError("a family file has exactly the keys n, m, r and construction"
                             + "".join(f", missing field {k!r}" for k in missing)
                             + " (regenerate a file that lists matrices with gen-family)")
        n, m, r, construction = d["n"], d["m"], d["r"], d["construction"]
        if any(type(v) is not int for v in (n, m, r)) or not isinstance(construction, str):
            raise ValueError(f"family n, m, r must be integers and its construction a "
                             f"string, got {n!r}, {m!r}, {r!r}, {construction!r}")
        fam = build_family(n, m, r)
        if construction != fam.construction:
            raise ValueError(f"construction {construction!r} is not the r={r} "
                             f"construction {fam.construction!r}")
        return fam


# largest n * n * m that build_family accepts: the extractor's row table
# takes about n^2 m / 2 bytes, so this caps it at 1 GiB
MAX_FAMILY_ENTRIES = 2 ** 31


def build_field_family(n: int, m: int) -> MatrixFamily:
    """Family with r = 0: K_i is multiplication by alpha^(i-1) in GF(2^n).

    alpha is a root of the shipped irreducible polynomial of degree n and
    the matrices act on coordinates in the polynomial basis 1, alpha, ...,
    alpha^(n-1).  Any nonzero combination is multiplication by a nonzero
    field element and hence invertible.
    """
    if not 1 <= m <= n:
        raise FamilyConstructionError(f"need 1 <= m <= n, got m={m}, n={n}")
    if n not in IRREDUCIBLE_POLY:
        raise FamilyConstructionError(f"no irreducible polynomial shipped for degree {n}")
    mod = IRREDUCIBLE_POLY[n]
    # alpha^t for t = 0 .. n+m-2, as coefficient masks in the basis
    powers = [1]
    for _ in range(n + m - 2):
        a = powers[-1] << 1
        if (a >> n) & 1:
            a ^= mod
        powers.append(a)
    # hankel[k, t] is bit k of alpha^t.  Column j of K_i holds alpha^(i+j),
    # so row k of K_i is hankel[k, i:i+n], a window of row k of hankel.
    bits = np.unpackbits(np.array(powers, dtype=WORD).view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")
    hankel = np.ascontiguousarray(bits[:, :n].T)
    windows = np.lib.stride_tricks.sliding_window_view(hankel, n, axis=1)
    words = np.zeros((n, m, 8), dtype=np.uint8)
    words[..., :-(-n // 8)] = np.packbits(windows, axis=2, bitorder="little")
    return MatrixFamily(n, m, 0, "field-mult", words.transpose(1, 0, 2).copy().view(WORD))


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def is_primitive_root_2(n: int) -> bool:
    """True iff n is prime and 2 generates the multiplicative group mod n."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not is_prime(n) or n == 2:
        return False
    # the order of 2 divides n - 1; it is n - 1 unless it divides (n - 1) / q
    return all(pow(2, (n - 1) // q, n) != 1 for q in _prime_factors(n - 1))


def build_circulant_family(n: int, m: int) -> MatrixFamily:
    """Family with r = 1: K_i is the (i-1)-th power of the cyclic shift.

    Requires n prime with 2 as a primitive root mod n, so that
    x^n - 1 = (x + 1) * Phi with Phi irreducible over GF(2).  Any nonzero
    combination is a circulant whose polynomial s(x) has degree < n - 1,
    hence gcd(s, x^n - 1) divides x + 1 and the rank is at least n - 1.
    The degree bound forces m <= n - 1: for m = n the all-ones selector
    would give the rank-1 all-ones matrix.
    """
    if not is_prime(n):
        raise FamilyConstructionError(f"n={n} is not prime")
    if not is_primitive_root_2(n):
        raise FamilyConstructionError(f"2 is not a primitive root mod {n}")
    if not 1 <= m <= n - 1:
        raise FamilyConstructionError(
            f"need 1 <= m <= n-1 for the rank certificate, got m={m}, n={n}")
    # row k of C^i has its single 1 at column (k + i) mod n
    i, k = np.arange(m)[:, None], np.arange(n)
    col = (i + k) % n
    words = np.zeros((m, n, -(-n // 64)), dtype=WORD)
    words[i, k, col >> 6] = np.uint64(1) << (col & 63).astype(WORD)
    return MatrixFamily(n, m, 1, "circulant", words)


def build_family(n: int, m: int, r: int) -> MatrixFamily:
    """Dispatch on the requested rank deficiency r in {0, 1}; sizes over
    ``MAX_FAMILY_ENTRIES`` are rejected before any work that grows with n."""
    # max(m, 1): an m <= 0 must not let a huge n through to is_prime
    if n * n * max(m, 1) > MAX_FAMILY_ENTRIES:
        raise FamilyConstructionError(
            f"family of {m} {n}x{n} matrices exceeds the cap of "
            f"{MAX_FAMILY_ENTRIES} entries")
    if r == 0:
        return build_field_family(n, m)
    if r == 1:
        return build_circulant_family(n, m)
    raise FamilyConstructionError(f"unsupported rank deficiency r={r}")
