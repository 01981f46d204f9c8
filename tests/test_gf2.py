import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bit_lists, bit_matrix, family_of, identity_matrix, transpose
from qextract.gf2 import (
    IRREDUCIBLE_POLY,
    WORD,
    BitMatrix,
    BitVector,
    FamilyConstructionError,
    MatrixFamily,
    _poly_gcd,
    build_circulant_family,
    build_family,
    build_field_family,
    irreducible,
    is_primitive_root_2,
    matvec_gf2,
    rank_gf2,
)


def naive_rank(rows_of_lists):
    """Independent rank oracle: elimination on explicit 0/1 lists."""
    m = [row[:] for row in rows_of_lists]
    if not m:
        return 0
    rank = 0
    cols = len(m[0])
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


class TestRank:
    def test_identity(self):
        assert rank_gf2(identity_matrix(8)) == 8

    def test_zero(self):
        assert rank_gf2(BitMatrix.zero(8, 8)) == 0

    def test_all_ones(self):
        ones = BitMatrix(4, 4, (0b1111,) * 4)
        assert rank_gf2(ones) == 1

    def test_input_not_modified(self):
        m = bit_matrix([[1, 1], [0, 1]])
        before = m.row_bits
        rank_gf2(m)
        assert m.row_bits == before

    def test_against_naive_oracle(self):
        rnd = random.Random(7)
        for _ in range(1000):
            rows = rnd.randrange(1, 33)
            cols = rnd.randrange(1, 33)
            lists = [[rnd.randrange(2) for _ in range(cols)] for _ in range(rows)]
            m = bit_matrix(lists)
            assert rank_gf2(m) == naive_rank(lists)

    def test_rank_equals_transpose_rank(self):
        rnd = random.Random(3)
        for _ in range(200):
            n = rnd.randrange(1, 17)
            m = BitMatrix(n, n, tuple(rnd.randrange(1 << n) for _ in range(n)))
            assert rank_gf2(m) == rank_gf2(transpose(m))


class TestMatvec:
    def test_identity(self):
        v = BitVector.from_bits([1, 0, 1, 1])
        assert matvec_gf2(identity_matrix(4), v) == v

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            matvec_gf2(identity_matrix(4), BitVector(3, 0b101))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 6 - 1), st.integers(0, 2 ** 6 - 1),
           st.lists(st.integers(0, 2 ** 6 - 1), min_size=6, max_size=6))
    def test_linearity(self, v, w, rows):
        m = BitMatrix(6, 6, tuple(rows))
        a, b = BitVector(6, v), BitVector(6, w)
        assert matvec_gf2(m, a ^ b) == matvec_gf2(m, a) ^ matvec_gf2(m, b)


def poly_mod(a, m):
    """Remainder of the GF(2) polynomial a modulo m, both coefficient masks."""
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


class TestPoly:
    def test_gcd_example(self):
        # gcd(x^2 + x, x) = x, by Euclid
        assert _poly_gcd(0b110, 0b10) == 0b10

    def test_irreducible_quadratic(self):
        assert irreducible(0b111)       # x^2 + x + 1: no roots in GF(2)
        assert not irreducible(0b101)   # x^2 + 1 = (x + 1)^2
        assert not irreducible(0b110)   # x^2 + x = x (x + 1)

    def test_table_entries_are_irreducible(self):
        assert set(IRREDUCIBLE_POLY) == set(range(1, 65))
        for n, mask in IRREDUCIBLE_POLY.items():
            assert mask.bit_length() - 1 == n
            assert irreducible(mask), f"degree {n} table entry is reducible"

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 16, 24, 32])
    def test_table_cross_checked_with_sympy(self, n):
        import sympy
        from sympy.abc import x

        mask = IRREDUCIBLE_POLY[n]
        coeffs = [(mask >> k) & 1 for k in range(n, -1, -1)]
        assert sympy.Poly(coeffs, x, domain=sympy.GF(2)).is_irreducible


class TestPrimitiveRoot:
    @pytest.mark.parametrize("n,expect", [(3, True), (5, True), (7, False),
                                          (11, True), (13, True), (17, False),
                                          (23, False), (29, True)])
    def test_examples(self, n, expect):
        assert is_primitive_root_2(n) is expect

    def test_composite_and_two(self):
        assert not is_primitive_root_2(9)
        assert not is_primitive_root_2(2)

    def test_brute_force_order_oracle(self):
        for n in range(3, 600, 2):
            if any(n % d == 0 for d in range(2, n)):
                continue
            seen = set()
            v = 2 % n
            while v not in seen:
                seen.add(v)
                v = (v * 2) % n
            assert is_primitive_root_2(n) is (len(seen) == n - 1)


class TestFieldFamily:
    def test_n1_m1(self):
        fam = build_field_family(1, 1)
        assert fam.r == 0 and bit_lists(fam.matrices[0]) == [[1]]

    def test_first_matrix_is_identity(self):
        fam = build_field_family(3, 2)
        assert fam.matrices[0].row_bits == identity_matrix(3).row_bits
        assert rank_gf2(fam.matrices[0]) == 3

    def test_n8_m8_exhaustive_full_rank(self):
        fam = build_field_family(8, 8)
        for s in range(1, 1 << 8):
            assert rank_gf2(fam.span(s)) == 8

    def test_certify(self):
        assert build_field_family(12, 6).certify()

    def test_large_n_sampled(self):
        assert build_field_family(64, 20).certify(max_exhaustive_m=0, samples=50)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 13, 31, 32, 33, 63, 64])
    def test_columns_are_alpha_powers(self, n):
        # column j of K_i is alpha^(i+j), reduced by an independent polynomial mod
        mod = IRREDUCIBLE_POLY[n]
        for m in sorted({1, min(2, n), max(1, n // 2), n}):
            fam = build_field_family(n, m)
            for i, k in enumerate(fam.matrices):
                want = tuple(poly_mod(1 << (i + j), mod) for j in range(n))
                assert transpose(k).row_bits == want

    def test_bad_sizes(self):
        with pytest.raises(FamilyConstructionError):
            build_field_family(8, 9)
        with pytest.raises(FamilyConstructionError):
            build_field_family(65, 2)


class TestCirculantFamily:
    def test_n3_m2_exhaustive(self):
        fam = build_circulant_family(3, 2)
        assert fam.matrices[0].row_bits == identity_matrix(3).row_bits
        for s in range(1, 4):
            assert rank_gf2(fam.span(s)) >= 2

    def test_n5_m3_exhaustive(self):
        fam = build_circulant_family(5, 3)
        for s in range(1, 8):
            assert rank_gf2(fam.span(s)) >= 4

    def test_not_prime(self):
        with pytest.raises(FamilyConstructionError, match="not prime"):
            build_circulant_family(4, 2)

    def test_not_primitive_root(self):
        with pytest.raises(FamilyConstructionError, match="primitive root"):
            build_circulant_family(7, 3)

    def test_full_m_rejected(self):
        # the all-ones selector at m = n spans the rank-1 all-ones matrix
        with pytest.raises(FamilyConstructionError, match="m <= n-1"):
            build_circulant_family(3, 3)

    def test_dispatch(self):
        assert build_family(5, 3, 1).construction == "circulant"
        assert build_family(5, 3, 0).construction == "field-mult"
        with pytest.raises(FamilyConstructionError):
            build_family(5, 3, 2)


class TestFamilySerialization:
    def test_round_trip_byte_for_byte(self):
        import json

        fam = build_circulant_family(5, 3)
        d = fam.to_json_dict()
        assert d == {"n": 5, "m": 3, "r": 1, "construction": "circulant"}
        assert list(d) == ["n", "m", "r", "construction"]
        back = MatrixFamily.from_json_dict(json.loads(json.dumps(d)))
        assert back.to_json_dict() == d
        assert json.dumps(back.to_json_dict()) == json.dumps(d)

    @pytest.mark.parametrize("n,m,r", [(3, 2, 1), (8, 8, 0), (61, 32, 1), (64, 32, 0),
                                       (64, 64, 0), (1019, 32, 1)])
    def test_loader_rebuilds_the_same_matrices(self, n, m, r):
        import json

        fam = build_family(n, m, r)
        text = json.dumps(fam.to_json_dict())
        assert len(text) < 80
        assert MatrixFamily.from_json_dict(json.loads(text)).matrices == fam.matrices

    def test_row_strings_column_order(self):
        fam = build_circulant_family(3, 2)
        # row k of the shift matrix has its 1 in column (k+1) mod 3
        assert bit_lists(fam.matrices[1]) == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

    @pytest.mark.parametrize("doc,match", [
        ({"n": 3, "m": 1, "r": 0, "construction": "field-mult",
          "matrices": [["000", "000", "000"]]}, "gen-family"),
        ({"n": 3, "m": 1, "r": 0, "construction": "field-mult",
          "matrices": [["1_0", "10+", " 11"]]}, "gen-family"),
        ({"n": 3, "m": 1, "r": 0}, "exactly the keys"),
        ({"n": 3, "m": 1, "r": 0, "construction": "field-mult", "x": 1}, "exactly the keys"),
        ([3, 1, 0, "field-mult"], "exactly the keys"),
        ({"n": 3, "m": 1, "r": 0, "construction": "nonsense"}, "not the r=0 construction"),
        ({"n": 5, "m": 2, "r": 1, "construction": "field-mult"}, "not the r=1 construction"),
        ({"n": True, "m": 1, "r": 0, "construction": "field-mult"}, "integers"),
        ({"n": 3.0, "m": 1, "r": 0, "construction": "field-mult"}, "integers"),
        ({"n": 3, "m": "1", "r": 0, "construction": "field-mult"}, "integers"),
        ({"n": 3, "m": 1, "r": None, "construction": "field-mult"}, "integers"),
        ({"n": 3, "m": 1, "r": 0, "construction": 0}, "string"),
        ({"n": 3, "m": 0, "r": 0, "construction": "field-mult"}, "1 <= m"),
        ({"n": 5, "m": -1, "r": 1, "construction": "circulant"}, "1 <= m"),
        ({"n": 3, "m": 1, "r": 2, "construction": "field-mult"}, "rank deficiency"),
        ({"n": 1000000007, "m": 1, "r": 1, "construction": "circulant"}, "cap"),
    ])
    def test_loader_rejects(self, doc, match):
        with pytest.raises(ValueError, match=match):
            MatrixFamily.from_json_dict(doc)


FAMILY_SHAPES = [(3, 2, 1), (8, 8, 0), (61, 32, 1), (64, 32, 0), (64, 64, 0), (1019, 32, 1)]


def word_rows(fam):
    """Row k of K_i as an int, read straight from the family's words."""
    return [[int.from_bytes(fam.words[i, k].tobytes(), "little") for k in range(fam.n)]
            for i in range(fam.m)]


class TestFamilyWords:
    """The row words a family is built as, against independent constructions."""

    @staticmethod
    def independent_rows(n, m, r):
        if r == 1:
            # row k of the i-th shift power has its one at column (k + i) mod n
            return [[1 << ((k + i) % n) for k in range(n)] for i in range(m)]
        # K_i e_j = alpha^(i+j): bit k of column j is entry (k, j)
        mod = IRREDUCIBLE_POLY[n]
        cols = [poly_mod(1 << t, mod) for t in range(n + m - 1)]
        return [[sum(((cols[i + j] >> k) & 1) << j for j in range(n)) for k in range(n)]
                for i in range(m)]

    @pytest.mark.parametrize("n,m,r", FAMILY_SHAPES)
    def test_words_match_an_independent_construction(self, n, m, r):
        fam = build_family(n, m, r)
        assert fam.words.shape == (m, n, -(-n // 64))
        assert not fam.words.flags.writeable
        assert word_rows(fam) == self.independent_rows(n, m, r)

    @pytest.mark.parametrize("n,m,r", FAMILY_SHAPES)
    def test_matrices_round_trip(self, n, m, r):
        fam = build_family(n, m, r)
        assert [list(k.row_bits) for k in fam.matrices] == word_rows(fam)
        back = family_of(n, r, fam.construction, fam.matrices)
        assert back == fam and hash(back) == hash(fam)
        assert back.matrices == fam.matrices

    def test_equality_reads_every_field(self):
        fam = build_circulant_family(5, 3)
        assert fam == build_family(5, 3, 1)
        assert fam != build_circulant_family(5, 2)
        assert fam != family_of(5, 1, "other", fam.matrices)
        flipped = list(fam.matrices)
        flipped[2] = flipped[2] ^ identity_matrix(5)
        assert fam != family_of(5, 1, "circulant", flipped)

    def test_bits_past_n_rejected(self):
        words = np.zeros((1, 3, 1), dtype=WORD)
        words[0, 1, 0] = 1 << 3
        with pytest.raises(ValueError, match="past column 3"):
            MatrixFamily(3, 1, 0, "x", words)
        with pytest.raises(ValueError, match="words"):
            MatrixFamily(3, 1, 0, "x", np.zeros((1, 3, 2), dtype=WORD))


class TestFamilyValidation:
    def test_empty_family_rejected(self):
        # extract_blocks divides by m, so m = 0 must never get that far
        with pytest.raises(ValueError, match="m >= 1"):
            MatrixFamily(3, 0, 0, "x", np.zeros((0, 3, 1), dtype=WORD))
        with pytest.raises(ValueError, match="n >= 1"):
            MatrixFamily(0, 1, 0, "x", np.zeros((1, 0, 0), dtype=WORD))

    def test_size_cap_before_any_work(self, monkeypatch):
        import qextract.gf2 as gf2

        def never(n):
            raise AssertionError("primality test ran on an over-cap size")

        monkeypatch.setattr(gf2, "is_prime", never)
        for n, m, r in [(1000000007, 1, 1), (10 ** 18 + 9, 0, 1), (65536, 1, 0),
                        (1020, 2100, 1)]:
            with pytest.raises(FamilyConstructionError, match="cap"):
                build_family(n, m, r)
        # every valid m for the largest circulant size in the docs stays in
        assert 1019 * 1019 * 1018 <= gf2.MAX_FAMILY_ENTRIES
