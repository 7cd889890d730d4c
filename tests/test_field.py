"""Field arithmetic against independent carry-less/extended-Euclid oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfcsim.field import DEFAULT_POLYNOMIALS, FieldSpec
from reference_solve import RankDeficient, gaussian_solve, matrix_rank


# -- independent oracles ----------------------------------------------------

def clmul_oracle(a: int, b: int) -> int:
    """Bit-by-bit carry-less product, no reduction."""
    acc = 0
    for bit in range(b.bit_length()):
        if (b >> bit) & 1:
            acc ^= a << bit
    return acc


def reduce_oracle(x: int, poly: int) -> int:
    """Polynomial long division remainder."""
    deg = poly.bit_length() - 1
    while x.bit_length() - 1 >= deg:
        x ^= poly << (x.bit_length() - 1 - deg)
    return x


def mul_oracle(a: int, b: int, poly: int) -> int:
    return reduce_oracle(clmul_oracle(a, b), poly)


def inv_oracle(a: int, poly: int) -> int:
    """Extended Euclid over GF(2)[x]."""
    def divmod_poly(num: int, den: int) -> tuple[int, int]:
        q = 0
        dden = den.bit_length() - 1
        while num.bit_length() - 1 >= dden and num:
            shift = num.bit_length() - 1 - dden
            q ^= 1 << shift
            num ^= den << shift
        return q, num

    r0, r1 = poly, a
    s0, s1 = 0, 1
    while r1 != 0:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ clmul_oracle(q, s1)
    assert r0 == 1, "not coprime"
    return reduce_oracle(s0, poly)


def gf2_rank_oracle(rows: list[int], n_cols: int) -> int:
    """Row reduction on bitmask rows."""
    rank = 0
    rows = list(rows)
    for col in range(n_cols):
        pivot = None
        for i in range(rank, len(rows)):
            if (rows[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> col) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


GF256 = FieldSpec(8)
GF2 = FieldSpec(1)
GF16 = FieldSpec(4)


def elements(field: FieldSpec, *values: int) -> np.ndarray:
    return np.array(values, dtype=field.dtype)


def test_add_is_xor():
    """combine adds its products by XOR: unit coefficients sum the rows."""
    assert GF256.combine(elements(GF256, 1, 1), elements(GF256, 0x57, 0x83)[:, None]).tolist() == [0xD4]
    for a in (0, 1, 77, 255):
        assert GF256.combine(elements(GF256, 1, 1), elements(GF256, a, a)[:, None]).tolist() == [0]
        assert GF256.combine(elements(GF256, 1, 1), elements(GF256, a, 0)[:, None]).tolist() == [a]


def test_mul_known_value_and_oracle():
    assert GF256.mul_arrays(elements(GF256, 0x57), elements(GF256, 0x83)).tolist() == [0xC1]
    assert mul_oracle(0x57, 0x83, 0x11B) == 0xC1
    rng = np.random.default_rng(1)
    a, b = GF256.random_elements(rng, 500), GF256.random_elements(rng, 500)
    assert GF256.mul_arrays(a, b).tolist() == [mul_oracle(x, y, 0x11B) for x, y in zip(a.tolist(), b.tolist())]


def test_mul_identities():
    a = np.arange(256, dtype=np.uint8)
    assert np.array_equal(GF256.mul_arrays(a, elements(GF256, 1)), a)
    assert not GF256.mul_arrays(a, elements(GF256, 0)).any()


def test_inverse_known_value():
    assert GF256.inv_arrays(elements(GF256, 0x53)).tolist() == [inv_oracle(0x53, 0x11B)] == [0xCA]
    assert GF256.mul_arrays(elements(GF256, 0x53), GF256.inv_arrays(elements(GF256, 0x53))).tolist() == [1]
    assert GF256.inv_arrays(elements(GF256, 1)).tolist() == [1]
    assert GF2.inv_arrays(elements(GF2, 1)).tolist() == [1]


def test_inverse_of_zero_maps_to_zero():
    """A zero entry has no inverse; it reads the zero tail, and its
    neighbours still invert."""
    assert GF256.inv_arrays(elements(GF256, 0, 0x53, 0)).tolist() == [0, 0xCA, 0]
    assert GF2.inv_arrays(elements(GF2, 0, 1)).tolist() == [0, 1]


def test_field_axioms_exhaustive_gf16():
    q = GF16.order
    a, b, c = np.meshgrid(*[np.arange(q, dtype=GF16.dtype)] * 3, indexing="ij")
    mul = GF16.mul_arrays
    assert np.array_equal(mul(a, b), mul(b, a))
    assert np.array_equal(mul(a, mul(b, c)), mul(mul(a, b), c))
    assert np.array_equal((a ^ b) ^ c, a ^ (b ^ c))
    assert np.array_equal(mul(a, b ^ c), mul(a, b) ^ mul(a, c))
    nonzero = np.arange(1, q, dtype=GF16.dtype)
    assert np.all(mul(nonzero, GF16.inv_arrays(nonzero)) == 1)
    assert mul(a[:, :, 0], b[:, :, 0]).tolist() == [[mul_oracle(x, y, GF16.reduction_polynomial)
                                                      for y in range(q)] for x in range(q)]
    assert GF16.inv_arrays(nonzero).tolist() == [inv_oracle(x, GF16.reduction_polynomial) for x in range(1, q)]


def test_field_axioms_random_gf256():
    rng = np.random.default_rng(2)
    a, b, c = GF256.random_elements(rng, (3, 10_000))
    mul = GF256.mul_arrays
    assert np.array_equal(mul(a, mul(b, c)), mul(mul(a, b), c))
    assert np.array_equal(mul(a, b ^ c), mul(a, b) ^ mul(a, c))


def test_default_polynomials_all_construct():
    for m in range(1, 17):
        f = FieldSpec(m)
        assert f.order == 1 << m
        if m > 1:
            a = elements(f, f.order - 1)
            assert f.mul_arrays(a, f.inv_arrays(a)).tolist() == [1]


def test_reducible_polynomial_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    with pytest.raises(ValueError):
        FieldSpec(4, 0b10101)
    with pytest.raises(ValueError):
        FieldSpec(8, DEFAULT_POLYNOMIALS[9])  # wrong degree


@pytest.mark.parametrize("poly", [-5, -7, -0x11B])
def test_negative_polynomial_rejected(poly):
    # -5 and -7 have the bit length of a degree-2 polynomial; neither may reach the table search
    with pytest.raises(ValueError, match=f"reduction polynomial {poly} is negative"):
        FieldSpec(2, poly)


def test_field_specs_are_values_of_degree_and_polynomial():
    a, b = FieldSpec(8), FieldSpec(8, DEFAULT_POLYNOMIALS[8])
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    other = FieldSpec(8, 0x11D)
    assert other != a and len({a, other}) == 2
    assert repr(other) == "FieldSpec(m=8, reduction_polynomial=0x11D)"


@pytest.mark.parametrize("value", [1.5, 255.9, float("nan")])
def test_validate_array_rejects_values_that_are_not_whole(value):
    f = FieldSpec(8)
    with pytest.raises(ValueError, match="whole"):
        f.validate_array(np.array([1.0, value]))
    with pytest.raises(ValueError, match="whole"):
        gaussian_solve(f, np.array([[value]]), np.array([[1]]))


def test_validate_array_keeps_whole_floats_and_bools():
    f = FieldSpec(8)
    assert f.validate_array(np.array([3.0, 255.0])).tolist() == [3, 255]
    assert f.validate_array(np.array([True, False])).tolist() == [1, 0]
    assert f.validate_array(np.array([3.0])).dtype == np.uint8


def test_large_field_shift_reduce_path():
    f = FieldSpec(12)
    rng = np.random.default_rng(3)
    a = rng.integers(1, f.order, size=200).astype(f.dtype)
    b = f.random_elements(rng, 200)
    assert f.mul_arrays(a, b).tolist() == [mul_oracle(x, y, f.reduction_polynomial)
                                           for x, y in zip(a.tolist(), b.tolist())]
    assert np.all(f.mul_arrays(a, f.inv_arrays(a)) == 1)


def test_vectorized_ops_match_scalar():
    """mul_arrays and combine against the scalar carry-less oracle."""
    rng = np.random.default_rng(4)
    x = GF256.random_elements(rng, 64)
    y = GF256.random_elements(rng, 64)
    prod = GF256.mul_arrays(x, y)
    for i in range(64):
        assert prod[i] == mul_oracle(int(x[i]), int(y[i]), 0x11B)
    coeffs = GF256.random_elements(rng, 5)
    rows = GF256.random_elements(rng, (5, 13))
    combined = GF256.combine(coeffs, rows)
    for j in range(13):
        acc = 0
        for i in range(5):
            acc ^= mul_oracle(int(coeffs[i]), int(rows[i, j]), 0x11B)
        assert combined[j] == acc


def test_random_elements_cover_range_including_zero():
    rng = np.random.default_rng(5)
    draws = GF2.random_elements(rng, 1000)
    assert set(np.unique(draws)) == {0, 1}
    draws256 = GF256.random_elements(rng, 5000)
    assert draws256.min() >= 0 and draws256.max() <= 255
    assert (draws256 == 0).any()


def test_gaussian_solve_identity_case():
    a = np.eye(2, dtype=np.uint8)
    b = np.array([[3], [7]], dtype=np.uint8)
    result = gaussian_solve(GF256, a, b)
    assert result.rank == 2
    assert np.array_equal(result.solution, b)


def test_gaussian_solve_duplicate_rows_rank_deficient():
    a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    b = np.zeros((2, 1), dtype=np.uint8)
    with pytest.raises(RankDeficient) as excinfo:
        gaussian_solve(GF2, a, b)
    assert excinfo.value.rank == 1


def test_gaussian_solve_round_trip_gf256():
    rng = np.random.default_rng(6)
    for _ in range(20):
        while True:
            a = GF256.random_elements(rng, (5, 5))
            if matrix_rank(GF256, a) == 5:
                break
        x = GF256.random_elements(rng, (5, 3))
        b = np.stack([GF256.combine(a[i], x) for i in range(5)])
        solved = gaussian_solve(GF256, a, b)
        assert solved.rank == 5
        assert np.array_equal(solved.solution, x)


def test_rank_matches_bitmask_oracle_exhaustively():
    # all 2x2 and 3x3 matrices over GF(2)
    for n in (2, 3):
        for bits in range(1 << (n * n)):
            matrix = np.array(
                [[(bits >> (r * n + c)) & 1 for c in range(n)] for r in range(n)],
                dtype=np.uint8,
            )
            row_masks = [int(sum(matrix[r, c] << c for c in range(n))) for r in range(n)]
            assert matrix_rank(GF2, matrix) == gf2_rank_oracle(row_masks, n)


def test_overdetermined_solve_uses_row_basis():
    rng = np.random.default_rng(7)
    a_base = GF256.random_elements(rng, (3, 3))
    while matrix_rank(GF256, a_base) < 3:
        a_base = GF256.random_elements(rng, (3, 3))
    x = GF256.random_elements(rng, (3, 2))
    rows = [GF256.combine(a_base[i], x) for i in range(3)]
    # duplicate an equation; system stays consistent and full-rank
    a = np.vstack([a_base, a_base[0:1]])
    b = np.stack(rows + [rows[0]])
    solved = gaussian_solve(GF256, a, b)
    assert solved.rank == 3
    assert np.array_equal(solved.solution, x)


# -- one table path for every m ---------------------------------------------

def multiplicative_order(a: int, poly: int) -> int:
    x, k = a, 1
    while x != 1:
        x, k = mul_oracle(x, a, poly), k + 1
    return k


def check_sample(field: FieldSpec, seed: int) -> None:
    """10^4 random pairs, zeros included, plus inverses, against the oracles."""
    poly = field.reduction_polynomial
    rng = np.random.default_rng(seed)
    x = field.random_elements(rng, 10_000)
    y = field.random_elements(rng, 10_000)
    x[:100] = 0
    y[50:150] = 0
    prod = field.mul_arrays(x, y)
    assert prod.dtype == field.dtype
    for a, b, p in zip(x.tolist(), y.tolist(), prod.tolist()):
        assert p == mul_oracle(a, b, poly)
    sample = x[x != 0][:1000]
    assert field.inv_arrays(sample).tolist() == [inv_oracle(a, poly) for a in sample.tolist()]
    nonzero = np.arange(1, field.order, dtype=field.dtype)
    assert np.all(field.mul_arrays(nonzero, field.inv_arrays(nonzero)) == 1)


@pytest.mark.parametrize("m", range(1, 9))
def test_mul_arrays_all_pairs_small_fields(m):
    f = FieldSpec(m)
    assert f.dtype == np.uint8
    elements = np.arange(f.order, dtype=f.dtype)
    table = f.mul_arrays(elements[:, None], elements[None, :])
    expected = [
        [mul_oracle(a, b, f.reduction_polynomial) for b in range(f.order)]
        for a in range(f.order)
    ]
    assert table.tolist() == expected


@pytest.mark.parametrize("m", range(9, 17))
def test_mul_and_inv_sampled_large_fields(m):
    f = FieldSpec(m)
    assert f.dtype == np.uint16
    check_sample(f, seed=m)


@pytest.mark.parametrize(
    "m, poly, order_of_x", [(8, 0x11B, 51), (10, 0x40F, 341), (12, 0x1009, 45)]
)
def test_non_primitive_polynomials_search_for_a_generator(m, poly, order_of_x):
    # x is not a generator here, so the tables must come from another element
    assert multiplicative_order(2, poly) == order_of_x
    f = FieldSpec(m, poly)
    check_sample(f, seed=poly)


def test_combine_and_solve_round_trip_gf65536():
    f = FieldSpec(16)
    rng = np.random.default_rng(16)
    coeffs = f.random_elements(rng, 6)
    rows = f.random_elements(rng, (6, 40))
    combined = f.combine(coeffs, rows)
    for j in range(40):
        acc = 0
        for i in range(6):
            acc ^= mul_oracle(int(coeffs[i]), int(rows[i, j]), f.reduction_polynomial)
        assert combined[j] == acc
    for _ in range(5):
        a = f.random_elements(rng, (8, 8))
        while matrix_rank(f, a) < 8:
            a = f.random_elements(rng, (8, 8))
        x = f.random_elements(rng, (8, 3))
        b = np.stack([f.combine(a[i], x) for i in range(8)])
        solved = gaussian_solve(f, a, b)
        assert solved.rank == 8
        assert np.array_equal(solved.solution, x)


FIELDS = {m: FieldSpec(m) for m in range(1, 17)}


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 16),
    batch=st.lists(st.integers(1, 3), max_size=2),
    p=st.integers(0, 5),
    w=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_combine_is_a_scalar_mul_xor_reduction(m, batch, p, w, seed):
    """Every m, GF(2) included, combines through the same table gather."""
    f = FIELDS[m]
    rng = np.random.default_rng(seed)
    coeffs = f.random_elements(rng, (*batch, p))
    rows = f.random_elements(rng, (*batch, p, w))
    combined = f.combine(coeffs, rows)
    assert combined.dtype == f.dtype and combined.shape == (*batch, w)
    for index in itertools.product(*map(range, batch)):
        for j in range(w):
            acc = 0
            for i in range(p):
                acc ^= mul_oracle(int(coeffs[index][i]), int(rows[index][i, j]), f.reduction_polynomial)
            assert combined[index][j] == acc
