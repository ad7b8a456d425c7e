"""Exact linear algebra kernel tests, including cross-route oracles."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylvtri import exact
from sylvtri.errors import DegenerateGeometry, DimensionMismatch

import oracles


def cofactor_det(rows):
    """Independent determinant oracle: Leibniz expansion over permutations."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= Fraction(rows[i][j])
        total += sign * term
    return total


small_int = st.integers(min_value=-9, max_value=9)


def det(m):
    """det_int on a copy, since it destroys its argument."""
    return exact.det_int([list(row) for row in m])


def matrix(n):
    return st.lists(
        st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n
    )


def test_number_str_shortens_only_what_str_refuses():
    # str(x) where it succeeds; past Python's int-to-str digit limit, the
    # sign and bit lengths
    big = 10**5000
    assert exact.number_str(None) == "None"
    assert exact.number_str(-(10**4000)) == str(-(10**4000))
    assert exact.number_str(Fraction(-7, 10**4000)) == f"-7/{10**4000}"
    assert exact.number_str(big) == "<16610 bits>"
    assert exact.number_str(-big) == "-<16610 bits>"
    assert exact.number_str(Fraction(-big, 3)) == "-<16610 bits>/<2 bits>"
    assert exact.number_str(Fraction(1, big + 1)) == "<1 bits>/<16610 bits>"


def test_det_examples():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [2, 4]]) == 0
    assert det([]) == 1
    # singular, with the leading column zero below the top row
    assert det([[2, 1, 3], [0, 4, 5], [0, 8, 10]]) == 0
    assert det([[1, 2, 3], [0, 0, 1], [0, 0, 2]]) == 0
    assert det([[0, 1], [0, 2]]) == 0
    assert det([[5, 7], [0, 0]]) == 0


def test_det_int_destructive_bareiss():
    m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    assert exact.det_int([row[:] for row in m]) == cofactor_det(m)


def test_det_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        exact.det_int([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=60, deadline=None)
@given(matrix(3))
def test_det_matches_cofactor_oracle(m):
    assert det(m) == cofactor_det(m)


@settings(max_examples=60, deadline=None)
@given(matrix(3))
def test_det_row_swap_antisymmetry(m):
    swapped = [m[1], m[0], m[2]]
    assert det(swapped) == -det(m)


@settings(max_examples=40, deadline=None)
@given(matrix(3), matrix(3))
def test_det_multiplicativity(a, b):
    prod = [
        [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    assert det(prod) == det(a) * det(b)


def test_rank_examples():
    assert exact.rank([[1, 2], [2, 4]]) == 1
    assert exact.rank([[1, 0], [0, 1]]) == 2
    assert exact.rank([[0, 0], [0, 0]]) == 0
    assert exact.rank([]) == 0
    assert exact.rank([[1, 2, 3]]) == 1


@st.composite
def rank_matrices(draw):
    """1-5 rows by 1-6 columns in -3..3, with forced zero columns and
    repeated rows, so rank-deficient shapes are common."""
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-3, max_value=3)
    rows = draw(
        st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    for j in draw(st.sets(st.integers(min_value=0, max_value=ncols - 1))):
        for row in rows:
            row[j] = 0
    index = st.integers(min_value=0, max_value=nrows - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        rows[j] = list(rows[i])
    return rows


@settings(max_examples=200, deadline=None)
@given(rank_matrices())
def test_rank_matches_fraction_oracle(rows):
    before = [list(row) for row in rows]
    assert exact.rank(rows) == oracles.fraction_rank(rows)
    # the pivots are the greedy column basis: the oracle's rank grows one
    # column at a time exactly at them
    greedy, r = [], 0
    for j in range(len(rows[0])):
        grown = oracles.fraction_rank([row[: j + 1] for row in rows])
        if grown > r:
            greedy.append(j)
            r = grown
    assert exact.pivot_columns(rows) == greedy
    assert rows == before  # rank and pivot_columns work on a copy


@settings(max_examples=40, deadline=None)
@given(matrix(3), st.lists(small_int, min_size=3, max_size=3))
def test_solve_round_trip(m, x):
    if det(m) == 0:
        with pytest.raises(DegenerateGeometry):
            oracles.integer_solve(m, [0, 0, 0])
        return
    b = [sum(m[i][j] * x[j] for j in range(3)) for i in range(3)]
    y, d = oracles.integer_solve(m, b)
    assert d == abs(det(m)) and y == [d * v for v in x]


def test_inverse_identity():
    m = [[2, 1], [1, 1]]
    inv, d = exact.integer_inverse(m)
    assert d == 1 and inv == [(1, -1), (-1, 2)]


def test_affine_rank():
    assert exact.affine_rank([(0, 0)]) == 0
    assert exact.affine_rank([(0, 0), (1, 1), (2, 2)]) == 1
    assert exact.affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
    with pytest.raises(DimensionMismatch):
        exact.affine_rank([])


def test_affine_functional_eval_and_scaling():
    fn = oracles.AffineFunctional((Fraction(2), Fraction(-1)), Fraction(3))
    assert fn((1, 1)) == 4
    with pytest.raises(DimensionMismatch):
        fn((1,))


def test_affine_interpolant_vertices_round_trip():
    verts = [(0, 0), (1, 0), (0, 1)]
    vals = [Fraction(1), Fraction(3), Fraction(-2)]
    fn = oracles.affine_interpolant(verts, vals)
    for v, w in zip(verts, vals):
        assert fn(v) == w


@settings(max_examples=40, deadline=None)
@given(
    st.lists(small_int, min_size=3, max_size=3),
    st.lists(small_int, min_size=3, max_size=3),
)
def test_affine_interpolant_random_round_trip(heights, shift):
    verts = [(0 + shift[0], 0), (1 + shift[1], 0), (0, 1 + abs(shift[2]) + 1)]
    if exact.affine_rank(verts) != 2:
        return
    fn = oracles.affine_interpolant(verts, heights)
    for v, w in zip(verts, heights):
        assert fn(v) == w


def test_functional_on_affine_basis_checks_consistency():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    fn = oracles.functional_on_affine_basis(pts, [0, 1, 2, 3])
    assert fn((1, 1)) == 3
    with pytest.raises(DegenerateGeometry):
        oracles.functional_on_affine_basis(pts, [0, 1, 2, 4])
    with pytest.raises(DegenerateGeometry):
        oracles.functional_on_affine_basis([(0, 0), (1, 1)], [0, 1])


small_frac = st.builds(
    Fraction, small_int, st.integers(min_value=1, max_value=12)
)


@st.composite
def systems(draw, entries):
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    rhs = draw(st.lists(entries, min_size=n, max_size=n))
    return rows, rhs


def check_against_oracle(rows, rhs):
    want = oracles.gauss_jordan(rows, rhs)
    if want is None:
        with pytest.raises(DegenerateGeometry):
            oracles.solve(rows, rhs)
    else:
        assert oracles.solve(rows, rhs) == want


@settings(max_examples=150, deadline=None)
@given(systems(small_int))
def test_solve_matches_gauss_jordan_on_integer_systems(system):
    check_against_oracle(*system)


@settings(max_examples=150, deadline=None)
@given(systems(st.one_of(small_int, small_frac)))
def test_solve_matches_gauss_jordan_on_fraction_systems(system):
    check_against_oracle(*system)


@settings(max_examples=80, deadline=None)
@given(systems(st.one_of(small_int, small_frac)), st.data())
def test_solve_with_zero_leading_pivots(system, data):
    # zero the top-left entries so elimination must swap rows
    rows, rhs = system
    n = len(rows)
    k = data.draw(st.integers(min_value=1, max_value=n))
    for i in range(k):
        rows[i][0] = 0
    if n > 1:
        rows[0][1] = 0
    check_against_oracle(rows, rhs)


@settings(max_examples=80, deadline=None)
@given(systems(st.one_of(small_int, small_frac)), st.data())
def test_solve_rejects_singular_systems(system, data):
    rows, rhs = system
    n = len(rows)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    f = data.draw(small_frac)
    # row i becomes a multiple of row j (or zero when i == j)
    rows[i] = [0] * n if i == j else [f * x for x in rows[j]]
    with pytest.raises(DegenerateGeometry):
        oracles.solve(rows, rhs)


def test_solve_large_entries():
    big = 2**113 + 1
    rows = [[big, 3, Fraction(1, 6144)], [0, 0, 1], [5, Fraction(-7, 98304), 2]]
    rhs = [Fraction(big, 122880), 1, -big]
    assert oracles.solve(rows, rhs) == oracles.gauss_jordan(rows, rhs)


@settings(max_examples=80, deadline=None)
@given(systems(st.one_of(small_int, small_frac)))
def test_integer_inverse_scales_identity(system):
    rows = oracles.integer_rows(system[0])
    n = len(rows)
    if oracles.gauss_jordan(rows, [0] * n) is None:
        with pytest.raises(DegenerateGeometry):
            exact.integer_inverse(rows)
        return
    y, d = exact.integer_inverse(rows)
    assert d > 0 and all(isinstance(x, int) for row in y for x in row)
    prod = [
        [sum(rows[i][k] * y[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert prod == [[d if i == j else 0 for j in range(n)] for i in range(n)]
    # D is |det| and Y the adjugate up to its sign
    assert d == abs(cofactor_det(rows))


def integer_system(rows, rhs):
    """A rational system with each equation cleared of its denominators."""
    m = oracles.integer_rows([*row, b] for row, b in zip(rows, rhs))
    return [r[:-1] for r in m], [r[-1] for r in m]


def check_integer_solve(rows, rhs):
    want = oracles.gauss_jordan(rows, rhs)
    if want is None:
        with pytest.raises(DegenerateGeometry):
            oracles.integer_solve(rows, rhs)
        return
    y, d = oracles.integer_solve(rows, rhs)
    assert d > 0 and all(type(x) is int for x in y)
    assert [Fraction(x, d) for x in y] == want
    # round trip: rows . y = D * rhs
    for row, b in zip(rows, rhs):
        assert sum(a * x for a, x in zip(row, y)) == d * b


@settings(max_examples=150, deadline=None)
@given(systems(small_int))
def test_integer_solve_round_trips_on_integer_systems(system):
    check_integer_solve(*system)


@settings(max_examples=150, deadline=None)
@given(systems(st.one_of(small_int, small_frac)), st.data())
def test_integer_solve_round_trips_on_fraction_systems(system, data):
    rows, rhs = system
    check_integer_solve(*integer_system(rows, rhs))
    # zero the top-left entries so elimination must swap rows
    n = len(rows)
    k = data.draw(st.integers(min_value=1, max_value=n))
    for i in range(k):
        rows[i][0] = 0
    if n > 1:
        rows[0][1] = 0
    check_integer_solve(*integer_system(rows, rhs))


@settings(max_examples=150, deadline=None)
@given(systems(small_int), st.data())
def test_integer_solve_on_tall_systems(system, data):
    # k = n..n+3 equations: the extra ones integer combinations of the
    # first n, all shuffled so that a redundant row may come before a
    # pivot row
    rows, rhs = system
    n = len(rows)
    want = oracles.gauss_jordan(rows, rhs)
    extra = data.draw(st.integers(min_value=0, max_value=3))
    for _ in range(extra):
        cs = data.draw(st.lists(small_int, min_size=n, max_size=n))
        rows.append([sum(c * r[j] for c, r in zip(cs, rows[:n])) for j in range(n)])
        rhs.append(sum(c * b for c, b in zip(cs, rhs[:n])))
    order = data.draw(st.permutations(range(n + extra)))
    redundant = [order.index(i) for i in range(n, n + extra)]
    rows, rhs = [rows[i] for i in order], [rhs[i] for i in order]
    if want is None:
        with pytest.raises(DegenerateGeometry):
            oracles.integer_solve(rows, rhs)
        return
    y, d = oracles.integer_solve(rows, rhs)
    assert d > 0 and all(type(x) is int for x in y)
    assert [Fraction(x, d) for x in y] == want
    for row, b in zip(rows, rhs):
        assert sum(a * x for a, x in zip(row, y)) == d * b
    # the other rows keep rank n, so a redundant row's equation breaks
    if redundant:
        bad = list(rhs)
        bad[data.draw(st.sampled_from(redundant))] += data.draw(st.integers(1, 5))
        with pytest.raises(DegenerateGeometry):
            oracles.integer_solve(rows, bad)
    # column j zeroed, or repeating column k, drops A's rank below n
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    k = data.draw(st.sampled_from([None, *(k for k in range(n) if k != j)]))
    flat = [r[:j] + [0 if k is None else r[k]] + r[j + 1 :] for r in rows]
    with pytest.raises(DegenerateGeometry):
        oracles.integer_solve(flat, rhs)
    if n > 1:
        with pytest.raises(DimensionMismatch):
            oracles.integer_solve(rows[: n - 1], rhs[: n - 1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_affine_functional_matches_direct_sum(data):
    dim = data.draw(st.integers(min_value=1, max_value=5))
    coeffs = data.draw(
        st.lists(st.one_of(small_int, small_frac), min_size=dim, max_size=dim)
    )
    constant = data.draw(st.one_of(small_int, small_frac))
    fn = oracles.AffineFunctional(tuple(coeffs), constant)
    for entries in (small_int, st.one_of(small_int, small_frac)):
        p = data.draw(st.lists(entries, min_size=dim, max_size=dim))
        want = sum((Fraction(c) * x for c, x in zip(coeffs, p)), Fraction(constant))
        got = fn(p)
        assert type(got) is Fraction and got == want
        assert fn.numerator(p) == want * fn.denominator
