"""Exact linear algebra kernel tests, including cross-route oracles."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylvtri import exact, polytope
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
    """det_int(m), checked to leave m as it was."""
    before = [list(row) for row in m]
    got = exact.det_int(m)
    assert m == before
    return got


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


def test_det_int_leaves_its_argument():
    m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    assert exact.det_int(m) == cofactor_det(m) == -90
    assert m == [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    assert exact.det_int(tuple(map(tuple, m))) == -90


def test_det_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        exact.det_int([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(matrix))
def test_det_matches_cofactor_oracle(m):
    assert det(m) == cofactor_det(m)


def outcome(f, *args, errors=(DegenerateGeometry, DimensionMismatch)):
    """f(*args), or the type and message of the exception in errors that
    it raises."""
    try:
        return f(*args)
    except errors as e:
        return type(e), str(e)


def check_kernel_against_bareiss(verts, heights):
    """det_int on the d x d differences, signed_nvol and volume_form on the
    simplex equal the Bareiss references, errors included; True iff flat."""
    diffs = [[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]
    assert det(diffs) == oracles.bareiss_det(diffs)
    assert outcome(polytope.signed_nvol, verts) == outcome(
        oracles.bareiss_signed_nvol, verts
    )
    got = outcome(polytope.volume_form, verts, heights)
    assert got == outcome(oracles.bareiss_volume_form, verts, heights)
    return got == (DegenerateGeometry, "singular linear system")


@pytest.mark.parametrize("d", range(8))
def test_kernel_matches_bareiss_reference(d):
    # seeded simplices and heights with entries up to 2^130 in size; every
    # fourth has its vertex k moved so that v_k - v_0 is an integer
    # combination of the other differences (zero for d = 1)
    rng = random.Random(4200 + d)
    flat = 0
    for trial in range(80):
        bound = (9, 2**64, 2**130)[trial % 3]
        verts = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d + 1)]
        heights = [rng.randint(-bound, bound) for _ in range(d + 1)]
        if d and trial % 4 == 3:
            k = rng.randrange(1, d + 1)
            cs = [(i, rng.randint(-3, 3)) for i in range(1, d + 1) if i != k]
            verts[k] = [
                v0 + sum(c * (verts[i][j] - v0) for i, c in cs)
                for j, v0 in enumerate(verts[0])
            ]
        flat += check_kernel_against_bareiss(verts, heights)
    assert flat >= (20 if d else 0)


def _known_det(rng, n):
    """An n x n matrix and its determinant: diag(a) under random
    unimodular row and column shears, which leave det = prod(a)."""
    a = [rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(n)]
    m = [[a[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-4, 4)
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] += c * row[i]
    want = 1
    for x in a:
        want *= x
    return m, want


def test_kernel_dimension_cap(monkeypatch):
    # up to _KERNEL_MAX_DIM each of det_int, signed_nvol and volume_form
    # asks the generated kernel, above it none does, and on either side
    # every answer is the reference's
    cap = exact._KERNEL_MAX_DIM
    asked = []
    kernel = exact._kernel
    monkeypatch.setattr(exact, "_kernel", lambda d: asked.append(d) or kernel(d))
    rng = random.Random(77)
    for d in (cap, cap + 1):
        want_asked = [d] if d <= cap else []
        m, want = _known_det(rng, d)
        assert det(m) == want
        assert det([row[:] for row in m[:-1]] + [m[0]]) == 0
        for trial in range(6):
            verts = [
                [rng.randint(-(2**40), 2**40) for _ in range(d)] for _ in range(d + 1)
            ]
            if trial % 3 == 2:
                verts[-1] = [2 * y - x for x, y in zip(verts[0], verts[1])]
            heights = [rng.randint(-(2**40), 2**40) for _ in range(d + 1)]
            assert check_kernel_against_bareiss(verts, heights) == (trial % 3 == 2)
            for call in (
                lambda: exact.det_int(verts[1:]),
                lambda: outcome(polytope.signed_nvol, verts),
                lambda: outcome(polytope.volume_form, verts, heights),
            ):
                asked.clear()
                call()
                assert asked == want_asked


@pytest.mark.parametrize("d", range(1, exact._KERNEL_MAX_DIM + 1))
def test_kernel_source_size(d):
    # the product counts _kernel_source's and _row_kernel_source's
    # docstrings state
    det_src, cramer_src = exact._kernel_source(d).split("def cramer")
    assert det_src.count("*") == d * 2 ** (d - 1) - d
    assert cramer_src.count("*") == (d + 1) * (2**d - 2)
    at_src, rest = exact._row_kernel_source(d).split("def comb")
    comb_src, drop_src = rest.split("def drop")
    assert at_src.count("*") == d
    assert comb_src.count("*") == 2 * (d + 1)
    assert drop_src.count("*") == 2 * (d + 1) + 3


@pytest.mark.parametrize("d", range(8))
def test_row_kernel_matches_reference(d, monkeypatch):
    # seeded rows and points with entries up to 2^130 in size: at, comb
    # and drop give the references' results, comb the reference's
    # ZeroDivisionError where a y - b x vanishes, and drop's form is in
    # lowest terms with den > 0.  Every fourth trial has y = c x, with
    # b = a c, so that comb vanishes, and eps = sign(c) yd / (|c| xd), so
    # that drop's row does.  Row kernels have no dimension cap and
    # generate no determinant kernel.
    monkeypatch.setattr(exact, "_kernel", lambda d: pytest.fail(f"_kernel({d})"))
    at, comb, drop = exact._row_kernel.__wrapped__(d)
    rng = random.Random(4400 + d)
    for trial in range(80):
        bound = (9, 2**64, 2**130)[trial % 3]
        x, y, p = (
            [rng.randint(-bound, bound) for _ in range(k)] for k in (d + 1, d + 1, d)
        )
        a, b, n = (rng.randint(-bound, bound) for _ in range(3))
        xd, yd, q = (rng.randint(1, bound) for _ in range(3))
        if trial % 4 == 3:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            y, b = [c * v for v in x], a * c
            n, q = (yd if c > 0 else -yd), abs(c) * xd
        assert at(x, p) == oracles.reference_row_at(x, p)
        got, want = (
            outcome(f, a, x, b, y, errors=ZeroDivisionError)
            for f in (comb, oracles.reference_comb)
        )
        assert got == want
        row, den = drop(x, xd, y, yd, n, q)
        assert (row, den) == oracles.reference_drop((x, xd), (y, yd), Fraction(n, q))
        assert den > 0 and math.gcd(den, *row) == 1
        if trial % 4 == 3:
            assert got[0] is ZeroDivisionError
            assert (row, den) == ((0,) * (d + 1), 1)


def test_importing_the_cli_compiles_no_kernel():
    # kernels compile on first use, so every sylvtri command's start-up
    # (the benchmark's setup_s) stays as it was
    src = os.path.dirname(os.path.dirname(os.path.abspath(exact.__file__)))
    code = (
        "import sylvtri.cli\n"
        "from sylvtri import exact, polytope\n"
        "sizes = lambda: print(exact._kernel.cache_info().currsize,"
        " exact._row_kernel.cache_info().currsize)\n"
        "sizes()\n"
        "exact.det_int([[2]])\n"
        "sizes()\n"
        "polytope.row_at((1, 2), (3,))\n"
        "sizes()\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == ["0", "0", "1", "0", "1", "1"]


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
