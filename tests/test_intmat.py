import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latheights import linalg
from latheights.intmat import (
    ZSpan,
    det,
    hnf,
    kernel,
    lattice_contains,
    lattice_index,
    lattice_intersection,
    rank,
    snf_diagonal,
    solve,
)

IDENTITY2 = [[1, 0], [0, 1]]


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def test_hnf_identity():
    assert hnf(IDENTITY2) == IDENTITY2


def test_hnf_diagonal():
    m = [[2, 0], [0, 3]]
    assert hnf(m) == m
    assert lattice_index(_transpose(m)) == 6


def test_hnf_diagonal_product_matches_det():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        d = det(rows)
        if d == 0:
            continue
        h = hnf(rows)
        prod = 1
        for i in range(3):
            prod *= h[i][i]
        assert abs(prod) == abs(d)


def test_hnf_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        assert hnf(hnf(rows)) == hnf(rows)


def test_lattice_index_cases():
    assert lattice_index([[1, 0], [0, 1]]) == 1
    assert lattice_index([[2, 0], [0, 3]]) == 6
    assert lattice_index([[1, 1], [1, -1]]) == 2
    assert lattice_index([[1, 1]]) is None


def test_index_multiplicative_diagonal():
    a = [[2, 0], [0, 3]]
    b = [[5, 0], [0, 7]]
    ab = [[10, 0], [0, 21]]
    assert lattice_index(ab) == lattice_index(a) * lattice_index(b)


def test_kernel():
    ker = kernel([[1, 2, 3]])
    assert len(ker) == 2
    for v in ker:
        assert sum(a * b for a, b in zip([1, 2, 3], v)) == 0
    assert rank(_transpose(ker)) == 2


def test_snf():
    assert snf_diagonal([[2, 0], [0, 4]]) == [2, 4]
    d = snf_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert d[0] and all(d[i] % d[i - 1] == 0 for i in range(1, len(d)) if d[i])


def test_intersection():
    a = [[2, 0], [0, 1]]
    b = [[1, 0], [0, 3]]
    inter = lattice_intersection(a, b)
    assert lattice_contains(inter, [2, 0])
    assert lattice_contains(inter, [0, 3])
    assert not lattice_contains(inter, [1, 0])
    assert not lattice_contains(inter, [0, 1])


def test_intersection_rational():
    a = [[Fraction(1, 2), 0]]
    b = [[Fraction(1, 3), 0]]
    inter = lattice_intersection(a, b)
    assert lattice_contains(inter, [1, 0])
    assert not lattice_contains(inter, [Fraction(1, 2), 0])


def test_lattice_contains_rank_deficient():
    # vec agrees with the span on every pivot column, not on the free one
    gens = [[1, 2, 0], [0, 3, 0]]
    assert lattice_contains(gens, [1, 5, 0])
    assert not lattice_contains(gens, [1, 5, 1])
    assert not lattice_contains([[2, 4]], [1, 2])


# ---------------------------------------------------------------------------
# ZSpan against Fraction references: linalg.solve and linalg.rank

PROPERTY = settings(max_examples=60)
BIG = 2 ** 70  # entries beyond 2^63

entries = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, 2 ** 40)),
)
small_ints = st.integers(-3, 3)


def _vectors(n, count):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=count, max_size=count)


def _combination(coeffs, vectors):
    return [sum((c * v[j] for c, v in zip(coeffs, vectors)), Fraction(0))
            for j in range(len(vectors[0]))]


def _ref_coords(vectors, v):
    """Coordinates of v in independent vectors, or None outside their Q-span:
    the normal equations (B B^t) c = B v, solved over Q."""
    gram = [[sum(x * y for x, y in zip(a, b)) for b in vectors] for a in vectors]
    c = linalg.solve(gram, [sum(x * y for x, y in zip(a, v)) for a in vectors])
    return c if _combination(c, vectors) == list(v) else None


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_vectors(n, n), _vectors(n, 1))))
def test_zspan_square_basis_against_solve(data):
    vectors, (v,) = data
    n = len(vectors)
    span = ZSpan(vectors, n)
    assert span.rank == linalg.rank(vectors)
    assume(span.rank == n)
    for query in (v, vectors[0], _combination([1] + [2] * (n - 1), vectors)):
        ref = linalg.solve(_transpose(vectors), query)
        c, m = span.scaled_coords(query)
        assert [Fraction(x, m) for x in c] == ref
        assert m > 0 and math.gcd(m, *c) == 1  # the least denominator
        assert span.contains(query) == all(x.denominator == 1 for x in ref)


@PROPERTY
@given(
    st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.integers(1, n - 1).flatmap(lambda k: _vectors(n, k)), _vectors(n, 1))),
    st.lists(small_ints, min_size=4, max_size=4),
)
def test_zspan_rank_deficient_against_solve(data, coeffs):
    vectors, (v,) = data
    n = len(v)
    span = ZSpan(vectors, n)
    assert span.rank == linalg.rank(vectors)
    assume(span.rank == len(vectors))  # independent, fewer than n
    inside = _combination(coeffs, vectors)
    half = [x / 2 for x in inside]
    for query in (v, inside, half, [x + 1 for x in inside]):
        ref = _ref_coords(vectors, query)
        expected = ref is not None and all(x.denominator == 1 for x in ref)
        assert span.contains(query) == expected


@PROPERTY
@given(
    st.integers(1, 4).flatmap(lambda n: _vectors(n, n + 1)),
    st.lists(small_ints, min_size=5, max_size=5),
)
def test_zspan_dependent_generators(vectors, coeffs):
    n = len(vectors[0])
    # the last generator repeats an integer combination of the others
    vectors = vectors[:-1] + [_combination(coeffs, vectors[:-1])]
    span = ZSpan(vectors, n)
    assert span.rank == linalg.rank(vectors)
    assert span.contains(_combination(coeffs, vectors))
    basis = span.basis()
    assert all(span.contains(b) for b in basis)
    assert all(ZSpan(basis, n).contains(v) for v in vectors)


def test_zspan_identity_and_errors():
    span = ZSpan([[1, 0], [0, 1]], 2)
    assert span.scaled_coords([Fraction(1, 2), Fraction(3, 4)]) == ([2, 3], 4)
    assert ZSpan([[2, 0], [0, 1]], 2).scaled_coords([1, 1]) == ([1, 2], 2)
    assert ZSpan([[BIG, 1], [0, 1]], 2).contains([BIG, 1 - BIG])
    assert not ZSpan([[BIG, 1], [0, 1]], 2).contains([BIG + 1, 0])
    # coordinates need a basis of the whole space
    for span in (ZSpan([[1, 0]], 2), ZSpan([[1, 0], [0, 1], [1, 1]], 2)):
        with pytest.raises(ValueError):
            span.scaled_coords([1, 0])


# ---------------------------------------------------------------------------
# the fraction-free solve against linalg.solve over Fraction

int_entries = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))


@st.composite
def solve_cases(draw):
    """(a, b): a square integer matrix, possibly made singular (a row
    replaced by an integer combination of the others) or with its first two
    rows swapped (the sign of det a flips), and an integer right-hand side."""
    n = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(int_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(small_ints, min_size=n - 1, max_size=n - 1))
        a[-1] = [sum(c * row[j] for c, row in zip(coeffs, a)) for j in range(n)]
    if n > 1 and draw(st.booleans()):
        a[0], a[1] = a[1], a[0]
    k = draw(st.integers(1, 3))
    b = draw(st.lists(st.lists(int_entries, min_size=k, max_size=k), min_size=n, max_size=n))
    return a, b


@PROPERTY
@given(solve_cases())
@example(([[0, 1], [1, 0]], [[1], [2]]))  # det -1 after one swap
@example(([[-3]], [[6, -5]]))  # det -3
@example(([[2, 4], [1, 2]], [[1], [1]]))  # singular
def test_solve_against_fraction_solve(case):
    a, b = case
    ref = linalg.solve([list(map(Fraction, r)) for r in a], [list(map(Fraction, r)) for r in b])
    got = solve(a, b)
    if ref is None:
        assert got is None and det(a) == 0
        return
    x, d = got
    # d > 0, so the signs of X are those of the solution (the box caps read them)
    assert d > 0 and d == abs(det(a))
    assert all(type(v) is int for row in x for v in row)
    assert [[Fraction(v, d) for v in row] for row in x] == ref


# ---------------------------------------------------------------------------
# det and solve read one Bareiss loop: det against the Leibniz expansion


def _leibniz(a):
    """det a as the signed sum over permutations."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


@pytest.mark.parametrize("a", [
    [[0, 1], [1, 0]],  # one swap
    [[0, 2, 1], [0, 1, 3], [4, 0, 5]],  # the first pivot sits in the last row
    [[1, 2, 3], [2, 4, 7], [1, 1, 1]],  # a zero pivot after the first step
    [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
    [[0, 3, -1, 2], [0, 0, 5, 1], [0, 7, -2, 0], [BIG, 1, 0, -4]],
    [[1, 2], [2, 4]],  # singular
    [[0, 0], [0, 3]],  # a zero column
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # singular: the last pivot is 0
    [[0, 1, 2], [0, 2, 4], [0, 5, 1]],  # singular: no pivot in the first column
    [],
])
def test_det_against_leibniz(a):
    assert det(a) == _leibniz(a)


@st.composite
def swap_matrices(draw):
    """A square integer matrix whose leading entries are partly zeroed, so
    the elimination has to swap rows, and which may be made singular."""
    n = draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    for i in range(n):
        for j in range(draw(st.integers(0, n - 1))):
            if draw(st.booleans()):
                a[i][j] = 0
    if n > 1 and draw(st.booleans()):
        a[-1] = [x * draw(st.integers(-2, 2)) for x in a[0]]
    return a


@PROPERTY
@given(swap_matrices())
def test_det_against_leibniz_property(a):
    assert det(a) == _leibniz(a)


@pytest.mark.parametrize("a", [
    [[0, 1], [3, 2]],  # det -3
    [[0, 2, 1], [1, 0, 0], [0, 1, 5]],  # det -9
    [[-4]],
])
def test_solve_scales_by_positive_d_when_det_is_negative(a):
    assert det(a) < 0
    n = len(a)
    b = [[int(i == j) + j for j in range(n + 1)] for i in range(n)]
    x, d = solve(a, b)
    assert d == -det(a) > 0
    ax = [[sum(a[i][k] * x[k][j] for k in range(n)) for j in range(n + 1)] for i in range(n)]
    assert ax == [[d * v for v in row] for row in b]
