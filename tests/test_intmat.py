import random
from fractions import Fraction

from latheights.intmat import (
    IntMat,
    det,
    hnf,
    kernel,
    lattice_contains,
    lattice_index,
    lattice_intersection,
    rank,
    snf_diagonal,
)


def test_hnf_identity():
    m = IntMat.identity(2)
    assert hnf(m) == m


def test_hnf_diagonal():
    m = IntMat.from_rows([[2, 0], [0, 3]])
    assert hnf(m) == m
    assert lattice_index(m.transpose().to_rows()) == 6


def test_hnf_diagonal_product_matches_det():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        m = IntMat.from_rows(rows)
        d = det(m)
        if d == 0:
            continue
        h = hnf(m)
        prod = 1
        for i in range(3):
            prod *= h[i, i]
        assert abs(prod) == abs(d)


def test_hnf_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        m = IntMat.from_rows(rows)
        assert hnf(hnf(m)) == hnf(m)


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
    m = IntMat.from_rows([[1, 2, 3]])
    ker = kernel(m)
    assert len(ker) == 2
    for v in ker:
        assert sum(a * b for a, b in zip([1, 2, 3], v)) == 0
    assert rank(IntMat.from_cols(ker)) == 2


def test_snf():
    m = IntMat.from_rows([[2, 0], [0, 4]])
    assert snf_diagonal(m) == [2, 4]
    m2 = IntMat.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    d = snf_diagonal(m2)
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
