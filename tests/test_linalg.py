"""The one elimination loop, linalg.row_echelon, through its readers.

det against the Leibniz expansion over Fraction and Q(sqrt5), solve by
substitution, kernels over the Hamilton quaternions with unknowns
multiplied from the right, and the operation order of a BallReal
determinant, which the S-unit report bytes depend on.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from latheights import linalg
from latheights.nf import NfElement, nf_new
from latheights.quat import QuatAlgebra
from latheights.reals import BallReal, endpoints, log_real, sqrt_real

PROPERTY = settings(max_examples=60)

K5 = nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])
KQ = nf_new([-1, 1], [[1]])
HAMILTON = QuatAlgebra(KQ, KQ.rational(-1), KQ.rational(-1))

small = st.integers(-4, 4)
fractions = st.builds(Fraction, small, st.integers(1, 3))


def _fraction_entry(draw):
    return draw(fractions)


def _k5_entry(draw):
    return K5.element([draw(fractions), draw(fractions)])


def _quat_entry(draw):
    return HAMILTON.element(*[draw(st.integers(-2, 2)) for _ in range(4)])


@st.composite
def square_cases(draw, entry):
    """A square matrix over the entry type, its last row made a combination
    of the others half the time, and a right-hand side with 1 or 2 columns."""
    n = draw(st.integers(1, 4))
    a = [[entry(draw) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        coeffs = [draw(small) for _ in range(n - 1)]
        a[-1] = [sum((c * row[j] for c, row in zip(coeffs, a)), a[0][j] * 0)
                 for j in range(n)]
    k = draw(st.integers(1, 2))
    b = [[entry(draw) for _ in range(k)] for _ in range(n)]
    return a, b


@st.composite
def quat_matrices(draw):
    """(a, mu): an r x c matrix over the Hamilton quaternions, some columns
    made right multiples of earlier ones so the kernel is often nontrivial,
    and a quaternion mu."""
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    a = [[_quat_entry(draw) for _ in range(ncols)] for _ in range(nrows)]
    for j in range(1, ncols):
        if draw(st.booleans()):
            k, mu = draw(st.integers(0, j - 1)), _quat_entry(draw)
            for row in a:
                row[j] = row[k] * mu
    return a, _quat_entry(draw)


def _leibniz(a):
    n = len(a)
    total = a[0][0] * 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = math.prod((a[i][perm[i]] for i in range(1, n)), start=a[0][perm[0]])
        total = total - term if inversions % 2 else total + term
    return total


# ---------------------------------------------------------------------------
# fields: det and solve


@PROPERTY
@given(st.one_of(square_cases(_fraction_entry), square_cases(_k5_entry)))
@example(([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]], [[Fraction(1)], [Fraction(2)]]))
@example(([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]], [[Fraction(1)], [Fraction(1)]]))
def test_det_against_leibniz_and_solve_by_substitution(case):
    a, b = case
    d = linalg.det(a)
    assert type(d) is type(a[0][0])
    assert d == _leibniz(a)
    x = linalg.solve(a, b)
    if d == 0:
        assert x is None
        assert linalg.rank(a) < len(a)
        return
    assert linalg.mat_mul(a, x) == b
    assert linalg.solve(a, [row[0] for row in b]) == [row[0] for row in x]
    assert linalg.mat_mul(a, linalg.inverse(a)) == [
        [int(i == j) for j in range(len(a))] for i in range(len(a))]


def test_singular_det_is_a_zero_of_the_entry_type():
    half = Fraction(1, 2)
    assert linalg.det([[half, 1], [1, 2]]) == 0
    assert type(linalg.det([[half, half], [half, half]])) is Fraction
    g = K5.gen()
    z = linalg.det([[g, g * 2], [g * 3, g * 6]])
    assert isinstance(z, NfElement) and z.is_zero()
    assert linalg.det([]) == 1


# ---------------------------------------------------------------------------
# the quaternion algebra: right kernels and right rank


@PROPERTY
@given(quat_matrices())
def test_quat_kernel_is_right_kernel(case):
    a, mu = case
    kernel = linalg.kernel_basis(a)
    assert len(kernel) == len(a[0]) - linalg.rank(a)
    zero = HAMILTON.zero()
    for v in kernel:
        # unknowns multiplied from the right: sum_j a_ij v_j
        assert all(sum((x * y for x, y in zip(row, v)), zero) == 0 for row in a)
        # v and v mu are right dependent (mu = 0 included)
        assert linalg.rank(linalg.transpose([v, [x * mu for x in v]])) == 1
    if kernel:
        assert linalg.rank(linalg.transpose(kernel)) == len(kernel)


def test_quat_division_is_one_sided():
    i, j = HAMILTON.i(), HAMILTON.j()
    assert 1 / i == -i and (i / j) * j == i
    # i v0 + j v1 = 0 with v1 = 1 gives v0 = -(1/i) j = k; -j (1/i) = -k
    # would solve v0 i + j = 0 instead
    (v,) = linalg.kernel_basis([[i, j]])
    assert v == [HAMILTON.k(), HAMILTON.one()]


# ---------------------------------------------------------------------------
# BallReal operation order


def test_ball_det_order_is_pinned():
    """det of a 2 x 2 ball matrix is g00 * (g11 - (g10 / g00) * g01), down to
    the last bit of its 64-bit enclosure: the S-unit log-lattice Gram
    determinants, and so the Q-S23 report bytes, depend on this order."""
    g00 = log_real(Fraction(3)) * log_real(Fraction(3)) + log_real(Fraction(2))
    g01 = log_real(Fraction(2)) * log_real(Fraction(3))
    g10 = log_real(Fraction(3)) * log_real(Fraction(2))
    g11 = sqrt_real(Fraction(7)) + log_real(Fraction(5))
    got = linalg.det([[g00, g01], [g10, g11]])
    assert isinstance(got, BallReal)
    assert endpoints(got, 64) == endpoints(g00 * (g11 - (g10 / g00) * g01), 64)
    # neighbouring orders round differently on these entries
    assert endpoints(got, 64) != endpoints(g00 * (g11 - (g10 * (1 / g00)) * g01), 64)
    assert endpoints(got, 64) != endpoints(g00 * g11 - g10 * g01, 64)
