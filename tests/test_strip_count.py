"""The totally real module count on the dyadic strips of the height region
against the whole-box walk it replaced and against exact integer counts.

``box_walk_count`` is an earlier walk of the full coefficient box of the
cube |sigma(x_i)| <= T, kept here as the reference: a float screen of
every box point, with the points in a band around T re-decided by the
exact height.  Hypothesis runs derandomized (``conftest.py``), so every
run sees the same examples.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from latheights import bounds, cli, heights, lattice
from latheights.bounds import _fast_count_totally_real, as_rooted, thm1_lower
from latheights.errors import ValidationError
from latheights.heights import height_h
from latheights.lattice import _coefficient_box, _rat_upper
from latheights.modules import OkModule, z_combination
from latheights.nf import FracIdeal
from latheights.reals import quad_sign, to_real
from lattice_references import box_slabs

PROPERTY = settings(
    max_examples=80,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
BOX_LIMIT = 400_000  # candidates per reference walk
FIELDS = {1: cli._field_q(), 2: cli._field_sqrt2(), 5: cli._field_sqrt5()}


def box_walk_count(module, rd_frac):
    """|{x in M : h(x)^d <= rd}| by a float screen of every point of the
    coefficient box of the cube of radius rd, with the points in a 1e-10
    band around rd re-decided by the exact height."""
    import numpy as np

    field = module.field
    d = field.degree
    lat = module.module_lattice()
    m_val, den0, a0, b0 = lat.scaled_columns()
    den = math.lcm(den0, rd_frac.denominator)
    a_int, b_int = ([[den // den0 * x for x in col] for col in c] for c in (a0, b0))
    caps = _coefficient_box(lat, _rat_upper(to_real(rd_frac)))
    big_n = lat.ambient_dim // d
    sq = math.sqrt(m_val) if m_val else 0.0
    target = float(rd_frac * den**d)
    lo_gate, hi_gate = target * (1 - 1e-10), target * (1 + 1e-10)
    count = 0
    stacked = [a + b for a, b in zip(a_int, b_int)]  # [A; B]: A m, then B m
    for vals, coeff_rows in box_slabs(caps, stacked):
        va, vb = vals[:, : lat.ambient_dim], vals[:, lat.ambient_dim :]
        vals = np.abs(va.astype(np.float64) + vb.astype(np.float64) * sq)
        per_ch = vals.reshape(-1, d, big_n).max(axis=2)
        np.maximum(per_ch, float(den), out=per_ch)
        hsq = per_ch.prod(axis=1)
        count += int((hsq <= lo_gate).sum())
        for i in np.nonzero((hsq > lo_gate) & (hsq < hi_gate))[0]:
            coeffs = tuple(coeff_rows[i].tolist())
            if not any(coeffs):
                count += 1
                continue
            x = z_combination(module.z_basis, coeffs)
            if (height_h(field, x).as_rooted() ** d).cmp(as_rooted(rd_frac)) <= 0:
                count += 1
    return count


def _box_size(module, rd):
    return math.prod(2 * c + 1 for c in _coefficient_box(module.module_lattice(), rd))


# generators a + b sqrt(m) of small principal ideals of norm > 1
IDEAL_GENS = {1: [[2], [3], [5]],
              2: [[0, 1], [2, 1], [2, 0], [3, 1], [1, 2]],
              5: [[0, 1], [2, 0], [3, 1], [4, 1], [1, 1]]}


@st.composite
def ideal_modules(draw):
    """A rank-L module of O_K^N, N = 1 or 2, over Q, Q(sqrt2) or Q(sqrt5):
    pseudo-basis vectors near the unit vectors, principal ideals of norm
    2 to 11, and a radius from 4 to 16 (2 to 4 when the Z-rank exceeds 2,
    where the reference box grows as R^(2 d L))."""
    root = draw(st.sampled_from(sorted(FIELDS)))
    field = FIELDS[root]
    d = field.degree
    n = draw(st.integers(1, 2))
    big_l = draw(st.integers(1, n))
    small = st.integers(-1, 1)
    pseudo = []
    for l in range(big_l):
        gen = field.element(draw(st.sampled_from(IDEAL_GENS[root])))
        vec = [field.element([int(j == l) + draw(small)] + [draw(small) for _ in range(d - 1)])
               for j in range(n)]
        pseudo.append((vec, FracIdeal.principal(field, gen)))
    low, top = (4, 16) if big_l * d <= 2 else (2, 4)
    radius = Fraction(draw(st.integers(2 * low, 2 * top)), 2)
    return field, n, pseudo, radius


@PROPERTY
@given(ideal_modules())
def test_strip_count_matches_box_walk(case):
    field, n, pseudo, radius = case
    try:
        module = OkModule.from_pseudo_basis(field, n, pseudo)
    except ValidationError:  # dependent pseudo-basis vectors
        assume(False)
    rd = radius ** field.degree
    assume(_box_size(module, rd) <= BOX_LIMIT)
    assert _fast_count_totally_real(module, rd) == box_walk_count(module, rd)


@pytest.mark.parametrize("name,radius,count", [
    ("Q(sqrt5)-ideal-L1", 64, 13565),
    ("Q(sqrt2)-ideal-L1", 32, 5789),
    ("Q(sqrt5)-free-L1", 16, 3015),
    ("Q(sqrt2)-free-L1", 16, 2391),
])
def test_strip_count_pinned(name, radius, count):
    module = dict(cli._thm1_instances())[name]
    assert _fast_count_totally_real(module, Fraction(radius**2)) == count


def test_strip_walk_screens_few_candidates():
    module = dict(cli._thm1_instances())["Q(sqrt5)-ideal-L1"]
    assert _box_size(module, Fraction(64**2)) == 12_003_651
    walk, screened = lattice.line_runs, []

    def spy(*args):
        for chunk in walk(*args):
            screened.append(int(chunk[-1].sum()))  # the points of the chunk's runs
            yield chunk

    lattice.line_runs = spy
    try:
        assert _fast_count_totally_real(module, Fraction(64**2)) == 13565
    finally:
        lattice.line_runs = walk
    assert sum(screened) <= 40_000


@pytest.mark.parametrize("root,g", [(1, 7), (2, 6), (5, 6), (2, 10)])
def test_band_decided_on_the_walk_integers(monkeypatch, root, g):
    """M = g O_K at T = g^2 puts points on h(x)^d = T, inside the band of
    the reference's float screen.  The strip count decides them on the
    walk's integers, forming no height and making no certified comparison,
    and still matches the box walk, which decides its band by height_h."""
    field = FIELDS[root]
    module = OkModule.from_pseudo_basis(
        field, 1, [([field.one()], FracIdeal.principal(field, field.rational(g)))])
    rd = Fraction(g * g)
    contexts, cmp = [], bounds.cmp_real

    def no_height(*args):
        raise AssertionError("the strip count formed a height")

    def spy(x, y, context=""):
        contexts.append(context)
        return cmp(x, y, context)

    with monkeypatch.context() as patch:
        patch.setattr(heights, "height_h", no_height)
        patch.setattr(bounds, "height_h_nf", no_height)
        patch.setattr(bounds, "cmp_real", spy)
        fast = _fast_count_totally_real(module, rd)
    assert contexts == []
    assert fast == box_walk_count(module, rd)


def test_strip_count_keeps_the_budget():
    module = dict(cli._thm1_instances())["Q(sqrt2)-free-L2"]
    rep = thm1_lower(module, 363)
    assert rep.verdict == bounds.INCONCLUSIVE
    assert rep.note == "enumeration budget exceeded"


def _units_below(eps, den, root, g):
    """#{k >= 0 : eps^k < g} for the unit eps = (a + b sqrt root) / den,
    decided on integers: eps^k = (p + q sqrt root) / den^k."""
    a, b = eps
    p, q, k = 1, 0, 0
    while quad_sign(g * den**k - p, -q, root) > 0:
        p, q, k = p * a + q * b * root, p * b + q * a, k + 1
    return k


@pytest.mark.parametrize("root,eps,den,g", [
    (2, (1, 1), 1, 2790),
    (5, (1, 1), 2, 2790),
    (2, (1, 1), 1, 1000),
])
def test_strip_count_large_height_bound(root, eps, den, g):
    """M = g O_K at T = g^2 = N(g), far past the T ~ 2.2e5 where a fixed
    1e-10 band stops covering the float error of the screen.

    For nonzero y in M, |N(y)| >= g^2 = T.  So h(y)^2 = max(1, |y|)
    max(1, |y'|) <= T forces both conjugates above 1 and |N(y)| = T, that
    is y = +-g eps^k with eps^|k| < g, and every such point lies on the
    boundary h(y)^2 = T.  Over Q(sqrt2) at g = 2790 the fixed band counted
    35 of these 39 points.
    """
    field = FIELDS[root]
    module = OkModule.from_pseudo_basis(
        field, 1, [([field.one()], FracIdeal.principal(field, field.rational(g)))]
    )
    exact = 1 + 2 * (2 * _units_below(eps, den, root, g) - 1)
    assert _fast_count_totally_real(module, Fraction(g * g)) == exact
