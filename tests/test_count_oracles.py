"""Property tests: the quaternion count oracles against the per-point code
they replaced.

``bounds.exact_count_zo`` and ``bounds.exact_count_d`` decide h(x) <= R on
integer reduced norms (``quat.norm_grams``), and ``exact_count_d`` counts
each x = y/M once, y in O^N, at its least order denominator M <= R^{4d}.
The references below are per-point oracles: every candidate is built as
QuatElements, its height comes from ``quat.height_h`` or
``quat.height_h_order``, and ``reference_count_d`` sweeps x = w/m over
w in O_K^{4N} and deduplicates the quotients with a set of keys.  Each
``exact_count_zo`` radius is the height of a drawn point, so points lie on
h = R.  Hypothesis runs derandomized.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latheights import cli, lattice, quat
from latheights.bounds import as_rooted, exact_count_d, exact_count_zo
from latheights.errors import BudgetExceeded
from latheights.lattice import _coefficient_box, _rat_upper, enumerate_cube
from latheights.modules import OkModule, z_combination
from latheights.nf import nf_new
from latheights.quat import (
    DSubspace,
    QuatAlgebra,
    QuatOrder,
    bracket_inv,
    height_h,
    height_h_order,
    intersection_module,
    s_t_constants,
)
from latheights.reals import Rooted


def reference_count_zo(z, order, radius):
    """|{x in Z cap O^N : h(x) <= R}|, one QuatElement vector per candidate."""
    r = as_rooted(radius)
    alg = z.algebra
    _, t, _, _ = s_t_constants(alg)
    module = intersection_module(z, order)
    cube = _rat_upper(((r * t.inverse()) ** alg.field.degree).as_real())
    count = 1 if r.cmp(1) >= 0 else 0  # zero vector
    for m in enumerate_cube(module.module_lattice(), cube):
        if any(m):
            xs = bracket_inv(alg, z_combination(module.z_basis, m))
            count += height_h(xs).cmp(r) <= 0
    return count


def reference_count_d(alg, order, n, radius):
    """|{x in D^N : h(x) <= R}| over x = w/m, deduplicated by a set of keys.

    x has least order denominator M <= R^{4d}, as its finite factor is at
    least M and h_inf(x) >= 1.  With s the least integer such that s O lies
    in O_K^4, s M x lies in O_K^{4N}, so m <= s R^{4d} covers every x."""
    r = as_rooted(radius)
    field = alg.field
    d = field.degree
    _, t, _, _ = s_t_constants(alg)
    bd = _rat_upper(((r * t.inverse()) ** d).as_real())
    s = math.lcm(*(e.denominator() for w in order.z_basis for e in w.c))
    m_max = s * math.floor(_rat_upper((r ** (4 * d)).as_real()))
    free = OkModule.free_module(field, 4 * n)
    lat = free.module_lattice()
    grand_total = sum(math.prod(2 * c + 1 for c in _coefficient_box(lat, bd * m))
                      for m in range(1, m_max + 1))
    if grand_total > lattice.ENUM_BUDGET:
        raise BudgetExceeded("sweep over budget")
    seen = set()
    count = 0
    for m in range(1, m_max + 1):
        for coeffs in enumerate_cube(lat, bd * m):
            if not any(coeffs):
                count += m == 1 and r.cmp(1) >= 0
                continue
            vec = z_combination(free.z_basis, coeffs)
            key = tuple(tuple(ci / m for ci in e.coeffs) for e in vec)
            if key in seen:
                continue
            seen.add(key)
            xs = [q * Fraction(1, m) for q in bracket_inv(alg, vec)]
            count += height_h_order(order, xs).cmp(r) <= 0
    return count


def _algebras():
    kq = nf_new([-1, 1], [[1]])
    out = [(fname, alg) for fname, alg, _, _ in cli._main_quat_instances()]
    for name, (a, b) in (("hamilton", (-1, -1)), ("m13", (-1, -3))):
        out.append((name, QuatAlgebra(kq, kq.rational(a), kq.rational(b))))
    return out


def _orders():
    """The special and the Hurwitz-type order of test_integer_heights._orders,
    and the order O_K<1, 2i, j, 2k>, which holds neither i nor k, over
    Q(sqrt2), Q(sqrt5), Hamilton's algebra over Q and (-1, -3 / Q)."""
    out = {}
    for name, alg in _algebras():
        units = [alg.one(), alg.i(), alg.j(), (alg.one() + alg.i() + alg.j() + alg.k()) / 2]
        out[name + "-special"] = QuatOrder.special(alg)
        out[name + "-hurwitz"] = QuatOrder.ok_span(alg, units)
        out[name + "-2i"] = QuatOrder.ok_span(alg, [alg.one(), alg.i() * 2, alg.j(), alg.k() * 2])
    return out


ORDERS = _orders()


def _subspace(alg, name):
    if name == "axis":  # Z = D x 0
        return DSubspace(alg, 2, constraint_rows=[[alg.zero(), alg.one()]])
    return DSubspace(alg, 2, basis_cols=[[alg.one(), alg.one()]])


def _same_count(oracle, reference, *args):
    """oracle(*args) == reference(*args), or both refused at the budget."""
    try:
        got = oracle(*args)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            reference(*args)
        return
    assert got == reference(*args)


def _point(order, picks):
    """The sum of the picked Z-basis elements of the order."""
    basis = order.z_basis
    return sum((basis[k % len(basis)] for k in picks), order.algebra.zero())


def _radius_cap(order):
    """2 over Q; 2^{1/4} over the quadratic fields, whose lattices hold too
    many candidates at R = 2 for the per-point reference."""
    return 2 if order.algebra.field.degree == 1 else Rooted(2, 4)


picks = st.lists(st.integers(0, 7), min_size=1, max_size=2)


@pytest.mark.parametrize("oname", sorted(ORDERS))
@settings(max_examples=2)
@given(zname=st.sampled_from(["axis", "diag"]), chosen=picks)
def test_exact_count_zo_matches_per_point_reference(oname, zname, chosen):
    order = ORDERS[oname]
    alg = order.algebra
    q = _point(order, chosen)
    radius = height_h([q, alg.zero()] if zname == "axis" else [q, q])  # a point on h = R
    assume(radius.cmp(_radius_cap(order)) <= 0)
    _same_count(exact_count_zo, reference_count_zo, _subspace(alg, zname), order, radius)


@pytest.mark.parametrize("zname", ["axis", "diag"])
def test_exact_count_zo_band_heavy_sqrt2(zname):
    # R = sqrt2 is past the hypothesis radius cap
    order = ORDERS["Q(sqrt2)-special"]
    z = _subspace(order.algebra, zname)
    assert exact_count_zo(z, order, Rooted(2, 2)) == reference_count_zo(z, order, Rooted(2, 2)) == 41


@pytest.mark.parametrize("oname", sorted(ORDERS))
def test_exact_count_d_matches_per_point_reference(oname):
    # at R = 1 the oracle sweeps M = 1 and the reference m <= s: the Hurwitz
    # units (1 + i + j + k)/2 have O_K-denominator 2; larger radii are
    # pinned below
    order = ORDERS[oname]
    _same_count(exact_count_d, reference_count_d, order.algebra, order, 1, 1)


def test_oracle_counts_pinned():
    # counts of the per-point references: at R = sqrt2 over Q the reference
    # sweeps m <= 4 s, which takes it seconds to minutes per order
    zo = {"hamilton-hurwitz": [25, 169], "m13-special": [5, 33], "hamilton-2i": [5, 17]}
    for oname, want in zo.items():
        order = ORDERS[oname]
        assert [exact_count_zo(_subspace(order.algebra, "axis"), order, r) for r in (1, 2)] == want
    d = {"hamilton-special": 73, "hamilton-hurwitz": 73, "hamilton-2i": 17,
         "m13-special": 29, "m13-hurwitz": 93, "m13-2i": 13}
    for oname, want in d.items():
        assert exact_count_d(ORDERS[oname].algebra, ORDERS[oname], 1, Rooted(2, 2)) == want
    # R = 2 sweeps M <= 16 over Q, past the budget
    with pytest.raises(BudgetExceeded):
        exact_count_d(ORDERS["hamilton-special"].algebra, ORDERS["hamilton-special"], 1, 2)


def _spied(fn, *args):
    """(fn(*args), calls): calls counts QuatElement.__init__ and
    quat.height_h_order, through every path that reaches their code."""
    watched = {quat.QuatElement.__init__.__code__: "QuatElement",
               quat.height_h_order.__code__: "height_h_order"}
    calls = dict.fromkeys(watched.values(), 0)

    def profile(frame, event, _):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        return fn(*args), calls
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize("oname", ["hamilton-special", "hamilton-hurwitz", "hamilton-2i"])
def test_oracles_build_no_quaternion_per_candidate(oname):
    order = ORDERS[oname]
    alg = order.algebra
    z = _subspace(alg, "axis")
    exact_count_zo(z, order, 1)  # builds and caches the bracket module
    for oracle, args, big in ((exact_count_zo, (z, order), 2),
                              (exact_count_d, (alg, order, 1), Rooted(2, 2))):
        (small, at1), (large, at2) = (_spied(oracle, *args, r) for r in (1, big))
        assert large > small
        assert at2["QuatElement"] <= at1["QuatElement"]
        assert at1["height_h_order"] == at2["height_h_order"] == 0
