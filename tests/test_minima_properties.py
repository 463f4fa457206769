"""Property tests: the height minima c_K, z_K and the intersection-module
cache they run on.

By the product formula H(1, 1/alpha) = H(alpha, 1), so h(1/alpha) = h(alpha)
and z_K = min h(alpha) h(1/alpha) is c_K^2 with the same witness; the
minima search relies on that identity, tested here on random elements.
Hypothesis runs derandomized (``conftest.py``).
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latheights import cli, lattice
from latheights.bounds import det_mz_check, exact_count_zo
from latheights.heights import height_h
from latheights.modules import OkModule, minima_ck_zk
from latheights.nf import nf_new
from latheights.quat import DSubspace, QuatAlgebra, QuatOrder, intersection_module, minima_cz_order
from latheights.reals import Rooted, cmp_real

FIELDS = {
    "Q": nf_new([-1, 1], [[1]]),
    "Q(sqrt2)": nf_new([-2, 0, 1], [[1, 0], [0, 1]]),
    "Q(sqrt5)": nf_new([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]]),
}


def _h_pow(field, a):
    return height_h(field, [a]).value_pow()


@settings(max_examples=150)
@given(
    st.sampled_from(sorted(FIELDS)),
    st.lists(st.integers(-40, 40), min_size=2, max_size=2),
    st.sampled_from([1, 1, 2, 3, 7, 12]),
)
def test_height_of_inverse_equals_height(fname, coeffs, den):
    field = FIELDS[fname]
    a = field.element([Fraction(c, den) for c in coeffs[: field.degree]])
    assume(not a.is_zero())
    assert cmp_real(_h_pow(field, a.inv()), _h_pow(field, a)) == 0


def _minima_module(name):
    """The thm1 module or main1 intersection module of a verify instance."""
    suite, inst = name.split(":")
    if suite == "thm1":
        return dict(cli._thm1_instances())[inst]
    for fname, _, order, subspaces in cli._main_quat_instances():
        for zname, z in subspaces:
            if inst == "%s-%s" % (fname, zname):
                return intersection_module(z, order)


MINIMA_CASES = [
    "thm1:%s-%s" % (f, m) for f in ("Q", "Q(sqrt2)", "Q(sqrt5)") for m in ("free-L1", "free-L2", "ideal-L1")
] + ["main1:%s-%s" % (f, z) for f in ("Q(sqrt2)", "Q(sqrt5)") for z in ("axis", "diag")]


@pytest.mark.parametrize("name", MINIMA_CASES)
def test_zk_is_ck_squared_with_the_same_witness(name):
    module = _minima_module(name)
    c, alpha_c, z, alpha_z = minima_ck_zk(module)
    assert alpha_z == alpha_c
    assert z.cmp(c ** 2) == 0
    # c and z at the witness, evaluated from their definitions
    field, d = module.field, module.field.degree
    assert c.cmp(Rooted(_h_pow(field, alpha_c), d)) == 0
    assert z.cmp(Rooted(_h_pow(field, alpha_c) * _h_pow(field, alpha_c.inv()), d)) == 0


def test_intersection_module_built_once_per_subspace_and_order(monkeypatch):
    builds, norms = [], []
    build, pinv = OkModule.from_z_generators.__func__, lattice._pinv_row_norms

    def spy_build(cls, *args):
        builds.append(args)
        return build(cls, *args)

    def spy_norms(lat):
        norms.append(lat)
        return pinv(lat)

    monkeypatch.setattr(OkModule, "from_z_generators", classmethod(spy_build))
    monkeypatch.setattr(lattice, "_pinv_row_norms", spy_norms)
    alg = QuatAlgebra(FIELDS["Q"], FIELDS["Q"].rational(-1), FIELDS["Q"].rational(-1))
    order = QuatOrder.special(alg)

    def axis():
        return DSubspace(alg, 2, constraint_rows=[[alg.zero(), alg.one()]])

    z = axis()
    minima_cz_order(z, order)
    assert (exact_count_zo(z, order, 1), exact_count_zo(z, order, 2)) == (9, 89)
    assert det_mz_check(z, order)
    module = intersection_module(z, order)
    assert len(builds) == 1
    assert sum(lat is module.module_lattice() for lat in norms) == 1
    # a fresh subspace builds its own module, and another order its own too
    fresh = axis()
    assert intersection_module(fresh, order) is not module
    assert len(builds) == 2
    other = QuatOrder(alg, [alg.one(), alg.i(), alg.j() * 2, alg.k() * 2])
    assert intersection_module(z, other) is not module
    assert len(builds) == 3
    assert intersection_module(z, order) is module
