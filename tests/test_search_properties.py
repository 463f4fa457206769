"""Property tests: the quaternion searches' integer forms against the
per-point quaternion code they replaced.

The searches decide isotropy, avoided form zero sets and avoided subspaces
on integer Gram matrices over the bracket module's Z-basis coordinates, and
take heights from integer reduced norms.  Each form is compared here with
its oracle on the QuatElement point: ``eval_hermitian``, the constraint
rows applied in the algebra, and ``quat.height_h``.  The whole shell walk is
compared with a reference that sorts every shell by height before it
filters, as the searches did before.  Coefficient vectors reach past the
int64 guard of ``bounds._form_values``.  Hypothesis runs derandomized.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latheights import bounds, cli
from latheights.bounds import (
    _form_values,
    _height_key,
    _search_shells,
    _shell_heights,
    _subspace_form,
    search_isotropic,
)
from latheights.errors import BudgetExceeded
from latheights.lattice import enumerate_cube
from latheights.modules import z_combination
from latheights.nf import nf_new
from latheights.quat import (
    DSubspace,
    QuatAlgebra,
    QuatOrder,
    bracket_inv,
    eval_hermitian,
    height_h,
    intersection_module,
    module_gram,
    norm_grams,
)

PROPERTY = settings(max_examples=40)


def _algebras():
    kq = nf_new([-1, 1], [[1]])
    out = [(fname, alg, order) for fname, alg, order, _ in cli._main_quat_instances()]
    for name, (a, b) in (("hamilton", (-1, -1)), ("m13", (-1, -3))):
        alg = QuatAlgebra(kq, kq.rational(a), kq.rational(b))
        out.append((name, alg, QuatOrder.special(alg)))
    return out


def _subspaces(alg):
    one, zero = alg.one(), alg.zero()
    return {
        "D1": DSubspace(alg, 1, basis_cols=[[one]]),
        "D2": DSubspace(alg, 2, basis_cols=[[one, zero], [zero, one]]),
        "axis": DSubspace(alg, 2, constraint_rows=[[zero, one]]),
        "diag": DSubspace(alg, 2, basis_cols=[[one, one]]),
        "twist": DSubspace(alg, 2, basis_cols=[[one, alg.i() + alg.j()]]),
    }


CASES = {}
for _fname, _alg, _order in _algebras():
    for _zname, _z in _subspaces(_alg).items():
        CASES["%s-%s" % (_fname, _zname)] = (_alg, _z, _order)
MODULES = {}


def _case(name):
    alg, z, order = CASES[name]
    if name not in MODULES:
        MODULES[name] = intersection_module(z, order)
    return alg, z, MODULES[name]


def _hermitian(alg, n, coeffs):
    """A hermitian n x n form from integer coefficients: K on the diagonal."""
    field = alg.field
    d = field.degree
    diag = [alg.element(field.element(coeffs[d * l: d * l + d])) for l in range(n)]
    if n == 1:
        return [diag]
    q = alg.element(*[field.element(coeffs[2 * d + d * t: 3 * d + d * t]) for t in range(4)])
    return [[diag[0], q], [q.conj(), diag[1]]]


def _hyperbolic(alg, n):
    one, zero = alg.one(), alg.zero()
    return [[one]] if n == 1 else [[zero, one], [one, zero]]


def _vanishes(grams, arr):
    return np.all([v == 0 for v in _form_values(grams, arr)], axis=0)


def _in_subspace(u, xs):
    """The per-point subspace test the searches used: every constraint row
    applied to x in the algebra."""
    for row in u.constraint_rows():
        acc = sum((ri * xi for ri, xi in zip(row, xs)), u.algebra.zero())
        if not acc.is_zero():
            return False
    return True


def _coefficients(draw, name):
    alg, z, module = _case(name)
    rank = len(module.z_basis)
    scale = draw(st.sampled_from([1, 1, 10 ** 9, 10 ** 12]))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                         min_size=1, max_size=4))
    return [[scale * c for c in row] for row in rows]


@st.composite
def case_points(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    return name, _coefficients(draw, name)


def _points(name, rows):
    alg, _, module = _case(name)
    return [bracket_inv(alg, z_combination(module.z_basis, m)) if any(m) else None for m in rows]


# ---------------------------------------------------------------------------
# each integer form against its oracle


@PROPERTY
@given(case_points(), st.lists(st.integers(-4, 4), min_size=12, max_size=12),
       st.booleans())
def test_form_values_match_eval_hermitian(cp, coeffs, hyperbolic):
    name, rows = cp
    alg, z, module = _case(name)
    n = z.ambient
    f = _hyperbolic(alg, n) if hyperbolic else _hermitian(alg, n, coeffs)
    grams, den = module_gram(module, f)
    arr = np.array(rows, dtype=object)
    vals = _form_values(grams, arr)
    zero = _vanishes(grams, arr)
    for k, xs in enumerate(_points(name, rows)):
        want = eval_hermitian(f, xs) if xs else alg.field.zero()
        assert [Fraction(int(v[k]), den) for v in vals] == list(want.coeffs)
        assert bool(zero[k]) == want.is_zero()


@PROPERTY
@given(case_points())
def test_shell_heights_match_height_h(cp):
    name, rows = cp
    alg, _, module = _case(name)
    rows = [m for m in rows if any(m)] or [[1] + [0] * (len(module.z_basis) - 1)]
    got = _shell_heights(alg.field, norm_grams(module, alg), np.array(rows, dtype=object), {})
    for (key, h), xs in zip(got, _points(name, rows)):
        want = height_h(xs)
        assert h.cmp(want) == 0
        assert key == _height_key(want)


@PROPERTY
@given(case_points(), st.sampled_from(["axis", "diag", "twist"]))
def test_subspace_form_matches_constraint_rows(cp, uname):
    name, rows = cp
    alg, z, module = _case(name)
    if z.ambient != 2:
        return
    u = _subspaces(alg)[uname]
    grams, _ = module_gram(module, _subspace_form(u))
    inside = _vanishes(grams, np.array(rows, dtype=object))
    for k, xs in enumerate(_points(name, rows)):
        assert bool(inside[k]) == (xs is None or _in_subspace(u, xs))


# ---------------------------------------------------------------------------
# the shell walk against the sort-then-filter reference


def _reference_shells(alg, module, zeros, avoid_u, avoid_f, max_radius):
    """Every shell point built as QuatElements, sorted by height, then filtered."""
    lat = module.module_lattice()
    emitted = set()
    radius = Fraction(1)
    while radius <= max_radius:
        batch = []
        for m in enumerate_cube(lat, radius):
            if any(m) and m not in emitted:
                emitted.add(m)
                xs = bracket_inv(alg, z_combination(module.z_basis, m))
                batch.append((height_h(xs), m, xs))
        batch.sort(key=lambda p: _height_key(p[0]))
        yield [
            (h, m) for h, m, xs in batch
            if all(eval_hermitian(f, xs).is_zero() for f in zeros)
            and not any(_in_subspace(u, xs) for u in avoid_u)
            and not any(eval_hermitian(f, xs).is_zero() for f in avoid_f)
        ]
        radius *= 2


def _assert_same_walk(alg, module, zeros, avoid_u, avoid_f, max_radius):
    got = list(_search_shells(module, alg, zeros, avoid_u, avoid_f, max_radius))
    want = list(_reference_shells(alg, module, zeros, avoid_u, avoid_f, max_radius))
    assert [[m for _, m in b] for b in got] == [[m for _, m in b] for b in want]
    for gb, wb in zip(got, want):
        for (hg, _), (hw, _) in zip(gb, wb):
            assert hg.cmp(hw) == 0 and _height_key(hg) == _height_key(hw)
    return got


def _gaussian_order(alg):
    """Z<1, i, 2j, 2k>: an order whose cube of radius 1 in D^2 holds 80 points."""
    units = [alg.one(), alg.i(), alg.j() * 2, alg.k() * 2]
    return QuatOrder(alg, [q * w for q in units for w in alg.field.basis_elements()])


@pytest.mark.parametrize("aname", ["hamilton", "m13"])
def test_walk_matches_reference_with_filters(aname):
    alg, z, _ = CASES[aname + "-D2"]
    module = intersection_module(z, _gaussian_order(alg))
    subs, hyper = _subspaces(alg), _hyperbolic(alg, 2)
    form = _hermitian(alg, 2, [1, -1, 0, 1, 1, 0])
    for zeros, avoid_u, avoid_f in (
        ([], [subs["axis"], subs["twist"]], [hyper]),
        ([hyper], [subs["diag"]], []),
        ([form], [], [hyper]),
    ):
        got = _assert_same_walk(alg, module, zeros, avoid_u, avoid_f, Fraction(1))
        assert 0 < len(got[0]) < 80


@pytest.mark.parametrize("zname", ["D1", "diag"])
def test_walk_matches_reference_quadratic_field(zname):
    alg, z, module = _case("Q(sqrt2)-" + zname)
    avoid_u = [_subspaces(alg)["axis"]] if z.ambient == 2 else []
    got = _assert_same_walk(alg, module, [], avoid_u, [], Fraction(1))
    assert len(got[0]) == 80


def test_walk_matches_reference_past_int64_guard():
    # Z = (1, c) D with c = 2^32: norm Gram entries ~ c^2 exceed the guard,
    # and the cube of radius c is the first to hold points (80 of them).  A
    # power of 2 keeps reals._squarefree_split quick on the heights.
    _, alg, order, _ = cli._main_quat_instances()[0]
    c = alg.field.rational(2 ** 32)
    z = DSubspace(alg, 2, basis_cols=[[alg.one(), alg.element(c)]])
    module = intersection_module(z, order)
    grams = norm_grams(module, alg)[1][0]
    arr = np.ones((1, len(module.z_basis)), dtype=np.int64)
    assert _form_values(grams, arr)[0].dtype == object
    got = _assert_same_walk(alg, module, [], [], [_hyperbolic(alg, 2)], Fraction(2 ** 32))
    assert sum(map(len, got)) == 80


# ---------------------------------------------------------------------------
# heights only for survivors


def test_heights_only_for_survivors(monkeypatch):
    rows = []
    real = bounds._shell_heights
    monkeypatch.setattr(bounds, "_shell_heights",
                        lambda field, norms, arr, memo: rows.append(len(arr)) or
                        real(field, norms, arr, memo))
    alg, z, order = CASES["Q(sqrt2)-D1"]
    with pytest.raises(BudgetExceeded):  # the norm form is anisotropic
        search_isotropic([[alg.one()]], z, order, max_radius=Fraction(2))
    assert rows == [0, 0]
    rows.clear()
    alg, z, _ = CASES["hamilton-D2"]
    order = _gaussian_order(alg)
    hyper = _hyperbolic(alg, 2)
    res = search_isotropic(hyper, z, order)
    assert res["status"] == "PASS"
    assert eval_hermitian(hyper, res["point"]).is_zero()
    module = intersection_module(z, order)
    shell = [bracket_inv(alg, z_combination(module.z_basis, m))
             for m in enumerate_cube(module.module_lattice(), 1) if any(m)]
    assert rows == [sum(eval_hermitian(hyper, xs).is_zero() for xs in shell)]
    assert 0 < rows[0] < len(shell)
