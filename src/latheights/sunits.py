"""S-unit groups over number fields: the logarithmic lattice, the S-height,
its minimal value, the S-regulator with classical bounds, and counting of
S-units of bounded height verified by two independent pipelines.

Logarithms are taken only for L_S and the regulators.  The height filter
of the count, H_S(a) <= B, compares absolute values instead: every |a|_v
must lie in [e^-B, e^B].  |a|_v is algebraic (exact in degree <= 2) and
e^(+-B) is transcendental for rational B != 0 (Hermite-Lindemann), so the
two never tie, and a few enclosures of e^(+-B) serve every candidate.

Valuations are read on integers (Cohen, GTM 138): a finite place is
a prime (gen) with N(p) = ell^f, checked once, and ord_p of an integral y
is at most ord_ell(N(y)) // f, which one division by a cached power of gen
confirms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .bounds import HOLDS, LOWER, UPPER, BoundReport, lemma_reports
from .errors import PrecisionExhausted, UnresolvedTie, ValidationError
from .intmat import det, matmul_vec, table_rows
from .lattice import RealLattice, _coefficient_box, enumerate_cube, supnorm_min
from .nf import NfElement, NumberField
from .reals import (
    _RHO_FROM,
    PRECISION,
    Real,
    _prime_factors,
    abs_real,
    cmp_exp,
    cmp_real,
    log_real,
    max_real,
    sqrt_real,
    to_real,
)


def _divide(n: int, t: List[List[int]], c: List[int]) -> Optional[List[int]]:
    """Coordinates of y/gen^k when gen^k divides y (coordinates c), else
    None; (n, t) is the divider of gen^k (``_Place.divider``)."""
    c = matmul_vec(t, c)
    return None if any(e % n for e in c) else [e // n for e in c]


def _int_ord(n: int, ell: int) -> int:
    """ord_ell(n) for an integer n != 0."""
    k = 0
    while not n % ell:
        n //= ell
        k += 1
    return k


def _ord(place: "_Place", c: List[int], k: int) -> Tuple[int, List[int]]:
    """(j, q): the largest j with gen^j | y, for integral y != 0 with
    coordinates c and ord_p(y) <= k, and the coordinates q of y / gen^j.
    One division by gen^k confirms j = k; only when it fails does a
    bisection of [0, k) divide further."""
    if not k:
        return 0, c
    q = _divide(*place.divider(k), c)
    if q is not None:
        return k, q
    lo, hi = 0, k  # gen^lo divides y, with quotient c; gen^hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        q = _divide(*place.divider(mid - lo), c)
        if q is None:
            hi = mid
        else:
            lo, c = mid, q
    return lo, c


def _prime_power(n: int) -> Optional[Tuple[int, int]]:
    """(p, k) with n = p^k for a prime p and k >= 1, else None.  A prime p
    below _RHO_FROM is found by trial division and stripped, and 1 must
    remain; otherwise n is prime (no divisor up to sqrt(n)) or is factored
    by ``reals._prime_factors``."""
    if n < 2:
        return None
    for p in range(2, _RHO_FROM):
        if p * p > n:
            return n, 1
        if n % p == 0:
            k = _int_ord(n, p)
            return (p, k) if n == p ** k else None
    primes = _prime_factors(n)
    if primes is None:
        raise ValidationError("cannot factor %d within the proven primality range" % n)
    return (primes[0], len(primes)) if len(set(primes)) == 1 else None


def _inert(disc: int, ell: int) -> bool:
    """The prime ell is inert in the quadratic field of discriminant disc:
    the Kronecker symbol (disc/ell) is -1."""
    if ell == 2:
        return disc % 8 in (3, 5)
    return pow(disc, (ell - 1) // 2, ell) == ell - 1


def _rows(a: NfElement) -> List[List[int]]:
    """The integer matrix that maps the coordinates of y to those of a y,
    for integral a: the transposed ``mult_rows``."""
    return [list(col) for col in zip(*a.mult_rows()[0])]


class _Place:
    """A finite place p = (gen) of S with N(p) = ell^f and ramification
    index e = ord_p(ell), and its integer dividers and multipliers, cached
    per exponent k.  gen^k divides an integral y with coordinates c
    exactly when N(p)^k divides every entry of T_k c, T_k the ``_rows`` of
    the integral (N(p)/gen)^k, and then y/gen^k has coordinates
    T_k c / N(p)^k; M_k (``multiplier``) multiplies by gen^k."""

    def __init__(self, gen: NfElement, norm: int, ell: int, f: int):
        self.gen, self.norm, self.ell, self.f = gen, norm, ell, f
        self._dividers: Dict[int, Tuple[int, List[List[int]]]] = {}
        self._multipliers: Dict[int, List[List[int]]] = {}
        field = gen.field
        # N(ell) = ell^d bounds ord_p(ell) by d // f
        self.e = _ord(self, [ell * x for x in field.one_coords], field.degree // f)[0]

    def divider(self, k: int) -> Tuple[int, List[List[int]]]:
        """(N(p)^k, T_k) for ``_divide``."""
        d = self._dividers.get(k)
        if d is None:
            d = self._dividers[k] = (self.norm ** k, _rows((self.gen.inv() * self.norm) ** k))
        return d

    def multiplier(self, k: int) -> List[List[int]]:
        m = self._multipliers.get(k)
        if m is None:
            m = self._multipliers[k] = _rows(self.gen ** k)
        return m


def _count_roots_of_unity(field: NumberField) -> int:
    """omega_K, counted: the integral zeta with |sigma_v(zeta)| = 1 at every
    archimedean place, the roots of unity (Kronecker).  Each lies in the
    cube of radius 1 of O_K's channel embedding (a real channel is a
    |sigma_v|, a complex place's Re and Im are at most |sigma_v|), walked
    over its proven box by ``enumerate_cube``.  In degree <= 2 the points
    with |N(zeta)| = 1 are those: the cube bounds every real |sigma_v| by
    1, so their product is 1 only when each is, and a complex place is the
    only place, with |sigma(zeta)|^2 = N(zeta)."""
    lat = RealLattice([field.channel_values(w) for w in field.basis_elements()])
    return sum(abs(det(table_rows(field.mult_table, m))) == 1
               for m in enumerate_cube(lat, 1))


def fundamental_unit_real_quadratic(field: NumberField) -> NfElement:
    """The fundamental unit epsilon > 1 of Q(sqrt m), m squarefree > 1.

    Searches b = 1, 2, ... for the minimal solution of a^2 - m b^2 = +-4;
    epsilon = (a + b sqrt m)/2 then generates the units modulo +-1.
    """
    mp = field.minpoly
    if len(mp) != 3 or mp[2] != 1 or mp[1] != 0 or mp[0] >= 0:
        raise ValidationError("field is not Q(sqrt m) in the form x^2 - m")
    m = -mp[0]
    if m <= 1:
        raise ValidationError("m must exceed 1")
    b = 1
    while True:
        for target in (m * b * b - 4, m * b * b + 4):
            if target <= 0:
                continue
            a = math.isqrt(target)
            if a * a == target:
                eps = field.scaled_element([a, b], 2)
                # integral, of norm (a^2 - m b^2) / 4 = +-1: a unit
                if eps.is_integral():
                    return eps
        b += 1
        if b > 10 ** 6:
            raise ValidationError("fundamental unit search exceeded its budget")


class SUnitContext:
    """A number field with a finite place set S = S_inf + S_1 and generators
    of the S-unit group modulo roots of unity.

    Finite places are given by a principal prime generator and its residue
    norm; unit generators default to the fundamental unit for real quadratic
    fields and to the empty list for Q and imaginary quadratic fields.  The
    field has degree at most 2, and its number of roots of unity omega_K
    is read from its discriminant: 4 for D_K = -4, 6 for D_K = -3, and 2
    otherwise (pipeline 2 of ``count_sunits`` counts them itself).
    """

    def __init__(self, field: NumberField,
                 s1: Sequence[Tuple[NfElement, int]] = (),
                 unit_gens: Optional[Sequence[NfElement]] = None):
        if field.degree > 2:
            raise ValidationError("S-unit counts need a field of degree at most 2")
        self.field = field
        self.s1 = list(s1)
        self._places = []
        for gen, np in self.s1:
            if not gen.is_integral():
                raise ValidationError("finite place generator must be integral")
            power = _prime_power(np) if abs(gen.norm()) == np else None
            if power is None:
                raise ValidationError(
                    "finite place norm must be the prime-power norm of its generator"
                )
            # in degree <= 2, (gen) is prime exactly when N(gen) = ell, or
            # N(gen) = ell^2 with ell inert
            ell, f = power
            if f > 1 and not (f == 2 and field.degree == 2 and _inert(field.discriminant, ell)):
                raise ValidationError("the finite place generator of norm %d is not prime" % np)
            self._places.append(_Place(gen, np, ell, f))
        if unit_gens is None:
            real_quadratic = field.signature[0] == 2
            unit_gens = [fundamental_unit_real_quadratic(field)] if real_quadratic else []
        self.unit_gens = list(unit_gens)
        self.omega = {-4: 4, -3: 6}.get(field.discriminant, 2)
        r1, r2 = field.signature
        self.n_places = r1 + r2 + len(self.s1)
        self.all_gens = self.unit_gens + [g for g, _ in self.s1]
        if len(self.all_gens) != self.n_places - 1:
            raise ValidationError(
                "need exactly |S| - 1 multiplicative generators, got %d for |S| = %d"
                % (len(self.all_gens), self.n_places)
            )
        self._lattice = None
        self._roots = None  # pipeline 2's own omega_K (``count_sunits``)
        self._finite_le = {}  # (N(p), k, Bn, Bd) -> N(p)^k < e^(Bn / Bd)

    # -- valuations ---------------------------------------------------------

    def _s_valuations(self, x: NfElement) -> Optional[List[int]]:
        """[ord_p(x)] over the finite places of S if x is an S-unit, else None.

        x = y/den with y integral on integer coordinates c, and |N(y)| is
        one integer determinant.  At a place p with N(p) = ell^f,
        ord_ell(|N(y)|) // f bounds ord_p(y), since ell^f divides N(y)
        once per unit of ord_p(y); one division by gen to that power
        confirms it (``_ord``), and the quotient's norm bounds the next
        place.  ord_p(den) = e ord_ell(den), and gen^ord_p(den) is
        multiplied back in by one cached multiplier.  The generators of
        distinct places are coprime, so after every place c holds u den for
        u = x prod gen^(-ord_p(x)), and u is a unit iff den divides c and
        |N(y)| = den^d prod N(p)^ord_p(x).
        """
        if x.is_zero():
            return None
        field = self.field
        c, den = field.scaled_coords(x)
        norm = abs(det(table_rows(field.mult_table, c)))
        back = 1  # prod N(p)^ord_p(den)
        vals = []
        for place in self._places:
            k, c = _ord(place, c, _int_ord(norm, place.ell) // place.f)
            norm //= place.norm ** k
            o = place.e * _int_ord(den, place.ell)
            if o:
                c = matmul_vec(place.multiplier(o), c)
                back *= place.norm ** o
            vals.append(k - o)
        if norm * back != den ** field.degree or any(e % den for e in c):
            return None
        return vals

    # -- the logarithmic embedding ------------------------------------------

    def log_embed(self, a: NfElement) -> List[Real]:
        """phi_S(a) = (log|a|_v)_{v in S}; finite coordinates -ord_p(a) log N(p)."""
        vals = self._s_valuations(a)
        if vals is None:
            raise ValidationError("element is not an S-unit")
        out: List[Real] = [log_real(av) for av, _ in self.field.arch_places(a)]
        for (_, np), v in zip(self.s1, vals):
            out.append(log_real(Fraction(np)) * (-v))
        return out

    def s_height(self, a: NfElement) -> Real:
        """H_S(a) = max_{v in S} |log|a|_v| (the sup-norm of phi_S(a))."""
        return max_real(*[abs_real(c) for c in self.log_embed(a)])

    def s_height_le(self, a: NfElement, b: Fraction) -> bool:
        """H_S(a) <= b for a rational b > 0, decided without logarithms on
        the absolute values that ``log_embed`` takes logarithms of: every
        |a|_v must lie in [e^-b, e^b].  A finite place passes when
        N(p)^|ord_p(a)| <= e^b, decided once per (N(p), |ord_p(a)|, b) and
        memoized under b's integer pair, whose hash is cheaper than a
        Fraction's; the finite places go first and the first failure ends
        the test.  No |a|_v is e^(+-b) (``cmp_exp``), so no value ties the
        bound."""
        vals = self._s_valuations(a)
        if vals is None:
            raise ValidationError("element is not an S-unit")
        memo, bn, bd = self._finite_le, b.numerator, b.denominator
        for place, v in zip(self._places, vals):
            if v:
                key = (place.norm, abs(v), bn, bd)
                below = memo.get(key)
                if below is None:
                    below = memo[key] = cmp_exp(place.norm ** abs(v), b) < 0
                if not below:
                    return False
        return all(cmp_exp(av, b) < 0 and cmp_exp(av, -b) > 0
                   for av, _ in self.field.arch_places(a))

    # -- the logarithmic lattice --------------------------------------------

    def log_lattice(self) -> "LogLattice":
        if self._lattice is None:
            self._lattice = LogLattice(self)
        return self._lattice


class LogLattice:
    """L_S = phi_S(O_S^*): rank |S| - 1 in the sum-zero hyperplane of R^|S|."""

    def __init__(self, ctx: SUnitContext):
        self.ctx = ctx
        self.rank = len(ctx.all_gens)
        self.basis = [ctx.log_embed(g) for g in ctx.all_gens]
        if self.rank == 0:
            self.lattice = None
            self.regulator = to_real(1)
            self.classical_regulator = to_real(1)
            self.hsk = None
            return
        self.lattice = RealLattice(self.basis)
        try:
            if cmp_real(self.lattice.det_value(), 0, context="log rank") <= 0:
                raise ValidationError("dependent S-unit generators")
        except PrecisionExhausted:
            raise ValidationError("dependent S-unit generators")
        # covolume of L_S; the classical regulator deletes one coordinate,
        # which divides out sqrt(|S|) on the sum-zero hyperplane
        self.regulator = self.lattice.det_value()
        self.classical_regulator = self.regulator / sqrt_real(ctx.n_places)
        self.hsk, _ = supnorm_min(self.lattice)


def count_sunits(ctx: SUnitContext, b: Fraction) -> int:
    """|{a in O_S^* : H_S(a) <= B}| by two independent pipelines.

    Pipeline 1 counts lattice points of L_S in the closed sup-norm cube of
    radius B, times omega_K (``ctx.omega``).  Pipeline 2 walks exponent
    vectors e with |e_i| <= M_i, forms a = prod g_i^e_i in field arithmetic
    and keeps it when H_S(a) <= B, decided from a itself (valuations and
    exact archimedean absolute values against e^(+-B),
    ``SUnitContext.s_height_le``), times the roots of unity it counts
    itself (``_count_roots_of_unity``, once per context).  The caps M_i
    are the proven coefficient caps of the cube (``lattice._coefficient_box``:
    B times the l1 row norms of the basis pseudo-inverse), so every S-unit
    of height <= B lies in the walked box however skewed the generators
    are; only the box comes from L_S, never membership or height.  The two
    counts must agree.
    """
    b = Fraction(b)
    if b <= 0:
        raise ValidationError("the height bound must be positive")
    ll = ctx.log_lattice()
    if ctx._roots is None:
        ctx._roots = _count_roots_of_unity(ctx.field)
    if ll.rank == 0:
        in_cube, caps = 1, []  # the origin; pipeline 2 walks the empty product
    else:
        try:
            in_cube = len(enumerate_cube(ll.lattice, b))
        except PrecisionExhausted as e:
            raise UnresolvedTie("boundary tie while counting S-units: %s" % e)
        caps = _coefficient_box(ll.lattice, b)
    # powers[i][e] = g_i^e for |e| <= caps[i], by successive products
    powers = []
    for g, cap in zip(ctx.all_gens, caps):
        pw = {0: ctx.field.one()}
        if cap:
            ginv = g.inv()
            for e in range(1, cap + 1):
                pw[e] = pw[e - 1] * g
                pw[-e] = pw[1 - e] * ginv
        powers.append(pw)
    kept = 0
    one = ctx.field.one()
    for es in itertools.product(*[range(-cap, cap + 1) for cap in caps]):
        a = None
        for e, pw in zip(es, powers):
            if e:
                a = pw[e] if a is None else a * pw[e]
        a = one if a is None else a
        try:
            kept += ctx.s_height_le(a, b)
        except PrecisionExhausted as e:
            raise UnresolvedTie("boundary tie on an S-height: %s" % e)
    count1, count2 = ctx.omega * in_cube, ctx._roots * kept
    if count1 != count2:
        raise ValidationError(
            "S-unit counting pipelines disagree: %d vs %d" % (count1, count2)
        )
    return count1


def lemma_sunit_bounds(ctx: SUnitContext, b: Fraction,
                       instance: str = "sunits") -> Tuple[BoundReport, BoundReport]:
    """Sandwich |O_S^*(B)| between the explicit lower and upper bounds."""
    b = Fraction(b)
    ll = ctx.log_lattice()
    exact = count_sunits(ctx, b)
    n = ctx.n_places
    if ll.rank == 0:
        # finite unit group: the count is exactly omega_K for every B > 0
        lower = BoundReport(instance, b, exact, to_real(ctx.omega), LOWER, True,
                            HOLDS, note="rank zero: exact count")
        upper = BoundReport(instance, b, exact, to_real(ctx.omega), UPPER, True,
                            HOLDS, note="rank zero: exact count")
        return lower, upper
    # L_S: rank |S| - 1 in R^|S|, covolume R_S, sup-norm minimum H_SK
    return lemma_reports(instance, b, exact, n, n - 1, ll.regulator, ll.hsk, ctx.omega)


def _ball_le(x, y) -> bool:
    """An overlap test, not a certified decision: x's enclosure at the
    working precision starts at or below the end of y's, the mpmath
    endpoints compared exactly.  Overlapping enclosures pass even if x > y."""
    ix = to_real(x).interval(PRECISION.start)
    iy = to_real(y).interval(PRECISION.start)
    return ix.a <= iy.b


def regulator_bound_checks(ctx: SUnitContext, h_k: int) -> dict:
    """Classical sandwich for the S-regulator and its absolute lower bound.

    R_K prod log N(p) <= R_{S,K} <= R_K h_K prod log N(p), and
    R_{S,K} >= 0.2052 (log 2)^d log* P; all compared as Ball inequalities
    on the classical (coordinate-deleted) regulator.
    """
    ll = ctx.log_lattice()
    reg = ll.classical_regulator
    if ctx.unit_gens:
        arch = ctx.field.signature[0] + ctx.field.signature[1]
        cols = [ctx.log_embed(g)[:arch] for g in ctx.unit_gens]
        r_k = RealLattice(cols).det_value() / sqrt_real(arch)
    else:
        r_k = to_real(1)
    prod = to_real(1)
    pmax = 0
    for _, np in ctx.s1:
        prod = prod * log_real(Fraction(np))
        pmax = max(pmax, np)
    lowside = r_k * prod
    highside = r_k * h_k * prod
    d = ctx.field.degree
    logstar = max_real(to_real(1), log_real(Fraction(pmax))) if pmax else to_real(1)
    absolute = Fraction(2052, 10000) * log_real(Fraction(2)) ** d * logstar
    return {
        "rs_low": _ball_le(lowside, reg),
        "rs_up": _ball_le(reg, highside),
        "rs_abs": _ball_le(absolute, reg),
    }
