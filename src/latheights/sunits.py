"""S-unit groups over number fields: the logarithmic lattice, the S-height,
its minimal value, the S-regulator with classical bounds, and counting of
S-units of bounded height verified by two independent pipelines.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .bounds import HOLDS, LOWER, UPPER, BoundReport, lemma_reports
from .errors import PrecisionExhausted, UnresolvedTie, ValidationError
from .intmat import matmul_vec
from .lattice import RealLattice, _coefficient_box, enumerate_cube, supnorm_min
from .nf import NfElement, NumberField
from .reals import (
    _RHO_FROM,
    PRECISION,
    Real,
    _prime_factors,
    abs_real,
    cmp_real,
    log_real,
    max_real,
    sqrt_real,
    to_real,
)


def _divide(n: int, t: List[List[int]], c: List[int]) -> Optional[List[int]]:
    """Coordinates of y/gen when gen divides y (coordinates c), else None;
    (n, t) is the divider of gen (``SUnitContext._place``)."""
    c = matmul_vec(t, c)
    return None if any(e % n for e in c) else [e // n for e in c]


def _ord(n: int, t: List[List[int]], c: List[int]) -> int:
    """Largest k with gen^k | y, for integral y != 0 with coordinates c."""
    k = 0
    while True:
        c = _divide(n, t, c)
        if c is None:
            return k
        k += 1


def _is_prime_power(n: int) -> bool:
    """n = p^k for a prime p and k >= 1.  A prime p below _RHO_FROM is found
    by trial division and stripped, and 1 must remain; otherwise n is prime
    (no divisor up to sqrt(n)) or is factored by ``reals._prime_factors``."""
    if n < 2:
        return False
    for p in range(2, _RHO_FROM):
        if p * p > n:
            return True
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    primes = _prime_factors(n)
    if primes is None:
        raise ValidationError("cannot factor %d within the proven primality range" % n)
    return len(set(primes)) == 1


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
                eps = field.element([Fraction(a, 2), Fraction(b, 2)])
                if not eps.is_integral():
                    continue
                assert abs(eps.norm()) == 1
                return eps
        b += 1
        if b > 10 ** 6:
            raise ValidationError("fundamental unit search exceeded its budget")


class SUnitContext:
    """A number field with a finite place set S = S_inf + S_1 and generators
    of the S-unit group modulo roots of unity.

    Finite places are given by a principal prime generator and its residue
    norm; unit generators default to the fundamental unit for real quadratic
    fields and to the empty list for Q and imaginary quadratic fields.
    """

    def __init__(self, field: NumberField,
                 s1: Sequence[Tuple[NfElement, int]] = (),
                 unit_gens: Optional[Sequence[NfElement]] = None,
                 omega: int = 2):
        self.field = field
        self.s1 = list(s1)
        for gen, np in self.s1:
            if not gen.is_integral():
                raise ValidationError("finite place generator must be integral")
            if abs(gen.norm()) != np or not _is_prime_power(np):
                raise ValidationError(
                    "finite place norm must be the prime-power norm of its generator"
                )
        if unit_gens is None:
            r1, r2 = field.signature
            if field.degree == 1 or (field.degree == 2 and r2 == 1):
                unit_gens = []
            elif field.degree == 2 and r1 == 2:
                unit_gens = [fundamental_unit_real_quadratic(field)]
            else:
                raise ValidationError(
                    "unit generators must be supplied for this field"
                )
        self.unit_gens = list(unit_gens)
        if omega < 2 or omega % 2:
            raise ValidationError("the root-of-unity count is even and >= 2")
        self.omega = omega
        r1, r2 = field.signature
        self.n_places = r1 + r2 + len(self.s1)
        self.all_gens = self.unit_gens + [g for g, _ in self.s1]
        if len(self.all_gens) != self.n_places - 1:
            raise ValidationError(
                "need exactly |S| - 1 multiplicative generators, got %d for |S| = %d"
                % (len(self.all_gens), self.n_places)
            )
        self._lattice = None
        self._places = {}

    # -- valuations ---------------------------------------------------------

    def _place(self, gen: NfElement) -> Tuple[int, List[List[int]], List[List[int]]]:
        """(N, T, M) for gen, cached: N = |N(gen)|, T multiplies by the
        integral element N/gen, M multiplies by gen, both the transposed
        ``mult_rows``.  y/gen has coordinates T c / N, so gen divides y
        exactly when N divides every entry."""
        place = self._places.get(gen)
        if place is None:
            n = int(abs(gen.norm()))
            t, m = ([list(col) for col in zip(*y.mult_rows()[0])]
                    for y in (gen.inv() * n, gen))
            place = self._places[gen] = (n, t, m)
        return place

    def _ord_scaled(self, place, c: List[int], den: int) -> int:
        """ord of x = y/den at a place, y given by integer coordinates c."""
        n, t, _ = place
        k = _ord(n, t, c)
        return k - _ord(n, t, [den * e for e in self.field.one_coords]) if den != 1 else k

    def ord_at(self, gen: NfElement, x: NfElement) -> int:
        """ord of x != 0 at an integral gen: the largest k with x / gen^k in
        O_K for integral x, else ord(x * den) - ord(den) with den the least
        integer that makes x * den integral."""
        if x.is_zero():
            raise ValidationError("valuation of zero")
        return self._ord_scaled(self._place(gen), *self.field.scaled_coords(x))

    def _s_valuations(self, x: NfElement) -> Optional[List[int]]:
        """[ord_p(x)] over the finite places of S if x is an S-unit, else None.

        u = x prod p^(-ord_p(x)) is a unit iff u is integral and
        |N(x)| = prod N(p)^ord_p(x).  u * den is formed on integer
        coordinates: every multiplication first, then every division, so
        each partial product is integral whenever u is.
        """
        if x.is_zero():
            return None
        places = [self._place(g) for g, _ in self.s1]
        c, den = self.field.scaled_coords(x)
        vals = [self._ord_scaled(place, c, den) for place in places]
        for v, (_, _, m) in zip(vals, places):
            for _ in range(-v):
                c = matmul_vec(m, c)
        for v, (n, t, _) in zip(vals, places):
            for _ in range(v):
                c = _divide(n, t, c)
                if c is None:
                    return None
        if any(e % den for e in c):
            return None
        norm = Fraction(1)
        for v, (_, np) in zip(vals, self.s1):
            norm *= Fraction(np) ** v
        return vals if abs(x.norm()) == norm else None

    def is_s_unit(self, x: NfElement) -> bool:
        return self._s_valuations(x) is not None

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

    def row_sums_contain_zero(self) -> bool:
        """Product formula over S: each basis vector's coordinates sum to 0."""
        for vec in self.basis:
            s = vec[0]
            for c in vec[1:]:
                s = s + c
            iv = to_real(s).interval(PRECISION.start)
            if not (iv.a <= 0 <= iv.b):
                return False
        return True


def count_sunits(ctx: SUnitContext, b: Fraction) -> int:
    """|{a in O_S^* : H_S(a) <= B}| by two independent pipelines.

    Pipeline 1 counts lattice points of L_S in the closed sup-norm cube of
    radius B.  Pipeline 2 walks exponent vectors e with |e_i| <= M_i, forms
    a = prod g_i^e_i in field arithmetic and keeps it when its S-height,
    computed from a itself (valuations and archimedean absolute values),
    is at most B.  The caps M_i are the proven coefficient caps of the cube
    (``lattice._coefficient_box``: B times the l1 row norms of the basis
    pseudo-inverse), so every S-unit of height <= B lies in the walked box
    however skewed the generators are; only the box comes from L_S, never
    membership or height.  Both include the omega_K roots of unity per
    point and must agree.
    """
    b = Fraction(b)
    if b <= 0:
        raise ValidationError("the height bound must be positive")
    ll = ctx.log_lattice()
    if ll.rank == 0:
        return ctx.omega
    try:
        in_cube = len(enumerate_cube(ll.lattice, b))
    except PrecisionExhausted as e:
        raise UnresolvedTie("boundary tie while counting S-units: %s" % e)
    count1 = ctx.omega * in_cube
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
    count2 = 0
    for es in itertools.product(*[range(-cap, cap + 1) for cap in caps]):
        a = ctx.field.one()
        for e, pw in zip(es, powers):
            if e:
                a = a * pw[e]
        try:
            if cmp_real(ctx.s_height(a), b, context="s-height filter") <= 0:
                count2 += ctx.omega
        except PrecisionExhausted as e:
            raise UnresolvedTie("boundary tie on an S-height: %s" % e)
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
    """x <= y up to the interval widths at the working precision."""
    ix = to_real(x).interval(PRECISION.start)
    iy = to_real(y).interval(PRECISION.start)
    return float(ix.a) <= float(iy.b)


def regulator_bound_checks(ctx: SUnitContext, h_k: int,
                           r_k=None) -> dict:
    """Classical sandwich for the S-regulator and its absolute lower bound.

    R_K prod log N(p) <= R_{S,K} <= R_K h_K prod log N(p), and
    R_{S,K} >= 0.2052 (log 2)^d log* P; all compared as Ball inequalities
    on the classical (coordinate-deleted) regulator.
    """
    ll = ctx.log_lattice()
    reg = ll.classical_regulator
    if r_k is None:
        if ctx.unit_gens:
            arch = ctx.field.signature[0] + ctx.field.signature[1]
            cols = [ctx.log_embed(g)[:arch] for g in ctx.unit_gens]
            sub = RealLattice(cols)
            r_k = sub.det_value() / sqrt_real(arch)
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
