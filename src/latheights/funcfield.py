"""Divisor lattices over function fields: P^1 and elliptic curves over a
prime field F_q, the P-height on functions supported on a point set P, the
lattice determinant identity, and counting bounds verified against exact
integer enumeration.  Everything here is exact integer arithmetic.

Each curve gives its degree-zero divisor classes as a group law (the zero
class INF, ``class_add``, ``divisor_class``), and one relation kernel builds
L_P from that law alone, in either genus (``DivisorLattice``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import intmat
from .bounds import BoundReport, lemma_reports
from .errors import ValidationError
from .lattice import RealLattice, enumerate_cube, supnorm_min
from .reals import cmp_real, max_real, sqrt_real, to_real

GENUS0 = "genus0"
GENUS1 = "genus1"
INF = "inf"

_Q_CAP = 2048


class CurveContext:
    """A curve over F_q (P^1 or an elliptic curve) with a marked point set P."""

    def __init__(self, q: int, model: str = GENUS0,
                 a: int = 0, b: int = 0,
                 points: Optional[Sequence] = None):
        if q > _Q_CAP:
            raise ValidationError("q exceeds the configured cap %d" % _Q_CAP)
        if q < 2 or any(q % p == 0 for p in range(2, q)):
            raise ValidationError("q must be prime in this release")
        self.q = q
        if model not in (GENUS0, GENUS1):
            raise ValidationError("unknown curve model")
        self.model = model
        self.a = a % q
        self.b = b % q
        if model == GENUS1 and (4 * self.a ** 3 + 27 * self.b ** 2) % q == 0:
            raise ValidationError("singular Weierstrass model")
        self.genus = 0 if model == GENUS0 else 1
        all_points = self.rational_points()
        if points is None:
            points = all_points
        self.points = list(points)
        if not self.points:
            raise ValidationError("P must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise ValidationError("points of P must be distinct")
        for p in self.points:
            if p not in all_points:
                raise ValidationError("point %r is not on the curve" % (p,))
        self.n = len(self.points)
        self.num_points = len(all_points)
        self._lattice = None

    def divisor_lattice(self) -> "DivisorLattice":
        """The DivisorLattice of (curve, P), built once per context."""
        if self._lattice is None:
            self._lattice = DivisorLattice(self)
        return self._lattice

    def rational_points(self) -> List:
        """All F_q-rational points; P^1 has q + 1, genus 1 scans q^2 pairs."""
        if self.model == GENUS0:
            return [INF] + list(range(self.q))
        out = [INF]
        for x in range(self.q):
            rhs = (x * x * x + self.a * x + self.b) % self.q
            for y in range(self.q):
                if (y * y) % self.q == rhs:
                    out.append((x, y))
        return out

    # -- elliptic group law -------------------------------------------------

    def ec_neg(self, p):
        if p == INF:
            return INF
        x, y = p
        return (x, (-y) % self.q)

    def ec_add(self, p, r):
        if self.model != GENUS1:
            raise ValidationError("group law requires a genus-1 model")
        q = self.q
        if p == INF:
            return r
        if r == INF:
            return p
        x1, y1 = p
        x2, y2 = r
        if x1 == x2 and (y1 + y2) % q == 0:
            return INF
        if p == r:
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, q) % q
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, q) % q
        x3 = (lam * lam - x1 - x2) % q
        y3 = (lam * (x1 - x3) - y1) % q
        return (x3, y3)

    def ec_mul(self, k: int, p):
        if k < 0:
            return self.ec_mul(-k, self.ec_neg(p))
        acc = INF
        base = p
        while k:
            if k & 1:
                acc = self.ec_add(acc, base)
            base = self.ec_add(base, base)
            k >>= 1
        return acc

    # -- degree-zero divisor classes ----------------------------------------
    # INF is the zero class in both models.  On P^1 every degree-zero divisor
    # is principal, so the group is trivial; on the elliptic curve the class
    # of D is the point sum of D in E(F_q).

    def class_add(self, g, h):
        return self.ec_add(g, h) if self.genus else INF

    def divisor_class(self, vec: Sequence[int]):
        """The class of the degree-zero divisor sum_i vec_i P_i."""
        acc = INF
        if self.genus:
            for e, p in zip(vec, self.points):
                acc = self.ec_add(acc, self.ec_mul(e, p))
        return acc


class DivisorLattice:
    """L_P = exponent vectors of functions with support in P: a finite-index
    sublattice of the root lattice A_{n-1}, of determinant sqrt(n) |J_{X,P}|.

    L_P is the kernel of Z^{n-1} -> J, e -> sum e_i c_i with
    c_i = [P_i - P_0], lifted to the sum-zero vectors of Z^n.  The orbit
    closure of the zero class under the c_i records a vector v(g) with
    sum v(g)_i c_i = g for each class g it reaches; |J_{X,P}| is their
    number.  Each step g -> g + c_i gives the Schreier relation
    v(g) + e_i - v(g + c_i), nonzero only on steps that reach no new class;
    these |J| (n - 1) relations generate the kernel (C. C. Sims, Computation
    with Finitely Presented Groups, CUP 1994).  The HNF of their span
    (H. Cohen, GTM 138, section 2.4) is the basis, each row r lifted as
    (sum r, -r).
    """

    def __init__(self, ctx: CurveContext):
        self.ctx = ctx
        n = ctx.n
        classes = [ctx.divisor_class([-1] + [int(j == i) for j in range(1, n)])
                   for i in range(1, n)]
        reached = {INF: [0] * (n - 1)}
        frontier = [INF]
        relations = []
        while frontier:
            g = frontier.pop()
            for i, c in enumerate(classes):
                h = ctx.class_add(g, c)
                v = list(reached[g])
                v[i] += 1
                if h in reached:
                    relations.append([x - y for x, y in zip(v, reached[h])])
                else:
                    reached[h] = v
                    frontier.append(h)
        self.jxp_order = len(reached)
        kernel = intmat.ZSpan(relations, n - 1)
        if kernel.rank != n - 1:
            raise ValidationError("kernel lattice is rank deficient")
        self.basis = [[sum(r)] + [-x for x in r] for r in kernel.hnf]
        self.rank = n - 1
        # the span of the fixed basis, once: contains() reduces against it
        self._span = intmat.ZSpan(self.basis, n)
        self._real = RealLattice(self.basis)
        self._rows = [list(row) for row in zip(*self.basis)]
        # det(L_P)^2, checked against n |J|^2 by det_bound_checks
        g = [[sum(x * y for x, y in zip(u, v)) for v in self.basis] for u in self.basis]
        self._det_sq = intmat.det(g)

    def det_sq(self) -> int:
        return self._det_sq

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.ctx.n or sum(vec) != 0:
            return False
        return self._span.contains(vec)

    def p_height(self, vec: Sequence[int]) -> int:
        """H_P(f) = max |a_m(f)| for f given by its exponent vector."""
        if not self.contains(vec):
            raise ValidationError("vector is not in the divisor lattice")
        return max(abs(x) for x in vec)

    def points_in_cube(self, b: int) -> List[Tuple[int, ...]]:
        """All lattice vectors with sup-norm <= b: B m for every coefficient
        vector m of the exact cube enumeration of L_P."""
        return [tuple(intmat.matmul_vec(self._rows, m))
                for m in enumerate_cube(self._real, b)]


def count_supported(ctx: CurveContext, b: int) -> int:
    """|{f in O_P^* : H_P(f) <= B}| by two independent pipelines.

    Pipeline 1 counts (q-1) times the lattice points of L_P in the closed
    cube; pipeline 2 re-derives membership from the curve's group law
    directly: a degree-zero exponent vector is kept when its divisor class
    is zero.
    """
    if b < 0:
        raise ValidationError("the height bound must be nonnegative")
    lat = ctx.divisor_lattice()
    count1 = (ctx.q - 1) * len(lat.points_in_cube(b))
    count2 = 0
    n = ctx.n
    for es in itertools.product(range(-b, b + 1), repeat=n - 1):
        head = -sum(es)
        if abs(head) <= b and ctx.divisor_class((head,) + es) == INF:
            count2 += ctx.q - 1
    if count1 != count2:
        raise ValidationError(
            "function-field counting pipelines disagree: %d vs %d"
            % (count1, count2)
        )
    return count1


def lemma_pcount_bounds(ctx: CurveContext, b: int,
                        instance: str = "ffield") -> Tuple[BoundReport, BoundReport]:
    """Sandwich |O_P^*(B)| between the explicit lower and upper bounds."""
    lat = ctx.divisor_lattice()
    exact = count_supported(ctx, b)
    # L_P: rank n - 1 in Z^n, determinant sqrt(n) |J|, sup-norm minimum 1
    return lemma_reports(instance, b, exact, ctx.n, ctx.n - 1, sqrt_real(ctx.n) * lat.jxp_order,
                         1, ctx.q - 1, integral=True)


def det_bound_checks(ctx: CurveContext) -> dict:
    """det(L_P)^2 = n |J|^2; genus-1 range for det; sup-norm minimum bound."""
    lat = ctx.divisor_lattice()
    n = ctx.n
    out = {"det_identity": lat.det_sq() == n * lat.jxp_order ** 2}
    if ctx.model == GENUS1:
        extra = ctx.num_points - ctx.q - 1
        hi = n * (1 + ctx.q + Fraction(extra, ctx.genus)) ** (2 * ctx.genus)
        out["det_range"] = n <= lat.det_sq() <= hi
    else:
        out["det_range"] = lat.det_sq() == n
    # minimal sup-norm over nonzero vectors
    best, _ = supnorm_min(lat._real)
    floor_bound = max_real(to_real(1), sqrt_real(Fraction(2 * ctx.num_points, ctx.q + 1)) / n)
    out["supnorm_low"] = cmp_real(best, floor_bound, context="ff supnorm") >= 0
    return out
