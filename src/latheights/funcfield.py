"""Divisor lattices over function fields: P^1 and elliptic curves over a
prime field F_q, the P-height on functions supported on a point set P, the
lattice determinant identity, and counting bounds verified against exact
integer enumeration.  Everything here is exact integer arithmetic.
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


class DivisorLattice:
    """L_P = exponent vectors of functions with support in P: a finite-index
    sublattice of the root lattice A_{n-1}, of determinant sqrt(n) |J_{X,P}|.
    """

    def __init__(self, ctx: CurveContext):
        self.ctx = ctx
        n = ctx.n
        if ctx.model == GENUS0:
            # principal iff degree zero: L_P is all of A_{n-1}
            self.jxp_order = 1
            basis = []
            for i in range(n - 1):
                v = [0] * n
                v[i], v[i + 1] = 1, -1
                basis.append(v)
            self.basis = basis
        else:
            self.jxp_order, self.basis = self._genus1_kernel()
        self.rank = n - 1
        # the span of the fixed basis, once: contains() reduces against it
        self._span = intmat.ZSpan(self.basis, n)
        self._real = RealLattice(self.basis)
        self._rows = [list(row) for row in zip(*self.basis)]
        # det(L_P)^2, checked against n |J|^2 by det_bound_checks
        g = [[sum(x * y for x, y in zip(u, v)) for v in self.basis] for u in self.basis]
        self._det_sq = intmat.det(g)

    def _genus1_kernel(self) -> Tuple[int, List[List[int]]]:
        ctx = self.ctx
        n = ctx.n
        base = ctx.points[0]
        classes = [
            ctx.ec_add(p, ctx.ec_neg(base)) for p in ctx.points[1:]
        ]
        # image subgroup by orbit closure
        group = {INF}
        frontier = [INF]
        while frontier:
            g = frontier.pop()
            for c in classes:
                h = ctx.ec_add(g, c)
                if h not in group:
                    group.add(h)
                    frontier.append(h)
        j = len(group)
        # kernel of Z^{n-1} -> group on the classes c_i, as a sublattice
        gens = []
        for i, c in enumerate(classes):
            # order of c_i gives j_i e_i in the kernel
            o = 1
            acc = c
            while acc != INF:
                acc = ctx.ec_add(acc, c)
                o += 1
            v = [0] * (n - 1)
            v[i] = o
            gens.append(v)
        # small combinations complete a generating set (desk scale: j is tiny)
        for es in itertools.product(range(j), repeat=n - 1):
            acc = INF
            for e, c in zip(es, classes):
                acc = ctx.ec_add(acc, ctx.ec_mul(e, c))
            if acc == INF and any(es):
                gens.append(list(es))
        kernel = intmat.ZSpan(gens, n - 1)
        if kernel.rank != n - 1:
            raise ValidationError("kernel lattice is rank deficient")
        # lift to sum-zero vectors in Z^n: e_1 = -(e_2 + ... + e_n)
        basis = [[-sum(r)] + r for r in kernel.hnf]
        return j, basis

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
    cube; pipeline 2 re-derives membership from the curve directly (degree
    zero for P^1, vanishing divisor class on the curve for genus 1).
    """
    if b < 0:
        raise ValidationError("the height bound must be nonnegative")
    lat = ctx.divisor_lattice()
    count1 = (ctx.q - 1) * len(lat.points_in_cube(b))
    count2 = 0
    n = ctx.n
    for es in itertools.product(range(-b, b + 1), repeat=n - 1):
        head = -sum(es)
        if abs(head) > b:
            continue
        if ctx.model == GENUS0:
            ok = True  # any degree-zero divisor on P^1 is principal
        else:
            acc = INF
            vec = [head] + list(es)
            for e, p in zip(vec, ctx.points):
                acc = ctx.ec_add(acc, ctx.ec_mul(e, p))
            ok = acc == INF
        if ok:
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
