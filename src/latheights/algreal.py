"""Real algebraic numbers as (squarefree integer minpoly, isolating interval).

Root isolation uses Sturm sequences over the rationals; comparisons against
rationals are decided exactly by sign evaluation and bisection.  Only the
machinery actually needed downstream is provided: isolation, exact
comparison, and interval evaluation as a certified ball.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .reals import BallReal, QuadReal, _enclosure, _iv

LESS, EQUAL, GREATER = -1, 0, 1


def poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p):
    return [c * i for i, c in enumerate(p)][1:]


def poly_divmod(a, b):
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        coeff = a[-1] / b[-1]
        deg = len(a) - len(b)
        q[deg] = coeff
        for i, c in enumerate(b):
            a[deg + i] -= coeff * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return q, a


def poly_gcd(a, b):
    a, b = list(a), list(b)
    while any(b):
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not any(a):
        return [Fraction(1)]
    lead = a[-1]
    return [c / lead for c in a]


def squarefree_part(p):
    g = poly_gcd(p, poly_deriv(p))
    if len(g) <= 1:
        return list(p)
    return poly_divmod(p, g)[0]  # g = gcd(p, p') divides p: no remainder


def _sturm_chain(p):
    chain = [list(p), poly_deriv(p)]
    while any(chain[-1]):
        _, r = poly_divmod(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-c for c in r])
    return chain


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(p):
    """Cauchy bound: all real roots lie in [-B, B]."""
    lead = abs(Fraction(p[-1]))
    b = 1 + max((abs(Fraction(c)) / lead for c in p[:-1]), default=Fraction(0))
    return b


class AlgReal:
    """One real root of a squarefree integer polynomial, isolated."""

    __slots__ = ("minpoly", "lo", "hi")

    def __init__(self, minpoly, lo, hi):
        self.minpoly = [int(c) for c in minpoly]
        self.lo, self.hi = Fraction(lo), Fraction(hi)

    def refine_interval(self):
        """Halve the isolating interval (exact bisection)."""
        mid = (self.lo + self.hi) / 2
        v = poly_eval(self.minpoly, mid)
        if v == 0:
            self.lo = self.hi = mid
            return
        vlo = poly_eval(self.minpoly, self.lo)
        if vlo == 0:
            self.hi = self.lo
            return
        if (v > 0) == (vlo > 0):
            self.lo = mid
        else:
            self.hi = mid

    def to_ball(self):
        def fn(prec, self=self):
            # shrink the isolating interval until it is tight enough
            width_goal = Fraction(1, 2 ** (prec - 2))
            while self.hi - self.lo > width_goal:
                self.refine_interval()
            lo = _enclosure(self.lo.numerator, 0, self.lo.denominator, 0, prec)[0]
            return _iv(lo, _enclosure(self.hi.numerator, 0, self.hi.denominator, 0, prec)[1])

        return BallReal(fn)

    def to_quad(self):
        """Exact QuadReal form for degree <= 2 minimal polynomials."""
        p = self.minpoly
        while len(p) > 1 and p[-1] == 0:
            p = p[:-1]
        if len(p) == 2:
            return QuadReal(Fraction(-p[0], p[1]))
        if len(p) == 3:
            c, b, a = Fraction(p[0]), Fraction(p[1]), Fraction(p[2])
            disc = b * b - 4 * a * c
            if disc < 0:
                raise ValueError("complex root")
            # roots: -b/(2a) +- sqrt(disc)/(2a); sqrt(disc) = sqrt(num*den)/den
            for sgn in (1, -1):
                bq = Fraction(sgn) / (2 * a * disc.denominator)
                cand = QuadReal(-b / (2 * a), bq, disc.numerator * disc.denominator)
                # candidate must lie in [lo, hi]
                if (cand - self.lo).sign() >= 0 and (cand - self.hi).sign() <= 0:
                    return cand
            raise ValueError("no quadratic root in the isolating interval")
        return None

    def __repr__(self):
        return "AlgReal(%r in [%s, %s])" % (self.minpoly, self.lo, self.hi)


def isolate_real_roots(p):
    """All distinct real roots of a nonzero integer polynomial."""
    p = [int(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise ValueError("zero polynomial")
    if len(p) == 1:
        return []
    sf = squarefree_part(p)
    # rescale to integers
    den = math.lcm(*[Fraction(c).denominator for c in sf])
    sfi = [int(Fraction(c) * den) for c in sf]
    chain = _sturm_chain(sfi)
    bound = root_bound(sfi)
    roots = []

    def recurse(lo, hi, nlo, nhi):
        count = nlo - nhi
        if count == 0:
            return
        if count == 1:
            # shrink until endpoints are not roots and interval is clean
            while poly_eval(sfi, lo) == 0 or poly_eval(sfi, hi) == 0:
                if poly_eval(sfi, lo) == 0:
                    roots.append(AlgReal(sfi, lo, lo))
                    return
                if poly_eval(sfi, hi) == 0:
                    hi = (lo + hi) / 2
                    nhi = _sign_changes(chain, hi)
                    recurse(lo, hi, nlo, nhi)
                    roots.append(AlgReal(sfi, hi, hi))
                    return
            roots.append(AlgReal(sfi, lo, hi))
            return
        mid = (lo + hi) / 2
        if poly_eval(sfi, mid) == 0:
            eps = (hi - lo) / (4 * count * count + 4)
            # find a separation width below the minimal root gap by retrying
            while True:
                l2, r2 = mid - eps, mid + eps
                n_l2, n_r2 = _sign_changes(chain, l2), _sign_changes(chain, r2)
                if n_l2 - n_r2 == 1:
                    break
                eps /= 2
            recurse(lo, l2, nlo, n_l2)
            roots.append(AlgReal(sfi, mid, mid))
            recurse(r2, hi, n_r2, nhi)
        else:
            nmid = _sign_changes(chain, mid)
            recurse(lo, mid, nlo, nmid)
            recurse(mid, hi, nmid, nhi)

    lo, hi = -bound, bound
    recurse(lo, hi, _sign_changes(chain, lo), _sign_changes(chain, hi))
    roots.sort(key=lambda r: (r.lo + r.hi) / 2)
    return roots


def compare_exact(root, q):
    """Exact three-way comparison of an AlgReal against a rational."""
    q = Fraction(q)
    if poly_eval(root.minpoly, q) == 0 and root.lo <= q <= root.hi:
        return EQUAL
    # q is not this root: refine until the isolating interval excludes q
    while root.lo < q < root.hi:
        root.refine_interval()
    return LESS if root.hi <= q else GREATER
