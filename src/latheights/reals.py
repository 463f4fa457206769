"""Certified real numbers: exact quadratic irrationals and interval balls.

Two carriers cover every real quantity in the library:

* ``QuadReal`` -- numbers of the form a + b*sqrt(m) with rational a, b and a
  squarefree integer m >= 0, carried as integers over one denominator,
  (p + q*sqrt(m)) / d (Cohen, GTM 138, section 4.2).  Sums, products,
  quotients and signs work on those integers and build no ``Fraction``.
  All sign decisions are exact, which is what makes closed-cube boundary
  membership decidable at desk scale.  Its enclosure at p bits, the one
  that a report prints and a ball reads, comes from the same integers
  (``_enclosure``): mpmath's outward-rounded chain p/d + (q/d)*sqrt(m),
  computed step for step with one directed rounding to a p-bit mantissa
  per step and no mpmath object, equal to mpmath's chain bit for bit.
* ``BallReal`` -- a value known only through an interval enclosure, backed by
  a recompute callback.  ``interval(p)`` depends only on p: it is the
  callback's enclosure at p bits, never narrowed by an earlier evaluation at
  another precision, so a value printed at ``PRECISION.start`` bits is the
  same whatever comparisons ran before.

Balls come only from logarithms, pi, roots other than square roots and
exact n-th roots of rationals, and operations with a ball operand.  Two
``QuadReal``s with different radicands stay exact where they can: their
comparison takes two exact squarings (``quad2_sign``), ``max_real``/
``min_real`` return the exact winner, and a product of pure radicals
b*sqrt(p) * c*sqrt(q) is one pure radical.  Only their sums and other
products become balls.

Comparisons between balls evaluate from ``PRECISION.start`` bits, doubling up
to ``PRECISION.cap``; an undecided comparison at the cap raises
``PrecisionExhausted`` instead of guessing.  ``cmp_exp`` compares a value
with e^b for rational b on the same schedule, against the exact endpoints
of e^b's enclosure, so an exact x needs no ball of its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import PrecisionExhausted, ValidationError


class _Precision:
    """Global working-precision policy (bits of interval evaluation)."""

    def __init__(self, start=64, cap=8192):
        self.start = start
        self.cap = cap


PRECISION = _Precision()


@functools.cache
def _mp():
    """mpmath's interval context, imported on first use: only a ball or an
    interval needs it, so exact values never load mpmath."""
    from mpmath import iv

    return iv


_RHO_FROM = 1025  # trial division below this, Pollard-Brent rho above
# the first 13 primes decide Miller-Rabin for every n below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981


def _squarefree_split(m):
    """m = s**2 * m0 with m0 squarefree; returns (s, m0).  m >= 0.

    Trial division runs while k**3 <= r, the part of m not yet factored.
    Then r has no prime factor below k and r < k**3, so it is 1, a prime,
    a product of two distinct primes or the square of a prime.  Once k
    passes _RHO_FROM, r is factored by ``_prime_factors`` instead, unless a
    factor lies past the proven Miller-Rabin range.
    """
    if m == 0:
        return 1, 0
    s, m0, r, k = 1, 1, m, 2
    while k * k * k <= r:
        if k == _RHO_FROM:
            primes = _prime_factors(r)
            if primes is not None:
                for p in set(primes):
                    e = primes.count(p)
                    s, m0 = s * p ** (e // 2), m0 * p ** (e % 2)
                return s, m0
        e = 0
        while r % k == 0:
            r //= k
            e += 1
        s, m0 = s * k ** (e // 2), m0 * k ** (e % 2)
        k += 1 + (k > 2)  # 2, then odd k only
    root = math.isqrt(r)
    return (s * root, m0) if root * root == r else (s, m0 * r)


def _prime_factors(n):
    """The prime factors of n > 1 with multiplicity, n free of primes below
    _RHO_FROM; None if a factor passes Miller-Rabin at or past _MR_PROVEN,
    where passing proves nothing."""
    out, todo = [], [n]
    while todo:
        r = todo.pop()
        # rho needs about sqrt(p) steps to split a power of p: take roots
        # first (a root is at least _RHO_FROM > 2**10, so e < bits / 10)
        for e in range(2, r.bit_length() // 10 + 1):
            root = _exact_iroot(r, e)
            if root is not None:
                todo += [root] * e
                break
        else:
            if _mr_composite(r):
                d = _rho_factor(r)
                todo += [d, r // d]
            elif r < _MR_PROVEN:
                out.append(r)
            else:
                return None
    return out


def _mr_composite(n):
    """True when a Miller-Rabin base proves the odd n > 41 composite."""
    d, t = n - 1, 0
    while not d & 1:
        d, t = d >> 1, t + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(t - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return True
    return False


def _rho_factor(n):
    """A proper factor of the odd composite n: Brent's variant of Pollard's
    rho (Brent, BIT 20 (1980)), gcds taken over batches of 128 steps."""
    for c in itertools.count(1):
        y, step, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(step):
                y = (y * y + c) % n
            done = 0
            while done < step and g == 1:
                ys = y
                for _ in range(min(128, step - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                done += 128
            step *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _round(n, k, prec, away, inexact=False):
    """The magnitude (n + f) * 2**k, for an integer n >= 0 and 0 <= f < 1
    with f > 0 exactly when ``inexact`` (n then has at least prec bits),
    rounded to a prec-bit mantissa toward zero or away from it: (mantissa,
    exponent).  A carry may leave the mantissa at 2**prec."""
    t = max(n.bit_length() - prec, 0)
    m = n >> t
    if away and (inexact or m << t != n):
        m += 1
    return m, k + t


def _divide(a, ea, b, eb, prec):
    """(q, k, r): (a * 2**ea) / (b * 2**eb) lies in [q, q + 1) * 2**k for
    integers a, b > 0, with q of prec + 1 or more bits and r the remainder,
    nonzero exactly when the quotient is inexact: one divmod, which
    ``_round`` rounds both ways."""
    s = prec + 1 - a.bit_length() + b.bit_length()
    q, r = divmod(a << s, b) if s >= 0 else divmod(a, b << -s)
    return q, ea - eb - s, r


@functools.lru_cache(maxsize=256)
def _sqrt_ends(m, prec):
    """(toward, away): the ends of sqrt(m)'s enclosure for an integer
    m > 0, each from m rounded the same way to prec bits: one isqrt each,
    of m shifted to an even exponent and 2 prec + 2 or more bits.  A few
    radicands serve every QuadReal, so the pairs are cached."""
    ends = []
    for away in (False, True):
        n, k = _round(m, 0, prec, away)
        e = max(2 * prec + 2 - n.bit_length(), 0)
        e += (k - e) & 1
        n <<= e
        r = math.isqrt(n)
        ends.append(_round(r, (k - e) >> 1, prec, away, r * r != n))
    return tuple(ends)


def _ratio_mags(a, d, prec):
    """(toward, away): the magnitudes of the ends of a/d's enclosure, for
    integers a, d > 0.  Each integer is first rounded to prec bits, toward
    zero and away from it; the end toward zero divides the a toward zero
    by the d away from zero, and the other end the reverse."""
    g = math.gcd(a, d)
    a, d = a // g, d // g
    if a.bit_length() <= prec and d.bit_length() <= prec:
        # both exact at prec bits: one quotient rounds both ways
        q, k, r = _divide(a, 0, d, 0, prec)
        return _round(q, k, prec, False, r), _round(q, k, prec, True, r)
    q, k, r = _divide(*_round(a, 0, prec, False), *_round(d, 0, prec, True), prec)
    toward = _round(q, k, prec, False, r)
    q, k, r = _divide(*_round(a, 0, prec, True), *_round(d, 0, prec, False), prec)
    return toward, _round(q, k, prec, True, r)


def _sum(x, y, prec, up):
    """x + y for (mantissa, exponent) pairs, rounded to prec bits down
    (toward -inf) or up (toward +inf)."""
    (a, ea), (b, eb) = x, y
    e = min(ea, eb)
    v = (a << (ea - e)) + (b << (eb - e))
    m, e = _round(abs(v), e, prec, up != (v < 0))
    return (-m if v < 0 else m), e


def _enclosure(p, q, d, m, prec):
    """The enclosure [lo, hi] of (p + q*sqrt(m)) / d at prec bits, for
    integers p, q, d and m with d > 0 and m >= 0, as (mantissa, exponent)
    pairs.

    It is the outward-rounded chain p/d + (q/d) * sqrt(m) of mpmath's
    interval arithmetic, step for step on integers: each part's numerator
    and denominator in lowest terms, and m, rounded outward to prec bits;
    each quotient and the square root rounded outward from one divmod and
    one isqrt; the product's and the sum's exact ends rounded outward.
    Every step rounds to a prec-bit mantissa, so the ends equal mpmath's
    bit for bit."""
    lo = hi = (0, 0)
    if p:
        t, a = _ratio_mags(abs(p), d, prec)
        lo, hi = (t, a) if p > 0 else ((-a[0], a[1]), (-t[0], t[1]))
    if not q:
        return lo, hi
    (qt, et), (qa, ea) = _ratio_mags(abs(q), d, prec)
    (st, est), (sa, esa) = _sqrt_ends(m, prec)
    xt = _round(qt * st, et + est, prec, False)
    xa = _round(qa * sa, ea + esa, prec, True)
    xlo, xhi = (xt, xa) if q > 0 else ((-xa[0], xa[1]), (-xt[0], xt[1]))
    return _sum(lo, xlo, prec, False), _sum(hi, xhi, prec, True)


def _iv(lo, hi):
    """The mpmath interval [lo, hi] of two (mantissa, exponent) ends."""
    from mpmath.libmp import from_man_exp

    return _mp().make_mpf((from_man_exp(*lo), from_man_exp(*hi)))


def quad_sign(a, b, m):
    """Exact sign of a + b*sqrt(m) for rational or integer a, b and m >= 0."""
    if b == 0 or m == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    # compare a^2 with b^2 m when the signs differ
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * m
    if a > 0:  # b < 0
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return -1 if lhs > rhs else (1 if lhs < rhs else 0)


def quad2_sign(a, b, p, c, q):
    """Exact sign of a + b*sqrt(p) + c*sqrt(q) for rational a, b, c and
    p, q >= 0 (Burnikel, Fleischer, Mehlhorn and Schirra, Algorithmica 27
    (2000)): when x = a + b*sqrt(p) and c*sqrt(q) have opposite signs, the
    sum has the sign of x times that of x**2 - c**2 q."""
    sx, sy = quad_sign(a, b, p), quad_sign(0, c, q)
    if sx == sy or not sy:
        return sx
    if not sx:
        return sy
    return sx * quad_sign(a * a + b * b * p - c * c * q, 2 * a * b, p)


class Real:
    """Abstract exact-or-certified real."""

    __slots__ = ()

    def interval(self, prec):
        raise NotImplementedError

    # arithmetic dispatch -------------------------------------------------
    def __add__(self, other):
        return _add(self, to_real(other))

    def __radd__(self, other):
        return _add(to_real(other), self)

    def __sub__(self, other):
        return _add(self, _neg(to_real(other)))

    def __rsub__(self, other):
        return _add(to_real(other), _neg(self))

    def __mul__(self, other):
        return _mul(self, to_real(other))

    def __rmul__(self, other):
        return _mul(to_real(other), self)

    def __truediv__(self, other):
        return _div(self, to_real(other))

    def __rtruediv__(self, other):
        return _div(to_real(other), self)

    def __neg__(self):
        return _neg(self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer exponent expected; use pow_real for roots")
        return _ipow(self, n)


class QuadReal(Real):
    """a + b*sqrt(m), exact, held as (p + q*sqrt(m)) / d: integers p, q and
    d > 0 with gcd(p, q, d) = 1, and m squarefree and >= 0, with q == 0
    exactly when m == 0 (Cohen, GTM 138, section 4.2).  ``QuadReal(a, b, m)``
    takes rationals a, b and any m >= 0; the arithmetic builds its results
    with ``scaled_quad``.  ``a`` and ``b`` are the parts as Fractions, for
    display."""

    __slots__ = ("p", "q", "d", "m")

    def __new__(cls, a, b=0, m=0):
        if m < 0:
            raise ValueError("QuadReal radicand must be nonnegative")
        pa, da = _ratio(a)
        pb, db = _ratio(b)
        return _surd(pa * db, pb * da, da * db, m)

    def __setattr__(self, *args):
        raise AttributeError("QuadReal is immutable")

    @property
    def a(self):
        return Fraction(self.p, self.d)

    @property
    def b(self):
        return Fraction(self.q, self.d)

    @property
    def is_rational(self):
        return self.q == 0

    def as_fraction(self):
        if self.q:
            raise ValueError("not rational: %s" % (self,))
        return self.a

    def sign(self):
        """Exact sign in {-1, 0, 1}."""
        return quad_sign(self.p, self.q, self.m)

    def interval(self, prec):
        return _iv(*_enclosure(self.p, self.q, self.d, self.m, prec))

    def __hash__(self):
        if self.q:
            return hash((self.p, self.q, self.d, self.m))
        # a rational value hashes as the Fraction it equals
        return hash(self.p) if self.d == 1 else hash(Fraction(self.p, self.d))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = to_real(other)
        if isinstance(other, QuadReal):
            return (self.p, self.q, self.d, self.m) == (other.p, other.q, other.d, other.m)
        return NotImplemented

    def __repr__(self):
        if not self.q:
            return "QuadReal(%s)" % (self.a,)
        return "QuadReal(%s + %s*sqrt(%d))" % (self.a, self.b, self.m)


_new = object.__new__
_set_p, _set_q, _set_d, _set_m = (
    QuadReal.p.__set__, QuadReal.q.__set__, QuadReal.d.__set__, QuadReal.m.__set__)


def scaled_quad(p, q, d, m):
    """(p + q*sqrt(m)) / d for integers p, q and d != 0 and a squarefree
    m > 1 (any m when q == 0): the one constructor, one gcd to the normal
    form."""
    if not q:
        m = 0
    g = math.gcd(p, q, d)
    if d < 0:
        g = -g
    if g != 1:
        p, q, d = p // g, q // g, d // g
    self = _new(QuadReal)
    _set_p(self, p)
    _set_q(self, q)
    _set_d(self, d)
    _set_m(self, m)
    return self


def _surd(p, q, d, m):
    """(p + q*sqrt(m)) / d for integers and any m >= 0: the square part of m
    moves into q."""
    s, m0 = _squarefree_split(m)
    if m0 <= 1:  # sqrt(0) = 0, sqrt(1) = 1
        return scaled_quad(p + q * s * m0, 0, d, 0)
    return scaled_quad(p, q * s, d, m0)


def _ratio(x):
    """(numerator, denominator) of an int or a rational."""
    if isinstance(x, int):
        return int(x), 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


class BallReal(Real):
    """A real known through an interval enclosure that is a function of the
    working precision; the enclosure at the last precision asked is cached."""

    __slots__ = ("_fn", "_prec", "_ival")

    def __init__(self, fn):
        self._fn = fn
        self._prec = 0
        self._ival = None

    def interval(self, prec):
        if self._prec != prec:
            context = _mp()
            old = context.prec
            try:
                context.prec = prec
                self._ival = self._fn(prec)
            finally:
                context.prec = old
            self._prec = prec
        return self._ival

    def __repr__(self):
        return "BallReal(%s)" % (self.interval(PRECISION.start),)


def to_real(x):
    if isinstance(x, Real):
        return x
    if isinstance(x, int):
        return scaled_quad(int(x), 0, 1, 0)
    if isinstance(x, Fraction):
        return scaled_quad(x.numerator, 0, x.denominator, 0)
    raise TypeError("cannot interpret %r as a Real" % (x,))


ZERO = QuadReal(0)
ONE = QuadReal(1)


# ---------------------------------------------------------------------------
# arithmetic


def _compatible(x, y):
    return x.m == 0 or y.m == 0 or x.m == y.m


def _ball_of(x):
    if isinstance(x, BallReal):
        return x
    return BallReal(lambda p, q=x: q.interval(p))


def _binop_ball(x, y, op):
    bx, by = _ball_of(x), _ball_of(y)
    return BallReal(lambda p: op(bx.interval(p), by.interval(p)))


def _add(x, y):
    if isinstance(x, QuadReal) and isinstance(y, QuadReal) and _compatible(x, y):
        return scaled_quad(x.p * y.d + y.p * x.d, x.q * y.d + y.q * x.d, x.d * y.d, x.m or y.m)
    return _binop_ball(x, y, lambda a, b: a + b)


def _neg(x):
    if isinstance(x, QuadReal):
        return scaled_quad(-x.p, -x.q, x.d, x.m)
    return BallReal(lambda p: -x.interval(p))


def _mul(x, y):
    if isinstance(x, QuadReal) and isinstance(y, QuadReal):
        d = x.d * y.d
        # a rational factor (q == 0) costs 2 products, not 4 + m
        if not y.q:
            return scaled_quad(x.p * y.p, x.q * y.p, d, x.m)
        if not x.q:
            return scaled_quad(x.p * y.p, x.p * y.q, d, y.m)
        if x.m == y.m:
            m = x.m
            return scaled_quad(x.p * y.p + x.q * y.q * m, x.p * y.q + x.q * y.p, d, m)
        if not x.p and not y.p:
            # q sqrt(m) q' sqrt(m') = q q' g sqrt(m m' / g^2), g = gcd(m, m'):
            # m/g and m'/g are coprime and squarefree, so their product is too
            g = math.gcd(x.m, y.m)
            return scaled_quad(0, x.q * y.q * g, d, (x.m // g) * (y.m // g))
    return _binop_ball(x, y, lambda a, b: a * b)


def _div(x, y):
    if isinstance(y, QuadReal):
        # 1 / y = d (p - q sqrt m) / (p^2 - q^2 m)
        norm = y.p * y.p - y.q * y.q * y.m
        if norm == 0:
            raise ZeroDivisionError("division by zero Real")
        return _mul(x, scaled_quad(y.d * y.p, -y.d * y.q, norm, y.m))
    return _binop_ball(x, y, lambda a, b: a / b)


def _ipow(x, n):
    if n == 0:
        return ONE
    if n < 0:
        return _div(ONE, _ipow(x, -n))
    result = None
    base = x
    while n:
        if n & 1:
            result = base if result is None else _mul(result, base)
        n >>= 1
        if n:
            base = _mul(base, base)
    return result


# ---------------------------------------------------------------------------
# comparisons


def cmp_real(x, y, context=""):
    """Three-way comparison; raises PrecisionExhausted if undecidable."""
    x, y = to_real(x), to_real(y)
    if isinstance(x, QuadReal) and isinstance(y, QuadReal):
        # the sign of (x - y) d d' on the integers
        p = x.p * y.d - y.p * x.d
        if _compatible(x, y):
            return quad_sign(p, x.q * y.d - y.q * x.d, x.m or y.m)
        return quad2_sign(p, x.q * y.d, x.m, -y.q * x.d, y.m)
    prec = PRECISION.start
    while True:
        ix, iy = x.interval(prec), y.interval(prec)
        if ix.b < iy.a:
            return -1
        if ix.a > iy.b:
            return 1
        if prec >= PRECISION.cap:
            raise PrecisionExhausted(
                "comparison undecided at %d bits%s: %s vs %s"
                % (prec, (" (%s)" % context) if context else "", ix, iy)
            )
        prec = min(2 * prec, PRECISION.cap)


def cmp_exp(x, b, context=""):
    """Sign of x - e^b for a nonzero rational b: -1 or 1, never 0 when x is
    algebraic, since e^b is then transcendental (Hermite-Lindemann).

    x is decided against the exact dyadic endpoints of e^b's enclosure,
    exactly for a ``QuadReal`` and by its own enclosure for a ball, from
    ``PRECISION.start`` bits doubling up to ``PRECISION.cap``; undecided at
    the cap it raises ``PrecisionExhausted``."""
    x = to_real(x)
    bn, bd = _ratio(b)
    if not bn:
        raise ValidationError("cmp_exp needs a nonzero exponent")
    prec = PRECISION.start
    while True:
        lo, hi = _exp_endpoints(bn, bd, prec)
        if isinstance(x, QuadReal):
            # the sign of (x - t) d t_den for an endpoint t, on the integers
            if quad_sign(x.p * hi.denominator - hi.numerator * x.d, x.q * hi.denominator, x.m) >= 0:
                return 1
            if quad_sign(x.p * lo.denominator - lo.numerator * x.d, x.q * lo.denominator, x.m) <= 0:
                return -1
        else:
            xlo, xhi = endpoints(x, prec)
            if xlo >= hi:
                return 1
            if xhi <= lo:
                return -1
        if prec >= PRECISION.cap:
            raise PrecisionExhausted(
                "comparison with exp(%s) undecided at %d bits%s"
                % (Fraction(bn, bd), prec, (" (%s)" % context) if context else "")
            )
        prec = min(2 * prec, PRECISION.cap)


@functools.lru_cache(maxsize=1024)
def _exp_endpoints(bn, bd, prec):
    """The endpoints of e^b's enclosure at prec bits, b = bn / bd, bd > 0:
    mpmath's exp of b's enclosure at the precision its callback is given.
    They depend only on (b, prec), keyed by b's integer pair, whose hash,
    unlike a Fraction's, takes no modular inverse."""
    b = scaled_quad(bn, 0, bd, 0)
    return endpoints(BallReal(lambda p: _mp().exp(b.interval(p))), prec)


def abs_real(x):
    x = to_real(x)
    if isinstance(x, QuadReal):
        return x if x.sign() >= 0 else _neg(x)
    return BallReal(lambda p: abs(x.interval(p)))


def max_real(*xs):
    xs = [to_real(x) for x in xs]
    best = xs[0]
    for x in xs[1:]:
        if isinstance(best, QuadReal) and isinstance(x, QuadReal):
            if cmp_real(x, best) > 0:
                best = x
        else:
            bb, bx = _ball_of(best), _ball_of(x)
            best = BallReal(
                lambda p, u=bb, v=bx: _iv_max(u.interval(p), v.interval(p))
            )
    return best


def min_real(*xs):
    return _neg(max_real(*[_neg(to_real(x)) for x in xs]))


def _iv_max(a, b):
    # like every _iv_* helper, runs in a BallReal callback: iv.prec is set
    return _mp().mpf([max(a.a, b.a), max(a.b, b.b)])


# ---------------------------------------------------------------------------
# elementary functions


def sqrt_real(x):
    x = to_real(x)
    if isinstance(x, QuadReal) and x.is_rational:
        if x.p < 0:
            raise ValueError("sqrt of negative value")
        # sqrt(p/d) = sqrt(p*d)/d, exact as a QuadReal
        return _surd(0, 1, x.d, x.p * x.d)
    return BallReal(lambda p: _iv_sqrt_clamped(x.interval(p)))


def _iv_sqrt_clamped(a):
    iv = _mp()
    if a.a < 0:
        a = iv.mpf([0, a.b])
    return iv.sqrt(a)


def nthroot_real(x, n):
    """x**(1/n) for x >= 0 and integer n >= 1."""
    if n == 1:
        return to_real(x)
    if n == 2:
        return sqrt_real(x)
    x = to_real(x)
    if isinstance(x, QuadReal) and x.is_rational:
        if x.p < 0:
            raise ValueError("nth root of negative value")
        rn, rd = _exact_iroot(x.p, n), _exact_iroot(x.d, n)
        if rn is not None and rd is not None:
            return scaled_quad(rn, 0, rd, 0)
    return BallReal(lambda p: _iv_root(x.interval(p), n))


def _exact_iroot(k, n):
    """The integer r >= 0 with r**n == k, or None when there is none."""
    if k <= 1:
        return k if k >= 0 else None
    if n == 2:
        r = math.isqrt(k)
    else:
        # integer Newton from above settles on floor(k ** (1/n))
        r = 1 << -(-k.bit_length() // n)
        while True:
            s = ((n - 1) * r + k // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r**n == k else None


def _iv_root(a, n):
    iv = _mp()
    if a.a < 0:
        a = iv.mpf([0, a.b])
    if a.a == 0 and a.b == 0:
        return iv.mpf(0)
    if a.a <= 0:
        # interval touches zero; bracket by endpoint roots
        hi = iv.exp(iv.log(iv.mpf([a.b, a.b])) / n)
        return iv.mpf([0, hi.b])
    return iv.exp(iv.log(a) / n)


def pow_real(x, e):
    """x**e for Fraction exponent e (x > 0 unless e is a nonneg integer)."""
    e = Fraction(e)
    if e.denominator == 1:
        return _ipow(to_real(x), e.numerator)
    return nthroot_real(_ipow(to_real(x), e.numerator), e.denominator)


def log_real(x):
    x = to_real(x)
    return BallReal(lambda p: _iv_log(x.interval(p)))


def _iv_log(a):
    iv = _mp()
    if a.a < 0 <= a.b:
        # the enclosure of a positive value dips below 0 at this
        # precision: clamp it, so the log is unbounded below and a
        # comparison refines instead of failing
        a = iv.mpf([0, a.b])
    return iv.log(a)


def pi_real():
    return BallReal(lambda p: _mp().pi)


def dyadic_endpoints(x, prec=None):
    """(lo, hi, k): the enclosure of x at ``prec`` bits (default
    ``PRECISION.start``) is [lo / 2**k, hi / 2**k], integers lo <= hi and
    k >= 0.  A ``QuadReal``'s comes from ``_enclosure`` with no mpmath
    object, a ball's from its interval.  Raises ValidationError when an
    endpoint is infinite, so an unbounded enclosure never reads as 0."""
    x = to_real(x)
    prec = prec or PRECISION.start
    if isinstance(x, QuadReal):
        (a, ea), (b, eb) = _enclosure(x.p, x.q, x.d, x.m, prec)
    else:
        from mpmath.libmp import finf, fnan, fninf

        ival = x.interval(prec)
        if any(data in (finf, fninf, fnan) for data in ival._mpi_):
            raise ValidationError("unbounded enclosure %s" % (ival,))
        (sa, a, ea, _), (sb, b, eb, _) = ival._mpi_
        a, b = -int(a) if sa else int(a), -int(b) if sb else int(b)
    k = max(0, -ea, -eb)
    return a << (ea + k), b << (eb + k), k


def endpoints(x, prec=None):
    """(lo, hi): the exact endpoints of the enclosure of x at ``prec`` bits
    as Fractions (``dyadic_endpoints``)."""
    lo, hi, k = dyadic_endpoints(x, prec)
    return Fraction(lo, 1 << k), Fraction(hi, 1 << k)


def real_to_float(x):
    """Midpoint of the enclosure at ``PRECISION.start`` bits, rounded to
    the nearest float, for display and rough sorting only."""
    lo, hi, k = dyadic_endpoints(x)
    try:
        return (lo + hi) / (2 << k)
    except OverflowError:
        return math.copysign(math.inf, lo + hi)


# ---------------------------------------------------------------------------
# rooted values


class Rooted:
    """value = base**(1/k) with base >= 0 carried exactly when possible.

    Heights live here: an inhomogeneous height over a degree-d field is
    carried as (h**d, d) with h**d exact, so threshold comparisons against
    rationals never leave the exact regime.
    """

    __slots__ = ("base", "k")

    def __init__(self, base, k=1):
        base = to_real(base)
        if isinstance(base, QuadReal) and base.is_rational and k > 1:
            # reduce perfect powers to keep cross-power comparisons small
            for divisor in range(k, 1, -1):
                if k % divisor == 0:
                    rn = _exact_iroot(base.p, divisor)
                    rd = _exact_iroot(base.d, divisor)
                    if rn is not None and rd is not None:
                        base = scaled_quad(rn, 0, rd, 0)
                        k //= divisor
                        break
        self.base = base
        self.k = k

    def as_real(self):
        return nthroot_real(self.base, self.k)

    def cmp(self, other, context=""):
        if not isinstance(other, Rooted):
            other = Rooted(to_real(other), 1)
        if self.k == other.k:
            return cmp_real(self.base, other.base, context)
        g = math.gcd(self.k, other.k)
        return cmp_real(
            _ipow(self.base, other.k // g), _ipow(other.base, self.k // g), context
        )

    def __mul__(self, other):
        if not isinstance(other, Rooted):
            other = Rooted(to_real(other), 1)
        lcm = self.k * other.k // math.gcd(self.k, other.k)
        return Rooted(
            _mul(_ipow(self.base, lcm // self.k), _ipow(other.base, lcm // other.k)),
            lcm,
        )

    def __pow__(self, n):
        if n < 0:
            return Rooted(_ipow(self.base, -n), self.k).inverse()
        g = math.gcd(n, self.k) if n else 1
        return Rooted(_ipow(self.base, n // g), self.k // g) if n else Rooted(ONE, 1)

    def inverse(self):
        return Rooted(_div(ONE, self.base), self.k)

    def __repr__(self):
        return "Rooted(%r, 1/%d)" % (self.base, self.k)

    def __float__(self):
        return real_to_float(self.as_real())
