"""Finitely generated O_K-modules in K^N and their Minkowski lattices.

A module can be given in pseudo-basis form (pairs of a K-vector and a
fractional ideal) or by a list of Z-generators already closed under
multiplication by the integral basis.  Everything downstream consumes the
Z-basis: the embedded lattice, the module discriminant, the scaling ideal
of admissible denominators, and the two height minima taken over it.
Membership is decided on the power-basis coordinates, as integer
numerators over one denominator, by the Z-basis's ``intmat.ZSpan``, built
once with the module.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import intmat, linalg
from .errors import ValidationError
from .heights import height_h
from .intmat import ZSpan
from .lattice import RealLattice, _rat_upper, enumerate_cube, supnorm_min
from .nf import FracIdeal, NfElement, NumberField
from .reals import Real, Rooted, cmp_real


def sigma_embed(field: NumberField, x: Sequence[NfElement]) -> List[Real]:
    """Channel-major real embedding of a K-vector: d blocks of length N."""
    per_elem = [field.channel_values(xi) for xi in x]
    out: List[Real] = []
    for ch in range(field.degree):
        for vals in per_elem:
            out.append(vals[ch])
    return out


def _flatten_power_coords(field: NumberField, x: Sequence[NfElement]) -> Tuple[List[int], int]:
    """(w, e): the power-basis coordinates of the K-vector x, concatenated,
    are w / e in lowest terms, e the lcm of the coordinates' denominators."""
    e = math.lcm(*[xi.den for xi in x])
    flat: List[int] = []
    for xi in x:
        s = e // xi.den
        flat.extend(xi.num if s == 1 else [c * s for c in xi.num])
    return flat, e


def z_combination(vectors: Sequence[Sequence[NfElement]], coeffs: Sequence[int]):
    """sum_i coeffs[i] * vectors[i] for K-vectors, over the nonzero
    coefficients; None when every coefficient is 0."""
    acc = None
    for c, v in zip(coeffs, vectors):
        if c:
            term = [vi * c for vi in v]
            acc = term if acc is None else [a + b for a, b in zip(acc, term)]
    return acc


class OkModule:
    """O_K-module in K^N held by a Z-basis of L*d vectors."""

    def __init__(
        self,
        field: NumberField,
        ambient: int,
        z_basis: Sequence[Sequence[NfElement]],
        pseudo_basis: Optional[Sequence[Tuple[Sequence[NfElement], FracIdeal]]] = None,
        _span: Optional[ZSpan] = None,
    ):
        self.field = field
        self.ambient = ambient
        d = field.degree
        if len(z_basis) % d != 0:
            raise ValidationError("Z-basis size must be a multiple of the degree")
        self.rank = len(z_basis) // d
        self.z_basis = [list(v) for v in z_basis]
        self.pseudo_basis = list(pseudo_basis) if pseudo_basis is not None else None
        self._span = _span or ZSpan.from_scaled(
            [_flatten_power_coords(field, v) for v in self.z_basis], ambient * d)
        if self._span.rank != len(self.z_basis):
            raise ValidationError("Z-basis vectors are dependent")
        self._lattice = None
        self._scaling = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_pseudo_basis(cls, field, ambient, pairs) -> "OkModule":
        z_basis = []
        for y, ideal in pairs:
            y = list(y)
            if len(y) != ambient:
                raise ValidationError("pseudo-basis vector has wrong length")
            for gamma in ideal.z_basis:
                z_basis.append([gamma * yi for yi in y])
        return cls(field, ambient, z_basis, pseudo_basis=list(pairs))

    @classmethod
    def from_z_generators(cls, field, ambient, gens) -> "OkModule":
        """Reduce a Z-generating set (closed under O_K) to a Z-basis."""
        d = field.degree
        span = ZSpan.from_scaled([_flatten_power_coords(field, g) for g in gens], ambient * d)
        z_basis = [[field.scaled_element(row[i * d : (i + 1) * d], span.den)
                    for i in range(ambient)] for row in span.hnf]
        # the HNF rows are the new Z-basis: their span is the same ZSpan
        mod = cls(field, ambient, z_basis, _span=span)
        # closure under the integral basis must hold for a genuine module
        for w in field.basis_elements():
            for v in mod.z_basis:
                if not mod.contains([w * vi for vi in v]):
                    raise ValidationError(
                        "generators are not closed under O_K multiplication"
                    )
        return mod

    @classmethod
    def free_module(cls, field, ambient) -> "OkModule":
        """O_K^N."""
        pairs = []
        unit = FracIdeal.unit(field)
        for i in range(ambient):
            e = [field.zero()] * ambient
            e[i] = field.one()
            pairs.append((e, unit))
        return cls.from_pseudo_basis(field, ambient, pairs)

    # -- membership -------------------------------------------------------

    def contains(self, x: Sequence[NfElement]) -> bool:
        return self._span.contains_int(*_flatten_power_coords(self.field, x))

    # -- embedded lattice and discriminant --------------------------------

    def module_lattice(self) -> RealLattice:
        if self._lattice is None:
            cols = [sigma_embed(self.field, v) for v in self.z_basis]
            self._lattice = RealLattice(cols)
        return self._lattice

    def module_discriminant(self) -> Fraction:
        """D(M), exact rational: det(Lambda(M))^2 = 4^{-L r2} |D(M)|.

        For M = V (I_1 + ... + I_L) from a pseudo-basis, D(M) is
        D_K^L N(I_1)^2 ... N(I_L)^2 N(det V^T V): the K-linear map V scales
        the covolume of the ideal sum by |N(det V)| when V is square, and by
        N(det V^T V)^{1/2} when K is totally real.  Otherwise D(M) is read
        from the integer Gram matrix of the lattice."""
        field = self.field
        big_l = self.rank
        if self.pseudo_basis is not None and (big_l == self.ambient or not field.signature[1]):
            vecs = [y for y, _ in self.pseudo_basis]
            gram = [[sum(map(operator.mul, u, v), field.zero()) for v in vecs] for u in vecs]
            disc = Fraction(field.discriminant) ** big_l * linalg.det(gram).norm()
            for _, ideal in self.pseudo_basis:
                disc *= ideal.norm() ** 2
            return disc
        # derive |D(M)| from the embedded determinant, det^2 = det(G) / den^(2 Ld)
        # on the integer Gram matrix G / den^2: det = 2^{-L r2} |D(M)|^{1/2}
        int_gram = self.module_lattice().int_gram()
        if int_gram is None:
            raise ValidationError("module discriminant requires exact channels, a square "
                                  "pseudo-basis or a totally real field")
        g, den = int_gram
        sign = -1 if (field.discriminant < 0 and big_l % 2 == 1) else 1
        return sign * 4 ** (big_l * field.signature[1]) * Fraction(
            intmat.det(g), den ** (2 * len(g)))

    # -- scaling ideal and height minima ----------------------------------

    def scaling_ideal(self) -> FracIdeal:
        """All alpha in K with alpha * M inside O_K^N."""
        if self._scaling is None:
            field = self.field
            ideal = None
            for v in self.z_basis:
                for xi in v:
                    if xi.is_zero():
                        continue
                    factor = FracIdeal.principal(field, xi.inv())
                    ideal = factor if ideal is None else ideal.intersect(factor)
            if ideal is None:
                raise ValidationError("zero module has no scaling ideal")
            self._scaling = ideal
        return self._scaling


def _ideal_lattice(field: NumberField, ideal: FracIdeal) -> RealLattice:
    return RealLattice([sigma_embed(field, [g]) for g in ideal.z_basis])


def minima_ck_zk(module: OkModule):
    """Certified minima over the scaling ideal.

    Returns (c, alpha_c, z, alpha_z) where c = min h(alpha) and
    z = min h(alpha) h(1/alpha), both as Rooted values with witnesses.  By
    the product formula H(1, 1/alpha) = H(alpha, 1), so h(1/alpha) = h(alpha)
    and z = c^2 with alpha_z = alpha_c (Bombieri and Gubler, Heights in
    Diophantine Geometry, 2006, ch. 1): only c is searched.
    Termination certificate: h(alpha)^d bounds the sup-norm of the embedded
    alpha, so the cube of radius h(alpha_0)^d, for the sup-norm minimizer
    alpha_0, contains every candidate that could still improve c.  As
    h(-alpha) = h(alpha), only the first half of the cube's points, one of
    each pair +-m, is searched, and alpha_0 is not compared with itself.
    """
    field = module.field
    d = field.degree
    ideal = module.scaling_ideal()
    lat = _ideal_lattice(field, ideal)
    gens = [[g] for g in ideal.z_basis]
    _, m0 = supnorm_min(lat)
    (alpha0,) = z_combination(gens, m0)

    def h_pow(a: NfElement):
        return height_h(field, [a]).value_pow()

    best_pow, best = h_pow(alpha0), alpha0
    pts, skip = enumerate_cube(lat, _rat_upper(best_pow)), (m0, tuple(-x for x in m0))
    for m in itertools.islice(pts, len(pts) // 2):
        if m not in skip:
            (a,) = z_combination(gens, m)
            hp = h_pow(a)
            if cmp_real(hp, best_pow, context="c_K search") < 0:
                best_pow, best = hp, a
    return Rooted(best_pow, d), best, Rooted(best_pow * best_pow, d), best
