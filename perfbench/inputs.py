"""The workloads' inputs, drawn from the seed without the library.

Nothing here imports ``latheights``: a change to the library cannot change
the inputs, and drawing them costs nothing inside the timed set-up.  The
lattice draw needs exact Gram determinants and inverses for its filters;
they are computed here in plain ``Fraction`` arithmetic for that reason.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List

LATTICES_PER_PASS = 480
SUPNORM_BOX_LIMIT = 1_000_000  # redraw bases with a larger sup-norm search box
EXTRA_THM1_INSTANCES = 4
EXTRA_THM1_DRAWS = 2


def _gram(rows):
    big_l = len(rows[0])
    return [[sum(r[i] * r[j] for r in rows) for j in range(big_l)] for i in range(big_l)]


def _inverse(m):
    """Exact inverse of a rational matrix (Gauss-Jordan), or None if singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def box_size(ginv, rows, radius) -> int:
    """Candidates in the coefficient box of the cube of `radius`: the
    product of 2 M_j + 1 with M_j = floor(R * sum_i |(G^-1 B^T)_ji|)."""
    total = 1
    for grow in ginv:
        s = sum(abs(sum(g * r[k] for k, g in enumerate(grow))) for r in rows)
        total *= 2 * math.floor(s * radius) + 1
    return total


def shape_schedule(count: int) -> List[tuple]:
    """(n, L) shapes in the proportions of the cnt-lem draw (n uniform in
    1..5, then L uniform in 1..n), rounded to `count` lattices."""
    return [(n, big_l) for n in range(1, 6) for big_l in range(1, n + 1)
            for _ in range(round(count / (5 * n)))]


def draw_lattices(seed: int, count: int = LATTICES_PER_PASS) -> List[List[List[int]]]:
    """Integral bases (n rows of length L) with entries in [-9, 9], drawn as
    `verify cnt-lem` draws them but stratified by shape: the seed shuffles
    the shape schedule and draws the entries.  A basis with a singular Gram
    matrix or a sup-norm search box above SUPNORM_BOX_LIMIT is redrawn."""
    rng = random.Random(seed)
    shapes = shape_schedule(count)
    rng.shuffle(shapes)
    out = []
    for n, big_l in shapes:
        while True:
            rows = [[rng.randint(-9, 9) for _ in range(big_l)] for _ in range(n)]
            ginv = _inverse(_gram(rows))
            if ginv is None:
                continue
            r0 = min(max(abs(r[j]) for r in rows) for j in range(big_l))
            if box_size(ginv, rows, r0) <= SUPNORM_BOX_LIMIT:
                break
        out.append(rows)
    return out


def extra_thm1_radii(seed: int) -> List[List[Fraction]]:
    """Per seeded thm1 instance, the radii drawn the way the random-instance
    thm1 test draws them."""
    rng = random.Random(seed)
    return [[Fraction(rng.randint(2, 5)) for _ in range(EXTRA_THM1_DRAWS)]
            for _ in range(EXTRA_THM1_INSTANCES)]


def draw(workload: str, seed: int):
    """The inputs of `workload` for `seed`, as plain Python data."""
    if workload == "lattice-grid":
        return draw_lattices(seed)
    if workload == "nf-heights":
        return extra_thm1_radii(seed)
    return seed  # the other workloads use the seed to shuffle their operations
