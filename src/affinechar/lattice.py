"""Exact lattice-point enumeration and alternating Weyl-translated sums.

The drop of a translation t_gamma applied to a weight of shifted level c is
the positive definite quadratic (nu|gamma) + c(gamma|gamma)/2; enumerating
all gamma below a bound is an ellipsoid problem solved exactly over Q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import floor, isqrt, lcm
from operator import mul

from .rootdata import RootSystem, int_inverse
from .series import AffineWeight, CharSlices


def _floor_plus_sqrt(x: Fraction, r2: Fraction) -> int:
    """floor(x + sqrt(r2)) for rationals, r2 >= 0, computed exactly."""
    if r2 < 0:
        raise ValueError("negative radicand")
    # floor(x) + isqrt(floor(r2)) is the answer or one below it
    t = floor(x) + isqrt(floor(r2))
    while (t + 1 - x) ** 2 <= r2:
        t += 1
    return t


def _ceil_minus_sqrt(x: Fraction, r2: Fraction) -> int:
    return -_floor_plus_sqrt(-x, r2)


def quad_points(M: list[list[Fraction]], L: list[Fraction],
                B: Fraction) -> dict[tuple[int, ...], Fraction]:
    """{x: x^T M x / 2 + L.x} over all x in Z^r where that is <= B, for M
    positive definite; each value is exact, read off the integer form."""
    r = len(M)
    # clear denominators once so the box test runs on plain integers:
    # x^T Mi x + 2 Li.x <= 2 Bi with Mi = 2 den M etc., all integral
    den = lcm(*(v.denominator for row in (*M, L, [B]) for v in row))
    Mi = [[int(v * 2 * den) for v in row] for row in M]
    Li = [int(v * 2 * den) for v in L]
    Bi = int(B * 2 * den)
    N, d = int_inverse(Mi)
    Minv = [[Fraction(2 * den * x, d) for x in row] for row in N]
    xstar = [-sum(map(mul, row, L)) for row in Minv]
    qmin = sum(map(mul, L, xstar)) / 2
    R2 = 2 * (B - qmin)
    if R2 < 0:
        return {}
    rad2 = [R2 * Minv[i][i] for i in range(r)]
    ranges = [range(_ceil_minus_sqrt(x, r2), _floor_plus_sqrt(x, r2) + 1)
              for x, r2 in zip(xstar, rad2)]
    out = {}
    for x in iproduct(*ranges):
        tot = 0
        for i in range(r):
            xi = x[i]
            if xi:
                row = Mi[i]
                tot += xi * (sum(row[j] * x[j] for j in range(r))
                             + 2 * Li[i])
        if tot <= 2 * Bi:
            out[x] = Fraction(tot, 4 * den)
    return out


def lattice_points_below(rs: RootSystem, basis, nu_fin, c,
                         bound) -> list[tuple[tuple[int, ...], tuple[int, ...], Fraction]]:
    """All gamma = sum x_i b_i with drop (nu_fin|gamma) + c(gamma|gamma)/2
    <= bound, for an integer basis; nu_fin and c may be rational.

    Returns (integer coords, gamma in fundamental coords as ints, exact
    drop), sorted by drop, then coords.
    """
    if any(v.denominator != 1 for b in basis for v in b):
        raise ValueError("lattice basis must be integral")
    M = [[c * rs.inner(a, b) for b in basis] for a in basis]
    L = [rs.inner(nu_fin, b) for b in basis]
    cols = list(zip(*basis))
    return sorted(((x, tuple([sum(map(mul, x, col)) for col in cols]), drop)
                   for x, drop in quad_points(M, L, bound).items()),
                  key=lambda t: (t[2], t[0]))


def _orbit_sum(rs: RootSystem, lam: AffineWeight, nu_fin, items,
               qmax: int) -> CharSlices:
    """sum over items of sum_w eps(w) coeff e^{w(mu)-nu} q^m, based at lam.

    items: iterable of (mu fundamental coords, m, coeff); offsets are stored
    in root coordinates relative to nu_fin.  Weyl-singular mu contribute 0.
    """
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for mu, m, coeff in items:
        tgt = out.setdefault(m, {})
        for wsign, key in rs.orbit_offsets(mu, nu_fin):
            c = tgt.get(key, 0) + wsign * coeff
            if c:
                tgt[key] = c
            else:
                del tgt[key]
    return CharSlices(rs, lam, qmax, {m: b for m, b in out.items() if b})


def dominant_numerator(rs: RootSystem, lam: AffineWeight, basis, qmax: int,
                       pred=None, coeff_fn=None):
    """(nu_fin, {m: {mu: c}}): the lattice numerator in the dominant chamber.

    nu_fin is the finite part of lam + rho-hat, c its level.  Each gamma of
    the lattice spanned by `basis` with drop m <= qmax and pred(gamma) true
    adds eps(w) coeff(gamma) at the dominant mu = w(nu_fin + c gamma), in
    integer fundamental coordinates.  Singular mu and zero totals are
    dropped; slices at negative m are kept.
    """
    nu_fin = tuple(f + 1 for f in lam.finite)  # lam + rho-hat
    c = lam.level + rs.dual_coxeter
    if c <= 0:
        raise ValueError("shifted level k + h_vee must be positive")
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for x, gamma, drop in lattice_points_below(rs, basis, nu_fin, c, qmax):
        if pred is not None and not pred(gamma, x):
            continue
        if drop.denominator != 1:
            raise AssertionError(f"non-integral drop {drop} at {x}")
        coeff = 1 if coeff_fn is None else coeff_fn(gamma, x)
        if coeff == 0:
            continue
        mu, sign, _ = rs.dominant_offset(
            [a + c * g for a, g in zip(nu_fin, gamma)], nu_fin)
        if all(mu):
            tgt = out.setdefault(int(drop), {})
            mu = tuple(mu)
            v = tgt.get(mu, 0) + sign * coeff
            if v:
                tgt[mu] = v
            else:
                del tgt[mu]
    return nu_fin, {m: b for m, b in out.items() if b}


def alt_weyl_raw(rs: RootSystem, lam: AffineWeight, basis, qmax: int,
                 pred=None, coeff_fn=None) -> CharSlices:
    """sum_w eps(w) w sum_gamma coeff(gamma) t_gamma e^{lam+rho-hat}, sliced:
    each weight of the dominant_numerator expanded over its orbit.

    Terms are exponents relative to lam + (mult of delta), graded by the
    delta-drop m; terms at negative m are kept, for require_nonnegative()
    to refuse.  The size gate rs.weyl_group(), which walks the orbit of
    rho, runs before any lattice point, so that an oversized group is
    refused before that work is spent.
    """
    # a shifted level <= 0 is refused by dominant_numerator, not the gate
    if lam.level + rs.dual_coxeter > 0:
        rs.weyl_group()
    nu_fin, num = dominant_numerator(rs, lam, basis, qmax, pred, coeff_fn)
    return _orbit_sum(rs, lam, nu_fin, [(mu, m, c) for m, b in num.items()
                                        for mu, c in b.items()], qmax)
