"""Exact lattice-point enumeration and alternating Weyl-translated sums.

The drop of a translation t_gamma applied to a weight of shifted level c is
the positive definite quadratic (nu|gamma) + c(gamma|gamma)/2; enumerating
all gamma below a bound is an ellipsoid problem solved exactly over Q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import floor, gcd, isqrt
from operator import mul

from .rootdata import RootSystem, int_inverse
from .series import AffineWeight, CharSlices, rho_hat


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
    den = 1
    for v in [x for row in M for x in row] + list(L) + [B]:
        den = den * v.denominator // gcd(den, v.denominator)
    Mi = [[int(v * 2 * den) for v in row] for row in M]
    Li = [int(v * 2 * den) for v in L]
    Bi = int(B * 2 * den)
    N, d = int_inverse(Mi)
    Minv = [[Fraction(2 * den * x, d) for x in row] for row in N]
    xstar = [
        -sum(Minv[i][j] * L[j] for j in range(r)) for i in range(r)
    ]
    qmin = sum(L[i] * xstar[i] for i in range(r)) / 2
    R2 = 2 * (B - qmin)
    if R2 < 0:
        return {}
    ranges = []
    for i in range(r):
        rad2 = R2 * Minv[i][i]
        lo = _ceil_minus_sqrt(xstar[i], rad2)
        hi = _floor_plus_sqrt(xstar[i], rad2)
        if lo > hi:
            return {}
        ranges.append(range(lo, hi + 1))
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


def lattice_points_below(rs: RootSystem, basis, nu_fin, c: Fraction,
                         bound) -> list[tuple[tuple[int, ...], tuple[int, ...], Fraction]]:
    """All gamma = sum x_i b_i with drop (nu_fin|gamma) + c(gamma|gamma)/2
    <= bound, for an integral basis.

    Returns (integer coords, gamma in fundamental coords as ints, exact
    drop), sorted by drop, then coords.
    """
    if any(v.denominator != 1 for b in basis for v in b):
        raise ValueError("lattice basis must be integral")
    r = len(basis)
    M = [
        [c * rs.inner(basis[i], basis[j]) for j in range(r)] for i in range(r)
    ]
    L = [rs.inner(nu_fin, basis[i]) for i in range(r)]
    cols = [[int(v) for v in col] for col in zip(*basis)]
    out = [(x, tuple([sum(map(mul, x, col)) for col in cols]), drop)
           for x, drop in quad_points(M, L, Fraction(bound)).items()]
    out.sort(key=lambda t: (t[2], t[0]))
    return out


def _orbit_sum(rs: RootSystem, lam: AffineWeight, nu_fin, items,
               qmax: int) -> CharSlices:
    """sum over items of sum_w eps(w) coeff e^{w(mu)-nu} q^m, based at lam.

    items: iterable of (mu fundamental coords, m, coeff); offsets are stored
    in root coordinates relative to nu_fin.  Weyl-singular mu contribute 0.
    """
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for mu, m, coeff in items:
        if coeff == 0:
            continue
        tgt = out.setdefault(m, {})
        for wsign, key in rs.orbit_offsets(mu, nu_fin):
            c = tgt.get(key, 0) + wsign * coeff
            if c:
                tgt[key] = c
            else:
                del tgt[key]
    return CharSlices(rs, lam, qmax, {m: b for m, b in out.items() if b})


def alt_weyl_raw(rs: RootSystem, lam: AffineWeight, basis, qmax: int,
                 pred=None, coeff_fn=None) -> CharSlices:
    """sum_w eps(w) w sum_gamma coeff(gamma) t_gamma e^{lam+rho-hat}, sliced.

    gamma runs over the lattice spanned by `basis` with drop <= qmax and
    pred(gamma) true.  Terms are exponents relative to lam + (mult of delta);
    the m-grading is the exact delta-drop, which must be integral.  Terms at
    negative m are kept, for require_nonnegative() to refuse.  The Weyl group
    is enumerated before any lattice point, so that an oversized group is
    refused before that work is spent.
    """
    rhoh = rho_hat(rs)
    nu_fin = tuple(a + b for a, b in zip(lam.finite, rhoh.finite))
    c = lam.level + rhoh.level
    if c <= 0:
        raise ValueError("shifted level k + h_vee must be positive")
    rs.weyl_group()
    pts = lattice_points_below(rs, basis, nu_fin, c, qmax)
    items = []
    for x, gamma, drop in pts:
        if pred is not None and not pred(gamma, x):
            continue
        if drop.denominator != 1:
            raise AssertionError(f"non-integral drop {drop} at {x}")
        coeff = 1 if coeff_fn is None else coeff_fn(gamma, x)
        mu = tuple(a + c * g for a, g in zip(nu_fin, gamma))
        items.append((mu, int(drop), coeff))
    return _orbit_sum(rs, lam, nu_fin, items, qmax)
