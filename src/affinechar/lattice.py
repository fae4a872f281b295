"""Exact lattice-point enumeration and alternating Weyl-translated sums.

The drop of a translation t_gamma applied to a weight of shifted level c is
the positive definite quadratic (nu|gamma) + c(gamma|gamma)/2.  On the
coroot lattice at integral nu and c it is an integral form (Kac,
Infinite-dimensional Lie algebras, 6.5), so enumerating all gamma below a
bound is an ellipsoid problem solved in integers.
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from .rootdata import RootSystem, coroot_lattice_basis, int_inverse
from .series import AffineWeight, CharSlices


def quad_points(M: list[list[int]], L: list[int],
                B: int) -> dict[tuple[int, ...], int]:
    """{x: x^T M x / 2 + L.x} over all x in Z^r where that is <= B, for M
    positive definite with an even diagonal, so that every value is an int.

    Coordinates are fixed from the last down (Fincke and Pohst, Math. Comp.
    44, 1985).  With x_{i+1}, ..., x_{r-1} fixed, u = (x_0, ..., x_i)
    satisfies u^T M_i u / 2 + L'.u <= R, M_i the leading block of M; with
    M_i^{-1} = N / d the minimum sits at p / d, p = -N L', and the extent
    along x_i is sqrt(s N_ii) / d about it, s = 2 R d - L'.p being d times
    twice the room above the minimum.  x_i runs over that interval rounded
    inward with isqrt, so no point is lost.
    """
    blocks = [int_inverse([row[:i] for row in M[:i]])
              for i in range(1, len(M) + 1)]
    x = [0] * len(M)
    out = {}

    def fix(i, Lp, R):
        if i < 0:
            if R >= 0:
                out[tuple(x)] = B - R
            return
        N, d = blocks[i]
        p = [-sum(map(mul, row, Lp)) for row in N]
        s = 2 * R * d - sum(map(mul, Lp, p))
        if s < 0:
            return
        w, pi, half = isqrt(s * N[i][i]), p[i], M[i][i] // 2
        for t in range(-((w - pi) // d), (pi + w) // d + 1):
            x[i] = t
            fix(i - 1, [a + t * row[i] for a, row in zip(Lp[:i], M)],
                R - t * (half * t + Lp[i]))

    fix(len(M) - 1, L, B)
    return out


def lattice_points_below(rs: RootSystem, basis, nu_fin, c,
                         bound) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """All gamma = sum x_i b_i with drop (nu_fin|gamma) + c(gamma|gamma)/2
    <= bound, for an integer basis.

    The form c(b_i|b_j), (nu_fin|b_i) is built once; ValueError unless it
    is integral with an even diagonal, as it always is on the coroot
    lattice at integral nu_fin and c, so that every drop is an int.
    Returns (integer coords, gamma in fundamental coords as ints, drop),
    sorted by drop, then coords.
    """
    M = [[c * rs.inner(a, b) for b in basis] for a in basis]
    L = [rs.inner(nu_fin, b) for b in basis]
    if (any(v.denominator != 1 for row in (*basis, *M, L) for v in row)
            or any(M[i][i] % 2 for i in range(len(M)))):
        raise ValueError("lattice basis and drop form must be integral, "
                         "with an even diagonal")
    pts = quad_points([[int(v) for v in row] for row in M],
                      [int(v) for v in L], bound)
    cols = list(zip(*basis))
    return sorted(((x, tuple([sum(map(mul, x, col)) for col in cols]), drop)
                   for x, drop in pts.items()), key=lambda t: (t[2], t[0]))


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
                       coeff_fn=None):
    """(nu_fin, {m: {mu: c}}): the lattice numerator in the dominant chamber.

    nu_fin is the finite part of lam + rho-hat, c its level.  Each gamma of
    the lattice spanned by `basis` with drop m <= qmax adds eps(w)
    coeff_fn(gamma, x) (default 1; 0 drops gamma) at the dominant mu =
    w(nu_fin + c gamma), in integer fundamental coordinates.  Singular mu
    and zero totals are dropped; slices at negative m are kept.
    """
    nu_fin = tuple(f + 1 for f in lam.finite)  # lam + rho-hat
    c = lam.level + rs.dual_coxeter
    if c <= 0:
        raise ValueError("shifted level k + h_vee must be positive")
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for x, gamma, drop in lattice_points_below(rs, basis, nu_fin, c, qmax):
        coeff = 1 if coeff_fn is None else coeff_fn(gamma, x)
        if coeff == 0:
            continue
        mu, sign, _ = rs.dominant_offset(
            [a + c * g for a, g in zip(nu_fin, gamma)], nu_fin)
        if all(mu):
            tgt = out.setdefault(drop, {})
            mu = tuple(mu)
            v = tgt.get(mu, 0) + sign * coeff
            if v:
                tgt[mu] = v
            else:
                del tgt[mu]
    return nu_fin, {m: b for m, b in out.items() if b}


def alt_weyl_raw(rs: RootSystem, lam: AffineWeight, qmax: int,
                 coeff_fn=None) -> CharSlices:
    """sum_w eps(w) w sum_gamma coeff(gamma) t_gamma e^{lam+rho-hat} over
    the coroot lattice, sliced: each weight of the dominant_numerator
    expanded over its orbit.  coeff_fn reads gamma in fundamental
    coordinates and x, its integer coordinates on the simple coroots.

    Terms are exponents relative to lam + (mult of delta), graded by the
    delta-drop m; terms at negative m are kept, for require_nonnegative()
    to refuse.  W is listed once, by rs.weyl_group(), after the numerator.
    """
    nu_fin, num = dominant_numerator(rs, lam, coroot_lattice_basis(rs), qmax,
                                     coeff_fn)
    rs.weyl_group()
    return _orbit_sum(rs, lam, nu_fin, [(mu, m, c) for m, b in num.items()
                                        for mu, c in b.items()], qmax)
