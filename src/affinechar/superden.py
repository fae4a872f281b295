"""Cone expansions of affine super Weyl denominators, two frames.

sl frame, on rs = A_{n-1}: n+1 cone directions (x0 for the affinizing root,
x1..xn for the finite simple roots, xn odd); every direction has
delta-mark 1.

spo frame, on rs = C_{n'}: n'+2 directions (x0; xodd; x1..xn' for the C
simple roots); the delta-marks are (1, 1, 2, ..., 2, 1).

Each frame gets the denominator two ways, normalized by e^{-rho'}: a product
over explicit factor families, and an alternating Weyl-plus-translation sum
expanded by the geometric series in the odd direction.  The sum splits into
two branches, p >= 0 against p < 0, with the sign of the pairing between the
translation and a fixed fundamental weight deciding which branch a lattice
point feeds.  Both sides are height-truncated cone series, exact over Z.
"""

from __future__ import annotations

from operator import mul

from .lattice import lattice_points_below
from .rootdata import RootSystem, coroot_lattice_basis
from .series import ExpSeries, cone_product


def sl_product(rs: RootSystem, height: int) -> ExpSeries:
    """Product form for the sl frame, truncated by cone height."""
    n = rs.rank + 1
    even = [(0,) + a.root_coords + (0,) for a in rs.positive_roots]
    odd = [(0,) * j + (1,) * (n + 1 - j) for j in range(1, n + 1)]
    return cone_product((1,) * (n + 1), n, even, odd, height)


def spo_product(rs: RootSystem, height: int) -> ExpSeries:
    """Product form for the spo frame, truncated by cone height."""
    npr = rs.rank
    marks = (1, 1) + (2,) * (npr - 1) + (1,)
    even = [(0, 0) + a.root_coords for a in rs.positive_roots]
    odd = [(0, 1) + (1,) * i + (0,) * (npr - i) for i in range(npr + 1)]
    odd += [(0, 1) + (1,) * (i - 1) + (2,) * (npr - i) + (1,)
            for i in range(1, npr)]
    # one oscillator family besides the rank-many imaginary ones
    return cone_product(marks, 1 + npr, even, odd, height)


def _branch_sum(rs, lamb, shift, kvec_fn, height: int):
    """Shared two-branch lattice sum over the coroot lattice; returns
    {k-tuple: coeff}.

    lamb: fundamental coordinates of the pairing weight (the odd direction's
    finite shadow), so a translation sum_i x_i a_i^vee pairs with it to the
    integer sum_i x_i lamb_i.  shift: multiplier of the shifted level (h-vee
    minus the odd correction).  kvec_fn(D, p, cro) maps drop, geometric
    exponent and the finite root coordinates to the full cone exponent
    vector; its cone height is a constant minus the height of cro, so over
    one orbit it is least, hmin, at the dominant representative and grows
    by ht(v+ - w v+).  Each orbit is walked with the bound height - hmin,
    building only terms that are kept.
    """
    rho_f = (1,) * rs.rank
    basis = coroot_lattice_basis(rs)
    out: dict[tuple[int, ...], int] = {}
    for branch in (1, -1):
        nu0 = rho_f if branch == 1 else tuple(
            a - b for a, b in zip(rho_f, lamb))
        pts = lattice_points_below(rs, basis, nu0, shift, height)
        for x, gf, D in pts:
            pair = sum(map(mul, x, lamb))
            if (branch == 1) != (pair >= 0):
                continue
            p = 0 if branch == 1 else -1
            dp = 1 if branch == 1 else -1
            prev_hmin = None
            steps = 0
            while True:
                steps += 1
                if steps > 8 * height + 32:
                    raise AssertionError("runaway geometric branch")
                nu = tuple(r + shift * g + p * l
                           for r, g, l in zip(rho_f, gf, lamb))
                base = tuple(r + p * l for r, l in zip(rho_f, lamb))
                hmin = sum(kvec_fn(D, p, rs.dominant_offset(nu, base)[2]))
                if prev_hmin is not None and hmin < prev_hmin + 1:
                    raise AssertionError("height stopped growing with p")
                prev_hmin = hmin
                if hmin > height:
                    break
                for wsign, cro in rs.orbit_offsets(nu, base, height - hmin):
                    ks = kvec_fn(D, p, cro)
                    c = out.get(ks, 0) + branch * wsign
                    if c:
                        out[ks] = c
                    else:
                        del out[ks]
                p += dp
                D += pair * dp
    return out


def _to_cone_series(terms: dict, height: int) -> ExpSeries:
    for ks, c in terms.items():
        if c and any(k < 0 for k in ks):
            raise AssertionError(f"uncancelled term outside the cone: {ks}")
    return ExpSeries(height, terms)


def sl_sum(rs: RootSystem, height: int) -> ExpSeries:
    """Alternating sum form for the sl frame."""
    n = rs.rank + 1
    lamb = tuple(int(i == n - 2) for i in range(n - 1))

    def kvec(D, p, cro):
        return (D,) + tuple(D - c for c in cro) + (D + p,)

    terms = _branch_sum(rs, lamb, n - 1, kvec, height)
    return _to_cone_series(terms, height)


def spo_sum(rs: RootSystem, height: int) -> ExpSeries:
    """Alternating sum form for the spo frame."""
    npr = rs.rank
    lamb = tuple(int(i == 0) for i in range(npr))

    def kvec(D, p, cro):
        ks = [D, D + p]
        for c in cro[:-1]:
            ks.append(2 * D - c)
        ks.append(D - cro[-1])
        return tuple(ks)

    terms = _branch_sum(rs, lamb, npr, kvec, height)
    return _to_cone_series(terms, height)
