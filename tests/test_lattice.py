"""Lattice enumeration and the alternating translated Weyl sums."""

import random
import re
import time
from fractions import Fraction
from itertools import product as iproduct
from math import floor
from operator import mul

import pytest
from oracles import (
    apply,
    box_quad_points,
    drop_of,
    fraction_lattice_points_below,
    fraction_node_pairing,
    fraction_orth_coords,
    fraction_quad_points,
    fraction_screened_coefficient,
    is_weyl_invariant,
    matrix_weyl_group,
    point_alt_weyl_raw,
    point_q_dimension_sum,
    root_lattice_basis,
    root_to_fund,
    translate,
    truncated,
)

from affinechar import formulas as fm
from affinechar import lattice, series
from affinechar.lattice import (
    alt_weyl_raw,
    dominant_numerator,
    lattice_points_below,
    quad_points,
)
from affinechar.rootdata import (
    LimitError,
    RootSystem,
    coroot_lattice_basis,
    int_inverse,
    root_system,
)
from affinechar.series import (
    AffineWeight,
    CharSlices,
    SliceError,
    character_from_numerator,
    denominator_slices,
    first_diff,
    phi_power_qpoly,
    weight_from_coeffs,
)
from affinechar.superden import sl_sum, spo_sum


# -- quadratic-form point enumeration -----------------------------------------


def test_quad_points_circle():
    # x^2 + y^2 <= 4 has 13 integral solutions
    pts = quad_points([[2, 0], [0, 2]], [0, 0], 4)
    assert len(pts) == 13
    assert all(x * x + y * y == v and type(v) is int
               for (x, y), v in pts.items())


def test_quad_points_shifted():
    # x^2 + xy + y^2 + 3x - y takes integer values, so <= 7/2 means <= 3
    M, L = [[2, 1], [1, 2]], [3, -1]
    got = quad_points(M, L, 3)
    want = {}
    for x in range(-20, 21):
        for y in range(-20, 21):
            q = x * x + x * y + y * y + 3 * x - y
            if q <= 3:
                want[(x, y)] = q
    assert got == want
    assert got == fraction_quad_points(M, L, Fraction(7, 2))


def random_even_form(rng, r):
    # symmetric, strictly diagonally dominant with an even diagonal: positive
    # definite with least eigenvalue >= 1, and x^T M x / 2 is an integer
    M = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i):
            M[i][j] = M[j][i] = rng.randrange(-3, 4)
    for i in range(r):
        d = sum(map(abs, M[i])) + 1
        M[i][i] = d + d % 2 + 2 * rng.randrange(3)
    return M


def form_value(M, L, x):
    return (sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, M)) // 2
            + sum(map(mul, L, x)))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_quad_points_match_brute_box_on_random_integral_forms(r):
    # every rank against the bounding-box scan; below rank 4, |L| <= 3
    # sqrt(3) and B <= 8 keep every point within 12 of the origin, so the
    # whole cube is scanned as well
    rng = random.Random(20261019 + r)
    box = list(iproduct(range(-12, 13), repeat=r)) if r < 4 else None
    for _ in range(20):
        M = random_even_form(rng, r)
        L = [rng.randrange(-3, 4) for _ in range(r)]
        B = rng.randrange(-8, 9)
        got = quad_points(M, L, B)
        assert got == box_quad_points(M, L, B)
        if box is not None:
            assert got == {x: v for x in box
                           if (v := form_value(M, L, x)) <= B}
        assert all(type(v) is int for v in got.values())


def test_quad_points_isqrt_bounds_far_from_the_origin():
    # centres near 10^12 with a few points about each: every isqrt bound is
    # exact, against a box about the rational centre and the Fraction path
    rng = random.Random(61)
    found = 0
    for _ in range(40):
        r = rng.randrange(1, 4)
        M = random_even_form(rng, r)
        L = [rng.randrange(-10**12, 10**12) for _ in range(r)]
        N, d = int_inverse(M)
        centre = [Fraction(-sum(map(mul, row, L)), d) for row in N]
        qmin = sum(map(mul, L, centre)) / 2
        # B - qmin < 6 keeps every point within sqrt(12) of the centre
        B = floor(qmin) + rng.randrange(6)
        got = quad_points(M, L, B)
        box = iproduct(*(range(floor(c) - 4, floor(c) + 6) for c in centre))
        assert got == {x: v for x in box if (v := form_value(M, L, x)) <= B}
        assert got == fraction_quad_points(M, L, B)
        found += len(got)
    assert found > 40
    # no room above the minimum: nothing at all
    assert quad_points([[2]], [-2 * 10**12 - 1], -10**24 - 10**12 - 1) == {}


def drop_form(rs, lam):
    # the integral drop form of lattice_points_below on the coroot lattice,
    # at lam + rho-hat
    basis = coroot_lattice_basis(rs)
    nu, c = [f + 1 for f in lam.finite], lam.level + rs.dual_coxeter
    M = [[int(c * rs.inner(a, b)) for b in basis] for a in basis]
    return M, [int(rs.inner(nu, b)) for b in basis]


@pytest.mark.parametrize("fam,rank,k,order", [
    ("D", 4, -1, 6), ("D", 4, -2, 6), ("E", 6, -3, 4), ("E", 7, -4, 3)])
def test_quad_points_match_the_box_on_screened_vacua(fam, rank, k, order):
    # the drop forms of the screened vacua, every order up to the given one
    rs = root_system(fam, rank)
    M, L = drop_form(rs, weight_from_coeffs(rs, (k,) + (0,) * rank))
    sizes = []
    for B in range(order + 1):
        got = quad_points(M, L, B)
        assert got == box_quad_points(M, L, B)
        sizes.append(len(got))
    assert sizes == sorted(sizes) and sizes[-1] > sizes[0] > 0


def test_e8_lattice_points_in_milliseconds():
    # the screened E8 vacuum, nu = rho at c = 24: a bounding-box scan took
    # tens of seconds for its 7 points at order 0
    rs = root_system("E", 8)
    basis = coroot_lattice_basis(rs)
    for order, count in ((0, 7), (6, 27), (12, 79)):
        start = time.perf_counter()
        pts = lattice_points_below(rs, basis, (1,) * 8, 24, order)
        assert time.perf_counter() - start < 1
        assert len(pts) == count
        assert all(drop <= order for _, _, drop in pts)


def test_point_prediction_is_near_the_count(monkeypatch):
    # sl-first on A2 at s = 300, order 0 lists 27,466 points; the volume of
    # the ellipsoid predicts them within a factor of 2
    counts = []
    real = lattice.quad_points

    def counted(M, L, B):
        out = real(M, L, B)
        counts.append(len(out))
        return out

    monkeypatch.setattr(lattice, "quad_points", counted)
    rs = root_system("A", 2)
    fm.numerator("sl-first", rs, 0, 300)
    assert counts == [27466]
    monkeypatch.setattr(lattice, "POINT_BUDGET", 0)
    with pytest.raises(LimitError) as refused:
        fm.numerator("sl-first", rs, 0, 300)
    head, predicted, tail = re.fullmatch(r"(.*list )(\d+)( points.*)",
                                         str(refused.value)).groups()
    assert (head, tail) == ("lattice sum over Z^2 predicted to list ",
                            " points, more than 0")
    assert counts[0] / 2 <= int(predicted) <= 2 * counts[0]
    # an empty ellipsoid (s < 0) predicts nothing, even where s^r > 0
    assert lattice.quad_points([[2, 0], [0, 2]], [0, 0], -1) == {}


@pytest.mark.parametrize("fam,rank", [("A", 2), ("C", 2), ("A", 3)])
def test_lattice_points_match_brute_box(fam, rank):
    rng = random.Random(20260816 + rank)
    rs = root_system(fam, rank)
    basis = coroot_lattice_basis(rs)
    half = 13
    gram = [[rs.inner(basis[i], basis[j]) for j in range(rank)]
            for i in range(rank)]
    for _ in range(6):
        nu = tuple(rng.randrange(-3, 4) for _ in range(rank))
        c = rng.randrange(1, 4)
        bound = rng.randrange(0, 7)
        lin = [rs.inner(nu, basis[i]) for i in range(rank)]
        got = {x: d for x, _, d in lattice_points_below(rs, basis, nu, c, bound)}
        # the enumerator must stay strictly inside the scan box
        assert all(max(abs(v) for v in x) < half for x in got)
        assert all(type(d) is int for d in got.values())
        want = {}
        for xs in _box(rank, half):
            d = c * sum(
                xs[i] * xs[j] * gram[i][j]
                for i in range(rank) for j in range(rank)
            ) / 2 + sum(x * l for x, l in zip(xs, lin))
            if d <= bound:
                want[xs] = d
        assert got == want


def _box(rank, half):
    rng = range(-half, half + 1)
    if rank == 1:
        return [(x,) for x in rng]
    if rank == 2:
        return [(x, y) for x in rng for y in rng]
    return [(x, y, z) for x in rng for y in rng for z in rng]


def form_is_integral(rs, basis, nu, c):
    # c(b_i|b_j) and (nu|b_i) integers, the diagonal even
    M = [[c * rs.inner(a, b) for b in basis] for a in basis]
    L = [rs.inner(nu, b) for b in basis]
    return (all(v.denominator == 1 for row in (*M, L) for v in row)
            and all(M[i][i] % 2 == 0 for i in range(len(M))))


@pytest.mark.parametrize("fam,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                      ("C", 2), ("C", 3), ("D", 4), ("E", 6)])
def test_integer_points_match_the_fraction_path(fam, rank):
    rng = random.Random(fam + str(rank))
    rs = root_system(fam, rank)
    compared = 0
    for basis in (root_lattice_basis(rs), coroot_lattice_basis(rs)):
        for _ in range(6):
            # rank 6 stays near its Deligne vacuum (nu = rho, c = 9), where
            # the scan box is small; elsewhere nu and c range more widely
            if fam == "E":
                nu = tuple(rng.randrange(1, 3) for _ in range(rank))
                c, bound = rng.randrange(9, 13), rng.randrange(0, 3)
            else:
                nu = tuple(rng.randrange(-3, 4) for _ in range(rank))
                c, bound = rng.randrange(1, 7), rng.randrange(0, 4)
            if not form_is_integral(rs, basis, nu, c):
                # only the C root basis, whose short roots have norm 1
                assert basis != coroot_lattice_basis(rs)
                with pytest.raises(ValueError, match="integral"):
                    lattice_points_below(rs, basis, nu, c, bound)
                continue
            got = lattice_points_below(rs, basis, nu, c, bound)
            assert got == fraction_lattice_points_below(rs, basis, nu, c,
                                                        bound)
            compared += 1
            for x, gamma, drop in got:
                assert all(type(g) is int for g in gamma)
                assert type(drop) is int
                assert drop == drop_of(rs, nu, c, gamma)
    assert compared >= 6


def test_non_integral_form_is_refused(monkeypatch):
    # a half-integral basis, rational nu or c, and an odd diagonal (the C2
    # short root at odd c) are each refused before any point is enumerated
    def no_points(*args):
        raise AssertionError("points enumerated for a non-integral form")

    monkeypatch.setattr(lattice, "quad_points", no_points)
    a1, a2, c2 = root_system("A", 1), root_system("A", 2), root_system("C", 2)
    cases = [
        (a1, [(Fraction(1, 2),)], (1,), 2),
        (a2, coroot_lattice_basis(a2), (Fraction(1, 2), 1), 2),
        (a2, coroot_lattice_basis(a2), (1, 1), Fraction(3, 2)),
        (c2, root_lattice_basis(c2), (2, 2), 1),
    ]
    for rs, basis, nu, c in cases:
        assert not form_is_integral(rs, basis, nu, c)
        with pytest.raises(ValueError, match="^lattice basis and drop form "
                           "must be integral, with an even diagonal$"):
            lattice_points_below(rs, basis, nu, c, 3)


def test_points_sorted_by_drop():
    rs = root_system("C", 2)
    pts = lattice_points_below(rs, coroot_lattice_basis(rs), (1, 1), 2, 6)
    drops = [d for _, _, d in pts]
    assert drops == sorted(drops)
    byx = {x: d for x, _, d in pts}
    assert byx[(0, 0)] == 0
    # the drop can dip below zero away from the origin
    assert min(drops) <= 0


# -- translations --------------------------------------------------------------


def test_translation_group_law():
    rng = random.Random(29)
    for fam, rank in (("A", 2), ("C", 2), ("D", 4)):
        rs = root_system(fam, rank)
        for _ in range(60):
            w = AffineWeight(
                tuple(Fraction(rng.randrange(-4, 5), rng.choice((1, 2)))
                      for _ in range(rank)),
                Fraction(rng.randrange(-3, 4)),
                Fraction(rng.randrange(-2, 3)),
            )
            g1 = tuple(rng.randrange(-2, 3) for _ in range(rank))
            g2 = tuple(rng.randrange(-2, 3) for _ in range(rank))
            lhs = translate(rs, translate(rs, w, g1), g2)
            g12 = tuple(a + b for a, b in zip(g1, g2))
            assert lhs == translate(rs, w, g12)
            assert translate(rs, w, (0,) * rank) == w


def test_translation_drop_formula():
    rs = root_system("A", 2)
    w = weight_from_coeffs(rs, (-2, 1, 0))
    g = (1, -1)
    t = translate(rs, w, g)
    drop = rs.inner(w.finite, g) + w.level * rs.inner(g, g) / 2
    assert t.delta == w.delta - drop
    assert t.level == w.level
    assert t.finite == tuple(
        a + w.level * Fraction(b) for a, b in zip(w.finite, g)
    )


# -- alternating orbit sums vs a plain Weyl loop --------------------------------


def origin_orbit(rs, lam):
    # the alternating orbit of lam + rho-hat alone: the translation gamma = 0
    return alt_weyl_raw(rs, lam, 0, lambda gf, x: int(not any(x)))


def brute_orbit_sum(rs, mu):
    # sum over the whole group, no dominance shortcut
    acc = {}
    for w in matrix_weyl_group(rs):
        img = apply(w, mu)
        off = rs.fund_to_root(tuple(a - b for a, b in zip(img, mu)))
        key = tuple(int(o) for o in off)
        acc[key] = acc.get(key, 0) + w.sign
    return {k: v for k, v in acc.items() if v}


@pytest.mark.parametrize("fam,rank", [("A", 2), ("C", 2)])
def test_orbit_sum_matches_brute(fam, rank):
    rng = random.Random(47)
    rs = root_system(fam, rank)
    rho = rs.rho
    for _ in range(25):
        lamf = tuple(rng.randrange(-4, 5) for _ in range(rank))
        mu = tuple(a + b for a, b in zip(lamf, rho))
        lam = AffineWeight(lamf, 0, 0)
        got = origin_orbit(rs, lam)
        want = brute_orbit_sum(rs, mu)
        assert first_diff(got.terms(),
                          CharSlices(rs, lam, 0, {0: want}).terms()) is None
        # singular weights cancel to nothing in both
        if not want:
            assert len(got) == 0


def test_singular_weights_vanish():
    rs = root_system("A", 2)
    # lam + rho fixed by a reflection: pick lam with a -1 coordinate
    lam = AffineWeight((-1, 2), 0, 0)
    assert len(origin_orbit(rs, lam)) == 0


def test_a2_regular_orbit_has_six_signed_terms():
    rs = root_system("A", 2)
    lam = AffineWeight((0, 0), 0, 0)
    num = origin_orbit(rs, lam)
    assert len(num) == 6
    assert sorted(num.slices[0].values()) == [-1, -1, -1, 1, 1, 1]
    assert num.terms()[0, 0, 0] == 1


# -- the denominator identity ---------------------------------------------------


@pytest.mark.parametrize("fam,rank,qmax", [
    ("A", 1, 6), ("A", 2, 4), ("C", 2, 4), ("A", 3, 4), ("A", 4, 3),
    ("C", 3, 4), ("D", 4, 3)])
def test_denominator_identity(fam, rank, qmax):
    # the alternating sum over the translation lattice at weight zero equals
    # the product expansion of e^{-rho-hat} R-hat, slice by slice (Macdonald)
    rs = root_system(fam, rank)
    lam = weight_from_coeffs(rs, (0,) * (rank + 1))
    num = alt_weyl_raw(rs, lam, qmax)
    want = CharSlices(rs, lam, qmax, denominator_slices(rs, qmax))
    assert first_diff(num.terms(), want.terms()) is None


def macdonald_dimensions_hold(rs, qmax):
    # the same identity specialized to dimensions: the lattice sum at the
    # level-0 vacuum is phi(q)^{dim g}, a product that never reads the lattice
    lam = weight_from_coeffs(rs, (0,) * (rs.rank + 1))
    got = fm.q_dimension_sum(rs, lam, coroot_lattice_basis(rs), qmax)
    want = fm.phi_power_qpoly(rs.rank + 2 * len(rs.positive_roots), qmax)
    return got == [want.get(m, 0) for m in range(qmax + 1)]


MACDONALD = [("A", 1, 20), ("A", 2, 12), ("A", 3, 10), ("A", 4, 8),
             ("C", 2, 10), ("C", 3, 8), ("D", 4, 8), ("E", 6, 8), ("E", 7, 6),
             ("E", 8, 10)]


@pytest.mark.parametrize("fam,rank,qmax", MACDONALD)
def test_macdonald_dimension_grain(fam, rank, qmax):
    assert macdonald_dimensions_hold(root_system(fam, rank), qmax)


def test_macdonald_dimension_grain_sees_a_wrong_phi_power(monkeypatch):
    # the product side off by one at q^1 breaks every input
    real = fm.phi_power_qpoly

    def perturbed(exponent, qmax, step=1):
        out = real(exponent, qmax, step)
        out[1] = out.get(1, 0) + 1
        return out

    monkeypatch.setattr(fm, "phi_power_qpoly", perturbed)
    for fam, rank, qmax in MACDONALD:
        assert not macdonald_dimensions_hold(root_system(fam, rank), qmax)


def test_macdonald_dimension_grain_sees_a_wrong_weyl_dim(monkeypatch):
    # doubling every dimension but the trivial one breaks the q^1 slice
    true = RootSystem.weyl_dim
    monkeypatch.setattr(RootSystem, "weyl_dim", lambda self, fund: true(
        self, fund) * (2 if any(fund) else 1))
    for fam, rank, qmax in [("A", 1, 20), ("D", 4, 2)]:
        assert not macdonald_dimensions_hold(root_system(fam, rank), qmax)


def copy_per_factor_denominator(rs, qmax):
    """e^{-rho-hat} R-hat by two-term products that copy every slice."""
    slices = {0: {(0,) * rs.rank: 1}}

    def mul_two_term(j, off):
        nonlocal slices
        out = {}
        for m, b in slices.items():
            for o, c in b.items():
                tgt = out.setdefault(m, {})
                tgt[o] = tgt.get(o, 0) + c
                if not tgt[o]:
                    del tgt[o]
                if m + j <= qmax:
                    no = tuple(a + d for a, d in zip(o, off))
                    tgt2 = out.setdefault(m + j, {})
                    tgt2[no] = tgt2.get(no, 0) - c
                    if not tgt2[no]:
                        del tgt2[no]
        slices = out

    for a in rs.positive_roots:
        mrc = tuple(-x for x in a.root_coords)
        mul_two_term(0, mrc)
        for k in range(1, qmax + 1):
            mul_two_term(k, mrc)
            mul_two_term(k, a.root_coords)
    for k in range(1, qmax + 1):
        for _ in range(rs.rank):
            mul_two_term(k, (0,) * rs.rank)
    # a q-power that cancels completely is left as an empty slice here
    return {m: b for m, b in slices.items() if b}


@pytest.mark.parametrize("fam,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                      ("C", 2), ("C", 3), ("D", 4)])
def test_denominator_slices_match_copy_per_factor(fam, rank):
    rs = root_system(fam, rank)
    for qmax in range(5):
        got = denominator_slices(rs, qmax)
        assert all(got.values())
        assert got == copy_per_factor_denominator(rs, qmax)


def test_orbit_sums_share_the_integer_kernel(monkeypatch):
    # both orbit sums take every offset from RootSystem.orbit_offsets
    calls = []
    kernel = RootSystem.orbit_offsets

    def counted(self, v, base, bound=None):
        calls.append(self.family)
        return kernel(self, v, base, bound)

    monkeypatch.setattr(RootSystem, "orbit_offsets", counted)
    rs = root_system("A", 2)
    alt_weyl_raw(rs, weight_from_coeffs(rs, (0, 0, 0)), 2)
    assert calls and set(calls) == {"A"}
    calls.clear()
    sl_sum(rs, 4)
    spo_sum(root_system("C", 2), 4)
    assert set(calls) == {"A", "C"}


def test_orbit_sum_refuses_offsets_off_the_root_lattice():
    rs = root_system("A", 2)
    lam = AffineWeight((0, 0), 0, 0)
    # mu - nu = omega_1 is a weight, not a root-lattice vector
    items = [((2, 1), 0, 1)]
    with pytest.raises(AssertionError, match="left the root lattice"):
        lattice._orbit_sum(rs, lam, (1, 1), items, 0)


def test_shifted_level_must_be_positive():
    rs = root_system("A", 2)
    lam = weight_from_coeffs(rs, (-5, 1, 0))  # k + h_vee = -1
    with pytest.raises(ValueError):
        alt_weyl_raw(rs, lam, 2)
    with pytest.raises(ValueError):
        alt_weyl_raw(rs, lam, 2, lambda gf, x: int(not any(x)))
    with pytest.raises(ValueError,
                       match="^shifted level k \\+ h_vee must be positive$"):
        fm.q_dimension_sum(rs, lam, coroot_lattice_basis(rs), 2)
    # on E7 at k = -h_vee too, before W is listed
    e7 = root_system("E", 7)
    with pytest.raises(ValueError, match="k \\+ h_vee must be positive"):
        alt_weyl_raw(e7, weight_from_coeffs(e7, (-18,) + (0,) * 7), 0)


# -- the dominant-chamber numerator against the per-point loops ----------------

NUMERATOR_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2), ("C", 3),
                   ("D", 4)]


def dominant_part(ch, nu_fin):
    # {m: {mu: c}} over the terms of an alternating sum at a dominant regular
    # mu = nu_fin + offset: each regular orbit meets the chamber once, at +1
    out = {}
    for m, b in ch.slices.items():
        for off, c in b.items():
            mu = tuple(int(a + f) for a, f in
                       zip(nu_fin, root_to_fund(ch.rs, off)))
            if all(x > 0 for x in mu):
                out.setdefault(m, {})[mu] = c
    return out


def outcome(fn, *args, **kw):
    # a result, or the class and text of the refusal
    try:
        return fn(*args, **kw)
    except (ValueError, AssertionError, ArithmeticError) as e:
        return type(e), str(e)


def assert_matches_point_loops(rs, lam, qmax, coeff_fn=None):
    basis = coroot_lattice_basis(rs)
    want = point_alt_weyl_raw(rs, lam, qmax, coeff_fn)
    assert alt_weyl_raw(rs, lam, qmax, coeff_fn) == want
    nu_fin, num = dominant_numerator(rs, lam, basis, qmax, coeff_fn)
    assert nu_fin == tuple(f + 1 for f in lam.finite)
    assert num == dominant_part(want, nu_fin)
    assert all(num.values()) and all(c for b in num.values()
                                     for c in b.values())
    assert outcome(fm.q_dimension_sum, rs, lam, basis, qmax,
                   coeff_fn) == outcome(point_q_dimension_sum, rs, lam,
                                        basis, qmax, coeff_fn)
    return num


def points(rs, lam, qmax):
    return lattice_points_below(rs, coroot_lattice_basis(rs),
                                tuple(f + 1 for f in lam.finite),
                                lam.level + rs.dual_coxeter, qmax)


def some_zero(gf, x):
    # -1, 0 or 1 by the lattice coordinates, so some points weigh 0
    return sum(x) % 3 - 1


@pytest.mark.parametrize("fam,rank", NUMERATOR_TYPES)
def test_dominant_numerator_matches_the_point_loops(fam, rank):
    rng = random.Random(16 + rank)
    rs = root_system(fam, rank)
    qmax = 2 if rank < 4 else 1
    tried = 0
    while tried < 8:
        lam = weight_from_coeffs(
            rs, [rng.randrange(-3, 3) for _ in range(rank + 1)])
        if lam.level + rs.dual_coxeter <= 0:
            continue
        tried += 1
        for coeff_fn in (None, some_zero):
            assert_matches_point_loops(rs, lam, qmax, coeff_fn=coeff_fn)


def test_dominant_numerator_of_a_screened_weight():
    # D4 (-3,1,0,0,1) at order 2: 12 lattice points, 4 dominant weights left;
    # the screened coefficient (gamma|alpha) + 1 vanishes on some points
    rs = root_system("D", 4)
    lam = weight_from_coeffs(rs, (-3, 1, 0, 0, 1))
    alpha = fm.check_deligne_conditions(rs, lam)["alpha"]
    co = fm.screened_coefficient(alpha)
    assert len(points(rs, lam, 2)) == 12
    num = assert_matches_point_loops(rs, lam, 2, coeff_fn=co)
    assert sum(map(len, num.values())) == 4
    assert any(co(g, x) == 0 for x, g, _ in points(rs, lam, 4))
    assert_matches_point_loops(rs, lam, 4, coeff_fn=co)


def test_singular_points_and_cancelling_pairs_leave_nothing():
    # A1 at finite weight -1, level 0: nu_fin = 0 is singular, and every
    # other point 4x meets -4x at the same drop with the opposite sign
    rs = root_system("A", 1)
    lam = weight_from_coeffs(rs, (1, -1))
    basis = coroot_lattice_basis(rs)
    assert len(points(rs, lam, 8)) == 5
    assert dominant_numerator(rs, lam, basis, 8) == ((0,), {})
    assert len(alt_weyl_raw(rs, lam, 8)) == 0
    assert_matches_point_loops(rs, lam, 8)
    assert fm.q_dimension_sum(rs, lam, basis, 8) == [0] * 9


def test_predicates_read_the_same_numerator(monkeypatch):
    # the half-lattice sums and both parity brackets, once through the
    # dominant numerator and once through the per-point loop
    a3, a4 = root_system("A", 3), root_system("A", 4)
    c2, c3 = root_system("C", 2), root_system("C", 3)
    builds = [
        lambda: fm.numerator("sl-first", a3, 3, 1),
        lambda: fm.numerator("sl-last", a4, 2, 2),
        lambda: fm.numerator("sp-a", c3, 3, 1),
        lambda: fm.parity_bracket(
            c2, lambda j: j[0] >= 0 and sum(j) % 2 == 1, 4),
        lambda: fm.parity_bracket(
            c3, lambda j: j[0] < 0 and sum(j) % 2 == 0, 3),
        lambda: fm.numerator("sp-parity-b", c3, 3),
    ]
    new = [build() for build in builds]
    assert all(len(num) for num in new)
    monkeypatch.setattr(fm, "alt_weyl_raw", point_alt_weyl_raw)
    assert new == [build() for build in builds]
    # and the dominant part of each predicate sum directly
    rs = root_system("C", 2)
    lam = weight_from_coeffs(rs, (-1, 0, 0))
    for co in (lambda gf, x: int(fm._orth_coords(x)[0] >= 0),
               lambda gf, x: int(sum(fm._orth_coords(x)) % 2 == 0)):
        assert_matches_point_loops(rs, lam, 4, coeff_fn=co)


def test_integer_predicates_equal_the_fraction_pairings():
    # on every lattice point the predicates and the screened coefficient
    # read, coroot coordinates give what the Fraction pairings gave
    for npr, qmax in ((2, 8), (3, 5), (4, 4)):
        rs = root_system("C", npr)
        for top in ((-1,), (-2, 0, 1)):
            lam = weight_from_coeffs(rs, top + (0,) * (npr + 1 - len(top)))
            pts = points(rs, lam, qmax)
            assert len(pts) >= 12
            for x, gf, _ in pts:
                assert fm._orth_coords(x) == fraction_orth_coords(rs, gf)
    a3 = root_system("A", 3)
    for coeffs, node in (((-3, 2, 0, 0), 1), ((-2, 0, 0, 1), 3)):
        pts = points(a3, weight_from_coeffs(a3, coeffs), 4)
        assert {x[node - 1] >= 0 for x, _, _ in pts} == {True, False}
        for x, gf, _ in pts:
            assert x[node - 1] == fraction_node_pairing(a3, gf, node)
    for fam, rank, coeffs in (("D", 4, (-1, 0, 0, 0, 0)),
                              ("D", 4, (-3, 1, 0, 0, 1)),
                              ("D", 4, (-2, 0, 0, 0, 0)),
                              ("E", 6, (-3,) + (0,) * 6)):
        rs = root_system(fam, rank)
        lam = weight_from_coeffs(rs, coeffs)
        alpha = fm.check_deligne_conditions(rs, lam)["alpha"]
        co = fm.screened_coefficient(alpha)
        want = fraction_screened_coefficient(rs, alpha)
        pts = points(rs, lam, 4 if fam == "D" else 3)
        assert len(pts) >= 15
        for x, gf, _ in pts:
            assert type(co(gf, x)) is int and co(gf, x) == want(gf, x)


def test_uncancelled_negative_drop_is_refused_alike():
    # A1 weight -5 at level 1: gamma = alpha^vee drops by -1 (see
    # test_formulas); both numerators keep the term, both sums refuse it
    rs = root_system("A", 1)
    lam = weight_from_coeffs(rs, (6, -5))
    basis = coroot_lattice_basis(rs)
    num = assert_matches_point_loops(rs, lam, 2)
    assert min(num) == -1
    got = outcome(fm.q_dimension_sum, rs, lam, basis, 2)
    assert got == outcome(point_q_dimension_sum, rs, lam, basis, 2)
    assert got[0] is SliceError and "negative q-power -1" in got[1]


def test_base_off_the_root_lattice_is_refused_alike():
    # weights off the weight lattice, even where only gamma = 0 would be
    # kept (the only point at order 0, or by a 0/1 coefficient): their drop
    # form is not integral, and all three paths refuse it before any point
    a1, a2 = root_system("A", 1), root_system("A", 2)
    cases = [
        (a1, AffineWeight((Fraction(1, 2),), 1, 0), 0, None),
        (a2, AffineWeight((Fraction(1, 3), Fraction(2, 3)), 1, 0), 2,
         lambda gf, x: int(not any(x))),
    ]
    for rs, lam, qmax, co in cases:
        for run in (
                lambda: alt_weyl_raw(rs, lam, qmax, co),
                lambda: point_alt_weyl_raw(rs, lam, qmax, co),
                lambda: dominant_numerator(rs, lam, coroot_lattice_basis(rs),
                                           qmax, co)):
            with pytest.raises(ValueError,
                               match="^lattice basis and drop form must be "
                               "integral, with an even diagonal$"):
                run()


# -- level-one integrable characters against the lattice-oscillator model -------


def _theta_over_phi(rs, qmax):
    # the level-one vacuum character of a simply laced algebra, the theta
    # function of the root lattice Q over phi(q)^rank (Frenkel and Kac,
    # Invent. Math. 62, 1980): sum_gamma e^gamma q^{(gamma|gamma)/2} /
    # phi(q)^rank, gamma over the points of the Gram form of the simple
    # roots, which on a simply laced algebra is the Cartan matrix
    theta = {}
    for x, m in quad_points(rs.cartan, [0] * rs.rank, qmax).items():
        theta.setdefault(m, {})[x] = 1
    lam = weight_from_coeffs(rs, (1,) + (0,) * rs.rank)
    return CharSlices(rs, lam, qmax, theta).mul_qpoly(
        phi_power_qpoly(-rs.rank, qmax))


@pytest.mark.parametrize(
    "fam,rank,frozen",
    [("A", 1, [1, 3, 4, 7, 13]), ("A", 2, [1, 8, 17, 46, 98])],
)
def test_level_one_vacuum_graded_dims(fam, rank, frozen):
    rs = root_system(fam, rank)
    lam = weight_from_coeffs(rs, (1,) + (0,) * rank)
    qmax = 4
    num = alt_weyl_raw(rs, lam, qmax)
    assert num.terms()[(0,) * (1 + rank)] == 1
    ch = character_from_numerator(num)
    assert ch.q_series() == _theta_over_phi(rs, qmax).q_series()
    assert ch.q_series() == frozen
    assert is_weyl_invariant(ch)
    assert all(c >= 0 for b in ch.slices.values() for c in b.values())


LEVEL_ONE = [("A", 2, 4), ("A", 3, 4), ("D", 4, 3), ("E", 6, 1)]


@pytest.mark.parametrize("fam,rank,qmax", LEVEL_ONE,
                         ids=[f"{f}{r}" for f, r, _ in LEVEL_ONE])
def test_level_one_vacuum_is_the_theta_function(fam, rank, qmax):
    # the whole character, term by term: the alternating lattice sum divided
    # by the denominator against the theta function over phi(q)^rank
    rs = root_system(fam, rank)
    lam = weight_from_coeffs(rs, (1,) + (0,) * rank)
    ch = character_from_numerator(alt_weyl_raw(rs, lam, qmax))
    assert ch == _theta_over_phi(rs, qmax)


def test_theta_function_sees_a_wrong_denominator(monkeypatch):
    # one coefficient of slice 1 of R-hat / R changed breaks D4
    real = series.denominator_slices

    def perturbed(rs, qmax, finite=True):
        slices = real(rs, qmax, finite)
        off = min(slices[1])
        slices[1][off] += 1
        return slices

    rs = root_system("D", 4)
    lam = weight_from_coeffs(rs, (1, 0, 0, 0, 0))
    num = alt_weyl_raw(rs, lam, 3)
    assert character_from_numerator(num) == _theta_over_phi(rs, 3)
    monkeypatch.setattr(series, "denominator_slices", perturbed)
    assert character_from_numerator(num) != _theta_over_phi(rs, 3)


def test_sum_only_sees_the_lattice_not_the_basis():
    # a unimodular change of basis spans the same lattice, so the dominant
    # numerator cannot move
    rs = root_system("A", 2)
    lam = weight_from_coeffs(rs, (1, 0, 0))
    b = coroot_lattice_basis(rs)
    b2 = (tuple(x + y for x, y in zip(b[0], b[1])), b[1])
    full = dominant_numerator(rs, lam, b, 4)
    assert full[1] and full == dominant_numerator(rs, lam, b2, 4)


# -- sliced-sum algebra ----------------------------------------------------------


A2 = root_system("A", 2)
ZERO_A2 = weight_from_coeffs(A2, (0, 0, 0))


def rand_slices(rng, mmax, qmax):
    out = {}
    for _ in range(8):
        m = rng.randrange(0, mmax + 1)
        off = tuple(rng.randrange(-2, 3) for _ in range(2))
        c = rng.randrange(-4, 5)
        if c:
            out.setdefault(m, {})[off] = c
    return CharSlices(A2, ZERO_A2, qmax, out)


def test_raw_helper_algebra():
    rng = random.Random(31)
    for _ in range(200):
        a = rand_slices(rng, 4, 4)
        b = rand_slices(rng, 4, 4)
        assert a + b == b + a
        assert (a + b) + (-b) == a
        assert a - b == a + (-b)
        assert len(truncated(a - a, 2)) == 0
        assert truncated(a + b, 2) == truncated(a, 2) + truncated(b, 2)


def test_raw_mul_consistency():
    rng = random.Random(37)
    for _ in range(100):
        a = rand_slices(rng, 3, 5)
        qp = {j: rng.randrange(-2, 3) for j in range(3)}
        qp = {j: c for j, c in qp.items() if c}
        want = {}
        for m, b in a.slices.items():
            for off, c in b.items():
                for j, d in qp.items():
                    if m + j <= 5:
                        want.setdefault(m + j, {})
                        want[m + j][off] = want[m + j].get(off, 0) + c * d
        want = CharSlices(A2, ZERO_A2, 5, want)
        via_qpoly = a.mul_qpoly(qp)
        via_slices = a.mul_slices({j: {(0, 0): c} for j, c in qp.items()})
        assert first_diff(via_qpoly.terms(), want.terms()) is None
        assert via_qpoly == via_slices
