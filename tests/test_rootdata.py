import random
import re
import time
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from oracles import (
    WeylElement,
    apply,
    kostant_weyl_order,
    matrix_orbit_offsets,
    matrix_weyl_group,
    root_lattice_basis,
    root_to_fund,
    simple_reflection,
)

from affinechar import rootdata
from affinechar.formulas import q_dimension_sum
from affinechar.lattice import lattice_points_below
from affinechar.rootdata import (
    PosRoot,
    RootSystem,
    WeylSizeError,
    check_weyl_order,
    coroot_lattice_basis,
    int_inverse,
    root_system,
    weyl_order,
)
from affinechar.series import AffineWeight, weight_from_coeffs


def det(rows):
    """Exact determinant, independent of the group-theoretic sign tracking."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


CASES = [
    ("A", 1, 1, 2, 2),
    ("A", 2, 3, 3, 6),
    ("A", 3, 6, 4, 24),
    ("A", 4, 10, 5, 120),
    ("C", 2, 4, 3, 8),
    ("C", 3, 9, 4, 48),
    ("D", 4, 12, 6, 192),
]
ORACLE_TYPES = [(fam, rank) for fam, rank, *_ in CASES]


@pytest.mark.parametrize("fam,rank,npos,hvee,worder", CASES)
def test_basic_invariants(fam, rank, npos, hvee, worder):
    rs = root_system(fam, rank)
    assert len(rs.positive_roots) == npos
    assert rs.dual_coxeter == hvee
    assert rs.theta.norm == 2
    # (rho | theta) = (rho | theta^vee) = h^vee - 1 with this normalization
    assert rs.inner(rs.rho, rs.theta.fund) == rs.dual_coxeter - 1
    W = rs.weyl_group()
    assert len(W) == worder == weyl_order(fam, rank)
    assert sum(sign for sign, _ in W) == 0


def test_e6_order_and_dims():
    rs = root_system("E", 6)
    assert len(rs.positive_roots) == 36
    assert rs.dual_coxeter == 12
    lam = [0] * 6
    lam[0] = 1
    assert rs.weyl_dim(lam) == 27
    adj = [0] * 6
    adj[1] = 1  # adjoint sits at the branch node in this numbering
    assert rs.weyl_dim(adj) == 78


def test_e7_gate(monkeypatch):
    rs = root_system("E", 7)
    assert len(rs.positive_roots) == 63
    assert rs.dual_coxeter == 18
    monkeypatch.setattr(rootdata, "WEYL_LIMIT", 1000)
    with pytest.raises(WeylSizeError, match="more than 1000$"):
        check_weyl_order("E", 7)


# the E orders are also pinned as numbers, against Bourbaki's plates V-VII
E_ORDERS = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600}


@pytest.mark.parametrize("fam,rank", [
    *[("A", r) for r in range(1, 13)], *[("C", r) for r in range(1, 13)],
    ("D", 4), *E_ORDERS, ("B", 3), ("A", 0), ("D", 5), ("E", 9)])
def test_weyl_order_is_kostants_product(fam, rank):
    # the closed form from the type against the exponents of the built root
    # system; a type root_system refuses is refused with its text
    try:
        rs = root_system(fam, rank)
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
            weyl_order(fam, rank)
        return
    order = weyl_order(fam, rank)
    assert order == kostant_weyl_order(rs)
    assert order == E_ORDERS.get((fam, rank), order)


@pytest.mark.parametrize("rank", [7, 8])
def test_large_weyl_groups_refuse_before_enumerating(rank):
    t0 = time.perf_counter()
    with pytest.raises(WeylSizeError, match=str(weyl_order("E", rank))):
        check_weyl_order("E", rank)
    assert time.perf_counter() - t0 < 0.5


def test_a_limit_of_one_refuses_a2(monkeypatch):
    monkeypatch.setattr(rootdata, "WEYL_LIMIT", 1)
    with pytest.raises(WeylSizeError, match="A2 has 6 elements"):
        check_weyl_order("A", 2)


def test_an_order_past_weyl_digits_is_neither_finished_nor_printed(
        monkeypatch):
    # the running product stops at 10**WEYL_DIGITS: below it a refusal
    # names |W| in full, past it only the limit, so no rank costs more
    monkeypatch.setattr(rootdata, "WEYL_LIMIT", 100)
    monkeypatch.setattr(rootdata, "WEYL_DIGITS", 3)
    with pytest.raises(WeylSizeError,
                       match="^Weyl group of A5 has 720 elements, more "
                             "than 100$"):
        check_weyl_order("A", 5)
    with pytest.raises(WeylSizeError,
                       match=r"^Weyl group of A6 has more than 100 elements "
                             r"\(its order has more than 3 digits\)$"):
        check_weyl_order("A", 6)
    monkeypatch.undo()
    t0 = time.perf_counter()
    for fam in "AC":
        with pytest.raises(WeylSizeError, match=f"^Weyl group of {fam}"
                           "1000000000 has more than 1000000 elements"):
            check_weyl_order(fam, 10**9)
    assert time.perf_counter() - t0 < 0.5


def test_sign_matches_determinant():
    for fam, rank in ORACLE_TYPES:
        rs = root_system(fam, rank)
        for w in matrix_weyl_group(rs):
            rows = [[Fraction(x) for x in row] for row in w.matrix]
            assert det(rows) == w.sign


def test_weyl_dims():
    rs = root_system("A", 2)
    assert rs.weyl_dim((1, 0)) == 3
    assert rs.weyl_dim((1, 1)) == 8
    rs = root_system("C", 2)
    assert rs.weyl_dim((1, 0)) == 4
    assert rs.weyl_dim((0, 1)) == 5
    rs = root_system("D", 4)
    assert rs.weyl_dim((1, 0, 0, 0)) == 8
    assert rs.weyl_dim((0, 1, 0, 0)) == 28
    assert rs.weyl_dim((0, 0, 1, 0)) == 8
    assert rs.weyl_dim((0, 0, 0, 1)) == 8


def test_pairings_and_coordinates():
    rng = random.Random(20260816)
    for fam, rank in [("A", 2), ("A", 3), ("C", 2), ("C", 3), ("D", 4)]:
        rs = root_system(fam, rank)
        # fundamental weights pair to delta_ij against simple coroots
        for i in range(rank):
            lam = tuple(Fraction(int(j == i)) for j in range(rank))
            for j, cv in enumerate(coroot_lattice_basis(rs)):
                assert rs.inner(lam, cv) == (1 if i == j else 0)
        # root <-> fundamental coordinate round trip on random vectors
        for _ in range(50):
            rc = tuple(Fraction(rng.randint(-5, 5)) for _ in range(rank))
            fund = root_to_fund(rs, rc)
            assert rs.fund_to_root(fund) == rc
        # Weyl action preserves the form
        W = matrix_weyl_group(rs)
        for _ in range(50):
            v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(rank))
            u = tuple(Fraction(rng.randint(-4, 4)) for _ in range(rank))
            w = rng.choice(W)
            assert rs.inner(apply(w, v), apply(w, u)) == rs.inner(v, u)


def test_dominant_offset_against_the_matrices():
    # v+ = w(v) for some w, and for regular v+ that w is unique with
    # sign eps(w); the offset is v+ - v in root coordinates
    rng = random.Random(7)
    for fam, rank in [("A", 2), ("C", 2), ("D", 4)]:
        rs = root_system(fam, rank)
        W = matrix_weyl_group(rs)
        for _ in range(100):
            v = tuple(Fraction(rng.randint(-6, 6)) for _ in range(rank))
            dom, sign, off = rs.dominant_offset(v, v)
            dom = tuple(dom)
            assert all(c >= 0 for c in dom)
            assert any(apply(w, v) == dom for w in W)
            assert rs.fund_to_root([a - b for a, b in zip(dom, v)]) == off
            if all(dom):
                matches = [w for w in W if apply(w, v) == dom]
                assert len(matches) == 1 and matches[0].sign == sign


def test_root_lattice_basis_integral():
    # the simple roots (the oracle's basis) and the simple coroots are int
    # vectors, and on type A, the only type whose sums took the simple
    # roots, the two bases are one
    for fam, rank in [("A", 1), ("A", 2), ("A", 4), ("C", 2), ("C", 3),
                      ("D", 4), ("E", 6)]:
        rs = root_system(fam, rank)
        for b in root_lattice_basis(rs) + coroot_lattice_basis(rs):
            assert all(type(x) is int for x in b)
        if fam == "A":
            assert root_lattice_basis(rs) == coroot_lattice_basis(rs)


# -- the integer orbit kernel and the enumeration against slow oracles --------


KERNEL_TYPES = ORACLE_TYPES + [("E", 6)]


def apply_path(rs, v, base):
    """(sign, root coordinates of w(v) - base) through Fraction arithmetic."""
    return [(w.sign, rs.fund_to_root(tuple(a - b for a, b in
                                           zip(apply(w, v), base))))
            for w in matrix_weyl_group(rs)]


def signed_sum(pairs):
    """{offset: sum of signs}, zeros dropped; the refusal text if refused."""
    acc = {}
    try:
        for sign, off in pairs:
            acc[off] = acc.get(off, 0) + sign
    except AssertionError as e:
        return str(e)
    return {k: v for k, v in acc.items() if v}


def near(rng, rs, v):
    """Integral v minus a random root-lattice vector, in ints."""
    rc = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
    return tuple(int(a - b) for a, b in zip(v, root_to_fund(rs, rc)))


def random_pairs(rng, rs, n):
    """n pairs (v, base) of ints with v - base in the root lattice, v often
    singular, then n pairs with half-integral entries, often off the
    lattice."""
    rank = rs.rank
    for _ in range(n):
        v = tuple(rng.randint(-3, 3) for _ in range(rank))
        yield v, near(rng, rs, v)
    for _ in range(n):
        yield tuple(tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
                          for _ in range(rank)) for _ in range(2))


def regular_weights(rng, rs, n):
    """n regular weights in ints: strictly dominant ones moved by a random
    element."""
    W = matrix_weyl_group(rs)
    for _ in range(n):
        dom = tuple(rng.randint(1, 3) for _ in range(rs.rank))
        yield tuple(map(int, apply(rng.choice(W), dom)))


@pytest.mark.parametrize("fam,rank", ORACLE_TYPES)
def test_orbit_offsets_match_apply_path(fam, rank):
    # the walk yields each orbit element once, so against the w.apply path
    # the signed sums agree on every input (a singular v gives nothing,
    # its whole orbit cancelling) and so does the refusal off the lattice
    rng = random.Random(fam + str(rank))
    rs = root_system(fam, rank)
    for v, base in random_pairs(rng, rs, 12):
        want = apply_path(rs, v, base)
        if any(x.denominator != 1 for _, off in want for x in off):
            want = "orbit offset left the root lattice"
        else:
            want = signed_sum((s, tuple(map(int, o))) for s, o in want)
        assert signed_sum(rs.orbit_offsets(v, base)) == want
    # regular v: the (sign, offset) multisets agree
    for v in regular_weights(rng, rs, 4):
        want = sorted((s, tuple(map(int, o))) for s, o in apply_path(rs, v, v))
        assert sorted(rs.orbit_offsets(v, v)) == want


@pytest.mark.parametrize("fam,rank", KERNEL_TYPES)
def test_orbit_offsets_match_matrix_path(fam, rank):
    rng = random.Random(fam + str(rank) + "matrix")
    rs = root_system(fam, rank)
    # E6 orbits have 51,840 elements: fewer cases there
    n, nreg = (1, 1) if fam == "E" else (10, 2)
    for v, base in random_pairs(rng, rs, n):
        assert (signed_sum(rs.orbit_offsets(v, base))
                == signed_sum(matrix_orbit_offsets(rs, v, base)))
    for v in regular_weights(rng, rs, nreg):
        base = near(rng, rs, v)
        got = sorted(rs.orbit_offsets(v, base))
        assert len(got) == weyl_order(fam, rank)
        assert got == sorted(matrix_orbit_offsets(rs, v, base))


@pytest.mark.parametrize("fam,rank", KERNEL_TYPES)
def test_bounded_walk_is_the_orbit_cut_by_height(fam, rank):
    rng = random.Random(fam + str(rank) + "bound")
    rs = root_system(fam, rank)
    for _ in range(2):
        v = tuple(rng.randint(1, 3) for _ in range(rank))
        base = near(rng, rs, v)
        top = sum(rs.dominant_offset(v, base)[2])
        full = sorted(rs.orbit_offsets(v, base))
        for bound in range(13):
            # ht(v+ - w v+) = ht(v+ - base) - ht(w v+ - base)
            want = [(s, o) for s, o in full if top - sum(o) <= bound]
            assert sorted(rs.orbit_offsets(v, base, bound)) == want


def test_matrix_oracle_matches_apply_path():
    # the integer matrix loop the kernel replaced is the w.apply path
    rng = random.Random(5)
    for fam, rank in ORACLE_TYPES:
        rs = root_system(fam, rank)
        for v, base in random_pairs(rng, rs, 4):
            want = apply_path(rs, v, base)
            if any(x.denominator != 1 for _, off in want for x in off):
                with pytest.raises(AssertionError, match="left the root"):
                    list(matrix_orbit_offsets(rs, v, base))
            else:
                assert list(matrix_orbit_offsets(rs, v, base)) == [
                    (s, tuple(map(int, o))) for s, o in want]


def test_dominant_offset_reduces_in_integers():
    rs = root_system("A", 2)
    # s_1 (-1, 3) = (-1, 3) + (2, -1) = (1, 2): one reflection onto the base
    dom, sign, off = rs.dominant_offset((-1, 3), (1, 2))
    assert (dom, sign, off) == ([1, 2], -1, (0, 0))
    assert all(type(x) is int for x in (*dom, *off))
    assert list(rs.orbit_offsets((0, 3), (0, 3))) == []


def test_dominant_offset_walks_integral_fractions_as_ints():
    # an integral weight typed as Fractions gives the values of the int
    # weight, all of type int, down to a whole regular E6 orbit
    rng = random.Random(11)
    for fam, rank in [("A", 3), ("C", 3), ("D", 4), ("E", 6)]:
        rs = root_system(fam, rank)
        for _ in range(20):
            v = tuple(rng.randint(-5, 5) for _ in range(rank))
            fv = tuple(map(Fraction, v))
            got = rs.dominant_offset(fv, fv)
            assert got == rs.dominant_offset(v, v)
            assert all(type(x) is int for x in (*got[0], got[1], *got[2]))
    e6 = root_system("E", 6)
    v = (1, 2, 1, 3, 1, 2)
    orbit = list(e6.orbit_offsets(tuple(map(Fraction, v)), v))
    assert len(orbit) == weyl_order("E", 6)
    assert orbit == list(e6.orbit_offsets(v, v))
    assert all(type(x) is int for s, off in orbit for x in (s, *off))
    # a coordinate off the integers is refused before any reflection
    with pytest.raises(AssertionError,
                       match="^orbit offset left the root lattice$"):
        e6.dominant_offset((Fraction(1, 2),) + v[1:], v)


def test_orbit_offsets_refuse_to_leave_the_root_lattice():
    rs = root_system("A", 2)
    with pytest.raises(AssertionError, match="left the root lattice"):
        list(rs.orbit_offsets((Fraction(1), Fraction(0)), (0, 0)))


def full_product_closure(rs):
    """W by closing {1} under right multiplication with full matrix products."""
    l = rs.rank
    gens = [simple_reflection(rs, i).matrix for i in range(l)]
    ident = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                ab = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(l))
                                 for j in range(l)) for i in range(l))
                if ab not in seen:
                    seen[ab] = None
                    nxt.append(ab)
        frontier = nxt
    return list(seen)


@pytest.mark.parametrize("fam,rank", ORACLE_TYPES)
def test_weyl_group_matches_full_product_closure(fam, rank):
    # the matrix oracle's column search against full matrix products
    rs = root_system(fam, rank)
    assert [w.matrix for w in matrix_weyl_group(rs)] == full_product_closure(rs)


@pytest.mark.parametrize("fam,rank", KERNEL_TYPES)
def test_weyl_group_is_the_orbit_of_rho(fam, rank):
    # rho is regular, so W is its orbit: one (eps(w), w rho - rho) per w,
    # against the matrices (matrix_orbit_offsets is the apply path, above)
    rs = root_system(fam, rank)
    rho = (1,) * rank
    W = rs.weyl_group()
    assert len(W) == weyl_order(fam, rank)
    assert sum(sign for sign, _ in W) == 0
    assert set(W) == set(matrix_orbit_offsets(rs, rho, rho))


@pytest.mark.parametrize("fam,rank",
                         ORACLE_TYPES + [("E", 6), ("E", 7), ("E", 8)])
def test_reflections_match_the_matrix_oracle(fam, rank):
    # s_i as one vector update on fundamental coordinates, against the
    # matrix of s_i; an involution that keeps the form
    rng = random.Random(fam + str(rank) + "reflect")
    rs = root_system(fam, rank)
    for _ in range(20):
        v, u = (tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                      for _ in range(rank)) for _ in range(2))
        i = rng.randrange(rank)
        got = rs.reflect(i, v)
        assert got == apply(simple_reflection(rs, i), v)
        assert rs.reflect(i, got) == v
        assert rs.inner(got, rs.reflect(i, u)) == rs.inner(v, u)


# -- the Euclidean model: a Fraction oracle for the integer root data --------


def solve_linear(rows, rhs):
    """Solve a small square system exactly by Gaussian elimination."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def scaled_matrix(rows):
    """(integer rows, d) with rows = integer rows / d, d the lcm of the
    entries' denominators."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * d) for x in row] for row in rows], d


def _vec(entries):
    return tuple(Fraction(e) for e in entries)


def as_ints(xs) -> tuple[int, ...]:
    """Integral Fractions as ints: the model computes over Fraction, and
    the library holds these root data in ints."""
    xs = tuple(xs)
    assert all(x.denominator == 1 for x in xs)
    return tuple(map(int, xs))


class EuclidModel:
    """Root data over Fraction from explicit simple roots in R^n, with the
    highest root at squared length 2: the construction the integer
    derivation from the Dynkin diagram replaced."""

    def __init__(self, fam, l):
        one, half = Fraction(1), Fraction(1, 2)
        if fam == "A":
            self.ambient_dim, form = l + 1, [one] * (l + 1)
            simples = [_vec([0] * i + [1, -1] + [0] * (l - i - 1))
                       for i in range(l)]
        elif fam == "C":
            self.ambient_dim, form = l, [half] * l
            simples = [_vec([0] * i + [1, -1] + [0] * (l - i - 2))
                       for i in range(l - 1)] + [_vec([0] * (l - 1) + [2])]
        elif fam == "D":
            self.ambient_dim, form = 4, [one] * 4
            simples = [_vec([1, -1, 0, 0]), _vec([0, 1, -1, 0]),
                       _vec([0, 0, 1, -1]), _vec([0, 0, 1, 1])]
        else:
            self.ambient_dim, form = 8, [one] * 8
            simples = [
                _vec([half, -half, -half, -half, -half, -half, -half, half]),
                _vec([1, 1, 0, 0, 0, 0, 0, 0]),
                _vec([-1, 1, 0, 0, 0, 0, 0, 0]),
                _vec([0, -1, 1, 0, 0, 0, 0, 0]),
                _vec([0, 0, -1, 1, 0, 0, 0, 0]),
                _vec([0, 0, 0, -1, 1, 0, 0, 0]),
                _vec([0, 0, 0, 0, -1, 1, 0, 0]),
                _vec([0, 0, 0, 0, 0, -1, 1, 0]),
            ][:l]
        self._form = tuple(form)
        self.simple_euclid = tuple(simples)
        inner = self.euclid_inner
        self.simple_coroots_euclid = coroots = tuple(
            tuple(2 / inner(a, a) * c for c in a) for a in simples)
        cartan = tuple(tuple(inner(simples[j], coroots[i])
                             for j in range(l)) for i in range(l))
        assert all(x.denominator == 1 for row in cartan for x in row)
        self.cartan = tuple(tuple(map(int, row)) for row in cartan)
        inv_cols = [solve_linear(cartan, [Fraction(int(i == j))
                                          for i in range(l)])
                    for j in range(l)]
        cartan_inv = [[inv_cols[j][i] for j in range(l)] for i in range(l)]
        self._inv_num, self._inv_den = scaled_matrix(cartan_inv)

        # all roots by closing the simple roots under the simple reflections
        roots = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for b in frontier:
                for a, av in zip(simples, coroots):
                    r = tuple(bc - inner(b, av) * ac for bc, ac in zip(b, a))
                    if r not in roots:
                        roots.add(r)
                        nxt.append(r)
            frontier = nxt
        pos = []
        for r in roots:
            fc = tuple(inner(r, av) for av in coroots)
            rc = tuple(sum((x * f for x, f in zip(row, fc)), Fraction(0))
                       for row in cartan_inv)
            assert all(x.denominator == 1 for x in rc)
            rc = tuple(int(x) for x in rc)
            if sum(rc) > 0:
                pos.append((as_ints(fc), rc, r, sum(rc),
                            as_ints([inner(r, r)])[0]))
        pos.sort(key=lambda p: (p[3], p[1]))
        self.positive_roots = pos
        self.theta = pos[-1]
        self.marks = self.theta[1]
        # theta^vee = theta since (theta|theta) = 2: its coroot coordinates
        comarks = solve_linear(
            [[inner(cv, av) for cv in coroots] for av in coroots],
            [inner(self.theta[2], av) for av in coroots])
        self.comarks = as_ints(comarks)
        self.dual_coxeter = 1 + sum(self.comarks)

        # fundamental weights in the span of the simple roots
        pairing = [[inner(simples[k], coroots[j]) for k in range(l)]
                   for j in range(l)]
        self.fund_weights_euclid = []
        for i in range(l):
            xs = solve_linear(pairing, [Fraction(int(j == i))
                                        for j in range(l)])
            self.fund_weights_euclid.append(tuple(
                sum((xs[k] * simples[k][d] for k in range(l)), Fraction(0))
                for d in range(self.ambient_dim)))
        fw = self.fund_weights_euclid
        self._gram_num, self._gram_den = scaled_matrix(
            [[inner(u, v) for v in fw] for u in fw])
        rho = tuple(sum(c) / 2 for c in zip(*(p[2] for p in pos)))
        self.rho = as_ints(inner(rho, cv) for cv in coroots)
        self.coroot_fund = tuple(as_ints(inner(c, cv) for cv in coroots)
                                 for c in coroots)

    def euclid_inner(self, x, y):
        return sum((a * b * f for a, b, f in zip(x, y, self._form)),
                   Fraction(0))


def test_int_inverse_matches_fraction_inverse():
    # zero and negative pivots, row swaps and singular-free random matrices
    rng = random.Random(11)
    cases = [[[0, 1], [1, 0]], [[0, 3], [-2, 0]], [[-1]], [[4]]]
    while len(cases) < 80:
        n = rng.choice((2, 3, 5, 8))
        cases.append([[rng.randint(-3, 3) for _ in range(n)]
                      for _ in range(n)])
    checked = 0
    for m in cases:
        n = len(m)
        try:
            cols = [solve_linear([list(map(Fraction, row)) for row in m],
                                 [Fraction(int(i == j)) for i in range(n)])
                    for j in range(n)]
        except StopIteration:  # singular
            continue
        want = scaled_matrix([[cols[j][i] for j in range(n)]
                              for i in range(n)])
        assert int_inverse(m) == want
        checked += 1
    assert checked >= 40


def typed(x):
    """x with the type of every entry, for comparing types as well."""
    if isinstance(x, (tuple, list)):
        return type(x).__name__, [typed(y) for y in x]
    return type(x).__name__, x


ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2), ("C", 3),
             ("C", 4), ("D", 4), ("E", 6), ("E", 7), ("E", 8)]


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_integer_model(fam, rank):
    # root data, integral weights, lattice points and their drops are ints;
    # a Fraction is made only by a pairing, and nothing returns a float
    rs = root_system(fam, rank)
    for a in rs.positive_roots:
        assert all(type(x) is int for x in (*a.fund, a.norm))
    assert all(type(x) is int for v in rs.coroot_fund for x in v)
    assert all(type(x) is int for x in rs.rho)
    vac = weight_from_coeffs(rs, (0,) * (rank + 1))
    w = weight_from_coeffs(rs, (-2,) + (0,) * (rank - 1) + (1,))
    for lam in (vac, w):
        assert all(type(x) is int for x in (*lam.finite, lam.level,
                                            lam.delta))
    theta = rs.theta.fund
    assert type(rs.inner(rs.rho, theta)) is Fraction
    assert type(rs.inner(w.finite, w.finite)) is Fraction
    assert all(type(x) is Fraction for x in rs.fund_to_root(w.finite))
    assert type(rs.weyl_dim(theta)) is Fraction
    basis = coroot_lattice_basis(rs)
    pts = lattice_points_below(rs, basis, rs.rho, rs.dual_coxeter, 2)
    assert pts and all(type(g) is int for _, gamma, _ in pts for g in gamma)
    assert all(type(drop) is int for *_, drop in pts)
    # Macdonald at the level 0 vacuum: phi(q)^{dim g} up to q^1
    qd = q_dimension_sum(rs, vac, basis, 1)
    assert qd == [1, -(rank + 2 * len(rs.positive_roots))]
    assert all(type(x) is int for x in qd)


@pytest.mark.parametrize("fam,rank",
                         ALL_TYPES + [("A", 8), ("C", 6), ("C", 8)])
def test_integer_root_closure_matches_fraction_closure(fam, rank):
    rs = root_system(fam, rank)
    got = [tuple(a) for a in rs.positive_roots]
    want = [(fc, rc, h, n)
            for fc, rc, _, h, n in EuclidModel(fam, rank).positive_roots]
    assert typed(got) == typed(want)


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_root_data_matches_euclidean_model(fam, rank):
    rs, ex = root_system(fam, rank), EuclidModel(fam, rank)
    for name in ("cartan", "marks", "comarks", "dual_coxeter", "_inv_num",
                 "_inv_den", "_gram_num", "_gram_den", "coroot_fund", "rho"):
        assert typed(getattr(rs, name)) == typed(getattr(ex, name)), name
    fc, rc, _, h, n = ex.theta
    assert typed(tuple(rs.theta)) == typed((fc, rc, h, n))


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_integer_pairing_matches_fraction_sum(fam, rank):
    # the oracle: sum_ij x_i y_j (w_i|w_j), each term a Fraction, with the
    # Gram entries taken from the Euclidean model of the fundamental weights
    rs, ex = root_system(fam, rank), EuclidModel(fam, rank)
    fw = ex.fund_weights_euclid
    gram = [[ex.euclid_inner(u, v) for v in fw] for u in fw]

    def oracle(x, y):
        return sum((Fraction(a) * Fraction(b) * gram[i][j]
                    for i, a in enumerate(x) for j, b in enumerate(y)),
                   Fraction(0))

    rng = random.Random(rank * 13 + ord(fam))

    def vec():
        return tuple(rng.choice((Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                                 rng.randint(-5, 5), 0)) for _ in range(rank))

    for _ in range(60):
        x, y = vec(), vec()
        got = rs.inner(x, y)
        assert isinstance(got, Fraction) and got == oracle(x, y)
    assert rs.inner((0,) * rank, vec()) == 0
    assert rs.inner(rs.theta.fund, rs.theta.fund) == 2


# -- the immutable value classes ---------------------------------------------


@pytest.mark.parametrize("cls,fields", [
    (PosRoot, {"fund": (2, -1), "root_coords": (1, 0), "height": 1,
               "norm": 2}),
    (WeylElement, {"matrix": ((-1, 0), (1, 1)), "sign": -1}),
    (AffineWeight, {"finite": (1, 0), "level": -1,
                    "delta": Fraction(3, 2)}),
], ids=["PosRoot", "WeylElement", "AffineWeight"])
def test_value_class_semantics(cls, fields):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
        assert cls(**{**fields, name: (value, 0)}) != by_keyword
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)
    with pytest.raises(AttributeError):
        by_keyword.extra = 0
    with pytest.raises(TypeError):
        cls(*fields.values(), 0)


def test_weight_fields_and_apply_results():
    # an AffineWeight holds what it is given: ints for integral weights,
    # equal to the same weight in Fractions
    a2 = root_system("A", 2)
    w = weight_from_coeffs(a2, (-3, 1, -2))
    assert w == AffineWeight((1, -2), -4, 0)
    assert all(type(x) is int for x in (*w.finite, w.level, w.delta))
    assert w == AffineWeight((Fraction(1), Fraction(-2)), Fraction(-4),
                             Fraction(0))
    half = AffineWeight((Fraction(1, 2),), Fraction(-3, 2), 4)
    assert half.finite == (Fraction(1, 2),) and type(half.delta) is int
    got = a2.reflect(0, (Fraction(2), Fraction(1, 3)))
    assert got == (Fraction(-2), Fraction(7, 3))
    assert all(type(x) is Fraction for x in got)
    got = a2.reflect(0, (2, 1))
    assert got == (-2, 3) and all(type(x) is int for x in got)
    assert a2.reflect(0, (0, 5)) == (0, 5)
    rs = root_system("C", 2)
    lam = (Fraction(1), Fraction(-3))
    assert {apply(w, lam) for w in matrix_weyl_group(rs)} == {
        (1, -3), (-1, -2), (5, -3), (-5, 2), (5, -2), (-5, 3), (1, 2),
        (-1, 3)}
