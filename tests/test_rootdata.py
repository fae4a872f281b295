import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from affinechar.rootdata import (
    RootSystem,
    WeylSizeError,
    coroot_lattice_basis,
    root_lattice_basis,
    root_system,
)


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
    assert rs.theta.height == rs.coxeter - 1
    W = rs.weyl_group()
    assert len(W) == worder == rs.weyl_order()
    assert sum(w.sign for w in W) == 0


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


def test_e7_gate():
    rs = root_system("E", 7)
    assert len(rs.positive_roots) == 63
    assert rs.dual_coxeter == 18
    with pytest.raises(WeylSizeError):
        rs.weyl_group(limit=1000)


@pytest.mark.parametrize("rank,order", [(6, 51840), (7, 2903040),
                                        (8, 696729600)])
def test_e_weyl_orders_from_the_exponents(rank, order):
    assert root_system("E", rank).weyl_order() == order


@pytest.mark.parametrize("rank", [7, 8])
def test_large_weyl_groups_refuse_before_enumerating(rank):
    rs = root_system("E", rank)
    t0 = time.perf_counter()
    with pytest.raises(WeylSizeError, match=str(rs.weyl_order())):
        rs.weyl_group()
    assert time.perf_counter() - t0 < 0.5


def test_cached_group_outlives_the_gate():
    rs = root_system("A", 2)
    with pytest.raises(WeylSizeError):
        rs.weyl_group(limit=1)
    W = rs.weyl_group(allow_large=True)
    assert len(W) == 6
    assert rs.weyl_group(limit=1) is W


def test_sign_matches_determinant():
    for fam, rank in ORACLE_TYPES:
        rs = root_system(fam, rank)
        for w in rs.weyl_group():
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
            fund = rs.root_to_fund(rc)
            assert rs.fund_to_root(fund) == rc
        # Weyl action preserves the form
        W = rs.weyl_group()
        for _ in range(50):
            v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(rank))
            u = tuple(Fraction(rng.randint(-4, 4)) for _ in range(rank))
            w = rng.choice(W)
            assert rs.inner(w.apply(v), w.apply(u)) == rs.inner(v, u)


def test_to_dominant():
    rng = random.Random(7)
    for fam, rank in [("A", 2), ("C", 2), ("D", 4)]:
        rs = root_system(fam, rank)
        W = rs.weyl_group()
        for _ in range(100):
            v = tuple(Fraction(rng.randint(-6, 6)) for _ in range(rank))
            dom, sign, regular = rs.to_dominant(v)
            assert all(c >= 0 for c in dom)
            assert regular == all(c != 0 for c in dom)
            assert any(w.apply(v) == dom for w in W)
            if regular:
                matches = [w for w in W if w.apply(v) == dom]
                assert len(matches) == 1 and matches[0].sign == sign


def test_root_lattice_basis_integral():
    for fam, rank in [("A", 2), ("C", 2), ("C", 3), ("D", 4), ("E", 6)]:
        rs = root_system(fam, rank)
        for b in root_lattice_basis(rs) + coroot_lattice_basis(rs):
            assert all(x.denominator == 1 for x in b)


# -- the integer orbit kernel and the enumeration against slow oracles --------


def apply_path(rs, v, base):
    """(sign, root coordinates of w(v) - base) through Fraction arithmetic."""
    return [(w.sign, rs.fund_to_root(tuple(a - b for a, b in
                                           zip(w.apply(v), base))))
            for w in rs.weyl_group()]


@pytest.mark.parametrize("fam,rank", ORACLE_TYPES)
def test_orbit_offsets_match_apply_path(fam, rank):
    rng = random.Random(fam + str(rank))
    rs = root_system(fam, rank)
    for _ in range(12):
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(rank))
        rc = tuple(rng.randint(-3, 3) for _ in range(rank))
        base = tuple(a - b for a, b in zip(v, rs.root_to_fund(rc)))
        want = apply_path(rs, v, base)
        assert all(x.denominator == 1 for _, off in want for x in off)
        assert list(rs.orbit_offsets(v, base)) == want
    # half-integral or non-congruent pairs leave the root lattice on both paths
    for _ in range(12):
        v = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
                  for _ in range(rank))
        base = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
                     for _ in range(rank))
        want = apply_path(rs, v, base)
        if all(x.denominator == 1 for _, off in want for x in off):
            assert list(rs.orbit_offsets(v, base)) == want
        else:
            with pytest.raises(AssertionError, match="left the root lattice"):
                list(rs.orbit_offsets(v, base))


def test_orbit_offsets_refuse_to_leave_the_root_lattice():
    rs = root_system("A", 2)
    with pytest.raises(AssertionError, match="left the root lattice"):
        list(rs.orbit_offsets((Fraction(1), Fraction(0)), (0, 0)))


def full_product_closure(rs):
    """W by closing {1} under right multiplication with full matrix products."""
    l = rs.rank
    gens = [rs.simple_reflection(i).matrix for i in range(l)]
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
    rs = root_system(fam, rank)
    assert [w.matrix for w in rs.weyl_group()] == full_product_closure(rs)


def fraction_root_closure(rs):
    """Positive roots by closing the Euclidean simple roots under the
    simple reflections, over Fraction: the construction the integer
    closure in root coordinates replaced."""
    inner = rs.euclid_inner
    simples = rs.simple_euclid
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for b in frontier:
            for a, av in zip(simples, rs.simple_coroots_euclid):
                r = tuple(bc - inner(b, av) * ac for bc, ac in zip(b, a))
                if r not in roots:
                    roots.add(r)
                    nxt.append(r)
        frontier = nxt
    pos = []
    for r in roots:
        fc = tuple(inner(r, av) for av in rs.simple_coroots_euclid)
        rc = rs.fund_to_root(fc)
        assert all(x.denominator == 1 for x in rc)
        rci = tuple(int(x) for x in rc)
        if sum(rci) > 0:
            pos.append((fc, rci, r, sum(rci), inner(r, r)))
    pos.sort(key=lambda p: (p[3], p[1]))
    return pos


@pytest.mark.parametrize("fam,rank", ORACLE_TYPES
                         + [("E", 6), ("E", 7), ("E", 8)])
def test_integer_root_closure_matches_fraction_closure(fam, rank):
    rs = root_system(fam, rank)
    got = [(a.fund, a.root_coords, a.euclid, a.height, a.norm)
           for a in rs.positive_roots]
    assert got == fraction_root_closure(rs)
    assert all(type(x) is Fraction for a in rs.positive_roots
               for x in (*a.fund, *a.euclid, a.norm))


@pytest.mark.parametrize("fam,rank", ORACLE_TYPES + [("E", 6), ("E", 7),
                                                     ("E", 8)])
def test_integer_pairing_matches_fraction_sum(fam, rank):
    # the oracle: sum_ij x_i y_j (w_i|w_j), each term a Fraction, with the
    # Gram entries taken from the Euclidean model of the fundamental weights
    rs = root_system(fam, rank)
    fw = rs.fund_weights_euclid
    gram = [[rs.euclid_inner(u, v) for v in fw] for u in fw]

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
    assert rs.norm(rs.theta.fund) == 2
