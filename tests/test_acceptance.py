"""The shipped guarantees, one test per criterion, one printed line each.

Every equality below is exact integer arithmetic at a stated truncation
order; there are no tolerances anywhere.  Run with -s to watch the lines
go by:

    python3 -m pytest tests/test_acceptance.py -s
"""

import argparse
import random
import time
from fractions import Fraction

import pytest
from oracles import apply, matrix_weyl_group, translate, truncated

from affinechar import cli, fock, superden
from affinechar import formulas as fm
from affinechar.rootdata import RootSystem, coroot_lattice_basis, root_system
from affinechar.series import (
    AffineWeight,
    CharSlices,
    character_from_numerator,
    denominator_slices,
    first_diff,
    qpoly_mul,
    weight_from_coeffs,
)



def check(name, **opts):
    """The result of one verify check, run through its cli function."""
    return cli.CHECKS[name][0](argparse.Namespace(**opts))


EIGHT = [
    (-1, 0, 0, 0, 0),
    (-2, 0, 0, 0, 1),
    (-2, 0, 0, 1, 0),
    (-3, 0, 0, 1, 1),
    (-3, 0, 1, 0, 0),
    (-2, 1, 0, 0, 0),
    (-3, 1, 0, 0, 1),
    (-3, 1, 0, 1, 0),
]


def _line(num, ok, budget, t0, detail):
    dt = time.monotonic() - t0
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {flag} ({dt:.1f}s) - {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    assert dt < budget, f"criterion {num} overran {budget}s: {dt:.1f}s"


def test_criterion_01_superdenominator_product_vs_sum():
    # q has cone height n+1 in this frame, so q-order 5 is height 5(n+1)
    t0 = time.monotonic()
    bad = []
    for n, height in ((3, 20), (4, 25)):
        tn = time.monotonic()
        rs = root_system("A", n - 1)
        if (sorted(superden.sl_product(rs, height).terms.items())
                != sorted(superden.sl_sum(rs, height).terms.items())):
            bad.append(n)
        assert time.monotonic() - tn < 30
    _line(1, not bad, 60, t0,
          "superdenominator product equals alternating sum, n=3,4, q-order 5")


def test_criterion_02_tower_vs_free_field_oracle():
    t0 = time.monotonic()
    bad = []
    for s in (0, 1, 2):
        num = fm.numerator("sl-first", root_system("A", 2), 4, s)
        ch = character_from_numerator(num)
        if ch != fock.charge_sector_character(num.rs, s, 4):
            bad.append(s)
    _line(2, not bad, 60, t0,
          "lattice character equals brute free-field sector, n=3, s=0,1,2, "
          "order 4")


def test_criterion_03_rank_one_closed_form():
    # the closed two-term numerator; the half sum agrees through q^{s+1}
    # and acquires a genuine extra alternating term at q^{s+2}
    t0 = time.monotonic()
    ok = True
    rs = root_system("A", 1)
    for s in range(4):
        closed = fm.numerator("sl2-closed", rs, s + 2, s)
        latt = fm.numerator("sl-first", rs, s + 2, s)
        ok = ok and first_diff(truncated(latt, s + 1).terms(),
                               closed.terms()) is None
        d = first_diff(latt.terms(), closed.terms())
        ok = ok and d is not None and d[0][0] == s + 2
    _line(3, ok, 5, t0,
          "rank-one closed numerator reproduced through q^(s+1), s=0..3, "
          "first deviation pinned at q^(s+2)")


def test_criterion_04_sector_restriction():
    t0 = time.monotonic()
    bad = []
    for s in (1, 2):
        d = check("sector-restriction", n=4, s=s, order=3)["mismatch"]
        if d is not None:
            bad.append((s, d))
    _line(4, not bad, 60, t0,
          "folded sector times denominator equals half sum, n=4, s=1,2, "
          "order 3")


def test_criterion_05_flip_decomposition():
    t0 = time.monotonic()
    d = check("flip-decomposition", n=4, order=3)["mismatch"]
    _line(5, d is None, 120, t0,
          "mirror eigenspaces match the split-character combinations, n=4, "
          "order 3")


def test_criterion_06_twisted_denominator():
    t0 = time.monotonic()
    d2 = check("twisted-denominator", n=4, order=5)["mismatch"]
    d3 = check("twisted-denominator", n=6, order=3)["mismatch"]
    _line(6, d2 is None and d3 is None, 60, t0,
          "twisted product equals even-parity lattice sum, n'=2 order 5 and "
          "n'=3 order 3")


def test_criterion_07_parity_rewriting():
    t0 = time.monotonic()
    rs = root_system("C", 2)
    numa = fm.numerator("sp-parity-a", rs, 4)
    lhs = fm.sp_split_characters(rs, 4)[0].mul_slices(
        denominator_slices(rs, 4))
    oka = first_diff(numa.terms(), lhs.terms()) is None
    # the rebased partner lives one q-slice up; compute there, compare below
    numb = fm.numerator("sp-parity-b", rs, 5)
    chc = fm.sp_c_character(fm.sp_split_characters(rs, 5)[1])
    rhs = chc.mul_slices(denominator_slices(rs, 5))
    okb = first_diff(truncated(numb, 4).terms(),
                     truncated(rhs, 4).terms()) is None
    okbr = check("parity-bracket", n=4, order=4)["mismatch"] is None
    _line(7, oka and okb and okbr, 60, t0,
          "parity numerators equal denominator times split characters, n=4 "
          "order 4, plus the bracket identity")


def test_criterion_08_screened_weights_positivity_and_qdim():
    t0 = time.monotonic()
    d4 = root_system("D", 4)
    dim_g = d4.rank + 2 * len(d4.positive_roots)
    bad = []
    for co in EIGHT + [(-2, 0, 0, 0, 0)]:
        lam = weight_from_coeffs(d4, co)
        ch = character_from_numerator(fm.deligne_numerator(d4, lam, 3))
        if ch.terms().get((0,) * 5, 0) != 1:
            bad.append((co, "top coefficient"))
            continue
        if any(c < 0 for sl in ch.slices.values() for c in sl.values()):
            bad.append((co, "negative multiplicity"))
            continue
        alpha = fm.check_deligne_conditions(d4, lam)["alpha"]

        def co_fn(gf, x):
            return int(d4.inner(alpha.fund, gf) + 1)

        direct = fm.q_dimension_sum(d4, lam, coroot_lattice_basis(d4), 3,
                                    coeff_fn=co_fn, halve=True)
        via = qpoly_mul(fm.phi_power_qpoly(dim_g, 3),
                        {m: v for m, v in enumerate(ch.q_series())}, 3)
        if via != {m: v for m, v in enumerate(direct) if v}:
            bad.append((co, "q-dimension paths disagree"))
    _line(8, not bad, 120, t0,
          "eight level -1 weights and the level -2 vacuum: integer "
          "nonnegative multiplicities, top coefficient 1, q-dimension "
          "two-path agreement, order 3")


def test_criterion_09_property_suites():
    t0 = time.monotonic()
    cases = 2000
    fails = []

    # ring laws on random A2 slices truncated at q^5
    rng = random.Random(11)
    a2 = root_system("A", 2)
    zero = weight_from_coeffs(a2, (0, 0, 0))

    def rand_slices():
        out = {}
        for _ in range(rng.randrange(1, 5)):
            off = (rng.randrange(-2, 3), rng.randrange(-2, 3))
            c = rng.randrange(-4, 5)
            if c:
                out.setdefault(rng.randrange(0, 6), {})[off] = c
        return CharSlices(a2, zero, 5, out)

    def mul(x, y):
        return x.mul_slices(y.slices)

    for it in range(cases):
        a, b, c = rand_slices(), rand_slices(), rand_slices()
        if mul(a + b, c) != mul(a, c) + mul(b, c) or mul(a, b) != mul(b, a) \
                or mul(mul(a, b), c) != mul(a, mul(b, c)) \
                or a - b != a + (-b) or len(a - a):
            fails.append(f"ring laws case {it}")
            break

    # truncation coherence: restricting inputs never changes low terms
    rng = random.Random(12)
    for it in range(cases):
        a, b = rand_slices(), rand_slices()
        k = rng.randrange(0, 5)
        if truncated(mul(a, b), k) != mul(truncated(a, k), truncated(b, k)):
            fails.append(f"truncation case {it}")
            break

    # translation group action on affine weights
    rng = random.Random(13)
    c2 = root_system("C", 2)
    for it in range(cases):
        w = AffineWeight(
            tuple(Fraction(rng.randrange(-6, 7), 2) for _ in range(2)),
            rng.choice([-3, -2, -1, 1, 2, 3]),
            Fraction(rng.randrange(-4, 5), 2))
        g1 = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(2))
        g2 = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(2))
        one = translate(c2, translate(c2, w, g1), g2)
        both = translate(c2, w, tuple(x + y for x, y in zip(g1, g2)))
        if one != both:
            fails.append(f"translation case {it}")
            break

    # Weyl sum antisymmetry: a simple reflection flips the sign only, and
    # a weight on a wall never reduces to a regular one
    rng = random.Random(14)
    for it in range(cases):
        mu = tuple(Fraction(rng.randrange(-4, 5)) for _ in range(2))
        nu = c2.reflect(rng.randrange(2), mu)
        dom, sgn, _ = c2.dominant_offset(mu, mu)
        dom2, sgn2, _ = c2.dominant_offset(nu, nu)
        if dom != dom2 or (all(dom) and sgn2 != -sgn) \
                or (0 in mu and all(dom)):
            fails.append(f"antisymmetry case {it}")
            break

    # the alternating orbit sum of a reflection-fixed weight vanishes
    rng = random.Random(15)
    W = matrix_weyl_group(c2)
    for it in range(cases):
        mu = tuple(Fraction(rng.randrange(-4, 5)) for _ in range(2))
        beta = rng.choice(c2.positive_roots)
        p = 2 * c2.inner(mu, beta.fund) / beta.norm
        fixed = tuple(m - (p / 2) * b for m, b in zip(mu, beta.fund))
        acc = {}
        for w in W:
            key = apply(w, fixed)
            acc[key] = acc.get(key, 0) + w.sign
        if any(acc.values()):
            fails.append(f"vanishing case {it}")
            break

    # the linear coefficient is antisymmetric under the screened root
    rng = random.Random(16)
    d4 = root_system("D", 4)
    alpha = fm.check_deligne_conditions(
        d4, weight_from_coeffs(d4, (-1, 0, 0, 0, 0)))["alpha"]
    basis = coroot_lattice_basis(d4)
    for it in range(cases):
        cs = [rng.randrange(-3, 4) for _ in range(4)]
        gam = tuple(sum(Fraction(c) * b[j] for c, b in zip(cs, basis))
                    for j in range(4))
        v = d4.inner(alpha.fund, gam) + 1
        image = tuple(g - v * a for g, a in zip(gam, alpha.fund))
        if d4.inner(alpha.fund, image) + 1 != -v:
            fails.append(f"coefficient case {it}")
            break

    _line(9, not fails, 60, t0,
          f"six property suites, {cases} seeded cases each: ring laws, "
          "truncation, translation action, antisymmetry, orbit vanishing, "
          "coefficient flip" + "".join(f"; failed: {f}" for f in fails))


def test_criterion_09_fails_on_a_wrong_reflection(monkeypatch):
    # s_i with the sign of the Cartan column flipped, in the reflections
    # and so in the reduction to the dominant chamber, which still ends;
    # the antisymmetry suite must name the wrong group.  The root closure
    # steps through s_i too, so the suite's algebras are built before the
    # patch, and an algebra built under it fails its closure check
    built = {key: root_system(*key) for key in (("A", 2), ("C", 2),
                                                ("D", 4))}

    def wrong(self, i, v):
        w = list(v)
        x, w[i] = w[i], -w[i]
        for j, c in self._nbrs[i]:
            w[j] += c * x
        return tuple(w)

    monkeypatch.setattr(RootSystem, "reflect", wrong)
    with pytest.raises(AssertionError,
                       match="positive roots must be half of all roots"):
        root_system("A", 2)
    monkeypatch.setitem(globals(), "root_system",
                        lambda family, rank: built[family, rank])
    with pytest.raises(AssertionError, match="failed: antisymmetry case"):
        test_criterion_09_property_suites()

