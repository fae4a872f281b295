"""Character formulas: towers, split vacua, parity sums, screened weights."""

import argparse
import itertools
import json
import random
from fractions import Fraction
from operator import mul

import pytest
from oracles import (
    fraction_deligne_witnesses,
    fraction_orth_coords,
    is_weyl_invariant,
    qpoly_invert,
    qpoly_mul_phi_power,
    truncated,
)

from affinechar import cli
from affinechar.formulas import (
    FORMULAS,
    _orth_coords,
    check_deligne_conditions,
    deligne_enumerate,
    deligne_numerator,
    diagram_flip,
    integrable_numerator,
    numerator,
    phi_power_qpoly,
    q_dimension_sum,
    screened_coefficient,
    sp_c_character,
    sp_twist_product_character,
    sp_split_characters,
)
from affinechar.lattice import alt_weyl_raw
from affinechar.rootdata import coroot_lattice_basis, root_system
from affinechar.series import (
    CharSlices,
    SliceError,
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
    ((-1, 0, 0, 0, 0), (1, 2, 1, 1)),
    ((-2, 0, 0, 0, 1), (1, 1, 1, 1)),
    ((-2, 0, 0, 1, 0), (1, 1, 1, 1)),
    ((-3, 0, 0, 1, 1), (0, 1, 1, 1)),
    ((-3, 0, 1, 0, 0), (1, 1, 1, 1)),
    ((-2, 1, 0, 0, 0), (1, 1, 1, 1)),
    ((-3, 1, 0, 0, 1), (1, 1, 0, 1)),
    ((-3, 1, 0, 1, 0), (1, 1, 1, 0)),
]


# -- the A-family tower ---------------------------------------------------------


def test_tower_graded_dimensions():
    frozen = {0: [1, 8, 44, 172], 1: [3, 18, 84, 312], 2: [6, 33, 144, 507]}
    for s, want in frozen.items():
        num = numerator("sl-first", root_system("A", 2), 3, s)
        ch = character_from_numerator(num)
        assert ch.terms()[0, 0, 0] == 1
        assert ch.q_series() == want
        assert all(c >= 0 for b in ch.slices.values() for c in b.values())


@pytest.mark.parametrize("n,s", [(3, 1), (4, 2)])
def test_first_last_flip_symmetry(n, s):
    rs = root_system("A", n - 1)
    first = numerator("sl-first", rs, 3, s)
    last = numerator("sl-last", rs, 3, s)
    assert first_diff(last.terms(), diagram_flip(first).terms()) is None
    assert first_diff(first.terms(), diagram_flip(last).terms()) is None
    # the flip maps the tops onto each other as well
    assert diagram_flip(first) == last


def test_tower_guards(capsys):
    # every formula that reads s is served at its row's least rank and
    # least s, and refused one below either
    def code(f, fam, rank, s):
        c = cli.main(["compute", "--formula", f, "--type", fam, "--rank",
                      str(rank), "--s", str(s), "--order", "1"])
        capsys.readouterr()
        return c

    for f, (lives_on, rank, s, _, _) in FORMULAS.items():
        if s is not None:
            fam = lives_on[0]
            assert (code(f, fam, rank, s), code(f, fam, rank, s - 1),
                    code(f, fam, rank - 1, s)) == (0, 2, 2), f


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_rank_one_closed_form_sharpness(s):
    # the two-term numerator is the half-lattice sum through q^{s+1} and
    # stops being it exactly at q^{s+2}
    rs = root_system("A", 1)
    closed = numerator("sl2-closed", rs, s + 2, s)
    latt = numerator("sl-first", rs, s + 2, s)
    assert first_diff(truncated(latt, s + 1).terms(), closed.terms()) is None
    diff = first_diff(latt.terms(), closed.terms())
    assert diff is not None and diff[0][0] == s + 2


def test_assembly_reconstructs_the_product():
    res = check("tower-assembly", n=3, order=8, smax=2)
    assert res["mismatch"] is None
    assert res["terms"] > 0
    assert check("tower-assembly", n=4, order=6, smax=1)["mismatch"] is None


# -- the C-family split vacuum ----------------------------------------------------


def test_split_vacuum_graded_dimensions():
    chb, shifted = sp_split_characters(root_system("C", 2), 3)
    assert chb.q_series() == [1, 10, 65, 330]
    assert chb.terms()[0, 0, 0] == 1
    assert shifted.q_series() == [0, 5, 50, 290]
    assert sum(shifted.slices.get(0, {}).values()) == 0
    chc = sp_c_character(shifted)
    assert chc.base.level == -1 and chc.base.finite == (0, 1)
    assert chc.qmax == 2
    assert chc.q_series() == [5, 50, 290]
    assert chc.terms()[0, 0, 0] == 1
    for ch in (chb, chc):
        assert all(c >= 0 for b in ch.slices.values() for c in b.values())


@pytest.mark.parametrize("rank,off2", [(2, (1, 1)), (3, (1, 2, 1))],
                         ids=["C2", "C3"])
def test_sp_c_character_shifts_grading(rank, off2):
    # one q-power down, and every offset less omega_2 = eps_1 + eps_2 in
    # root coordinates: alpha_1 + alpha_2 on C2, alpha_1 + 2 alpha_2 +
    # alpha_3 on C3
    rs = root_system("C", rank)
    base = weight_from_coeffs(rs, (-1,) + (0,) * rank)
    top = (2,) + (1,) * (rank - 1)
    zero = (0,) * rank
    shifted = CharSlices(rs, base, 3, {1: {top: 7}, 2: {zero: 1}})
    chc = sp_c_character(shifted)
    assert chc.qmax == 2 and chc.rs is rs
    assert chc.base == weight_from_coeffs(rs, (-2, 0, 1) + (0,) * (rank - 2))
    assert chc.terms() == {(0, *(a - b for a, b in zip(top, off2))): 7,
                           (1, *(-b for b in off2)): 1}
    with pytest.raises(SliceError,
                       match="^rebase produced a negative q-power$"):
        sp_c_character(CharSlices(rs, base, 3, {0: {zero: 1}, 1: {top: 7}}))


def test_sp_numerator_guards():
    with pytest.raises(KeyError):
        numerator("sp-parity-c", root_system("C", 2), 2)
    # the type C rows live on rank >= 2; sp-a reads s >= 1
    assert {f: FORMULAS[f][:3] for f in FORMULAS if f.startswith("sp")} == {
        "sp-a": (("C",), 2, 1), "sp-b": (("C",), 2, None),
        "sp-c": (("C",), 2, None), "sp-parity-a": (("C",), 2, None),
        "sp-parity-b": (("C",), 2, None)}


def test_sector_restriction():
    for s in (1, 2):
        res = check("sector-restriction", n=4, s=s, order=2)
        assert res["mismatch"] is None


def test_flip_decomposition():
    assert check("flip-decomposition", n=4, order=2)["mismatch"] is None


def test_twisted_denominator():
    assert check("twisted-denominator", n=4, order=4)["mismatch"] is None
    assert check("twisted-denominator", n=6, order=2)["mismatch"] is None


def tuple_long_root_odd_slices(rs, qmax):
    # the tuple-keyed loop the packed kernel replaced, kept as its oracle:
    # prod over long roots a and odd k of (1 - e^a q^k)^{-1}
    slices = {0: {(0,) * rs.rank: 1}}
    longs = []
    for a in rs.positive_roots:
        if rs.inner(a.fund, a.fund) == 2:
            rc = tuple(int(c) for c in a.root_coords)
            longs.append(rc)
            longs.append(tuple(-c for c in rc))
    for rc in longs:
        k = 1
        while k <= qmax:
            for m in range(0, qmax - k + 1):
                b = slices.get(m)
                if not b:
                    continue
                tgt = slices.setdefault(m + k, {})
                for off, c in list(b.items()):
                    noff = tuple(a + d for a, d in zip(off, rc))
                    nc = tgt.get(noff, 0) + c
                    if nc:
                        tgt[noff] = nc
                    else:
                        del tgt[noff]
            k += 2
    return {m: b for m, b in slices.items() if b}


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_twist_product_matches_tuple_loop_times_phi_ratio(rank):
    # the construction the single factor product replaced: the long-root
    # slices times phi(q^2) / phi(q)
    rs = root_system("C", rank)
    lam = weight_from_coeffs(rs, (-1,) + (0,) * rank)
    for qmax in range(7):
        want = tuple_long_root_odd_slices(rs, qmax)
        assert sorted(want) == list(range(qmax + 1))
        ratio = qpoly_mul(phi_power_qpoly(1, qmax, 2),
                          qpoly_invert(phi_power_qpoly(1, qmax), qmax), qmax)
        want = CharSlices(rs, lam, qmax, want).mul_qpoly(ratio)
        assert sp_twist_product_character(rs, qmax) == want, qmax


def test_parity_bracket_identity():
    assert check("parity-bracket", n=4, order=3)["mismatch"] is None


def test_parity_numerators_match_split_characters(capsys):
    # the split forms are the independent side of the parity rows, which
    # sp-b and sp-c read: both numerators and both characters agree
    for npr, qmax in ((2, 2), (3, 3)):
        rs = root_system("C", npr)
        den = denominator_slices(rs, qmax)
        chb = sp_split_characters(rs, qmax)[0]
        numa = numerator("sp-parity-a", rs, qmax)
        assert first_diff(numa.terms(), chb.mul_slices(den).terms()) is None
        chc = sp_c_character(sp_split_characters(rs, qmax + 1)[1])
        numb = numerator("sp-parity-b", rs, qmax + 1)
        assert first_diff(truncated(numb, qmax).terms(),
                          chc.mul_slices(den).terms()) is None
        opts = ["--type", "C", "--rank", str(npr), "--order", str(qmax),
                "--character"]
        for f, ch in (("sp-b", chb), ("sp-c", chc)):
            assert cli.main(["compute", "--formula", f, *opts]) == 0
            want = json.dumps(cli._series_doc(ch), indent=1) + "\n"
            assert capsys.readouterr().out == want, f


@pytest.mark.parametrize("n,qmax", [(4, 4), (6, 3)])
def test_parity_numerators_are_the_parity_sums_at_their_tops(n, qmax):
    # the orbit sum over the parity-cut lattice, taken directly at each top
    rs = root_system("C", n // 2)
    for variant, top, k in (("a", (-1,), 0), ("b", (-2, 0, 1), 1)):
        lam = weight_from_coeffs(rs, top + (0,) * (n // 2 + 1 - len(top)))
        direct = alt_weyl_raw(
            rs, lam, qmax,
            lambda gf, x: int(_orth_coords(x)[k] >= 0
                              and sum(_orth_coords(x)) % 2 == 0))
        assert numerator("sp-parity-" + variant, rs, qmax) == direct


def test_orth_coords_round_trip():
    # gamma = sum_k j_k (2 eps_k), with 2 eps_k = a_k^vee + ... + a_l^vee,
    # so gamma's coroot coordinates are the partial sums of j
    rng = random.Random(3)
    for rank in (2, 3, 4):
        rs = root_system("C", rank)
        gammas = [
            tuple(sum(rs.coroot_fund[j][d] for j in range(i, rank))
                  for d in range(rank))
            for i in range(rank)
        ]
        assert all(rs.inner(g, g) == 2 for g in gammas)
        for _ in range(40):
            js = tuple(rng.randint(-4, 4) for _ in range(rank))
            g = tuple(sum(j * b[d] for j, b in zip(js, gammas))
                      for d in range(rank))
            x = tuple(itertools.accumulate(js))
            assert _orth_coords(x) == fraction_orth_coords(rs, g) == js


def test_window_negation():
    cases = [
        (2, [(0, 0)]),
        (2, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3)]),
        (2, [(3, -2)]),
        (3, [(0, 0, 0), (1, 1, 0)]),
    ]
    for npr, omega in cases:
        text = ";".join(",".join(map(str, j)) for j in omega)
        assert check("window-negation", n=2 * npr, order=6,
                     omega=text)["mismatch"] is None


# -- screened weights -------------------------------------------------------------


def test_the_eight_rank_four_weights():
    rs = root_system("D", 4)
    for coeffs, alpha in EIGHT:
        res = check_deligne_conditions(rs, weight_from_coeffs(rs, coeffs))
        assert res["ok"], (coeffs, res["failures"])
        assert tuple(int(x) for x in res["alpha"].root_coords) == alpha
        assert res["witnesses"][0][1] == 1


def test_screening_rejections():
    rs = root_system("D", 4)
    res = check_deligne_conditions(rs, weight_from_coeffs(rs, (-4, 1, 1, 0, 0)))
    assert not res["ok"]
    assert any("not unique" in f for f in res["failures"])
    res = check_deligne_conditions(rs, weight_from_coeffs(rs, (-2, 0, 1, 0, 0)))
    assert not res["ok"]
    assert any("level 0" in f for f in res["failures"])
    res = check_deligne_conditions(rs, weight_from_coeffs(rs, (-1, -1, 0, 0, 0)))
    assert not res["ok"]
    rsC = root_system("C", 2)
    res = check_deligne_conditions(rsC, weight_from_coeffs(rsC, (-1, 0, 0)))
    assert not res["ok"]
    assert any("simply laced" in f for f in res["failures"])


def test_enumeration_default_window():
    rs = root_system("D", 4)
    assert deligne_enumerate(rs, -1, 1) == EIGHT
    assert deligne_enumerate(rs, 0, 0) == []


def test_enumeration_wide_window():
    rs = root_system("D", 4)
    wide = deligne_enumerate(rs, -1, 4)
    assert len(wide) == 141
    assert ((-4, 3, 0, 0, 0), (1, 1, 0, 0)) in wide
    # the default window rows sit inside every wider scan
    assert all(row in wide for row in EIGHT)


def test_deeper_vacua_pass():
    rs6 = root_system("E", 6)
    res = check_deligne_conditions(
        rs6, weight_from_coeffs(rs6, (-3,) + (0,) * 6))
    assert res["ok"]
    alpha = tuple(int(x) for x in res["alpha"].root_coords)
    assert alpha == (1, 1, 2, 2, 2, 1) and sum(alpha) == 9
    rs4 = root_system("D", 4)
    res = check_deligne_conditions(
        rs4, weight_from_coeffs(rs4, (-2,) + (0,) * 4))
    assert res["ok"]
    assert tuple(int(x) for x in res["alpha"].root_coords) == (1, 1, 1, 1)


@pytest.mark.parametrize("fam,rank", [("D", 4), ("E", 6)])
def test_screening_equals_the_fraction_pairings(fam, rank):
    # every weight of the window [0, 2] at levels -1 and -2: the integer
    # root scan finds the witnesses the Fraction pairings found
    rs = root_system(fam, rank)
    for k in (-1, -2):
        passed = 0
        for fin in itertools.product(range(3), repeat=rank):
            lam = weight_from_coeffs(
                rs, (k - sum(map(mul, fin, rs.comarks)),) + fin)
            res = check_deligne_conditions(rs, lam)
            assert res["witnesses"] == fraction_deligne_witnesses(rs, lam)
            assert all(type(m) is int for _, m in res["witnesses"])
            passed += res["ok"]
        assert passed


def test_linear_coefficient_antisymmetry():
    # the coefficient (alpha|gamma)+1 flips sign under the affine-root
    # reflection gamma -> gamma - ((alpha|gamma)+1) alpha
    rng = random.Random(53)
    rs = root_system("D", 4)
    lam = weight_from_coeffs(rs, (-1, 0, 0, 0, 0))
    alpha = check_deligne_conditions(rs, lam)["alpha"].fund
    basis = coroot_lattice_basis(rs)
    for _ in range(300):
        cs = [rng.randrange(-3, 4) for _ in range(4)]
        gamma = tuple(
            sum(Fraction(c) * b[i] for c, b in zip(cs, basis))
            for i in range(4)
        )
        v = rs.inner(alpha, gamma) + 1
        gamma2 = tuple(g - v * a for g, a in zip(gamma, alpha))
        assert rs.inner(alpha, gamma2) + 1 == -v


def test_divided_screened_character():
    rs = root_system("D", 4)
    lam = weight_from_coeffs(rs, (-1, 0, 0, 0, 0))
    ch = character_from_numerator(deligne_numerator(rs, lam, 2))
    assert sum(len(b) for b in ch.slices.values()) == 195
    assert ch.q_series() == [1, 28, 434]
    assert ch.terms()[0, 0, 0, 0, 0] == 1
    assert all(c >= 0 for b in ch.slices.values() for c in b.values())
    assert is_weyl_invariant(ch)


def test_deligne_numerator_rejects_failures():
    rs = root_system("D", 4)
    with pytest.raises(ValueError):
        deligne_numerator(rs, weight_from_coeffs(rs, (-4, 1, 1, 0, 0)), 2)


# -- graded dimensions two ways -----------------------------------------------


def _screened_qdim(rs, coeffs, qmax):
    lam = weight_from_coeffs(rs, coeffs)
    alpha = check_deligne_conditions(rs, lam)["alpha"]

    def co(gf, x):
        return int(rs.inner(alpha.fund, gf) + 1)

    direct = q_dimension_sum(rs, lam, coroot_lattice_basis(rs), qmax,
                             coeff_fn=co, halve=True)
    ch = character_from_numerator(deligne_numerator(rs, lam, qmax))
    dimg = rs.rank + 2 * len(rs.positive_roots)
    via_char = qpoly_mul(
        phi_power_qpoly(dimg, qmax), dict(enumerate(ch.q_series())), qmax)
    return direct, [via_char.get(m, 0) for m in range(qmax + 1)], dimg


@pytest.mark.parametrize("exponent", [*range(31), 78, 133, 248])
def test_phi_power_equals_repeated_products(exponent):
    for qmax in range(9):
        assert (phi_power_qpoly(exponent, qmax)
                == qpoly_mul_phi_power(exponent, qmax)), qmax


def test_qdim_two_paths_agree():
    rs = root_system("D", 4)
    direct, via_char, dimg = _screened_qdim(rs, (-1, 0, 0, 0, 0), 2)
    assert dimg == 28
    assert direct == via_char == [1, 0, 0]


def test_qdim_deeper_vacuum():
    rs = root_system("D", 4)
    direct, via_char, _ = _screened_qdim(rs, (-2, 0, 0, 0, 0), 3)
    assert direct == via_char == [1, 0, -105, 700]
    # dividing the oscillator power back out leaves the graded dimension
    inv = qpoly_invert(phi_power_qpoly(28, 3), 3)
    dimq = qpoly_mul(dict(enumerate(direct)), inv, 3)
    assert [dimq.get(m, 0) for m in range(4)] == [1, 28, 329, 2632]


@pytest.mark.parametrize("rank,k,want", [
    (6, -3, [1, 78, 2509, 49270, 698425, 7815106, 72903350]),
    (7, -4, [1, 133, 7505, 254885, 6093490, 112077998, 1678245091]),
    (8, -6, [1, 248, 27249, 1821002, 85118126, 3017931282, 85616292063])])
def test_exceptional_screened_vacua_from_the_lattice_alone(rank, k, want):
    # graded dimensions of the E-type screened vacua to q^6, read from the
    # lattice sum and phi(q)^{-dim g}; no Weyl group and no character
    rs = root_system("E", rank)
    lam = weight_from_coeffs(rs, (k,) + (0,) * rank)
    alpha = check_deligne_conditions(rs, lam)["alpha"]
    direct = q_dimension_sum(rs, lam, coroot_lattice_basis(rs), 6,
                             coeff_fn=screened_coefficient(alpha), halve=True)
    dimg = rs.rank + 2 * len(rs.positive_roots)
    dimq = qpoly_mul(dict(enumerate(direct)),
                     qpoly_invert(phi_power_qpoly(dimg, 6), 6), 6)
    assert [dimq.get(m, 0) for m in range(7)] == want


def test_qdim_sum_skips_cancelling_negative_drops():
    # the E7 screened vacuum has lattice points below drop 0, all of
    # weight dimension 0; no Weyl group is enumerated
    rs = root_system("E", 7)
    lam = weight_from_coeffs(rs, (-4,) + (0,) * 7)
    alpha = check_deligne_conditions(rs, lam)["alpha"]

    def co(gf, x):
        return int(rs.inner(alpha.fund, gf) + 1)

    assert q_dimension_sum(rs, lam, coroot_lattice_basis(rs), 1,
                           coeff_fn=co, halve=True) == [1, 0]


def test_qdim_sum_refuses_uncancelled_negative_drops():
    # A1 weight -5 at level 1: gamma = alpha^vee drops by -1 and carries
    # the dimension of the irreducible of highest weight 1
    rs = root_system("A", 1)
    lam = weight_from_coeffs(rs, (6, -5))
    with pytest.raises(SliceError, match="negative q-power -1"):
        q_dimension_sum(rs, lam, coroot_lattice_basis(rs), 2)


# -- integrable guard -------------------------------------------------------------


def test_integrable_numerator_wants_dominant_weights():
    rs = root_system("A", 2)
    with pytest.raises(ValueError):
        integrable_numerator(rs, weight_from_coeffs(rs, (-1, 1, 0)), 2)
    with pytest.raises(ValueError):
        integrable_numerator(rs, weight_from_coeffs(rs, (0, 1, -1)), 2)
    num = integrable_numerator(rs, weight_from_coeffs(rs, (1, 1, 0)), 2)
    assert num.terms()[0, 0, 0] == 1
