"""Sliced series arithmetic: ring laws, the A1 theta expansion, division."""

import json
import random
from fractions import Fraction

import pytest
from oracles import (
    apply,
    denominator_series,
    is_weyl_invariant,
    matrix_is_weyl_invariant,
    matrix_weyl_group,
    method_cone_product,
    qpoly_invert,
    root_to_fund,
    slices_from_json_dict,
    truncated,
    tuple_factor_product,
    tuple_mul_slices,
    weyl_denominator,
)

from affinechar import formulas as fm
from affinechar import series
from affinechar.cli import _series_doc, main
from affinechar.rootdata import LimitError, root_system, weyl_order
from affinechar.series import (
    AffineWeight,
    CharSlices,
    ExpSeries,
    OffsetPacking,
    SliceError,
    character_from_numerator,
    cone_product,
    denominator_slices,
    factor_product,
    first_diff,
    laurent_divide,
    phi_power_qpoly,
    qpoly_mul,
    weight_from_coeffs,
)


def poly_mul(a, b):
    # plain Laurent product in root coordinates, used as the division oracle
    out = {}
    for o1, c1 in a.items():
        for o2, c2 in b.items():
            t = tuple(x + y for x, y in zip(o1, o2))
            nc = out.get(t, 0) + c1 * c2
            if nc:
                out[t] = nc
            else:
                del out[t]
    return out


def slice_product(a, b, qmax):
    # {m: {off: c}} times {m: {off: c}}, truncated at qmax
    out = {}
    for m1, b1 in a.items():
        for m2, b2 in b.items():
            if m1 + m2 > qmax:
                continue
            tgt = out.setdefault(m1 + m2, {})
            for o, c in poly_mul(b1, b2).items():
                nc = tgt.get(o, 0) + c
                if nc:
                    tgt[o] = nc
                else:
                    del tgt[o]
    return {m: b for m, b in out.items() if b}


# -- one-variable q-series ---------------------------------------------------


def test_phi_pentagonal():
    # nonzero exactly at k(3k-1)/2 with sign (-1)^k
    want = {}
    for k in range(-4, 5):
        g = k * (3 * k - 1) // 2
        if 0 <= g <= 15:
            want[g] = 1 if k % 2 == 0 else -1
    assert phi_power_qpoly(1, 15) == want


def test_phi_step_two_matches_doubled():
    assert phi_power_qpoly(1, 14, 2) == {
        2 * m: c for m, c in phi_power_qpoly(1, 7).items()}


def test_invert_phi_gives_partitions():
    inv = qpoly_invert(phi_power_qpoly(1, 10), 10)
    assert [inv.get(m, 0) for m in range(11)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    ]


def test_qpoly_invert_roundtrip():
    rng = random.Random(11)
    for _ in range(300):
        qmax = rng.randrange(3, 9)
        a = {0: rng.choice((1, -1))}
        for m in range(1, qmax + 1):
            c = rng.randrange(-3, 4)
            if c:
                a[m] = c
        assert qpoly_mul(a, qpoly_invert(a, qmax), qmax) == {0: 1}


def test_qpoly_invert_needs_unit():
    with pytest.raises(SliceError):
        qpoly_invert({0: 2, 1: 1}, 4)


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("exponent", [1, 2, 5, 28])
def test_negative_phi_power_is_the_inverse(exponent, step):
    for qmax in range(10):
        assert (phi_power_qpoly(-exponent, qmax, step)
                == qpoly_invert(phi_power_qpoly(exponent, qmax, step), qmax))


def test_factor_product_matches_tuple_loop():
    # seeded random factor lists; offsets up to 300 need the qmax max|o| // j
    # part of the width, and the offsets of j = 0 factors the other part
    rng = random.Random(28)
    for _ in range(400):
        nvars, qmax = rng.randrange(5), rng.randrange(6)
        factors = []
        for _ in range(rng.randrange(7)):
            j = rng.randrange(4)
            o = tuple(rng.randint(-300, 300) for _ in range(nvars))
            factors.append((j, o, j >= 1 and rng.random() < 0.5))
        assert (factor_product(nvars, qmax, factors)
                == tuple_factor_product(nvars, qmax, factors)), factors


def test_qpoly_mul_skips_explicit_zero_coefficients():
    # a stored zero makes zero products, which must not reach the dict
    assert qpoly_mul(phi_power_qpoly(1, 2), {0: 1, 1: 0, 2: -650}, 2) == {
        0: 1, 1: -1, 2: -651}


# -- the sliced-series ring and the cone accumulator ----------------------------


A2 = root_system("A", 2)
ZERO_A2 = weight_from_coeffs(A2, (0, 0, 0))


def rand_slices(rng, qmax):
    out = {}
    for _ in range(6):
        off = tuple(rng.randrange(-2, 3) for _ in range(2))
        c = rng.randrange(-3, 4)
        if c:
            out.setdefault(rng.randrange(0, qmax + 1), {})[off] = c
    return CharSlices(A2, ZERO_A2, qmax, out)


def test_series_ring_laws():
    rng = random.Random(7)
    one = {0: {(0, 0): 1}}
    for _ in range(200):
        a, b, c = (rand_slices(rng, 5) for _ in range(3))
        assert a.mul_slices(b.slices) == b.mul_slices(a.slices)
        assert (a.mul_slices(b.slices).mul_slices(c.slices)
                == a.mul_slices(b.mul_slices(c.slices).slices))
        assert (a.mul_slices((b + c).slices)
                == a.mul_slices(b.slices) + a.mul_slices(c.slices))
        assert a.mul_slices(one) == a
        assert a - a == CharSlices(A2, ZERO_A2, 5, {})


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_packed_mul_slices_matches_the_tuple_product(rank):
    # offsets of both signs and several widths, negative q-powers as in
    # numerators, products cut at qmax, and an empty operand either side
    rs = root_system("A", rank)
    zero = weight_from_coeffs(rs, (0,) * (rank + 1))
    rng = random.Random(100 + rank)

    def rand(qmax, spread, terms):
        out = {}
        for _ in range(terms):
            off = tuple(rng.randrange(-spread, spread + 1)
                        for _ in range(rank))
            out.setdefault(rng.randrange(-1, qmax + 1), {})[off] = (
                rng.randrange(-5, 6))
        return CharSlices(rs, zero, qmax, out)

    for _ in range(60):
        qmax = rng.randrange(0, 5)
        a = rand(qmax, rng.choice([1, 3, 40]), rng.randrange(0, 12))
        b = rand(qmax, rng.choice([1, 3, 40]), rng.randrange(0, 12))
        for x, y in ((a, b), (b, a), (a, CharSlices(rs, zero, qmax, {})),
                     (CharSlices(rs, zero, qmax, {}), b)):
            got = x.mul_slices(y.slices)
            assert got.qmax == x.qmax and got.base == x.base
            assert got.slices == tuple_mul_slices(x, y.slices)


def test_series_truncation_coherence():
    # restricting after a product equals the product of restrictions
    rng = random.Random(19)
    for _ in range(200):
        a, b = rand_slices(rng, 6), rand_slices(rng, 6)
        k = rng.randrange(0, 7)
        assert (truncated(a.mul_slices(b.slices), k)
                == truncated(a, k).mul_slices(truncated(b, k).slices))


def rand_string_start(rng, marks):
    """An exponent vector e with 0 <= e <= marks, e != 0 and e != marks, so
    every vector on the root string of e raises the cone height."""
    while True:
        e = tuple(rng.randrange(0, m + 1) for m in marks)
        if any(e) and e != marks:
            return e


def test_two_term_factors_cancel():
    # a root string in both even and odd cancels, wherever it is put
    rng = random.Random(13)
    for _ in range(150):
        marks = tuple(rng.randrange(1, 3) for _ in range(3))
        imaginary = rng.randrange(0, 3)
        even, odd = ([rand_string_start(rng, marks)
                      for _ in range(rng.randrange(0, 4))] for _ in range(2))
        e = rand_string_start(rng, marks)
        want = cone_product(marks, imaginary, even, odd, 6)
        assert sorted(want.terms.items()) == sorted(method_cone_product(
            marks, imaginary, even, odd, 6).terms.items())
        for ev, od in (([e] + even, odd + [e]), (even + [e], [e] + odd)):
            got = cone_product(marks, imaginary, ev, od, 6)
            assert sorted(got.terms.items()) == sorted(want.terms.items())


def test_height_zero_factor_rejected():
    # e = 0 is its own first factor; e = delta makes delta - e = 0
    for even, odd in (([(0, 0)], ()), ((), [(0, 0)]), ([(1, 1)], ()),
                      ((), [(1, 1)])):
        for build in (cone_product, method_cone_product):
            with pytest.raises(ValueError, match="raise the height"):
                build((1, 1), 1, even, odd, 4)


def test_negative_exponent_rejected():
    # a negative entry in e, or in delta - e when e is not below delta
    for exps in ((-1, 0), (2, -1), (0, -5), (2, 0)):
        for even, odd in (([exps], ()), ((), [exps])):
            for build in (cone_product, method_cone_product):
                with pytest.raises(ValueError, match="negative exponent"):
                    build((1, 1), 0, even, odd, 4)


def test_exponents_past_eight_bits_round_trip():
    # order 300 packs each exponent in ten bits; 200 > 127 is kept exactly.
    # delta lies past twice the height, so each root string is e alone
    wide = (0, 601, 0)
    s = cone_product(wide, 0, [(0, 200, 0)], (), 300)
    assert sorted(s.terms.items()) == [((0, 0, 0), 1), ((0, 200, 0), -1)]
    s = cone_product(wide, 0, [(0, 200, 0)], [(0, 200, 0)], 300)
    assert sorted(s.terms.items()) == [((0, 0, 0), 1)]
    s = cone_product(wide, 0, [(0, 200, 0)], [(0, 200, 0), (100, 0, 200)],
                     300)
    assert sorted(s.terms.items()) == [((0, 0, 0), 1), ((100, 0, 200), 1)]
    s = ExpSeries(300, {**s.terms, (0, 300, 0): 7})
    assert sorted(s.terms.items())[1] == ((0, 300, 0), 7)
    assert s.n_terms() == 3
    # a zero term, and one above the order: both dropped
    s = ExpSeries(300, {**s.terms, (0, 300, 0): 0, (0, 301, 0): 5})
    assert sorted(s.terms.items()) == [((0, 0, 0), 1), ((100, 0, 200), 1)]


# -- the affine denominator ----------------------------------------------------


def test_a1_denominator_is_the_theta_sum():
    # (1-z) prod (1-q^k)(1-z q^k)(1-q^k/z) = sum_j (-1)^j z^j q^{j(j-1)/2}
    # with z = e^{-alpha_1}; cone exponents (k0, k1) = (j(j-1)/2, j(j+1)/2)
    rs = root_system("A", 1)
    order = 10
    want = {}
    for j in range(-4, 5):
        k0 = j * (j - 1) // 2
        k1 = j * (j + 1) // 2
        if k0 + k1 <= order:
            want[(k0, k1)] = -1 if j % 2 else 1
    got = denominator_series(rs, order).terms
    assert got == want


def test_a1_denominator_slices_theta():
    want = {
        0: {(0,): 1, (-1,): -1},
        1: {(1,): -1, (-2,): 1},
        3: {(2,): 1, (-3,): -1},
        6: {(3,): -1, (-4,): 1},
    }
    assert denominator_slices(root_system("A", 1), 6) == want


@pytest.mark.parametrize("fam,rank", [("A", 2), ("C", 2)])
def test_denominator_shapes_agree(fam, rank):
    # the sliced product and the cone-series product list the same terms
    rs = root_system(fam, rank)
    qmax = 3
    marks = rs.marks
    want = {}
    need = 0
    for m, b in denominator_slices(rs, qmax).items():
        for off, c in b.items():
            exps = (m,) + tuple(m * marks[i] - off[i] for i in range(rs.rank))
            assert all(x >= 0 for x in exps)
            need = max(need, sum(exps))
            want[exps] = c
    ser = denominator_series(rs, need)
    got = {e: c for e, c in ser.terms.items() if e[0] <= qmax}
    assert got == want


def test_denominator_zero_slice_is_finite_denominator():
    # Weyl's denominator formula: the product over the positive roots, as
    # the slices build it, is the alternating sum over the orbit of rho
    for fam, rank in ORACLE_TYPES + [("E", 6)]:
        rs = root_system(fam, rank)
        d0 = weyl_denominator(rs)
        assert len(d0) == weyl_order(fam, rank) and sum(d0.values()) == 0
        assert denominator_slices(rs, 0)[0] == d0


# -- Laurent division ----------------------------------------------------------


def _roots(rs):
    return [a.root_coords for a in rs.positive_roots]


def _divide(poly, rs, bound=12):
    # packed division of a tuple-keyed Laurent polynomial
    pk = OffsetPacking(rs.rank, bound)
    return pk.unpack_dict(laurent_divide(pk.pack_dict(poly), _roots(rs), pk))


def test_laurent_divide_recovers_factor():
    # in type C the highest root starts with root coordinate 2, so the
    # string key needs the floor division
    rng = random.Random(5)
    assert root_system("C", 3).theta.root_coords[0] == 2
    for fam, rank in (("A", 2), ("C", 2), ("C", 3), ("D", 4)):
        rs = root_system(fam, rank)
        den = weyl_denominator(rs)
        for _ in range(40):
            poly = {}
            for _ in range(4):
                off = tuple(rng.randrange(-3, 3) for _ in range(rank))
                c = rng.randrange(-4, 5)
                if c:
                    poly[off] = poly.get(off, 0) + c
            poly = {o: c for o, c in poly.items() if c}
            assert _divide(poly_mul(poly, den), rs, 40) == poly


def test_laurent_divide_flags_inexact():
    rs = root_system("A", 2)
    with pytest.raises(SliceError, match="not divisible"):
        _divide({(0, 0): 1, (-1, 0): 1}, rs)


def test_laurent_divide_budget_counts_every_string_point(monkeypatch):
    # 1 - e^{-5 alpha} spans the six points t = 0..-5 of one alpha-string;
    # the walk is refused before it starts when they pass DIVIDE_BUDGET
    rs = root_system("A", 1)
    num = {(0,): 1, (-5,): -1}
    monkeypatch.setattr(series, "DIVIDE_BUDGET", 6)
    assert _divide(num, rs) == {(-t,): 1 for t in range(5)}
    monkeypatch.setattr(series, "DIVIDE_BUDGET", 5)
    with pytest.raises(LimitError, match="builds 6 terms along the "
                                         r"\(1,\)-strings, more than 5$"):
        _divide(num, rs)


@pytest.mark.parametrize("bound", [1, 7, 8, 255, 256, 10**12])
def test_offset_packing_round_trip(bound):
    rng = random.Random(bound)
    for rank in (1, 4, 8):
        pk = OffsetPacking(rank, bound)
        assert pk.half > bound
        offs = [(-bound,) * rank, (bound,) * rank, (0,) * rank,
                tuple((-1) ** i * bound for i in range(rank))]
        offs += [tuple(rng.randint(-bound, bound) for _ in range(rank))
                 for _ in range(30)]
        for o in offs:
            assert pk.unpack(pk.pack(o)) == o
        # the map is linear: a sum of packed offsets unpacks to the sum
        for a, b in zip(offs, offs[1:]):
            ab = tuple(x + y for x, y in zip(a, b))
            if max(map(abs, ab)) <= bound:
                assert pk.unpack(pk.pack(a) + pk.pack(b)) == ab


def test_character_from_numerator_flags_indivisible_slice():
    # 1 - e^{-alpha} divides N_0 = e^0 - e^{-alpha}; N_1 = e^0 has no factor
    rs = root_system("A", 1)
    base = weight_from_coeffs(rs, (0, 0))
    ok = CharSlices(rs, base, 0, {0: {(0,): 1, (-1,): -1}})
    assert character_from_numerator(ok).slices == {0: {(0,): 1}}
    bad = CharSlices(rs, base, 1, {0: {(0,): 1, (-1,): -1}, 1: {(0,): 1}})
    with pytest.raises(SliceError, match="not divisible"):
        character_from_numerator(bad)


def test_character_division_roundtrip():
    # ch -> D * ch -> divide slice by slice -> ch again
    rng = random.Random(17)
    for fam, rank in (("A", 1), ("A", 2)):
        rs = root_system(fam, rank)
        qmax = 3
        dsl = denominator_slices(rs, qmax)
        for _ in range(12):
            base = weight_from_coeffs(
                rs, [rng.randrange(-2, 3) for _ in range(rank + 1)]
            )
            slices = {}
            for m in range(qmax + 1):
                b = {}
                for _ in range(3):
                    off = tuple(rng.randrange(-2, 3) for _ in range(rank))
                    c = rng.randrange(-3, 4)
                    if c:
                        b[off] = b.get(off, 0) + c
                b = {o: c for o, c in b.items() if c}
                if b:
                    slices[m] = b
            ch = CharSlices(rs, base, qmax, slices)
            num = CharSlices(rs, base, qmax, slice_product(ch.slices, dsl, qmax))
            assert ch.mul_slices(dsl) == num
            assert character_from_numerator(num) == ch


# -- the tuple-keyed division, kept as the oracle of the packed path ----------


def tuple_laurent_divide(num, roots):
    for a in roots:
        i = next(i for i, x in enumerate(a) if x)
        strings = {}
        for o, c in num.items():
            t = o[i] // a[i]
            key = tuple(x - t * y for x, y in zip(o, a))
            strings.setdefault(key, {})[t] = c
        quo = {}
        for key, line in strings.items():
            acc = 0
            for t in range(max(line), min(line) - 1, -1):
                acc += line.get(t, 0)
                if acc:
                    quo[tuple(x + t * y for x, y in zip(key, a))] = acc
            if acc:
                raise SliceError(f"slice not divisible by the Weyl denominator:"
                                 f" the {a}-string through {key} sums to {acc}")
        num = quo
    return num


def tuple_character_from_numerator(numerator):
    rs, qmax = numerator.rs, numerator.qmax
    numerator.require_nonnegative()
    dsl = denominator_slices(rs, qmax)
    out = {}
    for m in range(qmax + 1):
        acc = dict(numerator.slices.get(m, {}))
        for j in range(1, m + 1):
            for o1, c1 in dsl.get(j, {}).items():
                for o2, c2 in out.get(m - j, {}).items():
                    t = tuple(a + b for a, b in zip(o1, o2))
                    nc = acc.get(t, 0) - c1 * c2
                    if nc:
                        acc[t] = nc
                    else:
                        acc.pop(t, None)
        q = tuple_laurent_divide(acc, _roots(rs))
        if q:
            out[m] = q
    return CharSlices(rs, numerator.base, qmax, out)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SliceError as e:
        return "SliceError: " + str(e)


def _assert_paths_agree(num):
    want = _outcome(tuple_character_from_numerator, num)
    got = _outcome(character_from_numerator, num)
    assert got == want
    return want


ORACLE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2), ("C", 3),
                ("D", 4)]


@pytest.mark.parametrize("fam,rank", ORACLE_TYPES)
def test_denominator_splits_into_finite_part_and_quotient(fam, rank):
    # R-hat = R * (R-hat / R): the slices without the finite factors, times
    # the finite Weyl denominator slice by slice, give the whole denominator
    rs = root_system(fam, rank)
    den = {0: weyl_denominator(rs)}
    for qmax in range(5):
        quo = denominator_slices(rs, qmax, finite=False)
        assert quo[0] == {(0,) * rank: 1}
        assert slice_product(quo, den, qmax) == denominator_slices(rs, qmax)


@pytest.mark.parametrize("fam,rank", ORACLE_TYPES)
def test_packed_division_matches_tuple_path_on_random_input(fam, rank):
    # D * ch and the slice-wise multiples ch_m * D_0 both divide exactly
    # (every D_j is a multiple of D_0); one extra term makes a slice
    # indivisible, and both paths must name the same root string
    rs = root_system(fam, rank)
    rng = random.Random(rank * 31 + ord(fam))
    base = weight_from_coeffs(rs, (0,) * (rank + 1))
    den = weyl_denominator(rs)
    for qmax in range(5):
        ch = {}
        for _ in range(3):
            off = tuple(rng.randrange(-2, 3) for _ in range(rank))
            ch.setdefault(rng.randrange(qmax + 1), {})[off] = rng.choice(
                (-2, -1, 1, 3))
        exact = CharSlices(rs, base, qmax,
                           slice_product(ch, denominator_slices(rs, qmax), qmax))
        assert _assert_paths_agree(exact) == CharSlices(
            rs, base, qmax, ch)
        d0 = CharSlices(rs, base, qmax,
                        {m: poly_mul(b, den) for m, b in ch.items()})
        assert isinstance(_assert_paths_agree(d0), CharSlices)
        off = tuple(rng.randrange(-2, 3) for _ in range(rank))
        bad = exact + CharSlices(rs, base, qmax, {rng.randrange(qmax + 1): {off: 1}})
        assert _assert_paths_agree(bad).startswith(
            "SliceError: slice not divisible")


def _formula_numerators(fam, rank, qmax):
    rs = root_system(fam, rank)
    for co in ((1,) + (0,) * rank, (0,) * rank + (1,)):
        yield fm.integrable_numerator(rs, weight_from_coeffs(rs, co), qmax)
    if fam == "A" and rank >= 2:
        yield fm.numerator("sl-first", rs, qmax, 1)
    if fam == "D":
        yield fm.deligne_numerator(rs, weight_from_coeffs(rs, (-1, 0, 0, 0, 0)),
                                   qmax)
        if qmax <= 3:
            yield fm.deligne_numerator(
                rs, weight_from_coeffs(rs, (-2, 0, 0, 0, 1)), qmax)


@pytest.mark.parametrize("fam,rank", ORACLE_TYPES)
def test_packed_division_matches_tuple_path_on_formulas(fam, rank):
    for qmax in range(5):
        for num in _formula_numerators(fam, rank, qmax):
            ch = _assert_paths_agree(num)
            assert isinstance(ch, CharSlices) and len(ch)


# -- graded-slice containers -----------------------------------------------


def test_negative_q_power_guard():
    rs = root_system("A", 1)
    base = weight_from_coeffs(rs, (0, 0))
    bad = CharSlices(rs, base, 3, {-1: {(0,): 1}, 0: {(0,): 1}})
    with pytest.raises(SliceError, match="negative q-power -1"):
        bad.require_nonnegative()
    with pytest.raises(SliceError):
        character_from_numerator(bad)
    # an emptied slice at negative m is not content
    ch = CharSlices(rs, base, 3, {-1: {}, 0: {(0,): 2}})
    assert ch.require_nonnegative() is ch
    assert len(ch) == 1


def test_first_diff_compares_terms_only():
    rs = root_system("A", 1)
    base = weight_from_coeffs(rs, (0, 0))
    a = CharSlices(rs, base, 2, {0: {(0,): 1}, 2: {(1,): 3}})
    assert a.terms() == {(0, 0): 1, (2, 1): 3}
    assert first_diff(a.terms(),
                      CharSlices(rs, base, 2, dict(a.slices)).terms()) is None
    b = CharSlices(rs, base, 2, {0: {(0,): 1}, 2: {(1,): 4}})
    assert first_diff(a.terms(), b.terms()) == ((2, 1), 3, 4)
    # neither base, qmax nor an empty slice count as terms
    other = weight_from_coeffs(rs, (-1, 1))
    c = CharSlices(rs, other, 5, {0: {(0,): 1}, 1: {}, 2: {(1,): 3}})
    assert first_diff(a.terms(), c.terms()) is None and a != c
    assert (first_diff(b.terms(), CharSlices(rs, base, 2, {}).terms())
            == ((0, 0), 1, 0))
    assert first_diff({(1,): 2}, {(0,): 1, (1,): 2}) == ((0,), 0, 1)


def test_halve_and_parity_guard():
    rs = root_system("A", 1)
    base = weight_from_coeffs(rs, (0, 0))
    ch = CharSlices(rs, base, 2, {0: {(0,): 4}, 1: {(1,): -2}})
    h = ch.halve()
    assert h.terms() == {(0, 0): 2, (1, 1): -1}
    with pytest.raises(SliceError):
        CharSlices(rs, base, 1, {0: {(0,): 3}}).halve()


def test_mul_qpoly_rejects_negative_powers():
    rs = root_system("A", 1)
    ch = CharSlices(rs, weight_from_coeffs(rs, (0, 0)), 2, {0: {(0,): 1}})
    with pytest.raises(ValueError):
        ch.mul_qpoly({-1: 1})


def test_weyl_invariance_probe():
    rs = root_system("A", 1)
    base = weight_from_coeffs(rs, (0, 0))
    sym = CharSlices(rs, base, 1, {1: {(1,): 2, (0,): 5, (-1,): 2}})
    assert is_weyl_invariant(sym)
    skew = CharSlices(rs, base, 1, {1: {(1,): 2, (-1,): 3}})
    assert not is_weyl_invariant(skew)


def _orbit_slices(rng, rs, base, qmax):
    # whole W-orbits of random weights base + o through the matrices, so
    # W-invariant over an integral base
    out = {}
    for _ in range(2):
        off = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
        mu = tuple(b + x for b, x in zip(base.finite, root_to_fund(rs, off)))
        tgt = out.setdefault(rng.randrange(qmax + 1), {})
        c = rng.choice((-2, 1, 3))
        for nu in {apply(w, mu) for w in matrix_weyl_group(rs)}:
            o = rs.fund_to_root(tuple(a - b for a, b in zip(nu, base.finite)))
            o = tuple(map(int, o))
            tgt[o] = tgt.get(o, 0) + c
    return {m: {o: c for o, c in b.items() if c} for m, b in out.items()}


def _random_terms(rng, rank, qmax):
    return {rng.randrange(qmax + 1): {
        tuple(rng.randint(-2, 2) for _ in range(rank)): rng.choice((-1, 2))
        for _ in range(rng.randint(1, 4))}}


def _perturbed(rng, ch):
    # one term of ch, or one new term, moved by one
    m = rng.randrange(ch.qmax + 1)
    b = dict(ch.slices.get(m, {}))
    off = (rng.choice(sorted(b)) if b and rng.random() < 0.7 else
           tuple(rng.randint(-2, 2) for _ in range(ch.rs.rank)))
    b[off] = b.get(off, 0) + rng.choice((-1, 1))
    return CharSlices(ch.rs, ch.base, ch.qmax, {
        **ch.slices, m: {o: c for o, c in b.items() if c}})


@pytest.mark.parametrize("fam,rank", [("A", 1), ("A", 2), ("A", 3),
                                      ("C", 2), ("C", 3), ("D", 4)])
def test_weyl_invariance_matches_the_matrix_path(fam, rank):
    # integer reflections of the offsets against the Fraction matrices, on
    # integrable characters, whole orbits and random slices over integral
    # and half-integral bases, each also with one term perturbed
    rng = random.Random(fam + str(rank) + "invariant")
    rs = root_system(fam, rank)
    chars = []
    for co in ((1,) + (0,) * rank, (0,) * rank + (1,)):
        lam = weight_from_coeffs(rs, co)
        chars.append(character_from_numerator(
            fm.integrable_numerator(rs, lam, 1)))
    for _ in range(4):
        base = weight_from_coeffs(
            rs, [rng.randint(-2, 2) for _ in range(rank + 1)])
        half = AffineWeight(
            tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(rank)), -1, 0)
        chars += [CharSlices(rs, base, 2, _orbit_slices(rng, rs, base, 2)),
                  CharSlices(rs, base, 2, _random_terms(rng, rank, 2)),
                  CharSlices(rs, half, 2, _random_terms(rng, rank, 2)),
                  CharSlices(rs, half, 2, {})]
    outcomes = set()
    for ch in chars:
        for probe in (ch, _perturbed(rng, ch)):
            got = is_weyl_invariant(probe)
            assert got == matrix_is_weyl_invariant(probe)
            outcomes.add(got)
    assert all(is_weyl_invariant(ch) for ch in chars[:2])
    assert outcomes == {True, False}


# -- serialization ------------------------------------------------------------


def _a1_denominator(qmax):
    rs = root_system("A", 1)
    base = weight_from_coeffs(rs, (0, 0))
    return CharSlices(rs, base, qmax, denominator_slices(rs, qmax))


def test_series_json_roundtrip():
    d = _a1_denominator(8)
    j = _series_doc(d)
    back = slices_from_json_dict(d.rs, j)
    assert back == d
    assert json.dumps(j) == json.dumps(_series_doc(back))


def test_slices_json_roundtrip():
    rs = root_system("C", 2)
    base = weight_from_coeffs(rs, (-1, 0, 0))
    ch = CharSlices(rs, base, 2, {0: {(0, 0): 1}, 2: {(1, 1): 4, (-1, 0): -2}})
    j = _series_doc(ch)
    back = slices_from_json_dict(rs, j)
    assert back == ch
    assert json.dumps(j) == json.dumps(_series_doc(back))


def test_tsv_lines_shape(capsys):
    # the A1 vacuum numerator is the denominator (Weyl-Kac): one row a term
    d = _a1_denominator(6)
    assert main(["compute", "--formula", "integrable", "--type", "A",
                 "--rank", "1", "--weight", "0", "0", "--order", "6",
                 "--format", "tsv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k0\tk1\tcoeff"
    assert len(lines) == 1 + len(d)
    for row in lines[1:]:
        m, k1, c = map(int, row.split("\t"))
        assert d.terms().get((m, k1), 0) == c


def test_empty_json_roundtrip():
    rs = root_system("A", 2)
    s = CharSlices(rs, weight_from_coeffs(rs, (0, 0, 0)), 4, {})
    assert slices_from_json_dict(rs, _series_doc(s)) == s


# -- affine weight helpers ------------------------------------------------


def test_weight_coeff_levels():
    rs = root_system("C", 2)
    w = weight_from_coeffs(rs, (-2, 0, 1))
    assert w.level == -1 and w.finite == (0, 1)
    rsA = root_system("A", 2)
    assert weight_from_coeffs(rsA, (1, 0, 0)).level == 1
    assert weight_from_coeffs(rsA, (0, 0, 1)).finite == (0, 1)
