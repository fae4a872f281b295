"""The free-field model: state enumeration against product expansions."""

from math import comb

import pytest
from oracles import (
    charge_energy_table,
    energy_state_count,
    fock_gl_slices,
    fock_product_table,
    generator_fock_states,
    mirror_pair_slices,
    mirror_state,
    oscillator_split_brute,
    qpoly_invert,
    state_energy2,
    state_weight,
)

from affinechar import fock
from affinechar.cli import main
from affinechar.fock import (
    charge_sector_character,
    charge_zero_split,
    fock_states,
    fold_weight,
    oscillator_split,
    sp_root_coords,
)
from affinechar.rootdata import LimitError, root_system
from affinechar.series import phi_power_qpoly, qpoly_mul


# -- enumeration vs the two product expansions ----------------------------------


def test_one_colour_low_energy_by_hand():
    # e2 counts doubled energies; modes sit at odd e2 = 1, 3, 5, ...
    sts = fock_states(1, 0, 2)
    assert len(sts) == 2  # vacuum and one raising-lowering pair at e2 = 2
    assert sorted(state_energy2(s) for s in sts) == [0, 2]
    assert all(state_weight(1, s) == (0,) for s in sts)
    sts = fock_states(1, 1, 3)
    # one phi at k2 = 1 or 3, or phi(1)phi(1)phistar(1): 3 states
    assert len(sts) == 3


def test_counts_match_charge_energy_table():
    for n in (1, 2, 3):
        e2max = 6
        tbl = charge_energy_table(n, e2max)
        got: dict[tuple[int, int], int] = {}
        for s in range(-e2max, e2max + 1):
            for st in fock_states(n, s, e2max):
                key = (s, state_energy2(st))
                got[key] = got.get(key, 0) + 1
        assert got == {k: v for k, v in tbl.items() if v}


def test_total_dims_from_eta_quotient():
    # summing the table over charges must reproduce
    # prod_{k odd} (1-q^k)^{-2n} = (phi(q^2)/phi(q))^{2n}
    for n in (1, 2, 3):
        e2max = 8
        tbl = charge_energy_table(n, e2max)
        tot = {}
        for (s, e2), c in tbl.items():
            tot[e2] = tot.get(e2, 0) + c
        ratio = qpoly_mul(
            phi_power_qpoly(1, e2max, 2),
            qpoly_invert(phi_power_qpoly(1, e2max), e2max), e2max
        )
        want = {0: 1}
        for _ in range(2 * n):
            want = qpoly_mul(want, ratio, e2max)
        assert tot == want


@pytest.mark.parametrize("n", [2, 3])
def test_weighted_slices_match_product_table(n):
    e2max = 6
    tbl = fock_product_table(n, e2max)
    for s in (-2, -1, 0, 1, 2):
        want: dict[int, dict[tuple[int, ...], int]] = {}
        for (ch, e2, w), c in tbl.items():
            if ch == s and c:
                b = want.setdefault(e2, {})
                b[w] = b.get(w, 0) + c
        got = fock_gl_slices(n, s, e2max)
        assert got == {e2: b for e2, b in want.items() if b}


def test_opposite_charge_is_the_dual():
    # swapping the two families negates every weight at the same energy
    for n in (2, 3):
        for s in (1, 2):
            a = fock_gl_slices(n, s, 5 + s)
            b = fock_gl_slices(n, -s, 5 + s)
            flipped = {
                e2: {tuple(-x for x in w): c for w, c in bl.items()}
                for e2, bl in b.items()
            }
            assert a == flipped


def test_budget_guard_fires(monkeypatch):
    monkeypatch.setattr(fock, "STATE_BUDGET", 5)
    with pytest.raises(LimitError):
        fock_states(3, 0, 10)


def test_states_match_the_generator_oracle_in_order():
    # the same states in the same order as the per-state enumeration,
    # each carrying its multisets' energies and colour counts
    for n in range(1, 5):
        for s in range(-4, 5):
            for e2max in range(8):
                got = fock_states(n, s, e2max)
                assert got == generator_fock_states(n, s, e2max)
                for cre, ann in got:
                    for ms in (cre, ann):
                        assert ms.e2 == state_energy2((ms, ()))
                        assert ms.counts == state_weight(n, (ms, ()))


def test_budget_counts_every_state(monkeypatch):
    # exactly at the state count passes, one below refuses
    total = len(fock_states(3, 1, 7))
    monkeypatch.setattr(fock, "STATE_BUDGET", total)
    assert len(fock_states(3, 1, 7)) == total
    monkeypatch.setattr(fock, "STATE_BUDGET", total - 1)
    with pytest.raises(LimitError):
        fock_states(3, 1, 7)


def test_budget_counts_every_mode_entry(monkeypatch):
    # 35 states of 172 modes: the budget at 172 passes, at 171 refuses
    assert fock._sector_sizes(2, 6, 8) == (35, 172)
    monkeypatch.setattr(fock, "STATE_BUDGET", 172)
    assert len(fock_states(2, 6, 8)) == 35
    monkeypatch.setattr(fock, "STATE_BUDGET", 171)
    with pytest.raises(LimitError):
        fock_states(2, 6, 8)


def test_state_count_predicts_the_enumeration(monkeypatch):
    # the states, and the modes of every multiset _mode_multisets returns
    built = []
    kernel = fock._mode_multisets

    def counted(n, count, e2budget):
        out = kernel(n, count, e2budget)
        built.append(sum(map(len, out)))
        return out

    monkeypatch.setattr(fock, "_mode_multisets", counted)
    for n in range(1, 5):
        for s in range(-4, 5):
            for e2max in range(12):
                built.clear()
                states = len(fock_states(n, s, e2max))
                assert fock._sector_sizes(n, s, e2max)[0] == states
                assert (fock._sector_sizes(n, s, e2max)
                        == (states, sum(built))), (n, s, e2max)


def test_state_count_by_excess_equals_the_energy_table():
    for n in range(1, 6):
        for s in range(-7, 8):
            for e2max in range(0, 22, 3):
                assert (fock._sector_sizes(n, s, e2max)[0]
                        == energy_state_count(n, s, e2max)), (n, s, e2max)
    for args in ((3, 0, 8), (4, 1, 9), (2, -3, 11), (3, 5, 17), (4, 0, 24),
                 (3, 100, 102), (5, 2, 20), (3, -1, 13), (2, 0, 0),
                 (3, 7, 3)):
        assert (fock._sector_sizes(*args)[0]
                == energy_state_count(*args)), args


def test_state_count_of_a_top_sector_is_one_column():
    # at e2max = |s| every state is |s| modes at k2 = 1 on one side: the
    # multisets of |s| colours; the table has one excess column, so large
    # charges are counted at once
    for n, s in ((3, 1100), (3, -1100), (4, 400), (1, 0)):
        assert (fock._sector_sizes(n, s, abs(s))[0]
                == comb(abs(s) + n - 1, n - 1))


def test_budget_refuses_before_any_multiset_is_built(monkeypatch):
    # 56,252,719 states: refused from the prediction alone
    def never(*args):
        raise AssertionError("a mode multiset was built")

    monkeypatch.setattr(fock, "_mode_multisets", never)
    assert fock._sector_sizes(4, 0, 24)[0] == 56_252_719
    with pytest.raises(LimitError):
        fock_states(4, 0, 24)
    # far past the budget the ladder stops at the first bound over it
    with pytest.raises(LimitError):
        fock_states(3, 0, 10**6)
    # 606,651 states, but 667,316,100 modes in their multisets
    assert fock._sector_sizes(3, 1100, 1100) == (606_651, 667_316_100)
    with pytest.raises(LimitError):
        fock_states(3, 1100, 1100)


# -- sector characters -----------------------------------------------------------


def test_sector_character_undoes_the_oscillator():
    # the character's q-series convolved with the partition series must
    # return the raw sector dimensions
    rs = root_system("A", 2)
    n, qmax = 3, 4
    tbl = charge_energy_table(n, 2 * qmax + 2)
    for s in (0, 1, 2):
        ch = charge_sector_character(rs, s, qmax)
        assert ch.terms()[0, 0, 0] == 1
        qs = {m: c for m, c in enumerate(ch.q_series())}
        conv = qpoly_mul(qs, qpoly_invert(phi_power_qpoly(1, qmax), qmax),
                         qmax)
        want = {m: tbl.get((s, s + 2 * m), 0) for m in range(qmax + 1)}
        assert conv == {m: c for m, c in want.items() if c}


def test_sector_character_base_weights():
    rs = root_system("A", 2)
    ch = charge_sector_character(rs, 2, 2)
    assert ch.base.level == -1
    assert ch.base.finite == (2, 0)
    with pytest.raises(ValueError):
        charge_sector_character(rs, -1, 2)
    with pytest.raises(ValueError):
        charge_sector_character(root_system("D", 4), 0, 2)


def test_sp_sector_character_base_weights():
    rs = root_system("C", 2)
    ch = charge_sector_character(rs, 1, 2)
    assert ch.base.level == -1 and ch.base.finite == (1, 0)
    assert ch.terms()[0, 0, 0] == 1
    with pytest.raises(ValueError):
        charge_sector_character(rs, -1, 2)


# -- the diagram flip on charge zero ----------------------------------------------


def test_mirror_state_by_hand():
    st = (((1, 1),), ((2, 1),))
    img, sign = mirror_state(4, st)
    assert img == (((3, 1),), ((4, 1),)) and sign == 1
    st2 = (((1, 1), (1, 3)), ((4, 1), (4, 1)))
    img2, sign2 = mirror_state(4, st2)
    assert img2 == (((1, 1), (1, 1)), ((4, 1), (4, 3)))
    # colour sum 1+1+4+4 = 10, two modes, n+1 = 5: 10 + 10 even
    assert sign2 == 1
    with pytest.raises(ValueError):
        mirror_state(4, (((1, 1),), ()))


def test_mirror_is_an_involution_with_stable_sign():
    for st in fock_states(4, 0, 4):
        img, sign = mirror_state(4, st)
        back, sign2 = mirror_state(4, img)
        assert back == st and sign2 == sign
        assert state_energy2(img) == state_energy2(st)
        assert fold_weight(4, state_weight(4, img)) == fold_weight(
            4, state_weight(4, st)
        )


def test_fold_and_sp_coordinates():
    assert fold_weight(4, (3, 1, 0, 2)) == (1, 1)
    assert sp_root_coords((2, 0)) == (2, 1)
    assert sp_root_coords((1, 1)) == (1, 1)
    assert sp_root_coords((0, -2)) == (0, -1)
    with pytest.raises(ValueError):
        sp_root_coords((1, 0))


def test_flip_modes_matches_the_state_mirror():
    for cre, ann in fock_states(4, 0, 6):
        (ncre, nann), _ = mirror_state(4, (cre, ann))
        assert fock._flip_modes(4, ann) == ncre
        assert fock._flip_modes(4, cre) == nann


REAL_FLIP = fock._flip_modes


@pytest.mark.parametrize("corrupt, message", [
    # every image gains energy
    (lambda n, ms: REAL_FLIP(n, [(c, k2 + 2) for c, k2 in ms]),
     "flip image left its weight group"),
    # one multiset goes to the image of another with the same energy and
    # folded weight: the weight group holds, the involution breaks
    (lambda n, ms: REAL_FLIP(n, ((1, 1), (4, 1)) if ms == ((2, 1), (3, 1))
                             else ms), "flip is not an involution"),
    # colour i to i: phi(1)phistar(1) becomes a fixed state of sign -1
    (lambda n, ms: fock._modes(n, ms), "fixed state with negative sign"),
], ids=["energy", "one-multiset", "identity"])
def test_corrupt_flip_is_caught(monkeypatch, capsys, corrupt, message):
    # the per-state checks guard the split against a wrong flip
    monkeypatch.setattr(fock, "_flip_modes", corrupt)
    with pytest.raises(AssertionError, match=message):
        charge_zero_split(root_system("C", 2), 3)
    assert main(["verify", "flip-decomposition", "--n", "4",
                 "--order", "3"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"internal error: {message}\n"


def test_flip_checks_reach_every_multiset_a_state_holds(monkeypatch):
    # phi(1, -5/2) is held only by states at the top energy, none of them
    # fixed; sending it to colour 3 must still be caught
    def corrupt(n, ms):
        if ms == ((1, 5),):
            return fock._modes(n, [(3, 5)])
        return REAL_FLIP(n, ms)

    monkeypatch.setattr(fock, "_flip_modes", corrupt)
    with pytest.raises(AssertionError,
                       match="flip image left its weight group"):
        charge_zero_split(root_system("C", 2), 3)


@pytest.mark.parametrize("split", [False, True])
def test_one_enumeration_per_sector(monkeypatch, split):
    # both the sector character and the flip split read one tally, and
    # the tally enumerates the states once
    calls = {"_sector_tally": 0, "fock_states": 0}
    for name in calls:
        def counted(*args, _real=getattr(fock, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(fock, name, counted)
    rs = root_system("C", 2)
    if split:
        charge_zero_split(rs, 3)
    else:
        charge_sector_character(rs, 1, 3)
    assert calls == {"_sector_tally": 1, "fock_states": 1}


def test_corrupt_energy_record_is_caught(monkeypatch, capsys):
    # one multiset record with an energy of the wrong parity
    real = fock._modes

    def corrupt(n, pairs):
        ms = real(n, pairs)
        if ms == ((1, 3),):
            ms.e2 -= 1
        return ms

    monkeypatch.setattr(fock, "_modes", corrupt)
    assert main(["verify", "tower-fock", "--n", "3", "--order", "2"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == "internal error: energy parity broke\n"


def _c_slices(tbl):
    """{e2: {folded weight: dim}} as C root-coordinate slices at m = e2/2."""
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for e2, b in tbl.items():
        assert e2 % 2 == 0
        for v, c in b.items():
            tgt = out.setdefault(e2 // 2, {})
            key = sp_root_coords(v)
            tgt[key] = tgt.get(key, 0) + c
    return out


def test_charge_zero_split_sums_to_the_sector():
    n, qmax = 4, 3
    plus, minus = charge_zero_split(root_system("C", n // 2), qmax)
    full: dict[int, dict[tuple[int, ...], int]] = {}
    for st in fock_states(n, 0, 2 * qmax):
        e2 = state_energy2(st)
        v = fold_weight(n, state_weight(n, st))
        b = full.setdefault(e2, {})
        b[v] = b.get(v, 0) + 1
    assert (plus + minus).slices == _c_slices(full)


def test_split_difference_is_the_paired_product():
    # the graded trace of the flip has a two-mode-block product form
    n, qmax = 4, 4
    plus, minus = charge_zero_split(root_system("C", n // 2), qmax)
    assert (plus - minus).slices == _c_slices(
        mirror_pair_slices(n // 2, 2 * qmax))


def test_odd_group_is_an_internal_error(monkeypatch, capsys):
    # one extra state in one group of the tally makes dim + trace odd there;
    # the parity check runs before halve, so it is exit 3, not exit 2
    real = fock._sector_tally

    def one_more(rs, s, qmax):
        tally = real(rs, s, qmax)
        tally[1][min(tally[1])] += 1
        return tally

    monkeypatch.setattr(fock, "_sector_tally", one_more)
    with pytest.raises(AssertionError,
                       match="^group dimension and trace disagree$"):
        charge_zero_split(root_system("C", 2), 3)
    assert main(["verify", "flip-decomposition", "--n", "4",
                 "--order", "3"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "internal error: group dimension and trace disagree\n"


def test_charge_zero_split_frame():
    rs = root_system("C", 2)
    plus, minus = charge_zero_split(rs, 3)
    for ch in (plus, minus):
        assert ch.rs is rs and ch.qmax == 3 and max(ch.slices) <= 3
        assert ch.base.level == -1 and ch.base.finite == (0, 0)
    assert plus.terms()[0, 0, 0] == 1
    assert sum(minus.slices.get(0, {}).values()) == 0


# -- one oscillator family under the sign flip ------------------------------------


def test_oscillator_split_paths_agree():
    for qmax in (6, 12):
        assert oscillator_split(qmax) == oscillator_split_brute(qmax)


def test_oscillator_split_totals():
    qmax = 10
    plus, minus = oscillator_split(qmax)
    parts = qpoly_invert(phi_power_qpoly(1, qmax), qmax)
    tot = {m: plus.get(m, 0) + minus.get(m, 0) for m in range(qmax + 1)}
    assert tot == {m: parts.get(m, 0) for m in range(qmax + 1)}
    # the signed count is phi(q)/phi(q^2)
    ratio = qpoly_mul(
        phi_power_qpoly(1, qmax),
        qpoly_invert(phi_power_qpoly(1, qmax, 2), qmax), qmax
    )
    signed = {m: plus.get(m, 0) - minus.get(m, 0) for m in range(qmax + 1)}
    assert signed == {m: ratio.get(m, 0) for m in range(qmax + 1)}
