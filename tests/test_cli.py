"""End-to-end command line behaviour: formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from math import factorial

import pytest
from oracles import slices_from_json_dict

import affinechar
from affinechar import cli, fock, rootdata, series, superden
from affinechar import formulas as fm
from affinechar.cli import main
from affinechar.lattice import alt_weyl_raw
from affinechar.rootdata import RootSystem, root_system
from affinechar.series import weight_from_coeffs

EIGHT_COEFFS = [
    [-1, 0, 0, 0, 0],
    [-2, 0, 0, 0, 1],
    [-2, 0, 0, 1, 0],
    [-3, 0, 0, 1, 1],
    [-3, 0, 1, 0, 0],
    [-2, 1, 0, 0, 0],
    [-3, 1, 0, 0, 1],
    [-3, 1, 0, 1, 0],
]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- compute ---------------------------------------------------------------


def test_closed_form_has_exactly_two_terms(capsys):
    code, out, _ = run(capsys, [
        "compute", "--formula", "sl2-closed", "--type", "A", "--rank", "1",
        "--s", "2",
    ])
    assert code == 0
    d = json.loads(out)
    assert len(d["terms"]) == 2
    coeffs = {tuple(t["exps"]): int(t["coeff"]) for t in d["terms"]}
    assert coeffs == {(0, 0): 1, (0, -3): -1}


def test_tower_numerator_top_coefficient(capsys):
    code, out, _ = run(capsys, [
        "compute", "--formula", "sl-first", "--type", "A", "--rank", "2",
        "--s", "0", "--order", "3",
    ])
    assert code == 0
    d = json.loads(out)
    top = [t for t in d["terms"] if t["exps"] == [0, 0, 0]]
    assert len(top) == 1 and top[0]["coeff"] == "1"
    assert d["level"] == "-1"


def test_screened_character_coefficients_are_integers(capsys):
    code, out, _ = run(capsys, [
        "compute", "--formula", "deligne", "--type", "D", "--rank", "4",
        "--weight", "-1", "0", "0", "0", "0", "--order", "2", "--character",
    ])
    assert code == 0
    d = json.loads(out)
    assert all(int(t["coeff"]) == int(t["coeff"]) for t in d["terms"])
    top = [t for t in d["terms"] if t["exps"] == [0, 0, 0, 0, 0]]
    assert top[0]["coeff"] == "1"
    assert all(int(t["coeff"]) > 0 for t in d["terms"])


def test_json_roundtrip_is_byte_stable(capsys):
    code, out, _ = run(capsys, [
        "compute", "--formula", "sl-first", "--type", "A", "--rank", "2",
        "--s", "1", "--order", "3", "--character",
    ])
    assert code == 0
    d = json.loads(out)
    ch = slices_from_json_dict(root_system("A", 2), d)
    assert json.dumps(cli._series_doc(ch), indent=1) + "\n" == out


def test_tsv_and_pretty_formats(capsys):
    code, out, _ = run(capsys, [
        "compute", "--formula", "sl2-closed", "--type", "A", "--rank", "1",
        "--s", "0", "--format", "tsv",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k0\tk1\tcoeff"
    assert len(lines) == 3
    code, out, _ = run(capsys, [
        "compute", "--formula", "sl2-closed", "--type", "A", "--rank", "1",
        "--s", "0", "--format", "pretty",
    ])
    assert code == 0
    assert "legend: q = e^(-delta)" in out


# -- qdim ---------------------------------------------------------------------


def test_qdim_formats(capsys):
    base = [
        "qdim", "--formula", "deligne", "--type", "D", "--rank", "4",
        "--weight", "-1", "0", "0", "0", "0", "--order", "2",
    ]
    code, out, _ = run(capsys, base)
    assert code == 0
    d = json.loads(out)
    assert d["qdim"] == ["1", "28", "434"]
    code, out, _ = run(capsys, base + ["--format", "tsv"])
    assert code == 0
    assert out.strip().split("\n") == ["m\tdim", "0\t1", "1\t28", "2\t434"]
    code, out, _ = run(capsys, base + ["--format", "pretty"])
    assert code == 0
    assert out.strip() == "1 + 28 q + 434 q^2"


# -- verify ---------------------------------------------------------------------


def test_verify_passing_checks(capsys):
    code, out, _ = run(capsys, [
        "verify", "sl2-closed", "flip-symmetry", "--order", "3",
        "--format", "pretty",
    ])
    assert code == 0
    assert out.count("pass") == 2 and "FAIL" not in out


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, [
        "verify", "window-negation", "--omega", "0,0;1,2", "--order", "4",
    ])
    assert code == 0
    d = json.loads(out)
    assert d["ok"] is True
    assert d["checks"][0]["mismatch"] is None


@pytest.mark.parametrize("omega", ["a,1", "0,0;"])
def test_unparsable_omega_is_one_error_line_naming_the_form(capsys, omega):
    code, out, err = run(capsys, ["verify", "window-negation",
                                  "--omega", omega])
    assert code == 2 and out == ""
    assert err == ("error: --omega expects window points j1,j2;... with 2 "
                   f"integers per point, not {omega!r}\n")


def test_repeated_omega_point_is_refused(capsys):
    # the window is a set of points: a repeat would double its term count
    code, out, err = run(capsys, ["verify", "window-negation",
                                  "--omega", "0,0;1,2;0,0"])
    assert code == 2 and out == ""
    assert err == "error: --omega names the window point (0, 0) twice\n"


def test_omega_coordinate_count_message_is_kept(capsys):
    code, out, err = run(capsys, ["verify", "window-negation",
                                  "--omega", "0,0,0"])
    assert code == 2 and out == ""
    assert err == "error: each window point needs 2 coordinates\n"


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    def forced(args):
        return {"identity": "forced", "order": 0, "terms": 0,
                "ok": False, "mismatch": "forced mismatch"}

    monkeypatch.setitem(cli.CHECKS, "forced", (forced, {}))
    code, out, _ = run(capsys, ["verify", "forced", "--format", "pretty"])
    assert code == 1
    assert "FAIL" in out and "forced mismatch" in out
    # one failure poisons a batch that otherwise passes
    code, out, _ = run(capsys, ["verify", "sl2-closed", "forced"])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_verify_names_a_term_only_the_sum_side_has(capsys, monkeypatch):
    extra = (0, 0, 2, 2)
    real = superden.spo_sum

    def spo_sum_plus_one(rs, height):
        s = real(rs, height)
        s.terms[extra] = s.terms.get(extra, 0) + 1
        return s

    monkeypatch.setattr(superden, "spo_sum", spo_sum_plus_one)
    assert extra not in superden.spo_product(root_system("C", 2), 4).terms
    code, out, _ = run(capsys, [
        "verify", "superdenominator-sp", "--n", "4", "--order", "4",
    ])
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["ok"] is False
    assert check["mismatch"] == f"exps {extra}: product 0, sum 1"


def _negated(real):
    return lambda *args: -real(*args)


def _second_call_negated(real):
    calls = []

    def second_negated(*args):
        calls.append(args)
        return -real(*args) if len(calls) == 2 else real(*args)

    return second_negated


def _top_term_plus_one(real):
    def plus_one(rs, height):
        series = real(rs, height)
        top = (0,) * (rs.rank + 2)
        series.terms[top] = series.terms.get(top, 0) + 1
        return series

    return plus_one


# check, the module and name of one side's builder, the perturbation, and
# the first-mismatch line it gives
ONE_SIDE_WRONG = [
    ("twisted-denominator", fm, "sp_twist_product_character", _negated,
     "exps (0, -4, -3): product -1, sum 1"),
    ("sector-restriction", fock, "charge_sector_character", _negated,
     "exps (0, -6, -4): product -1, sum 1"),
    ("flip-decomposition", fock, "oscillator_split",
     lambda real: lambda qmax: real(qmax)[::-1],
     "exps (0, 0, 0): split (+1) 0, free-field (+1) 1"),
    ("tower-assembly", superden, "sl_product", _top_term_plus_one,
     "exps (0, 0, 0, 0): tower 1, product 2"),
    ("parity-bracket", fm, "parity_bracket", _second_call_negated,
     "exps (1, -5, -4): odd bracket 1, negated even bracket -1"),
    ("window-negation", fm, "parity_bracket", _second_call_negated,
     "exps (0, -4, -3): window 1, negated mirror window -1"),
    # only the second of its two pairs is wrong
    ("parity-vs-split", fm, "sp_c_character", _negated,
     "exps (0, -2, -2): shifted parity sum 1, split -1"),
]


@pytest.mark.parametrize("check,module,name,perturb,mismatch", ONE_SIDE_WRONG,
                         ids=[case[0] for case in ONE_SIDE_WRONG])
def test_each_check_fails_when_one_side_is_wrong(capsys, monkeypatch, check,
                                                 module, name, perturb,
                                                 mismatch):
    # one side perturbed, the other left alone: the check exits 1 and its
    # first-mismatch line names both sides
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    code, out, err = run(capsys, ["verify", check])
    assert (code, err) == (1, "")
    result = json.loads(out)["checks"][0]
    assert result["ok"] is False and result["mismatch"] == mismatch


def _sl2_closed_built_by(build):
    row = fm.FORMULAS["sl2-closed"]
    return (*row[:-1], build(row[-1]))


def _plus_at(m, off, c):
    def plus(real):
        def built(rs, lam, qmax):
            ch = real(rs, lam, qmax)
            b = ch.slices.setdefault(m, {})
            b[off] = b.get(off, 0) + c
            return ch

        return built

    return plus


# the closed side built wrongly at --s 1 --order 5, and the report it gives
SL2_CLOSED_WRONG = [
    ("closed plus 5 at q^0", _plus_at(0, (0,), 5),
     "exps (0, 0): closed 6, lattice 1"),
    ("closed is the lattice sum", lambda real: fm.FORMULAS["sl-first"][-1],
     "no deviation up to order 5"),
    ("lattice sum plus a term at q^4",
     lambda real: _plus_at(4, (0,), 1)(fm.FORMULAS["sl-first"][-1]),
     "first deviation at q^4, wanted q^3"),
]


@pytest.mark.parametrize("build,mismatch",
                         [case[1:] for case in SL2_CLOSED_WRONG],
                         ids=[case[0] for case in SL2_CLOSED_WRONG])
def test_sl2_closed_reports_each_way_the_closed_side_is_wrong(
        capsys, monkeypatch, build, mismatch):
    argv = ["verify", "sl2-closed", "--s", "1", "--order", "5"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    terms = json.loads(out)["checks"][0]["terms"]
    monkeypatch.setitem(fm.FORMULAS, "sl2-closed", _sl2_closed_built_by(build))
    code, out, err = run(capsys, argv)
    assert (code, err) == (1, "")
    result = json.loads(out)["checks"][0]
    assert result["ok"] is False and result["mismatch"] == mismatch
    assert result["terms"] == terms


def _set_term(m, off, c):
    def setting(real):
        def built(num):
            ch = real(num)
            ch.slices[m][off] = c
            return ch

        return built

    return setting


# the D4 vacuum character made wrong at one term, and the report it gives
DELIGNE_WRONG = [
    ("top multiplicity 2", _set_term(0, (0, 0, 0, 0), 2),
     "exps (0, 0, 0, 0, 0): multiplicity 2, wanted 1"),
    ("one negative term", _set_term(1, (-1, -1, -1, 0), -3),
     "exps (1, -1, -1, -1, 0): multiplicity -3, wanted >= 0"),
]


@pytest.mark.parametrize("setting,mismatch",
                         [case[1:] for case in DELIGNE_WRONG],
                         ids=[case[0] for case in DELIGNE_WRONG])
def test_deligne_positivity_reports_a_wrong_multiplicity(
        capsys, monkeypatch, setting, mismatch):
    code, out, _ = run(capsys, ["verify", "deligne-positivity"])
    assert code == 0
    terms = json.loads(out)["checks"][0]["terms"]
    monkeypatch.setattr(cli, "character_from_numerator",
                        setting(cli.character_from_numerator))
    code, out, err = run(capsys, ["verify", "deligne-positivity"])
    assert (code, err) == (1, "")
    result = json.loads(out)["checks"][0]
    assert result["ok"] is False and result["mismatch"] == mismatch
    assert result["terms"] == terms


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, ["verify", "no-such-check"])
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize("option", [
    ["--type", "E"], ["--rank", "3"], ["--weight", "1", "2"], ["--s", "9"],
])
def test_verify_refuses_an_option_no_named_check_reads(capsys, option):
    code, out, err = run(capsys, [
        "verify", "superdenominator-sl", "flip-decomposition", "--order", "2",
        *option,
    ])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option[0]} is read by none of the named "
                          "checks; it is read by ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("check,option", [
    ("sl2-closed", ["--n", "5"]),
    ("sl2-closed", ["--smax", "3"]),
    ("sl2-closed", ["--omega", "1,1"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_verify_refuses_every_option_its_checks_do_not_read(
        capsys, check, option):
    code, out, err = run(capsys, ["verify", check, *option])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option[0]} is read by none of the named "
                          "checks; it is read by ")
    assert check not in err and err.count("\n") == 1


def test_verify_refusal_names_the_readers_in_table_order(capsys):
    code, _, err = run(capsys, ["verify", "superdenominator-sl", "--s", "1"])
    assert code == 2
    assert err == ("error: --s is read by none of the named checks; it is "
                   "read by tower-fock, flip-symmetry, sl2-closed, "
                   "sector-restriction\n")
    code, _, err = run(capsys, ["verify", "sl2-closed", "--n", "5"])
    assert code == 2
    assert err == ("error: --n is read by none of the named checks; it is "
                   "read by superdenominator-sl, superdenominator-sp, "
                   "tower-fock, flip-symmetry, tower-assembly, "
                   "sector-restriction, flip-decomposition, "
                   "twisted-denominator, parity-vs-split, parity-bracket, "
                   "window-negation\n")


TYPE_C_CHECKS = ("superdenominator-sp", "sector-restriction",
                 "flip-decomposition", "twisted-denominator",
                 "parity-vs-split", "parity-bracket", "window-negation")

# (check, options, the one error line): every check, each integer option it
# reads one below its floor, its own floors, and odd n on the type C checks
REFUSALS = [
    *[(c, ["--n", "2"], "needs n >= 3") for c in (
        "superdenominator-sl", "superdenominator-sp", "tower-fock",
        "flip-symmetry", "tower-assembly", *TYPE_C_CHECKS[1:])],
    *[(c, ["--n", n], "needs even n >= 4")
      for c in TYPE_C_CHECKS for n in ("3", "5")],
    *[(c, ["--order", "-1"], "needs order >= 0") for c in (
        "superdenominator-sl", "superdenominator-sp", "tower-fock",
        "flip-symmetry", "sl2-closed", "tower-assembly", *TYPE_C_CHECKS[1:],
        "deligne-positivity", "qdim-two-path")],
    *[(c, ["--s", "-1"], "needs s >= 0")
      for c in ("tower-fock", "flip-symmetry", "sl2-closed")],
    ("sector-restriction", ["--s", "-1"], "needs s >= 0"),
    ("sector-restriction", ["--s", "0"], "sector restriction needs s >= 1"),
    ("tower-assembly", ["--smax", "-1"], "needs smax >= 0"),
    ("parity-vs-split", ["--order", "0"],
     "needs order >= 1 for the shifted member"),
    ("sl2-closed", ["--s", "2", "--order", "3"],
     "needs order >= s+2 = 4 to see the first deviation"),
    *[(c, ["--rank", "0"], "rank must be >= 1")
      for c in ("deligne-positivity", "qdim-two-path")],
]


def test_every_check_has_a_pinned_refusal():
    assert {c for c, _, _ in REFUSALS} == set(cli.CHECKS)


@pytest.mark.parametrize("check,option,line", REFUSALS,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_verify_refusal_is_one_exact_line(capsys, check, option, line):
    code, out, err = run(capsys, ["verify", check, *option])
    assert (code, out, err) == (2, "", f"error: {line}\n")


# (formula, its options, the one error line): every formula, each rule of
# its row in formulas.FORMULAS broken once, and its own precondition
FORMULA_REFUSALS = [
    ("integrable", "--type A --rank 2", "this formula needs --weight m0 .. ml"),
    ("integrable", "--type A --rank 2 --weight 1 0",
     "weight needs rank+1 = 3 entries, got 2"),
    ("integrable", "--type A --rank 1 --weight -3 0",
     "weight is not dominant integral: (-3, 0)"),
    ("integrable", "--type A --rank 1 --weight 1 0 --s 1",
     "formula integrable does not read --s"),
    ("integrable", "--type X --rank 2 --weight 1 0 0", "unknown family 'X'"),
    ("integrable", "--type A --rank 1 --weight 1 0 --order -1",
     "needs order >= 0"),
    ("sl-first", "--type A --rank 1 --s 0", "sl-first needs rank >= 2"),
    ("sl-first", "--type A --rank 0 --s 0", "rank must be >= 1"),
    ("sl-first", "--type C --rank 2 --s 0", "sl-first lives on type A"),
    ("sl-first", "--type A --rank 2", "needs --s or --weight"),
    ("sl-first", "--type A --rank 2 --s 1 --weight -2 1 0",
     "give --s or --weight, not both"),
    ("sl-first", "--type A --rank 2 --s -1", "sl-first needs s >= 0"),
    ("sl-first", "--type A --rank 2 --weight 0 0 0", "sl-first needs s >= 0"),
    ("sl-first", "--type A --rank 2 --weight -3 1 0",
     "sl-first is the module at weight (-3, 2, 0)"),
    ("sl-first", "--type A --rank 2 --weight -2 1",
     "weight needs rank+1 = 3 entries, got 2"),
    ("sl-last", "--type A --rank 1 --s 0", "sl-last needs rank >= 2"),
    ("sl-last", "--type A --rank 2 --s -1", "sl-last needs s >= 0"),
    ("sl-last", "--type A --rank 3 --weight -2 1 0 0",
     "sl-last is the module at weight (-2, 0, 0, 1)"),
    ("sl2-closed", "--type A --rank 2 --s 0",
     "sl2-closed lives on type A rank 1"),
    ("sl2-closed", "--type A --rank 1 --s -1", "sl2-closed needs s >= 0"),
    ("sl2-closed", "--type A --rank 1 --weight -2 2",
     "sl2-closed is the module at weight (-2, 1)"),
    ("sp-a", "--type A --rank 2 --s 1", "sp-a lives on type C"),
    ("sp-a", "--type C --rank 1 --s 1", "sp-a needs rank >= 2"),
    ("sp-a", "--type C --rank 2 --s 0", "sp-a needs s >= 1"),
    ("sp-a", "--type C --rank 2 --s -1", "sp-a needs s >= 1"),
    ("sp-a", "--type C --rank 2 --weight -1 0 0", "sp-a needs s >= 1"),
    ("sp-a", "--type C --rank 2 --weight -2 0 1",
     "sp-a is the module at weight (-2, 1, 0)"),
    ("sp-b", "--type C --rank 2 --weight -2 1 0",
     "sp-b is the module at weight (-1, 0, 0)"),
    ("sp-b", "--type C --rank 2 --weight -1 0",
     "weight needs rank+1 = 3 entries, got 2"),
    ("sp-b", "--type C --rank 2 --s 0", "formula sp-b does not read --s"),
    ("sp-c", "--type C --rank 3 --weight -1 0 0 0",
     "sp-c is the module at weight (-2, 0, 1, 0)"),
    ("sp-c", "--type C --rank 1", "sp-c needs rank >= 2"),
    ("sp-parity-a", "--type C --rank 1", "sp-parity-a needs rank >= 2"),
    ("sp-parity-a", "--type C --rank 2 --weight -2 0 1",
     "sp-parity-a is the module at weight (-1, 0, 0)"),
    ("sp-parity-b", "--type D --rank 4", "sp-parity-b lives on type C"),
    ("sp-parity-b", "--type C --rank 2 --weight -2 0 1 0",
     "weight needs rank+1 = 3 entries, got 4"),
    ("deligne", "--type D --rank 4", "this formula needs --weight m0 .. ml"),
    ("deligne", "--type D --rank 5 --weight -1 0 0 0 0 0",
     "only D_4 is supported"),
    ("deligne", "--type D --rank 4 --weight -4 1 1 0 0",
     "weight fails the screening: orthogonal roots not unique at depth one: "
     "(1, 1, 0, 1)@depth1, (1, 1, 1, 0)@depth1"),
    ("deligne", "--type D --rank 4 --weight -1 -1 0 0 0",
     "weight fails the screening: pairing -1 with simple root 1 is not in "
     "Z>=0"),
]


def test_every_formula_has_a_pinned_refusal():
    assert {f for f, _, _ in FORMULA_REFUSALS} == set(fm.FORMULAS)


@pytest.mark.parametrize("command", ["compute", "compute --character",
                                     "qdim"])
@pytest.mark.parametrize("formula,options,line", FORMULA_REFUSALS,
                         ids=[f"{f} {o}" for f, o, _ in FORMULA_REFUSALS])
def test_formula_refusal_is_one_exact_line(capsys, command, formula, options,
                                           line):
    cmd, *flag = command.split()
    code, out, err = run(capsys, [cmd, "--formula", formula,
                                  *options.split(), *flag])
    assert (code, out, err) == (2, "", f"error: {line}\n")


def test_a_check_sees_its_own_options_filled_with_defaults(capsys,
                                                           monkeypatch):
    seen = []

    def spy(args):
        seen.append(vars(args))
        return {"identity": "spy", "order": args.order, "terms": 0,
                "ok": True, "mismatch": None}

    monkeypatch.setitem(cli.CHECKS, "spy",
                        (spy, {"n": 3, "order": lambda a: a.n + 1}))
    assert run(capsys, ["verify", "spy"])[0] == 0
    assert run(capsys, ["verify", "spy", "--n", "5"])[0] == 0
    assert run(capsys, ["verify", "spy", "--n", "5", "--order", "2"])[0] == 0
    assert seen == [{"n": 3, "order": 4}, {"n": 5, "order": 6},
                    {"n": 5, "order": 2}]


def test_verify_accepts_an_option_one_named_check_reads(capsys):
    code, out, _ = run(capsys, [
        "verify", "superdenominator-sl", "tower-fock", "--n", "3", "--s", "1",
        "--order", "2",
    ])
    assert code == 0 and "tower-fock n=3 s=1" in out
    code, out, _ = run(capsys, [
        "verify", "superdenominator-sl", "deligne-positivity", "--n", "3",
        "--type", "D", "--rank", "4", "--weight", "-1", "0", "0", "0", "0",
        "--order", "1",
    ])
    assert code == 0 and "deligne-positivity D4 (-1, 0, 0, 0, 0)" in out


# -- list-deligne -----------------------------------------------------------------


def test_list_deligne_default_window(capsys):
    code, out, _ = run(capsys, [
        "list-deligne", "--type", "D", "--rank", "4", "--level", "-1",
    ])
    assert code == 0
    d = json.loads(out)
    assert d["count"] == 8 and d["window"] == 1
    assert [w["coeffs"] for w in d["weights"]] == EIGHT_COEFFS
    assert d["weights"][0]["alpha"] == [1, 2, 1, 1]


def test_list_deligne_wide_window(capsys):
    code, out, _ = run(capsys, [
        "list-deligne", "--type", "D", "--rank", "4", "--level", "-1",
        "--window", "4",
    ])
    assert code == 0
    assert json.loads(out)["count"] == 141


def test_list_deligne_deeper_vacuum(capsys):
    code, out, _ = run(capsys, [
        "list-deligne", "--type", "E", "--rank", "6", "--level", "-3",
        "--window", "0",
    ])
    assert code == 0
    d = json.loads(out)
    assert d["weights"] == [
        {"coeffs": [-3, 0, 0, 0, 0, 0, 0], "alpha": [1, 1, 2, 2, 2, 1]}
    ]


def test_list_deligne_tsv_header(capsys):
    code, out, _ = run(capsys, [
        "list-deligne", "--type", "D", "--rank", "4", "--level", "-1",
        "--format", "tsv",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m0\tm1\tm2\tm3\tm4\ta1\ta2\ta3\ta4"
    assert len(lines) == 9


def test_list_deligne_refuses_a_window_it_cannot_finish(capsys,
                                                        monkeypatch):
    # 21^8 weights: refused from the window's size before one weight is
    # screened, in one line
    def screened(*args):
        raise AssertionError("a weight was screened")

    monkeypatch.setattr(fm, "check_deligne_conditions", screened)
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["list-deligne", "--type", "E", "--rank",
                                  "8", "--level", "-1", "--window", "20"])
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err == ("error: window 0..20 on E8 holds 37822859361 weights, "
                   "more than 1000000\n")
    # the limit is (window+1)^rank against SCREEN_LIMIT: 32^4 is over it
    assert fm.SCREEN_LIMIT == 10**6
    code, out, err = run(capsys, ["list-deligne", "--type", "D", "--rank",
                                  "4", "--level", "-1", "--window", "31"])
    assert (code, out) == (2, "")
    assert err == ("error: window 0..31 on D4 holds 1048576 weights, more "
                   "than 1000000\n")


def test_list_deligne_guards(capsys):
    code, _, err = run(capsys, [
        "list-deligne", "--type", "D", "--rank", "4", "--level", "0",
    ])
    assert code == 2 and "negative" in err
    code, _, err = run(capsys, [
        "list-deligne", "--type", "A", "--rank", "3", "--level", "-1",
    ])
    assert code == 2 and "types D and E" in err


# -- error paths -------------------------------------------------------------------


def test_precondition_messages(capsys):
    code, _, err = run(capsys, [
        "compute", "--formula", "sl-first", "--type", "A", "--rank", "1",
        "--s", "0",
    ])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, [
        "compute", "--formula", "sp-b", "--type", "C", "--rank", "2",
        "--weight", "-2", "1", "0",
    ])
    assert code == 2
    code, _, err = run(capsys, [
        "compute", "--formula", "deligne", "--type", "D", "--rank", "4",
        "--weight", "-4", "1", "1", "0", "0",
    ])
    assert code == 2 and "not unique" in err
    code, out, err = run(capsys, [
        "qdim", "--formula", "integrable", "--type", "A", "--rank", "1",
        "--weight", "-3", "0", "--order", "2",
    ])
    assert (code, out) == (2, "")
    assert err == "error: weight is not dominant integral: (-3, 0)\n"


def test_wide_window_weight_cannot_be_normalized(capsys):
    # the screening passes but the numerator carries weight above the top
    # line, so the character division refuses it
    code, _, err = run(capsys, [
        "verify", "deligne-positivity", "--type", "D", "--rank", "4",
        "--weight", "-4", "3", "0", "0", "0", "--order", "2",
    ])
    assert code == 2 and "negative q-power" in err


def test_argparse_failures_exit_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["compute", "--formula", "sl-first"])
    assert e.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["compute", "--formula", "no-such", "--type", "A", "--rank", "2"])
    assert e.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main([
            "compute", "--formula", "sl-first", "--type", "A", "--rank", "3",
            "--s", "0", "--jobs", "2",
        ])
    assert e.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("formula,family,weight", [
    ("sl-first", "A", ["-5", "4", "0"]),
    ("sl-first", "A", ["-2", "1", "0"]),  # the weight --s 1 stands for
    ("sp-a", "C", ["-2", "1", "0"]),
])
def test_s_and_weight_together_are_refused(capsys, formula, family, weight):
    code, out, err = run(capsys, [
        "compute", "--formula", formula, "--type", family, "--rank", "2",
        "--s", "1", "--weight", *weight,
    ])
    assert code == 2 and out == ""
    assert err == "error: give --s or --weight, not both\n"


@pytest.mark.parametrize("command", ["compute", "qdim"])
@pytest.mark.parametrize("formula,family,rank,weight", [
    ("integrable", "A", 1, ["1", "0"]),
    ("deligne", "D", 4, ["-1", "0", "0", "0", "0"]),
    ("sp-b", "C", 2, None),
    ("sp-c", "C", 2, None),
    ("sp-parity-a", "C", 2, None),
    ("sp-parity-b", "C", 2, None),
])
def test_s_on_a_formula_that_does_not_read_it_is_refused(
        capsys, command, formula, family, rank, weight):
    argv = [command, "--formula", formula, "--type", family,
            "--rank", str(rank), "--s", "5", "--order", "1"]
    code, out, err = run(capsys, argv + (["--weight", *weight] if weight
                                         else []))
    assert code == 2 and out == ""
    assert err == f"error: formula {formula} does not read --s\n"


SL_FIRST = ["--formula", "sl-first", "--type", "A", "--rank", "2", "--s", "1"]
D4_LIST = ["list-deligne", "--type", "D", "--rank", "4", "--level", "-1"]


@pytest.mark.parametrize("argv,removed", [
    (["compute", *SL_FIRST], ["--delta", "3"]),
    (["qdim", *SL_FIRST], ["--delta", "3"]),
    (["compute", *SL_FIRST], ["--numerator"]),
    (["compute", *SL_FIRST], ["--seed", "3"]),
    (["qdim", *SL_FIRST], ["--seed", "3"]),
    (D4_LIST, ["--seed", "3"]),
    (D4_LIST, ["--allow-large-weyl"]),
    (["compute", *SL_FIRST], ["--allow-large-weyl"]),
    (["qdim", "--formula", "sl2-closed", "--type", "A", "--rank", "1", "--s",
      "1"], ["--allow-large-weyl"]),
    (["compute", "--formula", "sp-b", "--type", "C", "--rank", "2"],
     ["--allow-large-weyl"]),
    (["qdim", "--formula", "deligne", "--type", "D", "--rank", "4",
      "--weight", "-1", "0", "0", "0", "0"], ["--allow-large-weyl"]),
    (["verify", "superdenominator-sl"], ["--allow-large-weyl"]),
    (["verify", "deligne-positivity"], ["--allow-large-weyl"]),
])
def test_removed_options_are_unrecognized(capsys, argv, removed):
    with pytest.raises(SystemExit) as e:
        main(argv + removed)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(removed)}" in err


@pytest.mark.parametrize("argv,err_line", [
    (["verify", "sl2-closed", "--seed", "3"],
     "unrecognized arguments: --seed 3"),
    (["verify", "sl2-closed", "--cases", "2"],
     "unrecognized arguments: --cases 2"),
    (["verify", "properties"], "error: unknown check properties; known: "),
], ids=("seed", "cases", "properties"))
def test_the_property_check_and_its_options_are_gone(capsys, argv, err_line):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err_line in err


def test_verify_help_lists_every_check(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per argument
    with pytest.raises(SystemExit) as e:
        main(["verify", "--help"])
    assert e.value.code == 0
    line = next(t for t in capsys.readouterr().out.splitlines()
                if "known: " in t)
    assert line.split("known: ")[1].split(", ") == list(cli.CHECKS)
    assert len(cli.CHECKS) == 14


def test_kept_options_still_parse(capsys):
    code, out, _ = run(capsys, ["verify", "deligne-positivity", "--order",
                                "0"])
    assert code == 0 and '"ok": true' in out
    code, out, _ = run(capsys, [
        "qdim", "--formula", "integrable", "--type", "A", "--rank", "1",
        "--weight", "1", "0", "--order", "1",
    ])
    assert code == 0 and json.loads(out)["delta"] == "0"


@pytest.mark.parametrize("command", ["compute", "qdim"])
@pytest.mark.parametrize("formula,extra", [
    ("sp-a", ["--s", "1"]), ("sp-b", []), ("sp-c", []), ("sp-parity-a", []),
    ("sp-parity-b", []),
])
def test_type_c_formulas_at_rank_one_name_the_rank(capsys, command, formula,
                                                   extra):
    # these commands take no --n, so the refusal names the rank
    code, out, err = run(capsys, [command, "--formula", formula, "--type",
                                  "C", "--rank", "1", *extra, "--order", "1"])
    assert (code, out) == (2, "")
    assert err == f"error: {formula} needs rank >= 2\n"


@pytest.mark.parametrize("rank", ["0", "-1"])
def test_rank_below_one_is_refused_with_exit_two(capsys, rank):
    code, out, err = run(capsys, [
        "compute", "--formula", "integrable", "--type", "A", "--rank", rank,
        "--weight", "1", "--order", "0",
    ])
    assert code == 2 and out == ""
    assert err == "error: rank must be >= 1\n"


def test_large_weyl_group_is_refused_with_exit_two(capsys):
    code, out, err = run(capsys, [
        "compute", "--formula", "integrable", "--type", "E", "--rank", "7",
        "--weight", "1", "0", "0", "0", "0", "0", "0", "0", "--order", "0",
    ])
    assert code == 2 and out == ""
    assert err == ("error: Weyl group of E7 has 2903040 elements, more than "
                   "1000000\n")


# every command that walks W, at an algebra over the limit; each row fails
# if a root system is built before the refusal
WEYL_REFUSALS = [
    ("qdim --formula deligne --type E --rank 7 --weight -4 0 0 0 0 0 0 0 "
     "--order 0", "E7", 2903040),
    ("qdim --formula deligne --type E --rank 8 --weight -6 0 0 0 0 0 0 0 0 "
     "--order 0", "E8", 696729600),
    ("compute --formula integrable --type E --rank 8 --weight 1 0 0 0 0 0 0 "
     "0 0 --order 0", "E8", 696729600),
    ("verify twisted-denominator --n 16 --order 0", "C8", 10321920),
    ("verify sector-restriction --n 16 --s 1 --order 0", "C8", 10321920),
    ("verify superdenominator-sl --n 18 --order 12", "A17", factorial(18)),
    ("verify tower-assembly --n 18 --order 12", "A17", factorial(18)),
    ("compute --formula sl-first --type A --rank 120 --s 1 --order 0",
     "A120", factorial(121)),
    ("verify sector-restriction --n 160 --s 1 --order 0", "C80",
     2**80 * factorial(80)),
    ("verify tower-fock --n 10", "A9", 3628800),
    ("verify superdenominator-sp --n 16", "C8", 10321920),
    ("verify flip-symmetry --n 10", "A9", 3628800),
]


# past 1000 digits |W| is neither finished nor printed, so any rank is
# refused in time
HUGE_WEYL_REFUSALS = [
    ("compute --formula sl-first --type A --rank 2000 --s 1 --order 0",
     "A2000"),
    ("compute --formula sl-first --type A --rank 200000 --s 1 --order 0",
     "A200000"),
    ("verify sector-restriction --n 4000 --s 1 --order 0", "C2000"),
]


WEYL_REFUSAL_LINES = [
    *[(argv, f"Weyl group of {g} has {order} elements, more than 1000000")
      for argv, g, order in WEYL_REFUSALS],
    *[(argv, f"Weyl group of {g} has more than 1000000 elements (its order "
       "has more than 1000 digits)") for argv, g in HUGE_WEYL_REFUSALS],
    # a usage rule of the check still comes first
    ("verify sector-restriction --n 16 --s 0",
     "sector restriction needs s >= 1"),
]


POINT_REFUSAL_LINES = [
    ("compute --formula sl-first --type A --rank 2 --s 1000000 --order 0",
     "lattice sum over Z^2 predicted to list 302300826609 points, "
     "more than 1000000"),
    ("qdim --formula sl-first --type A --rank 2 --s 3000 --order 0",
     "lattice sum over Z^2 predicted to list 2723420 points, "
     "more than 1000000"),
    ("qdim --formula sl-last --type A --rank 3 --s 100000000000000 --order 0",
     "lattice sum over Z^3 predicted to list "
     "50383319951408417886303234128543238575131 points, more than 1000000"),
]


@pytest.mark.parametrize("argv,line", POINT_REFUSAL_LINES,
                         ids=[argv for argv, _ in POINT_REFUSAL_LINES])
def test_lattice_points_past_the_budget_are_refused_in_time(capsys, argv,
                                                            line):
    # predicted from the ellipsoid's volume before one point is listed
    t0 = time.perf_counter()
    code, out, err = run(capsys, argv.split())
    assert time.perf_counter() - t0 < 1
    assert (code, out, err) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("argv,line", WEYL_REFUSAL_LINES,
                         ids=[argv for argv, _ in WEYL_REFUSAL_LINES])
def test_weyl_size_is_refused_before_a_root_system_is_built(
        capsys, monkeypatch, argv, line):
    def built(self, family, rank):
        raise AssertionError(f"{family}{rank} was built")

    monkeypatch.setattr(RootSystem, "__init__", built)
    t0 = time.perf_counter()
    code, out, err = run(capsys, argv.split())
    assert time.perf_counter() - t0 < 0.5
    assert (code, out, err) == (2, "", f"error: {line}\n")


def test_alt_weyl_raw_leaves_nothing_on_the_root_system():
    # W is listed and checked against |W| on each call, and kept nowhere
    rs = root_system("D", 4)
    before = dict(vars(rs))
    alt_weyl_raw(rs, weight_from_coeffs(rs, (1, 0, 0, 0, 0)), 1)
    assert vars(rs) == before


def test_a_failing_weight_is_refused_before_w_is_enumerated(capsys,
                                                             monkeypatch):
    # the screening comes before any enumeration of W, and every deligne
    # command refuses in one line
    calls = []
    group = RootSystem.weyl_group

    def counted(self):
        calls.append(self)
        return group(self)

    monkeypatch.setattr(RootSystem, "weyl_group", counted)
    tail = ["--type", "D", "--rank", "4", "--weight", "0", "0", "0", "0", "0"]
    errs = set()
    for cmd in (["qdim", "--formula", "deligne"],
                ["verify", "qdim-two-path"], ["verify", "deligne-positivity"]):
        code, out, err = run(capsys, cmd + tail)
        assert (code, out, calls) == (2, "", [])
        errs.add(err)
    assert errs == {"error: weight fails the screening: level 0 is not a "
                    "negative integer\n"}


@pytest.mark.parametrize("argv", [
    ["compute", "--formula", "sl-first", "--type", "A", "--rank", "9",
     "--s", "0", "--order", "0"],
    ["verify", "parity-vs-split", "--n", "20", "--order", "1"],
    ["verify", "twisted-denominator", "--n", "16", "--order", "0"],
    ["verify", "sector-restriction", "--n", "16", "--s", "1", "--order", "0"],
], ids=["sl-first-A9", "parity-vs-split-n20", "twisted-denominator-n16",
        "sector-restriction-n16"])
def test_weyl_gate_offers_the_flag_only_where_it_is_read(capsys, argv):
    # no Weyl gate has an override, so no refusal of a group's size offers
    # one
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: Weyl group of ")
    assert "allow" not in err and err.count("\n") == 1



def _count_calls(monkeypatch, name, modules):
    """{module name: calls of `name` through that module's own binding}."""
    calls = {}
    for mod in modules:
        def counted(*args, _real=getattr(mod, name), _at=mod.__name__, **kw):
            calls[_at] = calls.get(_at, 0) + 1
            return _real(*args, **kw)

        monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("check", list(cli.CHECKS))
def test_each_check_builds_one_root_system(capsys, monkeypatch, check):
    # the check builds the algebra of its colour count or weight once and
    # hands it to both sides; no library function builds another
    built = []
    real = RootSystem.__init__

    def counted(self, family, rank):
        built.append(f"{family}{rank}")
        real(self, family, rank)

    monkeypatch.setattr(RootSystem, "__init__", counted)
    code, _, err = run(capsys, ["verify", check])
    assert (code, err) == (0, "")
    assert len(built) == 1, built


def test_tower_assembly_builds_no_member_past_the_order(capsys,
                                                       monkeypatch):
    # a charge-s member lies at cone height |s| or more, so a band wider
    # than the order builds the 2 * order + 1 members of |s| <= order and
    # reports what the band |s| <= order reports
    calls = _count_calls(monkeypatch, "numerator", (fm,))

    def report(smax):
        calls.clear()
        code, out, err = run(capsys, ["verify", "tower-assembly", "--n", "3",
                                      "--order", "2", "--smax", smax])
        assert (code, err) == (0, "")
        [check] = json.loads(out)["checks"]
        del check["seconds"]
        check["identity"] = check["identity"].replace(f"|s|<={smax}", "")
        return dict(calls), check

    wide, narrow = report("400"), report("2")
    assert wide == narrow
    assert wide[0] == {"affinechar.formulas": 5} and wide[1]["ok"]


@pytest.mark.parametrize("argv,dens", [
    ("verify flip-decomposition", {"affinechar.series": 1}),
    ("verify parity-vs-split", {"affinechar.series": 3}),
])
def test_the_type_c_split_is_built_once(capsys, monkeypatch, argv, dens):
    # one lattice character divides out for both split forms; the series
    # binding is the quotient R-hat / R inside each division.
    # parity-vs-split divides its two parity sums as well, and multiplies
    # nothing by the denominator
    chars = _count_calls(monkeypatch, "character_from_numerator", (cli, fm))
    den = _count_calls(monkeypatch, "denominator_slices", (cli, series))
    code, out, err = run(capsys, argv.split())
    assert (code, err) == (0, "") and '"ok": false' not in out
    parity = {"affinechar.cli": 2} if "parity" in argv else {}
    assert chars == {"affinechar.formulas": 1, **parity}
    assert den == dens


@pytest.mark.parametrize("formula", ["sp-b", "sp-c"])
@pytest.mark.parametrize("command", ["compute", "compute --character",
                                     "qdim"])
def test_sp_b_and_sp_c_read_their_parity_sums(capsys, monkeypatch, formula,
                                               command):
    # the rows of sp-parity-a and sp-parity-b: no split form is built, and
    # no character is multiplied back by the denominator
    split = _count_calls(monkeypatch, "sp_split_characters", (fm,))
    den = _count_calls(monkeypatch, "denominator_slices", (cli,))
    chars = _count_calls(monkeypatch, "character_from_numerator", (cli,))
    cmd, *flag = command.split()
    code, _, err = run(capsys, [cmd, "--formula", formula, "--type", "C",
                                "--rank", "2", "--order", "2", *flag])
    assert (code, err) == (0, "")
    assert (split, den) == ({}, {})
    assert chars == ({} if command == "compute" else {"affinechar.cli": 1})


def test_state_budget_is_one_error_line_with_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(fock, "STATE_BUDGET", 1)
    code, out, err = run(capsys, ["verify", "tower-fock"])
    assert code == 2 and out == ""
    assert err == ("error: charge-0 sector of 3 colours to doubled energy 8 "
                   "holds 1181 states in 432 mode entries, more than 1\n")


def test_state_budget_refuses_before_the_work(capsys, monkeypatch):
    # the predicted count refuses before one mode multiset is built
    monkeypatch.setattr(fock, "_mode_multisets", None)
    code, out, err = run(capsys, ["verify", "flip-decomposition", "--n", "4",
                                  "--order", "12"])
    assert code == 2 and out == ""
    assert err == ("error: charge-0 sector of 4 colours to doubled energy 24 "
                   "holds 56252719 states in 992712 mode entries, more than "
                   "10000000\n")


def test_mode_budget_refuses_a_wide_sector_before_the_work(
        capsys, monkeypatch):
    # under the state budget, far over it in modes: refused before a
    # multiset of 1100 modes is built, and before any lattice point
    def lattice_side(*args):
        raise AssertionError("the lattice side was built")

    monkeypatch.setattr(fock, "_mode_multisets", None)
    monkeypatch.setattr(fm, "numerator", lattice_side)
    code, out, err = run(capsys, ["verify", "tower-fock", "--n", "3",
                                  "--s", "1100", "--order", "0"])
    assert code == 2 and out == ""
    assert err == ("error: charge-1100 sector of 3 colours to doubled energy "
                   "1100 holds 606651 states in 667316100 mode entries, more "
                   "than 10000000\n")


def test_state_budget_refuses_a_type_c_sector_before_the_denominator(
        capsys, monkeypatch):
    # 116,636,280 states against a budget of 10^7: refused before the C_6
    # denominator or any lattice point is built
    def other_side(*args):
        raise AssertionError("the other side was built")

    monkeypatch.setattr(fock, "_mode_multisets", None)
    monkeypatch.setattr(cli, "denominator_slices", other_side)
    monkeypatch.setattr(fm, "numerator", other_side)
    code, out, err = run(capsys, ["verify", "sector-restriction", "--n", "12",
                                  "--s", "1", "--order", "5"])
    assert code == 2 and out == ""
    assert err == ("error: charge-1 sector of 12 colours to doubled energy 11 "
                   "holds 116636280 states in 319416 mode entries, more than "
                   "10000000\n")


SL2_S20 = "qdim --formula sl2-closed --type A --rank 1 --s 20 --order 0"


@pytest.mark.parametrize("module,limit,value,argv,line", [
    (rootdata, "WEYL_LIMIT", 1, SL2_S20,
     "Weyl group of A1 has 2 elements, more than 1"),
    (fock, "STATE_BUDGET", 10, "verify tower-fock --n 3 --s 1 --order 1",
     "charge-1 sector of 3 colours to doubled energy 3 holds 24 states in "
     "21 mode entries, more than 10"),
    (fm, "SCREEN_LIMIT", 10, "list-deligne --type D --rank 4 --level -1",
     "window 0..1 on D4 holds 16 weights, more than 10"),
    (series, "DIVIDE_BUDGET", 10, SL2_S20,
     "dividing by the Weyl denominator builds 22 terms along the "
     "(1,)-strings, more than 10"),
])
def test_every_work_limit_is_one_error_line_with_exit_two(
        capsys, monkeypatch, module, limit, value, argv, line):
    # a request served under the default limit is refused under a lowered
    # one, in one line naming its predicted size and the limit
    assert run(capsys, argv.split())[::2] == (0, "")
    monkeypatch.setattr(module, limit, value)
    assert run(capsys, argv.split()) == (2, "", f"error: {line}\n")


def test_non_integral_dimension_is_one_error_line_with_exit_two(
        capsys, monkeypatch):
    # only the vacuum keeps a dimension, 1/2; the dominant numerator holds
    # 2 at rho, so the halved direct sum is 1/2
    monkeypatch.setattr(RootSystem, "weyl_dim",
                        lambda self, fund: Fraction(int(not any(fund)), 2))
    code, out, err = run(capsys, ["verify", "qdim-two-path", "--order", "1"])
    assert code == 2 and out == ""
    assert err == "error: non-integral graded dimension 1/2\n"


@pytest.mark.parametrize("name,argv", [
    ("deligne_numerator", ["qdim", "--formula", "deligne", "--type", "D",
                           "--rank", "4", "--weight", "-1", "0", "0", "0",
                           "0", "--order", "1"]),
    ("integrable_numerator", ["compute", "--formula", "integrable", "--type",
                              "A", "--rank", "2", "--weight", "1", "0", "0"]),
    ("sp_twist_product_character", ["verify", "twisted-denominator"]),
])
def test_memory_exhaustion_is_one_error_line_with_exit_two(capsys,
                                                           monkeypatch,
                                                           name, argv):
    # an identity did not fail, so not exit 1, and no traceback either
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(fm, name, exhausted)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: out of memory\n"


def test_out_of_memory_line_is_written_after_the_failed_call_is_freed(
        monkeypatch):
    # the handler's traceback holds the failed call's frames, and with them
    # nearly all the memory: the line must wait until they are freed
    class Held:
        pass

    refs = []

    def exhausted(args):
        held = Held()
        refs.append(weakref.ref(held))
        raise MemoryError

    lines = []

    class Stderr:
        def write(self, text):
            lines.append((text, refs[0]() is None))

    monkeypatch.setattr(cli, "cmd_qdim", exhausted)
    monkeypatch.setattr(sys, "stderr", Stderr())
    code = main(["qdim", "--formula", "sl-first", "--type", "A", "--rank",
                 "2", "--s", "1", "--order", "0"])
    assert code == 2
    assert lines == [("error: out of memory\n", True)]


def test_internal_invariant_is_one_line_with_exit_three(capsys, monkeypatch):
    # shift the base of every orbit off the root lattice, so that the real
    # kernel raises its invariant
    kernel = RootSystem.orbit_offsets

    def shifted(self, v, base, bound=None):
        return kernel(self, v, (base[0] + 1, *base[1:]), bound)

    monkeypatch.setattr(RootSystem, "orbit_offsets", shifted)
    code, out, err = run(capsys, ["verify", "superdenominator-sl", "--n", "3",
                                  "--order", "2"])
    assert code == 3 and out == ""
    assert err == "internal error: orbit offset left the root lattice\n"


def test_cli_import_footprint():
    # importing the CLI loads every layer (the benchmark tracer wraps their
    # functions by module) and no dataclasses or inspect; -S keeps site
    # hooks of the interpreter's installation out of the module list
    src = os.path.dirname(os.path.dirname(affinechar.__file__))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, affinechar.cli; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True).stdout.split()
    for layer in ("rootdata", "lattice", "series", "formulas", "superden",
                  "fock"):
        assert f"affinechar.{layer}" in out
    assert "dataclasses" not in out and "inspect" not in out


def test_formulas_import_neither_construction_that_checks_them():
    # fock and superden are the independent sides of the verify checks;
    # the formulas they check load without them
    src = os.path.dirname(os.path.dirname(affinechar.__file__))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, affinechar.formulas; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True).stdout.split()
    assert "affinechar.formulas" in out
    assert "affinechar.fock" not in out and "affinechar.superden" not in out
