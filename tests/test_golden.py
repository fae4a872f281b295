"""Golden outputs: sha256 of `compute` stdout for every formula.

The hashes pin the exact bytes of the canonical JSON (and one TSV, one
pretty and one `qdim` rendering), so a change to how numerators and
characters are built or rendered cannot alter the output unnoticed.
The `verify all` report is pinned field by field, wall times aside, so
the defaults every check runs with cannot drift either.  The TSV and
pretty renderings of `list-deligne` and `verify` are pinned byte for
byte too, `verify`'s wall times masked.
"""

import hashlib
import json
import re

import pytest

from affinechar import cli
from affinechar import formulas as fm
from affinechar.cli import main

# (formula, "TYPE RANK extra args", numerator sha256, character sha256)
CASES = [
    ("integrable", "C 2 --weight 1 0 1 --order 3",
     "81c888bff1c41b93f03e4267b5cc59a6f4477235d226cad021c83a4d02d8a186",
     "8361791ab01903eb983b9b15a6390dba479d37c62c158c02aab2e964c3619f75"),
    ("sl-first", "A 2 --s 1 --order 3",
     "e9151bb00dd4acf2105f2bab209d5b77b68db8d7330e75cff19fa29914ccbd34",
     "c4835fb6e3c16acfeff80c9cbcb4b0d4c4704dfc36d31fa4d3c3fe4aa58a15ee"),
    ("sl-last", "A 3 --s 2 --order 2",
     "69c36e89cea00fddfc963e8848d4ec78cc185fffa1dfe0a32fcf53f0890ce8ef",
     "35e38819ad6fa5641d9718ce45d3f919cdba6b3f1b2599282ed686e52e237eec"),
    ("sl2-closed", "A 1 --s 2 --order 3",
     "9fc7263611563ecc3c71e264df4baeb1dc3fc0a2075bf14d1af03b9fca8c3af0",
     "ee1f95f4604346602a99bb1a805eb3c655e6a0d7027cd12aa3bb06a98cc84866"),
    ("sp-a", "C 2 --s 1 --order 3",
     "5d86bcca1459d4ffa5517f4ca5ae92d428a2d4fa9f049c12fd0251513a373739",
     "51feb1a13815cce5435706798fbfff33e71ad7482ded496cf43de100be342efb"),
    ("sp-b", "C 2 --order 3",
     "45c858fc60758dc5ab295ef929b72258b163084545a5d19092691798014b1a4c",
     "8ca542758594c4ea42829a3666370b619397b659ba6a1b52f0a2f64977283b69"),
    ("sp-c", "C 2 --order 2",
     "4ad1339b5257037be81d116006ba410b3cbdf3a362cc3cf325aff694bdb2c30d",
     "9836012bb693a1dc2ff3c3638ed72cc6df99feebc9a47a6f92ba273a98188af6"),
    ("sp-parity-a", "C 2 --order 3",
     "45c858fc60758dc5ab295ef929b72258b163084545a5d19092691798014b1a4c",
     "8ca542758594c4ea42829a3666370b619397b659ba6a1b52f0a2f64977283b69"),
    ("sp-parity-b", "C 2 --order 2",
     "4ad1339b5257037be81d116006ba410b3cbdf3a362cc3cf325aff694bdb2c30d",
     "9836012bb693a1dc2ff3c3638ed72cc6df99feebc9a47a6f92ba273a98188af6"),
    ("deligne", "D 4 --weight -1 0 0 0 0 --order 1",
     "705cec57c11bd9efc8365d0c3a59b22cc2b2f9c491d4521b4d4bb87cc6ed52cf",
     "351cd9ee2a19f754a549e9f7161126d6f161c11e2ee372b8d046befaa174b5c8"),
]


def test_every_formula_has_a_golden_pin():
    assert {f for f, *_ in CASES} == set(fm.FORMULAS)


def _argv(formula, rest, *extra):
    typ, rank, *more = rest.split()
    return ["compute", "--formula", formula, "--type", typ, "--rank", rank,
            *more, *extra]


def _sha(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("formula,rest,num_sha,char_sha", CASES,
                         ids=[c[0] for c in CASES])
def test_compute_json_golden(capsys, formula, rest, num_sha, char_sha):
    assert _sha(capsys, _argv(formula, rest)) == num_sha
    assert _sha(capsys, _argv(formula, rest, "--character")) == char_sha


# The inputs of the retired acceptance criterion 10 (output bytes identical
# for any number of worker threads); the orbit sum now has one sequential
# path, so what stays is the bytes themselves.  Its fourth input, sp-a on
# C2 with s = 1 at order 3, is the sp-a numerator case of CASES.
CRITERION_10 = [
    ("compute --formula sl-first --type A --rank 3 --s 1 --order 3",
     "2d6ed8e7624806e2021150d462a0bf559ff1b8609de63dfb112d3739678348b3"),
    ("compute --formula deligne --type D --rank 4 --weight -1 0 0 0 0 "
     "--order 2 --character",
     "486ddc384d3d11e5970b864774b28dd4c2901931b5c3da248db568ad78e5f0d6"),
    ("qdim --formula deligne --type D --rank 4 --weight -2 0 0 0 0 "
     "--order 2",
     "813c993e3a976ab29b816666af883a4b1a181f7b986598c9694dae36bbbad73c"),
]


def test_criterion_10_inputs_golden(capsys):
    for argv, sha in CRITERION_10:
        assert _sha(capsys, argv.split()) == sha, argv


def test_compute_tsv_golden(capsys):
    argv = _argv("sl-first", "A 2 --s 1 --order 3", "--format", "tsv")
    assert _sha(capsys, argv) == (
        "f7c0dec5c59deaaf1d831042f841e9b01c570d6aaec76e5f21858a52e386b0b2")


def test_compute_pretty_golden(capsys):
    argv = _argv("sp-c", "C 2 --order 2", "--character", "--format", "pretty")
    assert _sha(capsys, argv) == (
        "56fc1df99d2fade11a4dd0523e056d3c8cc67fcfd8fc69d441b8416bb89a3c1b")


def test_e6_screened_vacuum_numerator_golden(capsys):
    # a full W(E6) orbit sum: 51,840 elements through the integer kernel
    argv = ("compute --formula deligne --type E --rank 6 "
            "--weight -3 0 0 0 0 0 0 --order 0").split()
    assert _sha(capsys, argv) == (
        "b450dd1b48e6be5128a23e83b53d1045b5ce2e0d5e2ef740de698e4fffb0f1fa")


def test_e6_screened_vacuum_qdim_golden(capsys):
    # the full character path on W(E6): a 51,840-term numerator slice
    # divided by the finite Weyl denominator
    argv = ("qdim --formula deligne --type E --rank 6 "
            "--weight -3 0 0 0 0 0 0 --order 0").split()
    assert _sha(capsys, argv) == (
        "70759cede3987b443cf8eb39db554d0304834add9fe744c3355edee22e3f170f")


def test_e6_screened_vacuum_qdim_order_1_golden(capsys):
    # N_1 through the recursion that removes R-hat / R on W(E6): the slice
    # q^1 is divided by the finite Weyl denominator alone
    argv = ("qdim --formula deligne --type E --rank 6 "
            "--weight -3 0 0 0 0 0 0 --order 1").split()
    assert _sha(capsys, argv) == (
        "b3d827ebc493a686b17593ebd7109a624a3f9e77935e841537b2eaba550cd9f2")


# the exceptional screening at level -1 over the default window: 33, 62 and
# 107 weights, every pairing and witness depth decided in exact arithmetic
E_SCREENING = [
    (6, "fd56d79d032f4379e62733b09f8769786b247440c7cd014b8a8529e32dfcc33b"),
    (7, "7198370bb2948390fe88269b3fa4fd688042f672b5b1489154797ee5fac61dd2"),
    (8, "c88fffe80b25365f249b9f6e0f43ab78e7985aa6a10499d059974cb712292c3b"),
]


@pytest.mark.parametrize("rank,sha", E_SCREENING,
                         ids=[f"E{r}" for r, _ in E_SCREENING])
def test_list_deligne_exceptional_golden(capsys, rank, sha):
    argv = f"list-deligne --type E --rank {rank} --level -1".split()
    assert _sha(capsys, argv) == sha


# (identity, order, terms) of every check of `verify all` at its defaults;
# terms counts the nonzero terms of the left side of every compared pair
VERIFY_ALL = [
    ("superdenominator-sl n=3", 12, 133),
    ("superdenominator-sp n=4", 8, 62),
    ("tower-fock n=3 s=0", 4, 125),
    ("flip-symmetry n=3 s=1", 4, 18),
    ("sl2-closed s=0 (agree to q^1, deviate at q^2)", 3, 4),
    ("tower-assembly n=3 |s|<=2", 6, 28),
    ("sector-restriction n=4 s=1", 3, 16),
    ("flip-decomposition n=4", 3, 155),
    ("twisted-denominator n=4", 5, 40),
    ("parity-vs-split n=4", 4, 313),
    ("parity-bracket n=4", 4, 24),
    ("window-negation n=4 omega=[(0, 0)]", 4, 8),
    ("deligne-positivity D4 (-1, 0, 0, 0, 0)", 2, 195),
    ("qdim-two-path D4", 2, 1),
]


def test_verify_all_defaults_golden(capsys):
    assert main(["verify", "all", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["ok"] is True
    for r in d["checks"]:
        assert float(r.pop("seconds")) >= 0
    assert d["checks"] == [
        {"identity": i, "order": o, "terms": t, "ok": True, "mismatch": None}
        for i, o, t in VERIFY_ALL]


# the TSV and pretty renderings of the screening list
LIST_DELIGNE = [
    ("D 4 -1 tsv",
     "1d9db55f447a20499ec2e3ce9d823e6af5a5591aaf78d1bb84e3d0e38c0b413f"),
    ("D 4 -1 pretty",
     "69774cee435e98c215ccc2d67746e26ad3a59d8c06c3dc7b2cf438d1a60e2bc5"),
    ("E 6 -3 tsv",
     "0fd3e9cae5932619112e3e8bdf773d3eda0ef922770acbde6791f6f51c83fe8d"),
    ("E 6 -3 pretty",
     "05f7db06672733532ef199aeffe6f3f8a6b56df1465e103ba55a031e8d6adcb0"),
]


@pytest.mark.parametrize("case,sha", LIST_DELIGNE,
                         ids=[c.replace(" ", "") for c, _ in LIST_DELIGNE])
def test_list_deligne_tsv_and_pretty_golden(capsys, case, sha):
    typ, rank, level, fmt = case.split()
    argv = ["list-deligne", "--type", typ, "--rank", rank, "--level", level,
            "--format", fmt]
    assert _sha(capsys, argv) == sha


def _masked_verify(capsys, argv):
    """Exit code and stdout of a verify call, every wall time read as S:
    the tsv seconds column and the pretty `0.123s` ending a check's line."""
    code = main(argv)
    out = capsys.readouterr().out
    out = re.sub(r"\t\d+\.\d{3}\t", "\tS\t", out)
    return code, re.sub(r"  \d+\.\d{3}s\n", "  Ss\n", out)


@pytest.mark.parametrize("fmt,sha", [
    ("tsv",
     "cff0bf2b270c5dab58b48f1584141917c634f2f61692cafb196c5af5fbc5b43a"),
    ("pretty",
     "cf970ed359f6fb9b4fc6fa544864721543c95764ff77e7863606bbc39662eb89"),
])
def test_verify_tsv_and_pretty_golden(capsys, fmt, sha):
    argv = ["verify", "sl2-closed", "flip-symmetry", "--order", "3",
            "--format", fmt]
    code, out = _masked_verify(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_verify_failure_rendering_golden(capsys, monkeypatch):
    def forced(args):
        return {"identity": "forced", "order": 0, "terms": 0,
                "ok": False, "mismatch": "forced mismatch"}

    monkeypatch.setitem(cli.CHECKS, "forced", (forced, {}))
    argv = ["verify", "forced", "--format"]
    assert _masked_verify(capsys, [*argv, "tsv"]) == (
        1, "identity\torder\tterms\tseconds\tok\tmismatch\n"
        "forced\t0\t0\tS\tFAIL\tforced mismatch\n")
    assert _masked_verify(capsys, [*argv, "pretty"]) == (
        1, "FAIL  forced  order 0  terms 0  Ss\n"
        "      first mismatch: forced mismatch\n")
