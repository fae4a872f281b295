"""Checks of the benchmark itself, run outside its timed region.

    PYTHONPATH=src python -m pytest bench/tests -q

- every screened-d4 q-series, whose bytes are pinned, agrees with the
  lattice-only q-dimension sum times phi(q)^dim g, as `verify
  qdim-two-path` checks it, so the pins rest on a second computation
- bench/traced.py records a span for every wrapped function, also
  through names bound with `from ... import ...`, and leaves stdout as is
- the result line names exactly the metrics BENCHMARK.json declares
- without the package source the benchmark fails and prints no result
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import traced  # noqa: E402

from affinechar import formulas as fm  # noqa: E402
from affinechar.rootdata import coroot_lattice_basis, root_system  # noqa: E402
from affinechar.series import qpoly_mul, weight_from_coeffs  # noqa: E402

WORKLOADS = json.loads((BENCH / "workloads.json").read_text())
DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

# one small input per workload, and the spans it must record
TINY = {
    "screened-d4": (
        ["qdim --formula deligne --type D --rank 4 --weight -1 0 0 0 0 --order 1",
         "list-deligne --type D --rank 4 --level -1"],
        {"series.laurent_divide", "series.character_from_numerator",
         "series.denominator_slices", "lattice.alt_weyl_raw",
         "lattice.lattice_points_below", "rootdata.weyl_group",
         "rootdata.root_system", "formulas.deligne_numerator",
         "formulas.deligne_enumerate", "formulas.check_deligne_conditions"}),
    "identities": (
        ["verify superdenominator-sl --n 3 --order 3",
         "verify superdenominator-sp --n 4 --order 2",
         "verify tower-fock --n 3 --order 1"],
        {"superden.sl_sum", "superden.spo_sum", "superden.sl_product",
         "superden.spo_product", "fock.fock_states",
         "lattice.lattice_points_below", "rootdata.root_system"}),
}


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, cwd=bench.ROOT,
                          env=bench.child_env(), timeout=600)


def _cli(argv: str) -> bytes:
    res = _run([sys.executable, "-m", "affinechar.cli", *argv.split()])
    assert res.returncode == 0, res.stderr
    return res.stdout


def _comparable(stdout: bytes) -> object:
    """verify reports carry wall times; everything else is compared as bytes."""
    doc = json.loads(stdout)
    if isinstance(doc, dict) and "checks" in doc:
        for check in doc["checks"]:
            check.pop("seconds")
        return doc
    return stdout


@pytest.mark.parametrize("inp", [inp for inp in WORKLOADS["screened-d4"]["inputs"]
                                 if inp["argv"].startswith("qdim ")],
                         ids=lambda inp: inp["argv"].split("--weight ")[1])
def test_screened_series_match_lattice_sum(inp):
    out = _cli(inp["argv"])
    assert bench.check_output(inp, {"code": 0, "stdout": out}) is None
    argv = inp["argv"].split()
    w = argv.index("--weight")
    coeffs = [int(x) for x in argv[w + 1:w + 6]]
    order = int(argv[argv.index("--order") + 1])
    series = [int(v) for v in json.loads(out)["qdim"]]

    d4 = root_system("D", 4)
    lam = weight_from_coeffs(d4, coeffs)
    alpha = fm.check_deligne_conditions(d4, lam)["alpha"]
    direct = fm.q_dimension_sum(
        d4, lam, coroot_lattice_basis(d4), order, halve=True,
        coeff_fn=lambda gf, x: int(d4.inner(alpha.fund, gf) + 1))
    dim_g = d4.rank + 2 * len(d4.positive_roots)
    via = qpoly_mul(fm.phi_power_qpoly(dim_g, order), dict(enumerate(series)),
                    order)
    assert via == {m: v for m, v in enumerate(direct) if v}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """{workload: [(argv, plain stdout, traced stdout, spans)]}"""
    spans_path = tmp_path_factory.mktemp("spans") / "spans.json"
    runs = {}
    for name, (inputs, _) in TINY.items():
        runs[name] = []
        for argv in inputs:
            res = _run([sys.executable, str(BENCH / "traced.py"),
                        str(spans_path), argv, *argv.split()])
            assert res.returncode == 0, res.stderr
            spans = json.loads(spans_path.read_text())
            runs[name].append((argv, _cli(argv), res.stdout, spans))
    return runs


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_records_its_layers_and_keeps_stdout(tiny_runs, workload):
    names = set()
    for argv, plain, traced_out, spans in tiny_runs[workload]:
        assert _comparable(traced_out) == _comparable(plain), argv
        assert all(s["input"] == argv for s in spans)
        assert [s["name"] for s in spans if s["parent"] == -1] == ["cli.main"]
        names |= {s["name"] for s in spans}
    assert TINY[workload][1] | {"cli.main"} <= names


def test_every_wrapped_name_and_rebound_site_records(tiny_runs):
    spans = [s for runs in tiny_runs.values() for *_, sp in runs for s in sp]
    assert {s["name"] for s in spans} == set(traced.SPANS)
    sites = {s["site"] for s in spans}
    # calls through `from ... import ...` bindings, not the defining module
    assert {"formulas.alt_weyl_raw", "cli.character_from_numerator",
            "superden.lattice_points_below"} <= sites


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "cli.main", "parent": -1, "start": 0.0, "end": 10.0,
         "out_bytes": 100},
        {"name": "lattice.alt_weyl_raw", "parent": 0, "start": 1.0,
         "end": 6.0, "terms": 30, "family": "A", "rank": 2},
        {"name": "lattice.lattice_points_below", "parent": 1, "start": 1.5,
         "end": 2.5, "points": 10},
        {"name": "rootdata.weyl_group", "parent": 1, "start": 3.0,
         "end": 3.5, "enumerated": 6},
    ]
    assert bench.self_times(spans) == [5.0, 3.5, 1.0, 0.5]
    m = bench.layer_metrics([spans])
    assert m["cli.main_s"] == 5.0
    assert m["cli.out_bytes"] == 100
    assert m["lattice.alt_weyl_raw_s"] == 3.5
    assert m["rootdata.weyl_order"] == 6
    assert m["lattice.orbit_kept_ratio"] == 30 / (10 * 6)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    res = _run([sys.executable, str(BENCH / "run.py"), "--workload",
                "identities", "--seed", "7", "--seconds", "1",
                "--trace", str(trace)])
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.decode().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 6 * (1 + trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in DECLARED[section]}


def test_workloads_match_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_refuses_without_package_source(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "identities",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, cwd=tmp_path, timeout=180)
    assert res.returncode != 0
    assert res.stdout == b""
