"""Benchmark of the affinechar command line on fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout is the parent of this file's directory, and the package
runs from its src/affinechar.  Each input of a workload (bench/workloads.json)
runs as a fresh `python -m affinechar.cli ...` process, one at a time,
with CLI defaults and JOBS unset, and every output is checked: stdout
against its pinned sha256, a `verify` report by its "ok" field.  The seed
only permutes the order of the inputs within a pass.

A run first times SETUP_PROBES fresh processes that import affinechar.cli
and build the workload's root systems.  With --trace 0 it then runs the
inputs in passes, each pass in a new order, one call at a time, until
the next call would end after S seconds; the first pass always runs
whole.  Between calls it times one more set-up probe every
SETUP_EVERY_S seconds, so that setup_s, the median of all probes, is
taken across the whole run and not in one moment of it.  Each input's wall time, CPU time and RSS
is the median over its calls, and a pass is estimated input by input:
wall_s is the sum of the inputs' median wall times.  Medians of single
calls over the whole run are steadier than the time of one or two whole
passes on a host whose speed swings from second to second.  With
--trace 1 each pass is an untraced pass followed by a traced one
(bench/traced.py), passes run until the next pair would end after S
seconds, and the run reports per-layer self times and counts, the median
over traced passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A results file with the environment, the
per-pass figures and the spans of the last traced pass is written to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
SETUP_EVERY_S = 3.0
# children still running this long after the run began are killed, so a
# run ends within three minutes even when the program hangs
DEADLINE_S = 150.0

# per-layer self-time metric -> span names it sums
SELF_TIME = {
    "rootdata.root_system_s": ["rootdata.root_system"],
    "rootdata.weyl_group_s": ["rootdata.weyl_group"],
    "lattice.lattice_points_below_s": ["lattice.lattice_points_below"],
    "lattice.alt_weyl_raw_s": ["lattice.alt_weyl_raw"],
    "series.laurent_divide_s": ["series.laurent_divide"],
    "series.character_from_numerator_s": ["series.character_from_numerator"],
    "series.denominator_slices_s": ["series.denominator_slices"],
    "formulas.check_deligne_conditions_s": ["formulas.check_deligne_conditions"],
    "formulas.deligne_enumerate_s": ["formulas.deligne_enumerate"],
    "formulas.deligne_numerator_s": ["formulas.deligne_numerator"],
    "superden.sum_s": ["superden.sl_sum", "superden.spo_sum"],
    "superden.product_s": ["superden.sl_product", "superden.spo_product"],
    "fock.fock_states_s": ["fock.fock_states"],
    "cli.main_s": ["cli.main"],
}

# per-layer count metric -> (span names, span field summed; None counts spans)
COUNT = {
    "rootdata.weyl_order": (["rootdata.weyl_group"], "enumerated"),
    "lattice.points": (["lattice.lattice_points_below"], "points"),
    "lattice.orbit_terms": (["lattice.alt_weyl_raw"], "terms"),
    "series.laurent_divide_calls": (["series.laurent_divide"], None),
    "series.divide_in_terms": (["series.laurent_divide"], "in_terms"),
    "series.divide_out_terms": (["series.laurent_divide"], "out_terms"),
    "formulas.screened": (["formulas.check_deligne_conditions"], None),
    "superden.terms": (["superden.sl_sum", "superden.spo_sum"], "terms"),
    "fock.states": (["fock.fock_states"], "states"),
    "cli.out_bytes": (["cli.main"], "out_bytes"),
}


def weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return math.factorial(rank + 1)
    if family == "C":
        return 2 ** rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return {6: 51840, 7: 2903040, 8: 696729600}[rank]  # E


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def check_output(inp: dict, res: dict) -> str | None:
    """None when the output is right, else the reason it is not."""
    if res["code"] != 0:
        return f"exit code {res['code']}"
    try:
        doc = json.loads(res["stdout"])
    except ValueError:
        return "stdout is not JSON"
    if "sha256" not in inp:
        return None if doc.get("ok") is True else f"verify ok={doc.get('ok')}"
    digest = hashlib.sha256(res["stdout"]).hexdigest()
    if digest != inp["sha256"]:
        return f"stdout sha256 {digest} != pinned {inp['sha256']}"
    if "qdim" in inp and doc["qdim"] != inp["qdim"]:
        return f"q-dimension series {doc['qdim']} != pinned {inp['qdim']}"
    return None


class Runner:
    """Runs child processes one at a time; each is killed at the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def child(self, cmd: list[str]) -> dict:
        """Run one process to completion; wall, rusage, exit code, stdout."""
        out_path = OUT / f"{os.getpid()}.out"
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                 cwd=ROOT, env=child_env())
            timer = threading.Timer(max(1.0, self.deadline - t0), p.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        out_path.unlink()
        return {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
                "rss_mb": ru.ru_maxrss / 1024.0, "code": p.returncode,
                "stdout": stdout}

    def setup(self, algebras: list[str]) -> float:
        """Wall time of a fresh process that imports the CLI and builds
        the root systems."""
        code = ("import affinechar.cli as cli\n"
                f"for fam, rank in {[(a[0], int(a[1:])) for a in algebras]!r}:\n"
                "    cli.root_system(fam, rank)\n")
        res = self.child([sys.executable, "-c", code])
        if res["code"] != 0:
            raise RuntimeError(f"set-up probe exited with {res['code']}")
        return res["wall_s"]

    def call(self, inp: dict, traced: bool) -> dict:
        """Run one input and check its output; the spans when traced."""
        spans_path = OUT / f"{os.getpid()}-spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "traced.py"),
                   str(spans_path), inp["argv"], *inp["argv"].split()]
        else:
            cmd = [sys.executable, "-m", "affinechar.cli",
                   *inp["argv"].split()]
        res = self.child(cmd)
        why = check_output(inp, res)
        spans = None
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        elif traced:
            why = why or "no spans written"
        return {"input": inp["argv"], "traced": traced,
                "wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
                "rss_mb": res["rss_mb"], "failure": why, "spans": spans}

    def run_pass(self, inputs: list[dict], traced: bool) -> dict:
        calls = [self.call(inp, traced) for inp in inputs]
        return {"traced": traced, "calls": calls,
                "wall_s": sum(c["wall_s"] for c in calls),
                "spans": [c["spans"] for c in calls]}


def end_to_end(calls: list[dict]) -> dict[str, float]:
    """A pass estimated input by input from the medians over its calls."""
    by_input: dict[str, list[dict]] = {}
    for c in calls:
        by_input.setdefault(c["input"], []).append(c)

    def medians(key: str) -> list[float]:
        return [statistics.median(c[key] for c in cs)
                for cs in by_input.values()]

    return {"wall_s": sum(medians("wall_s")), "cpu_s": sum(medians("cpu_s")),
            "max_call_s": max(medians("wall_s")),
            "peak_rss_mb": max(medians("rss_mb"))}


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(per_input: list[list[dict]]) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    m = {k: 0.0 for k in SELF_TIME}
    m.update({k: 0 for k in COUNT})
    by_name = {n: k for k, names in SELF_TIME.items() for n in names}
    kept = attempted = 0
    for spans in per_input:
        for s, own in zip(spans, self_times(spans)):
            if s["name"] in by_name:
                m[by_name[s["name"]]] += own
            for k, (names, field) in COUNT.items():
                if s["name"] in names:
                    m[k] += 1 if field is None else s[field]
        # useful orbit terms over lattice points times |W| tried
        for i, s in enumerate(spans):
            if s["name"] != "lattice.alt_weyl_raw":
                continue
            pts = sum(c["points"] for c in spans if c["parent"] == i
                      and c["name"] == "lattice.lattice_points_below")
            kept += s["terms"]
            attempted += pts * weyl_order(s["family"], s["rank"])
    m["lattice.orbit_kept_ratio"] = kept / attempted if attempted else 0.0
    return m


def unit(metric: str) -> str:
    for suffix, u in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes"),
                      ("_mb", "MB")):
        if metric.endswith(suffix):
            return u
    return "count"


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for f in sorted((SRC / "affinechar").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"commit": commit, "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "loadavg_1min_at_start": os.getloadavg()[0],
            "JOBS": "unset in every child process",
            "JOBS_in_caller": os.environ.get("JOBS")}


def main(argv=None) -> int:
    workloads = json.loads((BENCH / "workloads.json").read_text())
    par = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    par.add_argument("--workload", required=True, choices=sorted(workloads))
    par.add_argument("--seed", type=int, required=True)
    par.add_argument("--seconds", type=int, required=True)
    par.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = par.parse_args(argv)
    if not (SRC / "affinechar" / "cli.py").is_file():
        sys.stderr.write(f"no package source at {SRC / 'affinechar'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    wl = workloads[args.workload]
    t_begin = time.perf_counter()
    runner = Runner(t_begin + DEADLINE_S)
    setups = [runner.setup(wl["algebras"]) for _ in range(SETUP_PROBES)]

    rng = random.Random(args.seed)
    t_end = time.perf_counter() + args.seconds
    calls, plain, traced = [], [], []
    if args.trace:
        while True:
            start = time.perf_counter()
            order = rng.sample(wl["inputs"], len(wl["inputs"]))
            plain.append(runner.run_pass(order, False))
            traced.append(runner.run_pass(order, True))
            now = time.perf_counter()
            if now + (now - start) > t_end or now > runner.deadline:
                break
        calls = [c for p in plain + traced for c in p["calls"]]
    else:
        last_wall: dict[str, float] = {}
        last_probe = time.perf_counter()
        done = False
        while not done:
            for inp in rng.sample(wl["inputs"], len(wl["inputs"])):
                now = time.perf_counter()
                if inp["argv"] in last_wall and (
                        now + last_wall[inp["argv"]] > t_end
                        or now > runner.deadline):
                    done = True
                    break
                if now - last_probe > SETUP_EVERY_S:
                    setups.append(runner.setup(wl["algebras"]))
                    last_probe = time.perf_counter()
                calls.append(runner.call(inp, False))
                last_wall[inp["argv"]] = calls[-1]["wall_s"]

    failures = [{"input": c["input"], "traced": c["traced"],
                 "reason": c["failure"]} for c in calls if c["failure"]]
    attempted = len(calls)
    if args.trace:
        layers = [layer_metrics(p["spans"]) for p in traced]
        values = {k: statistics.median(m[k] for m in layers)
                  for k in layers[0]}
        values["trace_overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain))
    else:
        values = end_to_end(calls)
        values["setup_s"] = statistics.median(setups)
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record = {
        "workload": args.workload, "environment": env,
        "run_s": time.perf_counter() - t_begin, "setup_probes_s": setups,
        "fail_frac": len(failures) / attempted, "failures": failures,
        "calls": [{k: v for k, v in c.items() if k != "spans"}
                  for c in calls],
        "result": result,
        "spans": traced[-1]["spans"] if traced else [],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for f in failures:
        sys.stderr.write(f"FAIL {f['input']}: {f['reason']}\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
