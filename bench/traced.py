"""Run one affinechar CLI call with span recorders around public functions.

    python bench/traced.py SPANS_OUT INPUT_ID CLI_ARG...

The package must be importable (bench/run.py puts src on PYTHONPATH).
Each function in SPANS is wrapped wherever an affinechar module binds it:
several modules import names with `from ... import ...`, and a call
through such a binding never sees a patch of the defining module alone.
Hot inner calls (WeylElement.apply, RootSystem.inner) are not wrapped.

A span records its name, the binding it was called through (`site`),
start and end (perf_counter seconds), the index of its parent span, the
input id, and counts taken from the call's arguments and result.  Spans
stay in memory and are written to SPANS_OUT as JSON when cli.main
returns.  stdout passes through unchanged; only its size is counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref

# span name -> (defining module, attribute); "Class.method" for methods
SPANS = {
    "rootdata.root_system": ("rootdata", "root_system"),
    "rootdata.weyl_group": ("rootdata", "RootSystem.weyl_group"),
    "lattice.lattice_points_below": ("lattice", "lattice_points_below"),
    "lattice.alt_weyl_raw": ("lattice", "alt_weyl_raw"),
    "series.laurent_divide": ("series", "laurent_divide"),
    "series.character_from_numerator": ("series", "character_from_numerator"),
    "series.denominator_slices": ("series", "denominator_slices"),
    "formulas.check_deligne_conditions": ("formulas", "check_deligne_conditions"),
    "formulas.deligne_enumerate": ("formulas", "deligne_enumerate"),
    "formulas.deligne_numerator": ("formulas", "deligne_numerator"),
    "superden.sl_sum": ("superden", "sl_sum"),
    "superden.spo_sum": ("superden", "spo_sum"),
    "superden.sl_product": ("superden", "sl_product"),
    "superden.spo_product": ("superden", "spo_product"),
    "fock.fock_states": ("fock", "fock_states"),
    "cli.main": ("cli", "main"),
}


def _weyl_counts(rec, a, res):
    # the group is cached per RootSystem: count it on the first call only
    rs = a["self"]
    if rs in rec.weyl_counted:
        return {"enumerated": 0}
    rec.weyl_counted.add(rs)
    return {"enumerated": len(res)}


# span name -> counts from (recorder, bound arguments, result)
COUNTS = {
    "rootdata.weyl_group": _weyl_counts,
    "lattice.lattice_points_below": lambda rec, a, res: {"points": len(res)},
    "lattice.alt_weyl_raw": lambda rec, a, res: {
        "terms": len(res), "family": a["rs"].family, "rank": a["rs"].rank},
    "series.laurent_divide": lambda rec, a, res: {
        "in_terms": len(a["num"]), "out_terms": len(res)},
    "superden.sl_sum": lambda rec, a, res: {"terms": res.n_terms()},
    "superden.spo_sum": lambda rec, a, res: {"terms": res.n_terms()},
    "fock.fock_states": lambda rec, a, res: {"states": len(res)},
}


class Recorder:
    def __init__(self, input_id: str):
        self.input_id = input_id
        self.spans: list[dict] = []
        self.weyl_counted = weakref.WeakSet()
        self._stack: list[int] = []

    def wrap(self, name: str, site: str, fn):
        count = COUNTS.get(name)
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "site": site, "input": self.input_id,
                    "parent": self._stack[-1] if self._stack else -1}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count:
                span.update(count(self, sig.bind(*args, **kwargs).arguments,
                                  res))
            return res

        return traced


def install(rec: Recorder) -> None:
    """Wrap every binding of every SPANS function in the loaded package."""
    mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items()
            if n.startswith("affinechar.") and m is not None}
    for name, (modname, attr) in SPANS.items():
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[modname], cls_name)
            setattr(cls, meth,
                    rec.wrap(name, f"{modname}.{attr}", getattr(cls, meth)))
            continue
        original = getattr(mods[modname], attr)
        for mname, mod in mods.items():
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, rec.wrap(name, f"{mname}.{key}", original))


class _CountingStdout:
    """Pass writes through to the real stdout and count the bytes."""

    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode(self.inner.encoding or "utf-8"))
        return self.inner.write(text)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def main(argv: list[str]) -> int:
    spans_out, input_id, cli_argv = argv[0], argv[1], argv[2:]
    from affinechar import cli  # imports every layer

    rec = Recorder(input_id)
    install(rec)
    out = _CountingStdout(sys.stdout)
    sys.stdout = out
    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout = out.inner
        sys.stdout.flush()
        for span in rec.spans:
            if span["name"] == "cli.main":
                span["out_bytes"] = out.bytes
        with open(spans_out, "w") as f:
            json.dump(rec.spans, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
