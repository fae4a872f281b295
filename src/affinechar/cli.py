"""Command line interface.

compute        numerator or character of one formula at one weight
qdim           graded dimension series of a character
verify         run named identity checks and report
list-deligne   screen a window of weights for the orthogonal-root setup

Every command writes its output through _render.  JSON is the canonical
output format and is byte-identical for identical configurations; verify
reports carry wall times and are exempt.  Exit
codes: 0 success, 1 a checked identity failed, 2 bad usage, a violated
precondition, a size or state budget exceeded, or a non-integral result,
3 an internal invariant broken (a bug, reported as one line).

compute and qdim read the rules of a formula from its row of
formulas.FORMULAS (the type and rank it lives on, its least rank and least
s, its top weight from --s or --weight) in _numerator, and verify reads
from CHECKS the options of a check with their defaults.  An option that
nothing named reads is refused.  FLOORS, the one floor table of verify,
holds every option a named check reads, given or defaulted, before any
check runs; a check body keeps only its own rules, such as the even n of
the type C checks.  Every command that walks W builds its root system
through _algebra, the one Weyl size limit: after the usage rules, a group
over WEYL_LIMIT is refused from the Dynkin type alone, with no override.
Each check hands its one root system to both sides; every two-sided check
reports through _compare.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import fock
from . import formulas as fm
from . import superden
from .rootdata import (
    RootSystem,
    WeylSizeError,
    check_weyl_order,
    coroot_lattice_basis,
    root_system,
    weyl_factors,
)
from .series import (
    CharSlices,
    character_from_numerator,
    denominator_slices,
    first_diff,
    phi_power_qpoly,
    qpoly_mul,
)


class UsageError(Exception):
    pass


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise UsageError(msg)


def _algebra(family: str, rank: int) -> RootSystem:
    """family_rank, refused over the Weyl size limit before it is built."""
    check_weyl_order(family, rank)
    return root_system(family, rank)


def _numerator(f: str, args) -> CharSlices:
    """The numerator of formula f at --type, --rank, --order and --s or
    --weight, refused unless these meet the rules of its row in
    formulas.FORMULAS.  A verify check's options hold no --s."""
    lives_on, least_rank, least_s, top, _ = fm.FORMULAS[f]
    s, co = getattr(args, "s", None), args.weight
    fam, rank = args.type.upper(), args.rank
    _need(args.order >= 0, "needs order >= 0")
    _need(s is None or least_s is not None, f"formula {f} does not read --s")
    _need((fam, rank)[:len(lives_on)] == lives_on, f"{f} lives on type "
          + " rank ".join(map(str, lives_on)))
    weyl_factors(fam, rank)  # an unsupported type is refused first
    _need(rank >= least_rank, f"{f} needs rank >= {least_rank}")
    if least_s is not None:
        _need(s is None or co is None, "give --s or --weight, not both")
        _need(s is not None or co is not None, "needs --s or --weight")
    _need(co is not None or top is not None,
          "this formula needs --weight m0 .. ml")
    if co is not None:
        _need(len(co) == rank + 1,
              f"weight needs rank+1 = {rank + 1} entries, got {len(co)}")
    if least_s is not None:
        s = -1 - co[0] if s is None else s  # a tower top is -(1+s) on node 0
        _need(s >= least_s, f"{f} needs s >= {least_s}")
    if top is not None:
        want = top(rank, s)
        _need(co is None or tuple(co) == want,
              f"{f} is the module at weight {want}")
    return fm.numerator(f, _algebra(fam, rank), args.order, s, co)


# -- output ---------------------------------------------------------------


def _render(fmt: str, doc, head, rows, pretty) -> None:
    """Write one command's output; no other code writes to stdout.

    json writes doc, tsv the head and then each row, tab-separated, and
    pretty the lines that pretty() returns, so only the asked-for format
    is rendered.
    """
    if fmt == "json":
        text = json.dumps(doc, indent=1)
    elif fmt == "tsv":
        text = "\n".join("\t".join(map(str, r)) for r in (head, *rows))
    else:
        text = "\n".join(pretty())
    sys.stdout.write(text + "\n")


def _doc(ch: CharSlices, **rest) -> dict:
    """A series' JSON doc: its base, level, delta and order, then rest."""
    b = ch.base
    return {"base": [str(x) for x in b.finite], "level": str(b.level),
            "delta": str(b.delta), "order": ch.qmax, **rest}


def _series_doc(ch: CharSlices) -> dict:
    """The canonical JSON doc of a numerator or character, terms sorted."""
    return _doc(ch, q_half=False, terms=[
        {"exps": list(k), "coeff": str(c)}
        for k, c in sorted(ch.terms().items())])


# -- verify checks --------------------------------------------------------


def _type_a(args) -> RootSystem:
    """A_{n-1} of a type A check."""
    return _algebra("A", args.n - 1)


def _half_n(args) -> int:
    """The rank n/2 of a type C check; past the floor n >= 3, n is even."""
    _need(args.n % 2 == 0, "needs even n >= 4")
    return args.n // 2


def _type_c(args) -> RootSystem:
    """C_{n/2} of a type C check."""
    return _algebra("C", _half_n(args))


def _mismatch(diff, left: str, right: str, what: str = "exps") -> str | None:
    """The first-mismatch line of every check; None when there is no diff.

    diff is (key, left coeff, right coeff) as first_diff returns it.
    """
    if diff is None:
        return None
    key, a, b = diff
    return f"{what} {key}: {left} {a}, {right} {b}"


def _result(identity: str, order: int, terms: int, mismatch) -> dict:
    return {"identity": identity, "order": order, "terms": terms,
            "ok": mismatch is None, "mismatch": mismatch}


def _compare(identity: str, order: int, *sides, what: str = "exps") -> dict:
    """The report of a two-sided check: each side is (left name, left, right
    name, right), CharSlices, read through terms(), or term dicts; the
    first side that differs gives the mismatch, and terms counts the nonzero
    terms of every left."""
    terms, mismatch = 0, None
    for left_name, left, right_name, right in sides:
        if isinstance(left, CharSlices):
            left, right = left.terms(), right.terms()
        terms += sum(map(bool, left.values()))
        mismatch = mismatch or _mismatch(first_diff(left, right), left_name,
                                         right_name, what)
    return _result(identity, order, terms, mismatch)


def _check_superdenominator_sl(args):
    rs, order = _type_a(args), args.order
    return _compare(f"superdenominator-sl n={args.n}", order,
                    ("product", superden.sl_product(rs, order).terms,
                     "sum", superden.sl_sum(rs, order).terms))


def _check_superdenominator_sp(args):
    rs, order = _type_c(args), args.order
    return _compare(f"superdenominator-sp n={args.n}", order,
                    ("product", superden.spo_product(rs, order).terms,
                     "sum", superden.spo_sum(rs, order).terms))


def _check_tower_fock(args):
    rs, s, order = _type_a(args), args.s, args.order
    oracle = fock.charge_sector_character(rs, s, order)
    ch = character_from_numerator(fm.numerator("sl-first", rs, order, s))
    return _compare(f"tower-fock n={args.n} s={s}", order,
                    ("lattice", ch, "free-field", oracle))


def _check_flip_symmetry(args):
    rs, s, order = _type_a(args), args.s, args.order
    first = fm.numerator("sl-first", rs, order, s)
    last = fm.numerator("sl-last", rs, order, s)
    return _compare(f"flip-symmetry n={args.n} s={s}", order,
                    ("first", first, "flipped last", fm.diagram_flip(last)))


def _check_sl2_closed(args):
    s, order = args.s, args.order
    _need(order >= s + 2, f"needs order >= s+2 = {s + 2} to see the "
          "first deviation")
    rs = _algebra("A", 1)
    closed = fm.numerator("sl2-closed", rs, order, s)
    lattice = fm.numerator("sl-first", rs, order, s)  # its half-lattice sum
    d, mism = first_diff(closed.terms(), lattice.terms()), None
    if d is None:
        mism = f"no deviation up to order {order}"
    elif d[0][0] <= s + 1:
        mism = _mismatch(d, "closed", "lattice")
    elif d[0][0] > s + 2:
        mism = f"first deviation at q^{d[0][0]}, wanted q^{s + 2}"
    return _result(f"sl2-closed s={s} (agree to q^{s + 1}, "
                   f"deviate at q^{s + 2})", order, len(lattice), mism)


def _check_tower_assembly(args):
    """Rebuild the superdenominator cone series from the tower members.

    Every cone monomial belongs to exactly one charge s = k_0 - k_n; the
    members with |s| <= smax must reproduce the product side filtered to
    that charge band.  A charge-s member lies at cone height |s| or more,
    so members past the order add nothing and are not built.
    """
    rs, order, smax = _type_a(args), args.order, args.smax
    got: dict[tuple[int, ...], int] = {}
    for s in range(-min(smax, order), min(smax, order) + 1):
        num = fm.numerator("sl-first" if s > 0 else "sl-last", rs, order,
                           abs(s))
        for (m, *off), c in num.terms().items():
            key = (m + max(s, 0), *(m - o for o in off), m - min(s, 0))
            if any(k < 0 for k in key):
                raise AssertionError(f"charge term outside the cone: {key}")
            if sum(key) <= order:
                got[key] = got.get(key, 0) + c
    want = {exps: c for exps, c in superden.sl_product(rs, order).terms.items()
            if abs(exps[0] - exps[-1]) <= smax}
    return _compare(f"tower-assembly n={args.n} |s|<={smax}", order,
                    ("tower", got, "product", want))


def _check_sector_restriction(args):
    """The folded free-field sector times the denominator against the
    half-lattice numerator of sp-a."""
    npr, s, order = _half_n(args), args.s, args.order
    _need(s >= 1, "sector restriction needs s >= 1")
    rs = _algebra("C", npr)
    sector = fock.charge_sector_character(rs, s, order)  # budget refuses here
    lhs = sector.mul_slices(denominator_slices(rs, order))
    rhs = fm.numerator("sp-a", rs, order, s)
    return _compare(f"sector-restriction n={args.n} s={s}", order,
                    ("product", lhs, "sum", rhs))


def _check_flip_decomposition(args):
    """The two flip eigenspaces of the charge-zero sector against the
    two-summand combinations of the split characters and the rank-one
    oscillator halves, one eigenvalue at a time."""
    rs, order = _type_c(args), args.order
    f0p, f0m = fock.charge_zero_split(rs, order)
    vp, vm = fock.oscillator_split(order)
    chb, chc = fm.sp_split_characters(rs, order)
    return _compare(f"flip-decomposition n={args.n}", order,
                    ("split (+1)", chb.mul_qpoly(vp) + chc.mul_qpoly(vm),
                     "free-field (+1)", f0p),
                    ("split (-1)", chb.mul_qpoly(vm) + chc.mul_qpoly(vp),
                     "free-field (-1)", f0m))


def _check_twisted_denominator(args):
    """The twist product times the denominator against the even-parity
    lattice sum at the vacuum weight."""
    rs, order = _type_c(args), args.order
    den = denominator_slices(rs, order)
    lhs = fm.sp_twist_product_character(rs, order).mul_slices(den)
    rhs = fm.parity_bracket(rs, lambda j: sum(j) % 2 == 0, order)
    return _compare(f"twisted-denominator n={args.n}", order,
                    ("product", lhs, "sum", rhs))


def _check_parity_vs_split(args):
    npr, order = _half_n(args), args.order
    _need(order >= 1, "needs order >= 1 for the shifted member")
    rs = _algebra("C", npr)
    chb, shifted = fm.sp_split_characters(rs, order)
    chc = fm.sp_c_character(shifted)
    num_a = fm.numerator("sp-parity-a", rs, order)
    num_b = fm.numerator("sp-parity-b", rs, chc.qmax)
    return _compare(f"parity-vs-split n={args.n}", order,
                    ("vacuum parity sum", character_from_numerator(num_a),
                     "split", chb),
                    ("shifted parity sum", character_from_numerator(num_b),
                     "split", chc))


def _check_parity_bracket(args):
    """[j1 >= 0, sum odd] against -[j1 < 0, sum even]."""
    rs, order = _type_c(args), args.order
    odd = fm.parity_bracket(
        rs, lambda j: j[0] >= 0 and sum(j) % 2 == 1, order)
    even = fm.parity_bracket(
        rs, lambda j: j[0] < 0 and sum(j) % 2 == 0, order)
    return _compare(f"parity-bracket n={args.n}", order,
                    ("odd bracket", odd, "negated even bracket", -even))


def _parse_omega(text: str, npr: int):
    pts = []
    for part in text.split(";"):
        try:
            js = tuple(int(x) for x in part.split(","))
        except ValueError:
            raise UsageError(
                f"--omega expects window points j1,j2;... with {npr} "
                f"integers per point, not {text!r}") from None
        _need(len(js) == npr, f"each window point needs {npr} coordinates")
        _need(js not in pts, f"--omega names the window point {js} twice")
        pts.append(js)
    return pts


def _check_window_negation(args):
    """Finite window sums: [Omega] against -[Omega'], j1 -> -j1-1."""
    npr, order = _half_n(args), args.order
    omega = _parse_omega(args.omega, npr)
    rs = _algebra("C", npr)
    window = set(omega)
    mirror = {(-j[0] - 1, *j[1:]) for j in omega}
    a = fm.parity_bracket(rs, lambda j: j in window, order)
    b = fm.parity_bracket(rs, lambda j: j in mirror, order)
    return _compare(f"window-negation n={args.n} omega={omega}", order,
                    ("window", a, "negated mirror window", -b))


def _check_deligne_positivity(args):
    ch = character_from_numerator(_numerator("deligne", args))
    rs, terms = ch.rs, ch.terms()
    top = (0,) * (1 + rs.rank)
    if terms.get(top, 0) != 1:
        d = (top, terms.get(top, 0), 1)
    else:
        d = next(((k, c, ">= 0") for k, c in sorted(terms.items()) if c < 0),
                 None)
    return _result(f"deligne-positivity {rs.family}{rs.rank} "
                   f"{tuple(args.weight)}", args.order,
                   len(ch), _mismatch(d, "multiplicity", "wanted"))


def _check_qdim_two_path(args):
    num = _numerator("deligne", args)
    rs, lam, order = num.rs, num.base, args.order
    ch = character_from_numerator(num)
    alpha = fm.check_deligne_conditions(rs, lam)["alpha"]
    direct = fm.q_dimension_sum(
        rs, lam, coroot_lattice_basis(rs), order,
        coeff_fn=fm.screened_coefficient(alpha), halve=True)
    dim_g = rs.rank + 2 * len(rs.positive_roots)
    via_char = qpoly_mul(phi_power_qpoly(dim_g, order),
                         dict(enumerate(ch.q_series())), order)
    return _compare(f"qdim-two-path {rs.family}{rs.rank}", order,
                    ("specialization", via_char, "direct sum",
                     dict(enumerate(direct))), what="q-power")


# the options of the two checks on a screened weight, the D4 vacuum by default
_SCREENED = {"type": "D", "rank": 4, "weight": lambda a: [-1] + [0] * a.rank,
             "order": 2}

# check -> (function, {option it reads: default}); verify refuses an option
# that none of the named checks reads, and hands each check a namespace of
# its options alone, filled in with the defaults in order, where a callable
# default is computed from the options before it
CHECKS = {
    "superdenominator-sl": (_check_superdenominator_sl, {"n": 3, "order": 12}),
    "superdenominator-sp": (_check_superdenominator_sp, {"n": 4, "order": 8}),
    "tower-fock": (_check_tower_fock, {"n": 3, "s": 0, "order": 4}),
    "flip-symmetry": (_check_flip_symmetry, {"n": 3, "s": 1, "order": 4}),
    "sl2-closed": (_check_sl2_closed, {"s": 0, "order": lambda a: a.s + 3}),
    "tower-assembly": (_check_tower_assembly,
                       {"n": 3, "order": 6, "smax": 2}),
    "sector-restriction": (_check_sector_restriction,
                           {"n": 4, "s": 1, "order": 3}),
    "flip-decomposition": (_check_flip_decomposition, {"n": 4, "order": 3}),
    "twisted-denominator": (_check_twisted_denominator,
                            {"n": 4, "order": 5}),
    "parity-vs-split": (_check_parity_vs_split, {"n": 4, "order": 4}),
    "parity-bracket": (_check_parity_bracket, {"n": 4, "order": 4}),
    "window-negation": (_check_window_negation,
                        {"n": 4, "order": 4, "omega": "0,0"}),
    "deligne-positivity": (_check_deligne_positivity, _SCREENED),
    "qdim-two-path": (_check_qdim_two_path, _SCREENED),
}


# the floor of each integer option of verify, the one place it is checked
FLOORS = {"n": 3, "s": 0, "smax": 0, "order": 0}


def _check_args(args, reads: dict) -> argparse.Namespace:
    ns = argparse.Namespace()
    for opt, default in reads.items():
        val = getattr(args, opt)
        if val is None:
            val = default(ns) if callable(default) else default
        if opt in FLOORS:
            _need(val >= FLOORS[opt], f"needs {opt} >= {FLOORS[opt]}")
        setattr(ns, opt, val)
    return ns


# -- subcommand drivers ----------------------------------------------------


def cmd_compute(args) -> int:
    num = _numerator(args.formula, args)
    ch = (character_from_numerator(num) if args.character
          else num.require_nonnegative())
    doc = _series_doc(ch)
    terms = doc["terms"]

    def pretty():
        yield (f"base: finite {tuple(doc['base'])}, level {doc['level']}, "
               f"delta {doc['delta']}")
        yield f"order {doc['order']}, {len(terms)} terms"
        yield "legend: q = e^(-delta), x_i = e^(alpha_i) offset from the base"
        for t in terms:
            m, *off = t["exps"]
            mono = [f"q^{m}"] if m else []
            mono += [f"x{i + 1}^{o}" for i, o in enumerate(off) if o]
            yield f"{t['coeff']:>14}  " + (" ".join(mono) or "1")

    _render(args.format, doc,
            [*(f"k{i}" for i in range(1 + ch.rs.rank)), "coeff"],
            ([*t["exps"], t["coeff"]] for t in terms), pretty)
    return 0


def cmd_qdim(args) -> int:
    ch = character_from_numerator(_numerator(args.formula, args))
    series = ch.q_series()

    def pretty():
        parts = [f"{v}" + ("" if m == 0 else " q" if m == 1 else f" q^{m}")
                 for m, v in enumerate(series) if v]
        return [" + ".join(parts) or "0"]

    _render(args.format, _doc(ch, qdim=[str(v) for v in series]),
            ["m", "dim"], enumerate(series), pretty)
    return 0


def cmd_verify(args) -> int:
    names = list(CHECKS) if args.checks == ["all"] else args.checks
    for name in names:
        _need(name in CHECKS, f"unknown check {name}; known: "
              + ", ".join(CHECKS))
    for opt in dict.fromkeys(o for _, reads in CHECKS.values() for o in reads):
        readers = [c for c, (_, reads) in CHECKS.items() if opt in reads]
        _need(getattr(args, opt) is None or not set(names).isdisjoint(readers),
              f"--{opt.replace('_', '-')} is read by none of the named checks;"
              " it is read by " + ", ".join(readers))
    todo = [(CHECKS[name][0], _check_args(args, CHECKS[name][1]))
            for name in names]
    results = []
    for fn, ns in todo:
        t0 = time.perf_counter()
        r = fn(ns)
        r["seconds"] = f"{time.perf_counter() - t0:.3f}"
        results.append(r)
    ok = all(r["ok"] for r in results)
    flag = {True: "pass", False: "FAIL"}

    def pretty():
        for r in results:
            yield (f"{flag[r['ok']]}  {r['identity']}  order {r['order']}"
                   f"  terms {r['terms']}  {r['seconds']}s")
            if r["mismatch"]:
                yield f"      first mismatch: {r['mismatch']}"

    _render(args.format, {"ok": ok, "checks": results},
            ["identity", "order", "terms", "seconds", "ok", "mismatch"],
            ([r["identity"], r["order"], r["terms"], r["seconds"],
              flag[r["ok"]], r["mismatch"] or ""] for r in results), pretty)
    return 0 if ok else 1


def cmd_list_deligne(args) -> int:
    fam = args.type.upper()
    _need(fam in ("D", "E"), "the screening list covers types D and E")
    rs = root_system(fam, args.rank)
    _need(args.level < 0, "level must be a negative integer")
    window = args.window if args.window is not None else -args.level
    _need(window >= 0, "window must be >= 0")
    found = fm.deligne_enumerate(rs, args.level, window)
    doc = {"family": fam, "rank": rs.rank, "level": args.level,
           "window": window, "count": len(found),
           "weights": [{"coeffs": list(co), "alpha": list(al)}
                       for co, al in found]}

    def pretty():
        yield (f"{fam}{rs.rank} level {args.level}, node window 0..{window}:"
               f" {len(found)} weights")
        for co, al in found:
            yield f"  {co}  orthogonal root {al}"

    _render(args.format, doc,
            [*(f"m{i}" for i in range(rs.rank + 1)),
             *(f"a{i + 1}" for i in range(rs.rank))],
            ([*co, *al] for co, al in found), pretty)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    par = argparse.ArgumentParser(
        prog="affinechar",
        description="Exact characters of negative-level modules over "
                    "affine Lie algebras.")
    sub = par.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv", "pretty"),
                        default="json")

    wspec = argparse.ArgumentParser(add_help=False)
    wspec.add_argument("--type", required=True,
                       help="family letter: A, C, D or E")
    wspec.add_argument("--rank", type=int, required=True)
    wspec.add_argument("--weight", type=int, nargs="+", default=None,
                       metavar="M", help="node coefficients m0 .. ml")
    wspec.add_argument("--s", type=int, default=None,
                       help="tower parameter; shorthand for the weight")
    wspec.add_argument("--order", type=int, default=3,
                       help="truncation order in the series' own grading")

    pc = sub.add_parser("compute", parents=[common, wspec],
                        help="compute one formula at one weight")
    pc.add_argument("--formula", required=True, choices=fm.FORMULAS)
    pc.add_argument("--character", action="store_true",
                    help="emit the character instead of the numerator")
    pc.set_defaults(fn=cmd_compute)

    pq = sub.add_parser("qdim", parents=[common, wspec],
                        help="graded dimension series of a character")
    pq.add_argument("--formula", required=True, choices=fm.FORMULAS)
    pq.set_defaults(fn=cmd_qdim)

    pv = sub.add_parser("verify", parents=[common],
                        help="run named identity checks")
    pv.add_argument("checks", nargs="+", metavar="CHECK",
                    help="check names, or 'all'; known: " + ", ".join(CHECKS))
    pv.add_argument("--n", type=int, default=None,
                    help="colour count of the free-field frame")
    pv.add_argument("--s", type=int, default=None)
    pv.add_argument("--smax", type=int, default=None)
    pv.add_argument("--order", type=int, default=None)
    pv.add_argument("--omega", default=None,
                    help="window points, e.g. '0,0;1,2'")
    pv.add_argument("--type", default=None)
    pv.add_argument("--rank", type=int, default=None)
    pv.add_argument("--weight", type=int, nargs="+", default=None)
    pv.set_defaults(fn=cmd_verify)

    pl = sub.add_parser("list-deligne", parents=[common],
                        help="screen a window of weights for the "
                             "orthogonal-root setup")
    pl.add_argument("--type", required=True)
    pl.add_argument("--rank", type=int, required=True)
    pl.add_argument("--level", type=int, required=True)
    pl.add_argument("--window", type=int, default=None,
                    help="node coefficient bound; defaults to |level|")
    pl.set_defaults(fn=cmd_list_deligne)
    return par


def main(argv=None) -> int:
    par = _build_parser()
    args = par.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError, ArithmeticError, WeylSizeError,
            fock.BudgetError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2
    except AssertionError as e:
        sys.stderr.write(f"internal error: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
