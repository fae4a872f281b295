"""Character formulas for negative-level highest weight modules.

Numerators and characters are both CharSlices relative to the module's own
top weight.  A numerator carries the shifted denominator normalization of
lattice.py: dividing it by the sliced denominator yields the weight
multiplicities of L(Lambda).  All coefficients are exact integers.

Every formula is one row of FORMULAS and numerator() is its one entry
point.  The half-lattice numerators weigh each translation gamma 1 or 0 by
its pairing with a chosen fundamental weight; the parity-restricted ones by
integer coordinates of gamma on the doubled-orthogonal basis; the screened
one by a linear coefficient.  The split forms of the type C vacuum stay
here as the independent side of the checks on the parity sums.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul

from .lattice import alt_weyl_raw, dominant_numerator
from .rootdata import RootSystem
from .series import (
    AffineWeight,
    CharSlices,
    SliceError,
    character_from_numerator,
    factor_product,
    phi_power_qpoly,  # unused here; bench/tests calls fm.phi_power_qpoly
    weight_from_coeffs,
)


def _orth_coords(x) -> tuple[int, ...]:
    """Integer coordinates j_k of gamma on the doubled orthogonal basis,
    from its coroot coordinates x.

    j_k is the pairing of gamma with eps_k; on type C, omega_k = eps_1 +
    ... + eps_k pairs with gamma to x_k, so j_k = x_k - x_{k-1}, and these
    are exactly the integers with gamma = sum_k j_k (2 eps_k).
    """
    return tuple(b - a for a, b in zip((0,) + tuple(x), x))


# -- integrable weights --------------------------------------------------


def integrable_numerator(rs: RootSystem, lam, qmax: int) -> CharSlices:
    """Full-lattice alternating numerator for a dominant integral weight."""
    m0 = lam.level - sum(map(mul, lam.finite, rs.comarks))
    coeffs = (m0,) + tuple(lam.finite)
    for c in coeffs:
        if c.denominator != 1 or c < 0:
            raise ValueError("weight is not dominant integral: "
                             f"({', '.join(map(str, coeffs))})")
    return alt_weyl_raw(rs, lam, qmax)


# -- the level -1 towers -------------------------------------------------


def diagram_flip(num: CharSlices) -> CharSlices:
    """Image under the order-2 diagram symmetry: reverse every offset."""
    lam = num.base
    flipped = AffineWeight(lam.finite[::-1], lam.level, lam.delta)
    return CharSlices(num.rs, flipped, num.qmax, {
        m: {off[::-1]: c for off, c in b.items()}
        for m, b in num.slices.items()
    })


def sl2_closed_numerator(rs: RootSystem, lam, qmax: int) -> CharSlices:
    """Two-term closed numerator for the rank-1 tower member; it is the
    half-lattice sum of sl-first through q^{s+1} and no further."""
    s = lam.finite[0]
    return CharSlices(rs, lam, qmax, {0: {(0,): 1, (-(s + 1),): -1}})


# -- the C-family split forms -------------------------------------------


def sp_twist_product_character(rs: RootSystem, qmax: int) -> CharSlices:
    """The closed product side of the twisted denominator identity,
    relative to the level -1 vacuum weight: the product over odd k of
    (1 - q^k)^{-1}, which is phi(q^2)/phi(q), and of (1 - e^{+-a} q^k)^{-1}
    for each long root a."""
    lam = weight_from_coeffs(rs, _vacuum(rs.rank, None))
    offs = [(0,) * rs.rank] + [x for a in rs.positive_roots if a.norm == 2
                               for x in (a.root_coords,
                                         tuple(-c for c in a.root_coords))]
    return CharSlices(rs, lam, qmax, factor_product(
        rs.rank, qmax, ((k, x, True) for x in offs
                        for k in range(1, qmax + 1, 2))))


def sp_split_characters(rs: RootSystem, qmax: int):
    """From one lattice-sum character ca at the level -1 vacuum of the type
    C rs and one twist product m: (ca + m)/2, the vacuum character, and
    (ca - m)/2, the partner character times q, still written relative to the
    vacuum weight.  ca is the sp-a sum at s = 0, the s that sp-a leaves to
    these forms."""
    ca = character_from_numerator(numerator("sp-a", rs, qmax, s=0))
    m = sp_twist_product_character(rs, qmax)
    return (ca + m).halve(), (ca - m).halve()


def sp_c_character(shifted: CharSlices) -> CharSlices:
    """Character of the level -1 module with top on the second node, from
    the second split form: one q-power down, based at its own top."""
    rs = shifted.rs
    lam2 = weight_from_coeffs(rs, _second(rs.rank, None))
    off2 = tuple(int(c) for c in rs.fund_to_root(lam2.finite))
    return shifted.rebase(lam2, 1, off2)


# -- parity-restricted half sums -----------------------------------------


def parity_bracket(rs: RootSystem, keep_j, qmax: int) -> CharSlices:
    """Alternating sum over translations whose j-coordinates pass keep_j,
    taken at the level -1 vacuum of the type C rs."""
    lam = weight_from_coeffs(rs, _vacuum(rs.rank, None))
    return _cut(lambda x: keep_j(_orth_coords(x)))(rs, lam, qmax)


# -- linear-coefficient numerators ---------------------------------------


def check_deligne_conditions(rs: RootSystem, lam) -> dict:
    """Screen a negative-level weight for the unique orthogonal root setup.

    Needs: nonnegative integer pairings with the simple roots; exactly one
    positive real affine root orthogonal to the shifted weight, and that
    root at delta-depth one.  The scan is complete: orthogonality fixes the
    depth m = (pairing)/(shifted level) per finite root, no truncation.
    """
    failures = []
    k = lam.level
    if k.denominator != 1 or k >= 0:
        failures.append(f"level {k} is not a negative integer")
    if rs.family not in ("A", "D", "E"):
        failures.append(f"family {rs.family} is not simply laced")
    for i, mc in enumerate(lam.finite):
        if mc.denominator != 1 or mc < 0:
            failures.append(
                f"pairing {mc} with simple root {i + 1} is not in Z>=0")
    if failures:
        return {"ok": False, "alpha": None, "witnesses": [],
                "failures": failures}
    c = k + rs.dual_coxeter
    if c <= 0:
        return {"ok": False, "alpha": None, "witnesses": [],
                "failures": [f"shifted level {c} is not positive"]}
    # simply laced: (a_i|lam+rho) is the i-th fundamental coordinate
    lam_rho = tuple(f + 1 for f in lam.finite)
    witnesses = []
    for a in rs.positive_roots:
        m, rem = divmod(sum(map(mul, a.root_coords, lam_rho)), c)
        if rem == 0 and m >= 1:
            witnesses.append((a, m))
    ok = len(witnesses) == 1 and witnesses[0][1] == 1
    if not ok:
        if not witnesses:
            failures.append("no positive root pairs to the shifted level")
        else:
            failures.append(
                "orthogonal roots not unique at depth one: "
                + ", ".join(f"{a.root_coords}@depth{m}"
                            for a, m in witnesses))
    return {
        "ok": ok,
        "alpha": witnesses[0][0] if ok else None,
        "witnesses": witnesses,
        "failures": failures,
    }


def screened_coefficient(alpha):
    """The linear coefficient gamma -> (gamma|alpha)+1 of the screened root;
    the algebra is simply laced, so (a_i|gamma) is gamma's i-th fundamental
    coordinate."""
    rc = alpha.root_coords
    return lambda gf, x: sum(map(mul, rc, gf)) + 1


def deligne_numerator(rs: RootSystem, lam, qmax: int) -> CharSlices:
    """Numerator with linear coefficients (gamma|alpha)+1, halved exactly."""
    cond = check_deligne_conditions(rs, lam)
    if not cond["ok"]:
        raise ValueError("weight fails the screening: "
                         + "; ".join(cond["failures"]))
    num = alt_weyl_raw(rs, lam, qmax,
                       coeff_fn=screened_coefficient(cond["alpha"]))
    return num.halve()


# the most weights one screening scan may visit: one weight takes tens of
# microseconds to screen, so a scan at the limit takes about a minute
SCREEN_LIMIT = 10**6


def deligne_enumerate(rs: RootSystem, k: int, mmax: int):
    """Level-k weights with node coefficients in [0, mmax] that pass the
    screening; returns (coeffs, alpha root coords) pairs.

    The window mmax = |k| keeps the scan tied to the level; wider windows
    turn up further weights with the same three properties.  A window of
    more than SCREEN_LIMIT weights is refused before the scan.
    """
    c = k + rs.dual_coxeter
    if c <= 0:
        raise ValueError("shifted level must be positive")
    size = (mmax + 1) ** rs.rank
    if size > SCREEN_LIMIT:
        raise ValueError(f"window 0..{mmax} on {rs.family}{rs.rank} holds "
                         f"{size} weights, more than {SCREEN_LIMIT}")
    out = []
    for fin in itertools.product(range(mmax + 1), repeat=rs.rank):
        m0 = k - sum(f * cm for f, cm in zip(fin, rs.comarks))
        lam = weight_from_coeffs(rs, (m0,) + fin)
        res = check_deligne_conditions(rs, lam)
        if res["ok"]:
            out.append(((m0,) + fin, res["alpha"].root_coords))
    return out


# -- the formula table ---------------------------------------------------


# the top weights of the rows, node coefficients from (rank, s)
def _first(rank: int, s) -> tuple:
    return (-(1 + s), s) + (0,) * (rank - 1)


def _last(rank: int, s) -> tuple:
    return (-(1 + s),) + (0,) * (rank - 1) + (s,)


def _vacuum(rank: int, s) -> tuple:
    return (-1,) + (0,) * rank


def _second(rank: int, s) -> tuple:
    return (-2, 0, 1) + (0,) * (rank - 2)


def _cut(keep):
    """The numerator that weighs each translation gamma 1 or 0 by whether
    its coroot coordinates x pass keep."""
    return lambda rs, lam, qmax: alt_weyl_raw(
        rs, lam, qmax, lambda gf, x: int(keep(x)))


# the translations of sp-parity-a and sp-parity-b: j_1 >= 0, or j_2 >= 0,
# and an even sum of the j-coordinates
_SP_VACUUM = (("C",), 2, None, _vacuum, _cut(
    lambda x: (j := _orth_coords(x))[0] >= 0 and sum(j) % 2 == 0))
_SP_SECOND = (("C",), 2, None, _second, _cut(
    lambda x: (j := _orth_coords(x))[1] >= 0 and sum(j) % 2 == 0))

# formula -> (the (type, rank) it lives on, cut to what is fixed; the least
# rank; the least s, None where it does not read s; the node coefficients of
# its top weight from (rank, s), None where the weight is given; its
# numerator from (rs, lam, qmax)).  A half-lattice cut x_node >= 0 is the
# pairing (gamma|Lambda_node) >= 0.  sp-b and sp-c are their parity sums.
# A named numerator is looked up at call time, so a rebinding of its module
# name reaches the row.
FORMULAS = {
    "integrable": ((), 1, None, None, lambda *a: integrable_numerator(*a)),
    "sl-first": (("A",), 2, 0, _first, _cut(lambda x: x[0] >= 0)),
    "sl-last": (("A",), 2, 0, _last, _cut(lambda x: x[-1] >= 0)),
    "sl2-closed": (("A", 1), 1, 0, _first, sl2_closed_numerator),
    "sp-a": (("C",), 2, 1, _first, _cut(lambda x: x[0] >= 0)),
    "sp-b": _SP_VACUUM,
    "sp-c": _SP_SECOND,
    "sp-parity-a": _SP_VACUUM,
    "sp-parity-b": _SP_SECOND,
    "deligne": ((), 1, None, None, lambda *a: deligne_numerator(*a)),
}


def numerator(f: str, rs: RootSystem, qmax: int, s=None,
              weight=None) -> CharSlices:
    """The numerator of formula f on rs at the top weight its row gives for
    s, or at the node coefficients weight where the row takes a weight.
    The row's least rank and least s are the caller's to hold."""
    top, build = FORMULAS[f][3:]
    lam = weight_from_coeffs(rs, weight if top is None else top(rs.rank, s))
    return build(rs, lam, qmax)


# -- one-variable specializations ----------------------------------------


def q_dimension_sum(rs: RootSystem, lam, basis, qmax: int,
                    coeff_fn=None, halve: bool = False):
    """Graded dimensions via the finite dimension-formula expression.

    Returns the coefficient list of phi(q)^{dim g} * (graded dim), computed
    from the lattice sum alone: the full Weyl sum collapses against the
    finite denominator, leaving one signed dimension value per dominant
    weight of the numerator.  Negative q-powers must cancel, or SliceError.
    """
    _, num = dominant_numerator(rs, lam, basis, qmax, coeff_fn)
    by_drop = {m: sum(c * rs.weyl_dim([x - 1 for x in mu])
                      for mu, c in b.items()) for m, b in num.items()}
    for m, d in sorted(by_drop.items()):
        if m < 0 and d:
            raise SliceError(f"uncancelled dimension {d} at "
                             f"negative q-power {m}")
    acc = [by_drop.get(m, Fraction(0)) / (2 if halve else 1)
           for m in range(qmax + 1)]
    for a in acc:
        if a.denominator != 1:
            raise ArithmeticError(f"non-integral graded dimension {a}")
    return [int(a) for a in acc]
