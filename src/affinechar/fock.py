"""Charge sectors of a free-field space built from n boson pairs.

Each of n colours carries a family of raising modes phi(i, -k) and a dual
family phistar(i, -k), k in 1/2 + Z>=0, all bosonic: any mode may appear
with any multiplicity.  A basis state is a pair of mode multisets.  Charge
counts phi factors minus phistar factors; colour i contributes +eps_i per
phi factor and -eps_i per phistar factor to the weight.  Energies are kept
doubled (e2 = sum of odd integers 2k) so the bookkeeping stays in integers.
"""

from __future__ import annotations

import itertools

from .rootdata import RootSystem
from .series import (
    CharSlices,
    phi_slices,
    qpoly_invert,
    qpoly_mul,
    weight_from_coeffs,
)


class BudgetError(RuntimeError):
    pass


def _mode_multisets(n: int, count: int, e2budget: int):
    # yields tuples of (colour, k2), nondecreasing in (k2, colour)
    def rec(count, budget, min_k2, min_colour):
        if count == 0:
            yield ()
            return
        k2 = min_k2
        first = True
        while k2 * count <= budget:
            cstart = min_colour if first else 1
            for colour in range(cstart, n + 1):
                for rest in rec(count - 1, budget - k2, k2, colour):
                    yield ((colour, k2),) + rest
            k2 += 2
            first = False

    yield from rec(count, e2budget, 1, 1)


def fock_states(n: int, s: int, e2max: int, budget: int = 10_000_000):
    """All charge-s basis states with doubled energy at most e2max."""
    out = []
    for t in range(max(0, -s), (e2max - s) // 2 + 1):
        r = t + s
        for cre in _mode_multisets(n, r, e2max - t):
            e_cre = sum(k2 for _, k2 in cre)
            for ann in _mode_multisets(n, t, e2max - e_cre):
                out.append((tuple(sorted(cre)), tuple(sorted(ann))))
                if len(out) > budget:
                    raise BudgetError("state enumeration over budget")
    return out


def state_energy2(state) -> int:
    cre, ann = state
    return sum(k2 for _, k2 in cre) + sum(k2 for _, k2 in ann)


def state_weight(n: int, state) -> tuple[int, ...]:
    cre, ann = state
    c = [0] * n
    for colour, _ in cre:
        c[colour - 1] += 1
    for colour, _ in ann:
        c[colour - 1] -= 1
    return tuple(c)


def charge_energy_table(n: int, e2max: int) -> dict[tuple[int, int], int]:
    """{(charge, e2): dim} of the whole space, from its product form.

    Expands prod over colours and odd k2 of the two geometric factors, one
    raising charge and one lowering it, by in-place ascending energy passes.
    Independent of the state enumeration; used to cross-check it.
    """
    tbl = {(0, 0): 1}
    k2 = 1
    while k2 <= e2max:
        for dch in (1, -1):
            for _ in range(n):
                for e in range(0, e2max - k2 + 1):
                    adds = [(ch, c) for (ch, ee), c in tbl.items() if ee == e]
                    for ch, c in adds:
                        key = (ch + dch, e + k2)
                        tbl[key] = tbl.get(key, 0) + c
        k2 += 2
    return tbl


def fock_gl_slices(n: int, s: int, e2max: int,
                   budget: int = 10_000_000) -> dict[int, dict[tuple[int, ...], int]]:
    """{e2: {weight: dim}} for the charge-s sector."""
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for st in fock_states(n, s, e2max, budget):
        e2 = state_energy2(st)
        c = state_weight(n, st)
        b = out.setdefault(e2, {})
        b[c] = b.get(c, 0) + 1
    return out


# -- the diagram flip on the charge-zero sector ------------------------------


def mirror_state(n: int, state):
    """Image of a charge-zero basis state under the diagram flip, with sign.

    phi(i, -k) goes to (-1)^i phistar(n+1-i, -k) and phistar(j, -l) to
    (-1)^(n+1-j) phi(n+1-j, -l); modes commute, so reordering is free.
    """
    cre, ann = state
    m = len(cre)
    if len(ann) != m:
        raise ValueError("the flip acts on charge zero")
    ncre = tuple(sorted((n + 1 - colour, k2) for colour, k2 in ann))
    nann = tuple(sorted((n + 1 - colour, k2) for colour, k2 in cre))
    tot = sum(colour for colour, _ in cre) + sum(colour for colour, _ in ann)
    sign = -1 if (tot + m * (n + 1)) % 2 else 1
    return (ncre, nann), sign


def fold_weight(n: int, c) -> tuple[int, ...]:
    """Weight in the eps coordinates of the flip-fixed subalgebra."""
    half = n // 2
    return tuple(c[j] - c[n - 1 - j] for j in range(half))


def sp_root_coords(v) -> tuple[int, ...]:
    """Root coordinates of an integral C-type eps vector; checks the parity."""
    tot = sum(v)
    if tot % 2:
        raise ValueError(f"{v} is not in the root lattice")
    out = []
    run = 0
    for x in v[:-1]:
        run += x
        out.append(run)
    out.append(tot // 2)
    return tuple(out)


def charge_zero_split(n: int, e2max: int, budget: int = 10_000_000):
    """Split the charge-zero sector by the flip eigenvalue.

    Returns (plus, minus), each {e2: {folded weight: dim}}.  The flip fixes
    every (e2, folded weight) group; fixed basis states always carry sign +1,
    so each group splits as ((dim + fixed)/2, (dim - fixed)/2).
    """
    if n % 2:
        raise ValueError("needs an even number of colours")
    full: dict[int, dict[tuple[int, ...], int]] = {}
    fixed: dict[int, dict[tuple[int, ...], int]] = {}
    for st in fock_states(n, 0, e2max, budget):
        e2 = state_energy2(st)
        v = fold_weight(n, state_weight(n, st))
        b = full.setdefault(e2, {})
        b[v] = b.get(v, 0) + 1
        img, sign = mirror_state(n, st)
        if state_energy2(img) != e2 or fold_weight(n, state_weight(n, img)) != v:
            raise AssertionError("flip image left its weight group")
        img2, sign2 = mirror_state(n, img)
        if img2 != st or sign2 != sign:
            raise AssertionError("flip is not an involution")
        if img == st:
            if sign != 1:
                raise AssertionError("fixed state with negative sign")
            f = fixed.setdefault(e2, {})
            f[v] = f.get(v, 0) + 1
    plus: dict[int, dict[tuple[int, ...], int]] = {}
    minus: dict[int, dict[tuple[int, ...], int]] = {}
    for e2, b in full.items():
        for v, d in b.items():
            fx = fixed.get(e2, {}).get(v, 0)
            if (d + fx) % 2:
                raise AssertionError("group dimension and trace disagree")
            p, q = (d + fx) // 2, (d - fx) // 2
            if p:
                plus.setdefault(e2, {})[v] = p
            if q:
                minus.setdefault(e2, {})[v] = q
    return plus, minus


def split_to_char(rs_sp: RootSystem, part: dict, qmax: int) -> CharSlices:
    """Reindex {e2: {folded weight: dim}} as slices over the C root system."""
    base = weight_from_coeffs(rs_sp, [-1] + [0] * rs_sp.rank)
    slices: dict[int, dict[tuple[int, ...], int]] = {}
    for e2, b in part.items():
        if e2 % 2:
            raise AssertionError("charge zero has integer energies")
        m = e2 // 2
        if m > qmax:
            continue
        slices[m] = {sp_root_coords(v): d for v, d in b.items()}
    return CharSlices(rs_sp, base, qmax, slices)


def charge_sector_character(rs: RootSystem, s: int, qmax: int,
                            budget: int = 10_000_000) -> CharSlices:
    """Irreducible character carried by the charge-s sector, s >= 0.

    On type A_{n-1} the frame has n colours; on type C_r it has 2r, and each
    weight is folded to the flip-fixed subalgebra.  The sector's top vector
    has weight s eps_1 and energy s/2 above the vacuum; scaling both out
    leaves integral root-coordinate offsets, and one overall oscillator
    factor phi(q) converts sector dimensions into the slices of
    ch L(-(1+s)Lambda_0 + s Lambda_1).
    """
    if rs.family == "A":
        n = rs.rank + 1

        def root_coords(c):
            return tuple(itertools.accumulate(c[:-1]))
    elif rs.family == "C":
        n = 2 * rs.rank

        def root_coords(c):
            return sp_root_coords(fold_weight(n, c))
    else:
        raise ValueError("expects an A or C root system")
    if s < 0:
        raise ValueError("charge must be nonnegative here")
    e2max = 2 * qmax + s
    slices: dict[int, dict[tuple[int, ...], int]] = {}
    for st in fock_states(n, s, e2max, budget):
        e2 = state_energy2(st)
        if (e2 - s) % 2:
            raise AssertionError("energy parity broke")
        m = (e2 - s) // 2
        if m > qmax:
            continue
        c = list(state_weight(n, st))
        c[0] -= s
        b = slices.setdefault(m, {})
        key = root_coords(c)
        b[key] = b.get(key, 0) + 1
    base = weight_from_coeffs(rs, [-(1 + s), s] + [0] * (rs.rank - 1))
    ch = CharSlices(rs, base, qmax, slices)
    return ch.mul_qpoly(phi_slices(qmax))


# -- one oscillator family under the sign flip --------------------------------


def oscillator_split(qmax: int):
    """q-series of the two sign-flip eigenspaces on one oscillator family.

    The family is C[H(-k), k >= 1] with the flip negating every H(-k); the
    graded trace of the flip is phi(q)/phi(q^2).
    """
    phi1 = phi_slices(qmax)
    inv1 = qpoly_invert(phi1, qmax)
    ratio = qpoly_mul(phi1, qpoly_invert(phi_slices(qmax, 2), qmax), qmax)
    plus: dict[int, int] = {}
    minus: dict[int, int] = {}
    for m in range(qmax + 1):
        a, b = inv1.get(m, 0), ratio.get(m, 0)
        if (a + b) % 2:
            raise AssertionError("trace parity broke")
        if a + b:
            plus[m] = (a + b) // 2
        if a - b:
            minus[m] = (a - b) // 2
    return plus, minus

