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
from operator import sub

from .rootdata import RootSystem
from .series import (
    CharSlices,
    phi_power_qpoly,
    qpoly_mul,
    weight_from_coeffs,
)


# the most basis states one enumeration may list
STATE_BUDGET = 10_000_000


class BudgetError(RuntimeError):
    pass


class Modes(tuple):
    """A mode multiset: its (colour, k2) pairs sorted, with the doubled
    energy e2 and the colour counts, computed once where it is built.  It
    equals the plain tuple of its pairs."""


def _modes(n: int, pairs) -> Modes:
    ms = Modes(sorted(pairs))
    ms.e2 = sum(k2 for _, k2 in ms)
    colours = [colour for colour, _ in ms]
    ms.counts = tuple(map(colours.count, range(1, n + 1)))
    return ms


def _mode_multisets(n: int, count: int, e2budget: int) -> list[Modes]:
    """Every multiset of `count` modes with doubled energy at most e2budget,
    each built once; listed by its pairs nondecreasing in (k2, colour).
    One shared path holds the pairs chosen so far, so a multiset costs its
    own length, not the sum of its prefixes' lengths."""
    out: list[Modes] = []
    path: list[tuple[int, int]] = []

    def rec(count, budget, k2, cstart):
        if count == 0:
            out.append(_modes(n, path))
            return
        while k2 * count <= budget:
            for colour in range(cstart, n + 1):
                path.append((colour, k2))
                rec(count - 1, budget - k2, k2, colour)
                path.pop()
            k2 += 2
            cstart = 1

    rec(count, e2budget, 1, 1)
    return out


def _sector_sizes(n: int, s: int, e2max: int) -> tuple[int, int]:
    """(states, mode entries) that fock_states(n, s, e2max) builds: the
    entries are the modes of every multiset _mode_multisets lists for it.

    a[c][x] counts the multisets of c modes at excess x = sum (k2 - 1)/2,
    a factor 1/(1 - y z^x) per colour and excess x, so a k2 = 1 mode costs
    none; a state with t lowering modes pairs one of t + s modes with one
    of t, their excesses summing to at most r = (e2max - 2t - s)/2, and
    either multiset alone has excess at most r.
    """
    ts = range(max(0, -s), (e2max - s) // 2 + 1)
    top = (e2max - abs(s)) // 2
    a = [[int(c == x == 0) for x in range(top + 1)]
         for c in range((e2max - s) // 2 + max(s, 0) + 1)]
    for d in range(top + 1):
        for _ in range(n):
            for prev, row in zip(a, a[1:]):
                for x in range(d, top + 1):
                    row[x] += prev[x - d]
    cum = [list(itertools.accumulate(row)) for row in a]
    rooms = {t: (e2max - 2 * t - s) // 2 for t in ts}
    states = sum(a[t + s][x] * cum[t][r - x] for t, r in rooms.items()
                 for x in range(r + 1))
    entries = sum((t + s) * cum[t + s][r] + t * cum[t][r]
                  for t, r in rooms.items())
    return states, entries


def fock_states(n: int, s: int, e2max: int):
    """All charge-s basis states with doubled energy at most e2max.

    A state is a pair (raising modes, lowering modes) of shared Modes; the
    lowering multisets of each count are built once, and each raising one
    takes those that fit its remaining energy.  BudgetError before any
    multiset is built if the states, or the modes of the multisets, would
    pass STATE_BUDGET; both are predicted at doubled energies 32, 64, ...
    first, and grow with the energy, so a request far over the budget is
    refused at a small bound.
    """
    e = 32
    while e < e2max and max(_sector_sizes(n, s, e)) <= STATE_BUDGET:
        e *= 2
    if max(_sector_sizes(n, s, min(e, e2max))) > STATE_BUDGET:
        raise BudgetError("state enumeration over budget")
    out = []
    for t in range(max(0, -s), (e2max - s) // 2 + 1):
        anns = _mode_multisets(n, t, e2max - t - s)
        fits: dict[int, list[Modes]] = {}
        for cre in _mode_multisets(n, t + s, e2max - t):
            lim = e2max - cre.e2
            if lim not in fits:
                fits[lim] = [ann for ann in anns if ann.e2 <= lim]
            out.extend([(cre, ann) for ann in fits[lim]])
    return out


# -- the diagram flip on the charge-zero sector ------------------------------


def _flip_modes(n: int, ms: Modes) -> Modes:
    """Image of a mode multiset under the diagram flip: colour i to n+1-i."""
    return _modes(n, [(n + 1 - colour, k2) for colour, k2 in ms])


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


def charge_zero_split(rs: RootSystem, qmax: int):
    """Split the charge-zero sector of n = 2r colours by the flip
    eigenvalue, through q^qmax, with rs = C_r the flip-fixed subalgebra.

    Returns (plus, minus), the two eigenspaces as CharSlices at the level -1
    vacuum of rs.  The flip sends phi(i, -k) to (-1)^i phistar(n+1-i, -k)
    and phistar(j, -l) to (-1)^(n+1-j) phi(n+1-j, -l); modes commute, so a
    state (cre, ann) with t modes each goes to (flip ann, flip cre) with
    sign (-1)^(colour sum + t (n+1)).  It fixes exactly the states
    (ms, flip ms), so the checks run once on every multiset a state holds:
    the fixed state (ms, flip ms) has sign +1, the image keeps the energy
    and negates the folded weight, and the flip is an involution.  The sign
    comes first, as it reads neither energy nor weight; it is the parity of
    the colour sums of ms and flip ms with t (n+1), the involution's colour
    check.  The flip then fixes every (energy, folded weight) group, so
    each group of the sector tally splits as ((dim + fixed)/2,
    (dim - fixed)/2).
    """
    n, e2max = 2 * rs.rank, 2 * qmax
    full = _sector_tally(rs, 0, qmax)
    fixed: dict[int, dict[tuple[int, ...], int]] = {}
    for t in range(qmax + 1):
        for ms in _mode_multisets(n, t, e2max - t):
            img = _flip_modes(n, ms)
            back = _flip_modes(n, img)
            colours = sum(c for c, _ in ms) + sum(c for c, _ in img)
            if back == ms and (colours + t * (n + 1)) % 2:
                raise AssertionError("fixed state with negative sign")
            w = fold_weight(n, ms.counts)
            if img.e2 != ms.e2 or fold_weight(n, img.counts) != tuple(
                    -x for x in w):
                raise AssertionError("flip image left its weight group")
            if back != ms:
                raise AssertionError("flip is not an involution")
            if ms.e2 <= qmax:
                # the fixed state (ms, flip ms): doubled energy 2 ms.e2
                off = sp_root_coords(tuple(2 * x for x in w))
                f = fixed.setdefault(ms.e2, {})
                f[off] = f.get(off, 0) + 1
    plus: dict[int, dict[tuple[int, ...], int]] = {}
    minus: dict[int, dict[tuple[int, ...], int]] = {}
    for m, b in full.items():
        for off, d in b.items():
            fx = fixed.get(m, {}).get(off, 0)
            if (d + fx) % 2:
                raise AssertionError("group dimension and trace disagree")
            p, q = (d + fx) // 2, (d - fx) // 2
            if p:
                plus.setdefault(m, {})[off] = p
            if q:
                minus.setdefault(m, {})[off] = q
    base = weight_from_coeffs(rs, [-1] + [0] * rs.rank)
    return CharSlices(rs, base, qmax, plus), CharSlices(rs, base, qmax, minus)


def _sector_tally(rs: RootSystem, s: int, qmax: int):
    """{m: {root-coordinate offset: number of states}} of the charge-s
    sector, s >= 0, at doubled energy s + 2m for m <= qmax.

    On type A_{n-1} the frame has n colours; on type C_r it has 2r, and each
    weight is folded to the flip-fixed subalgebra.  Offsets are taken from
    the sector's top vector, of weight s eps_1 and doubled energy s.  The
    only caller of fock_states.
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
    tally: dict[int, dict[tuple[int, ...], int]] = {}
    for cre, ann in fock_states(n, s, 2 * qmax + s):
        e2 = cre.e2 + ann.e2
        if (e2 - s) % 2:
            raise AssertionError("energy parity broke")
        b = tally.setdefault((e2 - s) // 2, {})
        c = tuple(map(sub, cre.counts, ann.counts))
        b[c] = b.get(c, 0) + 1
    slices: dict[int, dict[tuple[int, ...], int]] = {}
    for m, b in tally.items():
        tgt = slices[m] = {}
        for c, d in b.items():
            key = root_coords((c[0] - s, *c[1:]))
            tgt[key] = tgt.get(key, 0) + d
    return slices


def charge_sector_character(rs: RootSystem, s: int, qmax: int) -> CharSlices:
    """Irreducible character carried by the charge-s sector, s >= 0.

    The sector's top vector has weight s eps_1 and energy s/2 above the
    vacuum; scaling both out leaves the integral offsets of _sector_tally,
    and one overall oscillator factor phi(q) converts sector dimensions
    into the slices of ch L(-(1+s)Lambda_0 + s Lambda_1).
    """
    base = weight_from_coeffs(rs, [-(1 + s), s] + [0] * (rs.rank - 1))
    ch = CharSlices(rs, base, qmax, _sector_tally(rs, s, qmax))
    return ch.mul_qpoly(phi_power_qpoly(1, qmax))


# -- one oscillator family under the sign flip --------------------------------


def oscillator_split(qmax: int):
    """q-series of the two sign-flip eigenspaces on one oscillator family.

    The family is C[H(-k), k >= 1] with the flip negating every H(-k); the
    graded trace of the flip is phi(q)/phi(q^2).
    """
    inv1 = phi_power_qpoly(-1, qmax)
    ratio = qpoly_mul(phi_power_qpoly(1, qmax), phi_power_qpoly(-1, qmax, 2),
                      qmax)
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

