"""Slow reference paths, kept only for the tests to compare against.

First is the matrix model of the finite Weyl group the library kept
before it reflected integer vectors, with |W| as Kostant's product over
the exponents, which the library took from the positive roots before it
read |W| from the Dynkin type: every element as an integer matrix
found by breadth-first search, an integer matrix per simple reflection,
its action on fundamental coordinates in Fractions, and the invariance
probe that mapped each slice through those matrices, next to
the integer invariance probe, the JSON reader of CharSlices and the
truncation the library kept as CharSlices.restrict before sl2-closed read
one first differing term, which only the tests call, together with the
finite Weyl denominator taken from Weyl's denominator formula.
The next group is the code the library ran before the dominant-chamber
orbit walk and the integer drop: a loop over the matrices of W
for every orbit, the `Fraction` ellipsoid enumeration with its exact
floor(x + sqrt(r2)), the integer scan of the ellipsoid's whole bounding
box that the library ran before it fixed one coordinate at a time,
`Fraction` sums for every lattice point, the translation t_gamma of an
affine weight (whose group law the property suites check), the
`Fraction` pairings the formula predicates, the screened coefficient and
the screening took before they read coroot coordinates, the per-point
loops of alt_weyl_raw (a whole orbit per point) and q_dimension_sum (a
Weyl dimension per point) before both read one dominant-chamber
numerator, the affine denominator as one cone series, and the two-branch
superdenominator sum that builds every orbit term before it truncates by
height.  The second group expands free-field spaces from their
product forms, against the library's state enumeration; next to it are the
per-state enumeration and helpers the library ran before it worked per mode
multiset, and the state-count table by doubled energy it filled before it
counted by excess.  Last come the products the library ran before one
factor_product served them all: the slice product on tuple keys, before
packed ints; the cone product through its own packed store, one method
call per factor; factor_product itself on tuple keys; phi(q)^exponent as
repeated q-series products; and the q-series inverse that phi(q)^{-1}
took before phi_power_qpoly read negative exponents.
Ahead of them all stand two helpers of the Fraction paths: `_scaled`, the
common denominator the library took of every weight before weights were
ints, and `root_lattice_basis`, the simple roots the type A sums took.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from itertools import accumulate
from itertools import product as iproduct
from math import floor, isqrt, lcm
from operator import add, mul, sub

from affinechar.fock import fock_states
from affinechar.lattice import _orbit_sum, lattice_points_below
from affinechar.rootdata import coroot_lattice_basis, int_inverse, root_system
from affinechar.series import (
    AffineWeight,
    CharSlices,
    ExpSeries,
    OffsetPacking,
    SliceError,
    _mul_geometric,
    _mul_two_term,
    _root_string,
    cone_product,
    qpoly_mul,
)

def _scaled(xs) -> tuple[list[int], int]:
    """Integers n_i and one d > 0 with xs_i = n_i / d (ints or Fractions):
    the common denominator the library took of every weight before its
    root data and weights were ints."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def root_lattice_basis(rs) -> list[tuple[int, ...]]:
    """The simple roots in fundamental coordinates: the columns of the
    Cartan matrix.  The library's type A sums took this basis; there it is
    the coroot basis."""
    return [tuple(col) for col in zip(*rs.cartan)]


# matrix: integer rows acting on fundamental coordinates; sign: det
WeylElement = namedtuple("WeylElement", "matrix sign")


def matrix_weyl_group(rs) -> list[WeylElement]:
    """W as integer matrices on fundamental coordinates, breadth-first from
    the identity; cached per type, since E6 has 51,840 of them."""
    return _matrix_group(rs.family, rs.rank)


@cache
def _matrix_group(family: str, rank: int) -> list[WeylElement]:
    cartan, l = root_system(family, rank).cartan, rank
    nbrs = [[(j, row[i]) for j, row in enumerate(cartan)
             if j != i and row[i]] for i in range(l)]
    # Matrices are kept as tuples of columns: right-multiplying by s_i
    # changes column i only, to -col_i - sum_{j != i} cartan[j][i] col_j.
    ident = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            sign = -seen[m]
            for i, nb in enumerate(nbrs):
                col = [-x for x in m[i]]
                for j, c in nb:
                    col = [a - c * b for a, b in zip(col, m[j])]
                mi = m[:i] + (tuple(col),) + m[i + 1:]
                if mi not in seen:
                    seen[mi] = sign
                    nxt.append(mi)
        frontier = nxt
    return [WeylElement(tuple(zip(*m)), sg) for m, sg in seen.items()]


def kostant_weyl_order(rs) -> int:
    """|W| = prod (m_i + 1) over the exponents m_i (Kostant, 1959).

    The exponents are the dual partition of the positive-root counts by
    height: m_i is the number of heights carrying at least i roots.
    """
    counts = Counter(a.height for a in rs.positive_roots).values()
    order = 1
    for i in range(1, rs.rank + 1):
        order *= 1 + sum(1 for n in counts if n >= i)
    return order


def apply(w, v):
    """w(v): the integer matrix of w times fundamental coordinates, in
    Fractions."""
    return tuple(
        sum((Fraction(row[j]) * Fraction(v[j]) for j in range(len(row))
             if v[j]), Fraction(0))
        for row in w.matrix
    )


def root_to_fund(rs, root_coords):
    return tuple(sum(map(mul, row, root_coords), Fraction(0))
                 for row in rs.cartan)


def simple_reflection(rs, i):
    """s_i as a WeylElement: the identity less cartan[j][i] in column i."""
    l = rs.rank
    rows = []
    for j in range(l):
        row = [int(j == k) for k in range(l)]
        row[i] -= rs.cartan[j][i]
        rows.append(tuple(row))
    return WeylElement(tuple(rows), -1)


def matrix_is_weyl_invariant(ch) -> bool:
    """is_weyl_invariant(ch) through the matrices: every offset to
    fundamental coordinates, through s_i, and back to root coordinates."""
    rs = ch.rs
    for b in ch.slices.values():
        for i in range(rs.rank):
            refl = simple_reflection(rs, i)
            moved = {}
            for off, c in b.items():
                mu = tuple(Fraction(o) + f for o, f in
                           zip(root_to_fund(rs, off), ch.base.finite))
                noff = rs.fund_to_root(
                    tuple(a - f for a, f in zip(apply(refl, mu),
                                                ch.base.finite)))
                if any(x.denominator != 1 for x in noff):
                    return False
                moved[tuple(int(x) for x in noff)] = c
            if moved != b:
                return False
    return True


def is_weyl_invariant(ch) -> bool:
    """Every simple reflection maps each q-slice, read as the weights
    base.finite + offset, onto itself; a non-integral base allows none.
    Each step is rs.reflect on fundamental coordinates, read back in root
    coordinates through rs.fund_to_root."""
    rs, base = ch.rs, ch.base.finite
    if any(x.denominator != 1 for x in base):
        return not any(ch.slices.values())

    def step(i, off):
        mu = rs.reflect(i, tuple(map(add, base, root_to_fund(rs, off))))
        return tuple(map(int, rs.fund_to_root(tuple(map(sub, mu, base)))))

    return all({step(i, o): c for o, c in b.items()} == b
               for b in ch.slices.values() for i in range(rs.rank))


def slices_from_json_dict(rs, d: dict) -> CharSlices:
    """The CharSlices that cli._series_doc wrote as d."""
    base = AffineWeight(tuple(Fraction(x) for x in d["base"]),
                        Fraction(d["level"]), Fraction(d["delta"]))
    slices: dict[int, dict[tuple[int, ...], int]] = {}
    for t in d["terms"]:
        m = int(t["exps"][0])
        off = tuple(int(x) for x in t["exps"][1:])
        slices.setdefault(m, {})[off] = int(t["coeff"])
    return CharSlices(rs, base, int(d["order"]), slices)


def truncated(ch, qmax: int) -> CharSlices:
    """ch up to q^qmax; a truncated series is never extended."""
    if qmax > ch.qmax:
        raise ValueError("cannot extend a truncated series")
    return CharSlices(ch.rs, ch.base, qmax,
                      {m: b for m, b in ch.slices.items() if m <= qmax})


def weyl_denominator(rs) -> dict[tuple[int, ...], int]:
    """prod_{alpha > 0} (1 - e^{-alpha}) = sum_w eps(w) e^{w rho - rho}
    (Weyl's denominator formula), offsets in root coordinates."""
    return {off: sign for sign, off in rs.orbit_offsets(rs.rho, rs.rho)}


def denominator_series(rs, order: int):
    """e^{-rho-hat} R-hat expanded on the affine cone up to `order`, as an
    ExpSeries; the library slices this product by q-power instead."""
    return cone_product((1,) + rs.marks, rs.rank,
                        [(0,) + a.root_coords for a in rs.positive_roots],
                        (), order)


def matrix_orbit_offsets(rs, v, base):
    """Yield (w.sign, root coordinates of w(v) - base) for w in
    matrix_weyl_group(rs), in its order, through integer matrix products."""
    ints, d = _scaled((*v, *base))
    vi, bi = ints[:len(v)], ints[len(v):]
    num, dd = rs._inv_num, rs._inv_den * d
    for w in matrix_weyl_group(rs):
        diff = [sum(map(mul, row, vi)) - b for row, b in zip(w.matrix, bi)]
        off = [sum(map(mul, row, diff)) for row in num]
        if any(x % dd for x in off):
            raise AssertionError("orbit offset left the root lattice")
        yield w.sign, tuple([x // dd for x in off])


def _floor_plus_sqrt(x: Fraction, r2: Fraction) -> int:
    """floor(x + sqrt(r2)) for rationals, r2 >= 0, computed exactly."""
    if r2 < 0:
        raise ValueError("negative radicand")
    # floor(x) + isqrt(floor(r2)) is the answer or one below it
    t = floor(x) + isqrt(floor(r2))
    while (t + 1 - x) ** 2 <= r2:
        t += 1
    return t


def box_quad_points(M, L, B) -> dict[tuple[int, ...], int]:
    """lattice.quad_points by a scan of the ellipsoid's whole bounding box,
    the form evaluated at every box point: with M^{-1} = N / d the minimum
    sits at p / d, p = -N L, and the extent along x_i is sqrt(s N_ii) / d
    about it, s = 2 B d - L.p; each range is rounded inward with isqrt."""
    N, d = int_inverse(M)
    p = [-sum(map(mul, row, L)) for row in N]
    s = 2 * B * d - sum(map(mul, L, p))
    if s < 0:
        return {}
    ranges = []
    for i, pi in enumerate(p):
        w = isqrt(s * N[i][i])
        ranges.append(range(-((w - pi) // d), (pi + w) // d + 1))
    r = len(M)
    out = {}
    for x in iproduct(*ranges):
        tot = 0
        for i in range(r):
            xi = x[i]
            if xi:
                row = M[i]
                tot += xi * (sum(row[j] * x[j] for j in range(r))
                             + 2 * L[i])
        if tot <= 2 * B:
            out[x] = tot // 2
    return out


def fraction_quad_points(M, L, B) -> dict[tuple[int, ...], Fraction]:
    """lattice.quad_points over Q: the box about the rational centre of the
    ellipsoid, each bound found by _floor_plus_sqrt."""
    r = len(M)
    den = lcm(*(Fraction(v).denominator for row in (*M, L, [B]) for v in row))
    Mi = [[int(v * 2 * den) for v in row] for row in M]
    Li = [int(v * 2 * den) for v in L]
    Bi = int(B * 2 * den)
    N, d = int_inverse(Mi)
    Minv = [[Fraction(2 * den * x, d) for x in row] for row in N]
    xstar = [-sum(map(mul, row, L)) for row in Minv]
    qmin = sum(map(mul, L, xstar)) / 2
    R2 = 2 * (B - qmin)
    if R2 < 0:
        return {}
    rad2 = [R2 * Minv[i][i] for i in range(r)]
    ranges = [range(-_floor_plus_sqrt(-x, r2), _floor_plus_sqrt(x, r2) + 1)
              for x, r2 in zip(xstar, rad2)]
    out = {}
    for x in iproduct(*ranges):
        tot = sum(x[i] * (sum(Mi[i][j] * x[j] for j in range(r)) + 2 * Li[i])
                  for i in range(r))
        if tot <= 2 * Bi:
            out[x] = Fraction(tot, 4 * den)
    return out


def drop_of(rs, nu_fin, c, gamma) -> Fraction:
    return rs.inner(nu_fin, gamma) + c * rs.inner(gamma, gamma) / 2


def translate(rs, w: AffineWeight, gamma) -> AffineWeight:
    """Lattice translation t_gamma acting on a weight of level w.level."""
    k = w.level
    fin = tuple(a + k * b for a, b in zip(w.finite, gamma))
    return AffineWeight(fin, k, w.delta - drop_of(rs, w.finite, k, gamma))


def fraction_lattice_points_below(rs, basis, nu_fin, c, bound):
    """(x, gamma, drop) with gamma and drop rebuilt in Fractions per point."""
    r = len(basis)
    M = [
        [c * rs.inner(basis[i], basis[j]) for j in range(r)] for i in range(r)
    ]
    L = [rs.inner(nu_fin, basis[i]) for i in range(r)]
    out = []
    for x in fraction_quad_points(M, L, Fraction(bound)):
        gamma = tuple(
            sum((Fraction(x[i]) * basis[i][d] for i in range(r)), Fraction(0))
            for d in range(rs.rank)
        )
        out.append((x, gamma, drop_of(rs, nu_fin, c, gamma)))
    out.sort(key=lambda t: (t[2], t[0]))
    return out


def point_alt_weyl_raw(rs, lam, qmax, coeff_fn=None):
    """lattice.alt_weyl_raw with one whole orbit walked per lattice point,
    before the numerator was summed in the dominant chamber."""
    nu_fin = tuple(f + 1 for f in lam.finite)
    c = lam.level + rs.dual_coxeter
    if c <= 0:
        raise ValueError("shifted level k + h_vee must be positive")
    items = []
    for x, gamma, drop in lattice_points_below(
            rs, coroot_lattice_basis(rs), nu_fin, c, qmax):
        coeff = 1 if coeff_fn is None else coeff_fn(gamma, x)
        if coeff:
            mu = tuple(a + c * g for a, g in zip(nu_fin, gamma))
            items.append((mu, drop, coeff))
    return _orbit_sum(rs, lam, nu_fin, items, qmax)


def point_q_dimension_sum(rs, lam, basis, qmax, coeff_fn=None, halve=False):
    """formulas.q_dimension_sum with one Weyl dimension per lattice point."""
    nu = tuple(f + 1 for f in lam.finite)
    c = lam.level + rs.dual_coxeter
    if c <= 0:
        raise ValueError("shifted level k + h_vee must be positive")
    by_drop: dict[int, Fraction] = {}
    for x, gf, m in lattice_points_below(rs, basis, nu, c, qmax):
        co = 1 if coeff_fn is None else coeff_fn(gf, x)
        hw = tuple(l + c * g for l, g in zip(lam.finite, gf))
        by_drop[m] = by_drop.get(m, Fraction(0)) + co * rs.weyl_dim(hw)
    for m in sorted(by_drop):
        if m < 0 and by_drop[m]:
            raise SliceError(f"uncancelled dimension {by_drop[m]} at "
                             f"negative q-power {m}")
    acc = [by_drop.get(m, Fraction(0)) for m in range(qmax + 1)]
    if halve:
        acc = [a / 2 for a in acc]
    for a in acc:
        if a.denominator != 1:
            raise ArithmeticError(f"non-integral graded dimension {a}")
    return [int(a) for a in acc]


def _fund_unit(rs, i: int) -> tuple[int, ...]:
    return tuple(int(j == i - 1) for j in range(rs.rank))


def fraction_node_pairing(rs, gf, node: int) -> Fraction:
    """(gamma|Lambda_node), which the half-lattice cuts of formulas.FORMULAS
    read as the coroot coordinate x_node."""
    return rs.inner(gf, _fund_unit(rs, node))


def fraction_orth_coords(rs, gf) -> tuple[int, ...]:
    """formulas._orth_coords by pairings: j_k = (gamma|omega_k) -
    (gamma|omega_{k-1}), each checked integral."""
    out = []
    prev = 0
    for i in range(1, rs.rank + 1):
        cur = rs.inner(gf, _fund_unit(rs, i))
        v = cur - prev
        if v.denominator != 1:
            raise AssertionError("pairing left the integers")
        out.append(int(v))
        prev = cur
    return tuple(out)


def fraction_screened_coefficient(rs, alpha):
    """formulas.screened_coefficient by the pairing (gamma|alpha) + 1."""

    def coeff(gf, x):
        v = rs.inner(alpha.fund, gf) + 1
        if v.denominator != 1:
            raise AssertionError("non-integral coefficient")
        return int(v)

    return coeff


def fraction_deligne_witnesses(rs, lam) -> list:
    """The root scan of formulas.check_deligne_conditions by pairings:
    (a, m) for each positive root a with (lam + rho|a) = m c, m >= 1."""
    c = lam.level + rs.dual_coxeter
    lam_rho = tuple(f + 1 for f in lam.finite)
    out = []
    for a in rs.positive_roots:
        m = rs.inner(lam_rho, a.fund) / c
        if m.denominator == 1 and m >= 1:
            out.append((a, int(m)))
    return out


def matrix_branch_sum(rs, basis, lamb, shift, kvec_fn, height: int):
    """The two-branch lattice sum over whole orbits, truncated afterwards."""
    rho_f = tuple(Fraction(1) for _ in range(rs.rank))
    out: dict[tuple[int, ...], int] = {}
    for branch in (1, -1):
        nu0 = rho_f if branch == 1 else tuple(
            a - b for a, b in zip(rho_f, lamb))
        pts = fraction_lattice_points_below(rs, basis, nu0, Fraction(shift),
                                            height)
        for _x, gf, d0 in pts:
            pair = rs.inner(gf, lamb)
            if pair.denominator != 1:
                raise AssertionError("pairing left the integers")
            pair = int(pair)
            if (branch == 1) != (pair >= 0):
                continue
            if d0.denominator != 1:
                raise AssertionError("non-integral drop")
            D = int(d0)
            p = 0 if branch == 1 else -1
            dp = 1 if branch == 1 else -1
            prev_hmin = None
            steps = 0
            while True:
                steps += 1
                if steps > 8 * height + 32:
                    raise AssertionError("runaway geometric branch")
                nu = tuple(r + Fraction(shift) * g + Fraction(p) * l
                           for r, g, l in zip(rho_f, gf, lamb))
                base = tuple(r + Fraction(p) * l for r, l in zip(rho_f, lamb))
                hmin = None
                for wsign, cro in matrix_orbit_offsets(rs, nu, base):
                    ks = kvec_fn(D, p, cro)
                    h = sum(ks)
                    hmin = h if hmin is None else min(hmin, h)
                    if h <= height:
                        c = out.get(ks, 0) + branch * wsign
                        if c:
                            out[ks] = c
                        else:
                            del out[ks]
                if prev_hmin is not None and hmin < prev_hmin + 1:
                    raise AssertionError("height stopped growing with p")
                prev_hmin = hmin
                if hmin > height:
                    break
                p += dp
                D += pair * dp
    return out


def matrix_sl_terms(n: int, height: int) -> dict:
    """{cone exponents: coeff} of the sl frame's sum side, on the slow path."""
    rs = root_system("A", n - 1)
    lamb = tuple(Fraction(int(i == n - 2)) for i in range(n - 1))

    def kvec(D, p, cro):
        return (D,) + tuple(D - c for c in cro) + (D + p,)

    return matrix_branch_sum(rs, root_lattice_basis(rs), lamb, n - 1, kvec,
                             height)


def matrix_spo_terms(npr: int, height: int) -> dict:
    """{cone exponents: coeff} of the spo frame's sum side, on the slow path."""
    rs = root_system("C", npr)
    lamb = tuple(Fraction(int(i == 0)) for i in range(npr))

    def kvec(D, p, cro):
        return (D, D + p, *(2 * D - c for c in cro[:-1]), D - cro[-1])

    return matrix_branch_sum(rs, coroot_lattice_basis(rs), lamb, npr, kvec,
                             height)


# -- free-field product forms, against the state enumeration ------------------


def generator_fock_states(n: int, s: int, e2max: int):
    """fock.fock_states as a generator per raising multiset: every lowering
    multiset is rebuilt for each one, and every state sorts its own two."""
    def multisets(count, budget, min_k2=1, min_colour=1):
        # tuples of (colour, k2), nondecreasing in (k2, colour)
        if count == 0:
            yield ()
            return
        k2 = min_k2
        first = True
        while k2 * count <= budget:
            cstart = min_colour if first else 1
            for colour in range(cstart, n + 1):
                for rest in multisets(count - 1, budget - k2, k2, colour):
                    yield ((colour, k2),) + rest
            k2 += 2
            first = False

    out = []
    for t in range(max(0, -s), (e2max - s) // 2 + 1):
        for cre in multisets(t + s, e2max - t):
            e_cre = sum(k2 for _, k2 in cre)
            for ann in multisets(t, e2max - e_cre):
                out.append((tuple(sorted(cre)), tuple(sorted(ann))))
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


def fock_gl_slices(n: int, s: int,
                   e2max: int) -> dict[int, dict[tuple[int, ...], int]]:
    """{e2: {weight: dim}} for the charge-s sector, from fock.fock_states."""
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for st in fock_states(n, s, e2max):
        e2 = state_energy2(st)
        c = state_weight(n, st)
        b = out.setdefault(e2, {})
        b[c] = b.get(c, 0) + 1
    return out


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


def fock_product_table(n: int, e2max: int) -> dict[tuple, int]:
    """{(charge, e2, weight): dim} of the whole space, from its product form.

    Same pass structure as charge_energy_table but tracking the eps-basis
    weight vector as well, so the charge-s slice can be compared against
    fock_gl_slices term by term.
    """
    tbl = {(0, 0, (0,) * n): 1}
    k2 = 1
    while k2 <= e2max:
        for colour in range(n):
            for dch in (1, -1):
                for e in range(0, e2max - k2 + 1):
                    adds = [(ch, w, c)
                            for (ch, ee, w), c in tbl.items() if ee == e]
                    for ch, w, c in adds:
                        nw = list(w)
                        nw[colour] += dch
                        key = (ch + dch, e + k2, tuple(nw))
                        tbl[key] = tbl.get(key, 0) + c
        k2 += 2
    return tbl


def mirror_pair_slices(half: int, e2max: int) -> dict[int, dict[tuple[int, ...], int]]:
    """{e2: {folded weight: dim}} of the flip-fixed subspace, product form.

    Fixed states are built from two-mode blocks pairing colour i at k with
    colour n+1-i at the same k; a block carries folded weight +-2 eps_j and
    doubled energy 2 k2.
    """
    tbl: dict[int, dict[tuple[int, ...], int]] = {0: {(0,) * half: 1}}
    for j in range(half):
        for sgn in (1, -1):
            k2 = 1
            while 2 * k2 <= e2max:
                for e2 in range(0, e2max - 2 * k2 + 1):
                    b = tbl.get(e2)
                    if not b:
                        continue
                    for v, c in list(b.items()):
                        nv = list(v)
                        nv[j] += 2 * sgn
                        tgt = tbl.setdefault(e2 + 2 * k2, {})
                        key = tuple(nv)
                        tgt[key] = tgt.get(key, 0) + c
                k2 += 2
    return tbl


def energy_state_count(n: int, s: int, e2max: int) -> int:
    """The state count of fock._sector_sizes from a table by doubled
    energy: a[c][e] counts the multisets of c modes at doubled energy e, a
    factor 1/(1 - x y^k2) per colour and odd k2; a state with t lowering modes pairs one of t + s
    modes with one of t, at total energy <= e2max.  Cubic in e2max."""
    ts = range(max(0, -s), (e2max - s) // 2 + 1)
    a = [[int(c == e == 0) for e in range(e2max + 1)]
         for c in range((e2max - s) // 2 + max(s, 0) + 1)]
    for k2 in range(1, e2max + 1, 2):
        for _ in range(n):
            for prev, row in zip(a, a[1:]):
                for e in range(k2, e2max + 1):
                    row[e] += prev[e - k2]
    cum = [list(accumulate(row)) for row in a]
    return sum(x * cum[t][e2max - e] for t in ts
               for e, x in enumerate(a[t + s]))


def oscillator_split_brute(qmax: int):
    """fock.oscillator_split by listing partitions and signing each by the
    number of its parts."""
    cnt = {(0, 0): 1}
    for k in range(1, qmax + 1):
        nxt: dict[tuple[int, int], int] = {}
        for (m, par), c in cnt.items():
            j = 0
            while m + j * k <= qmax:
                key = (m + j * k, (par + j) % 2)
                nxt[key] = nxt.get(key, 0) + c
                j += 1
        cnt = nxt
    plus: dict[int, int] = {}
    minus: dict[int, int] = {}
    for (m, par), c in cnt.items():
        tgt = plus if par == 0 else minus
        tgt[m] = tgt.get(m, 0) + c
    return plus, minus


# -- the slice product on tuple keys ------------------------------------------


def tuple_mul_slices(ch, other: dict) -> dict[int, dict[tuple[int, ...], int]]:
    """The slices of ch.mul_slices(other), one tuple sum per pair of terms."""
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for m1, b1 in ch.slices.items():
        for m2, b2 in other.items():
            if m1 + m2 > ch.qmax:
                continue
            tgt = out.setdefault(m1 + m2, {})
            for o1, c1 in b1.items():
                for o2, c2 in b2.items():
                    t = tuple(x + y for x, y in zip(o1, o2))
                    nc = tgt.get(t, 0) + c1 * c2
                    if nc:
                        tgt[t] = nc
                    else:
                        tgt.pop(t, None)
    return {m: b for m, b in out.items() if b}


# -- the cone product through its own packed store ----------------------------


class MethodExpSeries:
    """The cone series store before cone_product built its factor list:
    terms packed by one OffsetPacking for exponents in 0..order and kept by
    cone height, each factor checked and multiplied in by its own call."""

    def __init__(self, nvars: int, order: int):
        self.order = order
        self.pk = OffsetPacking(nvars, order)
        self.by_height = [{0: 1}] + [{} for _ in range(order)]

    def _factor(self, exps) -> tuple[int, int]:
        if min(exps) < 0:
            raise ValueError(f"negative exponent in {tuple(exps)}")
        dh = sum(exps)
        if dh == 0:
            raise ValueError("factor must raise the height")
        return dh, self.pk.pack(exps)

    def mul_one_minus(self, exps) -> None:
        """Multiply in place by (1 - e-monomial(exps))."""
        _mul_two_term(self.by_height, self.order, *self._factor(exps))

    def mul_geometric(self, exps) -> None:
        """Multiply in place by (1 - e-monomial(exps))^{-1}."""
        _mul_geometric(self.by_height, self.order, *self._factor(exps))

    def series(self) -> ExpSeries:
        return ExpSeries(self.order, {
            self.pk.unpack(k): c for b in self.by_height for k, c in b.items()})


def method_cone_product(marks, imaginary: int, even, odd,
                        height: int) -> ExpSeries:
    """series.cone_product, one method call per factor."""
    s = MethodExpSeries(len(marks), height)
    for k in range(1, height // sum(marks) + 1):
        for _ in range(imaginary):
            s.mul_one_minus(tuple(k * m for m in marks))
    for e in even:
        for x in _root_string(e, marks, height):
            s.mul_one_minus(x)
    for e in odd:
        for x in _root_string(e, marks, height):
            s.mul_geometric(x)
    return s.series()


def tuple_factor_product(nvars: int, qmax: int, factors):
    """series.factor_product on tuple keys: each factor (j, o, inverse) is
    expanded as the series 1 - e^o q^j, or sum_t e^{t o} q^{t j} where
    inverse is set (j >= 1), and multiplied in by a full product of
    slices."""
    out = {0: {(0,) * nvars: 1}}
    for j, o, inverse in factors:
        if inverse:
            fac = {t * j: {tuple(t * x for x in o): 1}
                   for t in range(qmax // j + 1)}
        else:
            fac = {0: {(0,) * nvars: 1}}
            fac.setdefault(j, {})
            fac[j][o] = fac[j].get(o, 0) - 1
        prod: dict[int, dict[tuple[int, ...], int]] = {}
        for m1, b1 in out.items():
            for m2, b2 in fac.items():
                if m1 + m2 > qmax:
                    continue
                tgt = prod.setdefault(m1 + m2, {})
                for o1, c1 in b1.items():
                    for o2, c2 in b2.items():
                        t = tuple(x + y for x, y in zip(o1, o2))
                        tgt[t] = tgt.get(t, 0) + c1 * c2
        out = {m: {x: c for x, c in b.items() if c} for m, b in prod.items()}
    return {m: b for m, b in out.items() if b}


def qpoly_invert(a: dict[int, int], qmax: int) -> dict[int, int]:
    """Invert a q-series with constant term +-1, truncated at qmax: the
    library's inverse before phi_power_qpoly took negative exponents."""
    a0 = a.get(0, 0)
    if a0 not in (1, -1):
        raise SliceError("constant term must be a unit")
    out = {0: a0}
    for m in range(1, qmax + 1):
        acc = 0
        for j, c in a.items():
            if 0 < j <= m:
                acc += c * out.get(m - j, 0)
        if acc:
            out[m] = -a0 * acc
    return out


def qpoly_mul_phi_power(exponent: int, qmax: int) -> dict[int, int]:
    """phi(q)^exponent up to q^qmax as exponent products by phi(q)."""
    out = {0: 1}
    base = {0: 1}
    for k in range(1, qmax + 1):
        base = qpoly_mul(base, {0: 1, k: -1}, qmax)
    for _ in range(exponent):
        out = qpoly_mul(out, base, qmax)
    return out
