"""Exact root-system data for the finite types A_l, C_l, D_4, E_6, E_7, E_8.

Everything is computed over Fraction from an explicit Euclidean model per
type, normalized so the highest root has squared length 2.  Weights are
handled in fundamental-weight coordinates (the tuple ((v|a_1^vee), ...,
(v|a_l^vee))), which are integral exactly on the weight lattice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

Vec = tuple[Fraction, ...]


def _vec(entries) -> Vec:
    return tuple(Fraction(e) for e in entries)


def _scaled(xs) -> tuple[list[int], int]:
    """Integers n_i and one d > 0 with xs_i = n_i / d (ints or Fractions)."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a small square system exactly by Gaussian elimination."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def invert_matrix(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(rows)
    cols = []
    for j in range(n):
        e = [Fraction(int(i == j)) for i in range(n)]
        cols.append(solve_linear(rows, e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class PosRoot:
    fund: tuple[Fraction, ...]      # fundamental coordinates (v|a_i^vee)
    root_coords: tuple[int, ...]    # coefficients over the simple roots
    euclid: Vec
    height: int
    norm: Fraction                  # (alpha|alpha)


class RootSystem:
    """Immutable container of exact data for one finite root system."""

    def __init__(self, family: str, rank: int):
        self.family = family
        self.rank = rank
        self._build_euclid_model()
        self._derive()
        self._weyl_cache: list[WeylElement] | None = None

    # -- construction -----------------------------------------------------

    def _build_euclid_model(self) -> None:
        fam, l = self.family, self.rank
        one, half = Fraction(1), Fraction(1, 2)
        if fam == "A":
            dim = l + 1
            form = [one] * dim
            simples = [
                _vec([0] * i + [1, -1] + [0] * (dim - i - 2)) for i in range(l)
            ]
        elif fam == "C":
            dim = l
            form = [half] * dim
            simples = [
                _vec([0] * i + [1, -1] + [0] * (dim - i - 2)) for i in range(l - 1)
            ]
            simples.append(_vec([0] * (l - 1) + [2]))
        elif fam == "D":
            if l != 4:
                raise ValueError("only D_4 is supported")
            dim = 4
            form = [one] * 4
            # node 2 is the branch node: a_2 meets a_1, a_3, a_4
            simples = [
                _vec([1, -1, 0, 0]),
                _vec([0, 1, -1, 0]),
                _vec([0, 0, 1, -1]),
                _vec([0, 0, 1, 1]),
            ]
        elif fam == "E":
            if l not in (6, 7, 8):
                raise ValueError("E rank must be 6, 7 or 8")
            dim = 8
            form = [one] * 8
            e8 = [
                _vec([half, -half, -half, -half, -half, -half, -half, half]),
                _vec([1, 1, 0, 0, 0, 0, 0, 0]),
                _vec([-1, 1, 0, 0, 0, 0, 0, 0]),
                _vec([0, -1, 1, 0, 0, 0, 0, 0]),
                _vec([0, 0, -1, 1, 0, 0, 0, 0]),
                _vec([0, 0, 0, -1, 1, 0, 0, 0]),
                _vec([0, 0, 0, 0, -1, 1, 0, 0]),
                _vec([0, 0, 0, 0, 0, -1, 1, 0]),
            ]
            simples = e8[:l]
        else:
            raise ValueError(f"unknown family {fam!r}")
        self.ambient_dim = dim
        self._form = tuple(form)
        self.simple_euclid: tuple[Vec, ...] = tuple(simples)

    def euclid_inner(self, x: Vec, y: Vec) -> Fraction:
        return sum((a * b * f for a, b, f in zip(x, y, self._form)), Fraction(0))

    def _derive(self) -> None:
        l = self.rank
        inner = self.euclid_inner
        simples = self.simple_euclid

        def coroot(a: Vec) -> Vec:
            scale = Fraction(2) / inner(a, a)
            return tuple(scale * c for c in a)

        self.simple_coroots_euclid = tuple(coroot(a) for a in simples)

        # cartan[i][j] = (a_j | a_i^vee); fundamental coords of a_j = column j
        self.cartan = tuple(
            tuple(inner(simples[j], self.simple_coroots_euclid[i]) for j in range(l))
            for i in range(l)
        )
        if any(x.denominator != 1 for row in self.cartan for x in row):
            raise AssertionError("Cartan matrix must be integral")
        cartan_rows = [[Fraction(x) for x in row] for row in self.cartan]
        self._cartan_inv = invert_matrix(cartan_rows)
        # C^{-1} = _inv_num / _inv_den over the integers, for orbit_offsets
        flat, self._inv_den = _scaled(sum(self._cartan_inv, []))
        self._inv_num = [flat[i:i + l] for i in range(0, l * l, l)]

        # close the simple roots in root coordinates under the simple
        # reflections s_i(r) = r - (sum_j cartan[i][j] r_j) e_i
        cart = [[int(x) for x in row] for row in self.cartan]
        roots = {tuple(int(i == j) for j in range(l)) for i in range(l)}
        frontier = list(roots)
        while frontier:
            nxt = []
            for r in frontier:
                for i, row in enumerate(cart):
                    s = r[:i] + (r[i] - sum(map(mul, row, r)),) + r[i + 1:]
                    if s not in roots:
                        roots.add(s)
                        nxt.append(s)
            frontier = nxt
        pos: list[PosRoot] = []
        for rc in roots:
            if sum(rc) > 0:
                r = tuple(sum((c * a[d] for c, a in zip(rc, simples)),
                              Fraction(0)) for d in range(self.ambient_dim))
                fc = tuple(Fraction(sum(map(mul, row, rc))) for row in cart)
                pos.append(PosRoot(fc, rc, r, sum(rc), inner(r, r)))
        pos.sort(key=lambda p: (p.height, p.root_coords))
        self.positive_roots: tuple[PosRoot, ...] = tuple(pos)
        if 2 * len(pos) != len(roots):
            raise AssertionError("positive roots must be half of all roots")

        self.theta = pos[-1]
        if self.theta.norm != 2:
            raise AssertionError("normalization requires (theta|theta) = 2")
        self.marks = self.theta.root_coords
        # theta^vee = theta since (theta|theta) = 2; solve for its coroot coords
        theta_coroot_coords = solve_linear(
            [
                [inner(cv, av) for cv in self.simple_coroots_euclid]
                for av in self.simple_coroots_euclid
            ],
            [inner(self.theta.euclid, av) for av in self.simple_coroots_euclid],
        )
        if any(x.denominator != 1 for x in theta_coroot_coords):
            raise AssertionError("comarks must be integral")
        self.comarks = tuple(int(x) for x in theta_coroot_coords)
        self.dual_coxeter = 1 + sum(self.comarks)
        self.coxeter = 1 + self.theta.height
        self.delta_height = 1 + self.theta.height

        # fundamental weights in the Euclidean span of the simple roots
        pairing_rows = [
            [inner(simples[k], self.simple_coroots_euclid[j]) for k in range(l)]
            for j in range(l)
        ]
        fund_weights = []
        for i in range(l):
            e = [Fraction(int(j == i)) for j in range(l)]
            xs = solve_linear(pairing_rows, e)
            w = tuple(
                sum((xs[k] * simples[k][d] for k in range(l)), Fraction(0))
                for d in range(self.ambient_dim)
            )
            fund_weights.append(w)
        self.fund_weights_euclid: tuple[Vec, ...] = tuple(fund_weights)
        # (w_i|w_j) = _gram_num[i][j] / _gram_den over the integers, for inner
        flat, self._gram_den = _scaled([inner(u, v) for u in fund_weights
                                        for v in fund_weights])
        self._gram_num = [flat[i:i + l] for i in range(0, l * l, l)]
        self.rho = tuple(Fraction(1) for _ in range(l))

        # fundamental coords of simple roots and coroots (integral)
        self.simple_fund = tuple(
            tuple(self.cartan[i][j] for i in range(l)) for j in range(l)
        )
        self.coroot_fund = tuple(
            tuple(inner(cv, av) for av in self.simple_coroots_euclid)
            for cv in self.simple_coroots_euclid
        )
        if any(x.denominator != 1 for v in self.coroot_fund for x in v):
            raise AssertionError("coroot fundamental coordinates must be integral")

    # -- exact pairings on fundamental coordinates ------------------------

    def inner(self, x, y) -> Fraction:
        """(x|y) on fundamental coordinates, as one sum over the integers."""
        (xi, dx), (yi, dy) = _scaled(x), _scaled(y)
        return Fraction(sum(a * sum(map(mul, row, yi))
                            for a, row in zip(xi, self._gram_num) if a),
                        self._gram_den * dx * dy)

    def norm(self, x) -> Fraction:
        return self.inner(x, x)

    def root_to_fund(self, root_coords) -> tuple[Fraction, ...]:
        l = self.rank
        return tuple(
            sum((Fraction(root_coords[j]) * self.cartan[i][j] for j in range(l)),
                Fraction(0))
            for i in range(l)
        )

    def fund_to_root(self, fund) -> tuple[Fraction, ...]:
        inv = self._cartan_inv
        l = self.rank
        return tuple(
            sum((inv[i][j] * Fraction(fund[j]) for j in range(l)), Fraction(0))
            for i in range(l)
        )

    # -- Weyl group --------------------------------------------------------

    def simple_reflection(self, i: int) -> "WeylElement":
        l = self.rank
        rows = []
        for j in range(l):
            row = [int(j == k) for k in range(l)]
            row[i] -= int(self.cartan[j][i])
            rows.append(tuple(row))
        return WeylElement(tuple(rows), -1)

    def weyl_order(self) -> int:
        """|W| = prod (m_i + 1) over the exponents m_i (Kostant, 1959).

        The exponents are the dual partition of the positive-root counts by
        height: m_i is the number of heights carrying at least i roots.
        """
        counts = Counter(a.height for a in self.positive_roots).values()
        order = 1
        for i in range(1, self.rank + 1):
            order *= 1 + sum(1 for n in counts if n >= i)
        return order

    def weyl_group(self, limit: int = 10**6,
                   allow_large: bool = False) -> list["WeylElement"]:
        """Full Weyl group as integer matrices on fundamental coordinates.

        Groups larger than `limit` are refused unless allow_large is set;
        E_7 and E_8 are the only supported types past the default bound.
        The size is decided from weyl_order() before anything is enumerated.
        The group is cached: once enumerated (say with allow_large), every
        later call returns the same list whatever its limit.
        """
        if self._weyl_cache is not None:
            return self._weyl_cache
        order = self.weyl_order()
        if order > limit and not allow_large:
            raise WeylSizeError(
                f"Weyl group of {self.family}{self.rank} has {order} "
                f"elements, more than {limit}; pass allow_large "
                "(--allow-large-weyl) to enumerate anyway"
            )
        l = self.rank
        # Matrices are kept as tuples of columns: right-multiplying by s_i
        # changes column i only, to col_i - sum_j cartan[j][i] col_j, which
        # is -col_i - sum_{j != i} cartan[j][i] col_j since cartan[i][i] = 2.
        nbrs = [[(j, int(self.cartan[j][i])) for j in range(l)
                 if j != i and self.cartan[j][i]] for i in range(l)]
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
        if len(seen) != order:
            raise AssertionError(f"enumerated {len(seen)} of {order} "
                                 "Weyl group elements")
        self._weyl_cache = [WeylElement(tuple(zip(*m)), sg)
                            for m, sg in seen.items()]
        return self._weyl_cache

    def orbit_offsets(self, v, base):
        """Yield (w.sign, root coordinates of w(v) - base) for w in W.

        v and base are fundamental coordinates; the elements come in the
        order of weyl_group().  All arithmetic is on Python ints: v and base
        are scaled by the lcm d of their denominators, and C^{-1} is
        _inv_num / _inv_den, so each offset is one exact division by
        _inv_den * d.
        """
        ints, d = _scaled((*v, *base))
        vi, bi = ints[:len(v)], ints[len(v):]
        num, dd = self._inv_num, self._inv_den * d
        for w in self.weyl_group():
            diff = [sum(map(mul, row, vi)) - b for row, b in zip(w.matrix, bi)]
            off = [sum(map(mul, row, diff)) for row in num]
            if any(x % dd for x in off):
                raise AssertionError("orbit offset left the root lattice")
            yield w.sign, tuple([x // dd for x in off])

    def to_dominant(self, fund) -> tuple[tuple[Fraction, ...], int, bool]:
        """Reflect into the dominant chamber.

        Returns (dominant representative, sign of the element used, regular)
        where regular is False when the weight has a zero coordinate along
        the way (i.e. a reflection stabilizes it).
        """
        v = tuple(Fraction(x) for x in fund)
        sign = 1
        while True:
            for i, c in enumerate(v):
                if c < 0:
                    alpha = self.simple_fund[i]
                    v = tuple(a - c * b for a, b in zip(v, alpha))
                    sign = -sign
                    break
            else:
                return v, sign, all(c != 0 for c in v)

    def weyl_dim(self, fund) -> Fraction:
        """Dimension of the irreducible with highest weight `fund` (Weyl)."""
        lam_rho = tuple(Fraction(x) + 1 for x in fund)
        num = den = Fraction(1)
        for a in self.positive_roots:
            num *= self.inner(lam_rho, a.fund)
            den *= self.inner(self.rho, a.fund)
        return num / den


class WeylSizeError(RuntimeError):
    pass


@dataclass(frozen=True)
class WeylElement:
    matrix: tuple[tuple[int, ...], ...]   # acts on fundamental coordinates
    sign: int

    def apply(self, v):
        return tuple(
            sum((Fraction(row[j]) * Fraction(v[j]) for j in range(len(row))
                 if v[j]), Fraction(0))
            for row in self.matrix
        )


def root_system(family: str, rank: int) -> RootSystem:
    return RootSystem(family, rank)


def coroot_lattice_basis(rs: RootSystem) -> list[tuple[Fraction, ...]]:
    """Basis of the coroot lattice in fundamental coordinates."""
    return [tuple(v) for v in rs.coroot_fund]


def root_lattice_basis(rs: RootSystem) -> list[tuple[Fraction, ...]]:
    return [tuple(v) for v in rs.simple_fund]
