"""Exact root-system data for the finite types A_l, C_l, D_4, E_6, E_7, E_8.

Everything is derived in integer arithmetic from the Dynkin diagram and the
squared lengths of the simple roots, normalized so the highest root has
squared length 2 (Bourbaki, Lie Groups and Lie Algebras VI, plates I-VII).
Weights are handled in fundamental-weight coordinates (the tuple
((v|a_1^vee), ..., (v|a_l^vee))), which are integral exactly on the weight
lattice.  Root data are ints; only the rational values here, the pairing
inner, fund_to_root and weyl_dim, are Fractions, and those also accept
Fraction coordinates.  RootSystem.reflect is the one simple reflection:
the root closure, the reduction to the dominant chamber and the orbit walk
all step through it.  The order of W is read from the Dynkin type alone,
before any root data is built.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul, sub

# the most Weyl group elements a request may enumerate
WEYL_LIMIT = 10**6
# a refusal names |W| in full only below 10**WEYL_DIGITS
WEYL_DIGITS = 1000


def _reduced(rows: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """rows / den with the common factor cancelled: den becomes the lcm of
    the denominators of the entries."""
    g = gcd(den, *(x for row in rows for x in row))
    return [[x // g for x in row] for row in rows], den // g


def int_inverse(m: list[list[int]]) -> tuple[list[list[int]], int]:
    """(N, d) with m^{-1} = N / d for an invertible integer matrix m, d > 0
    the lcm of the entries' denominators: Gauss-Jordan without division."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        for r in range(n):
            if r != c and aug[r][c]:
                a, b = aug[c][c], aug[r][c]
                aug[r] = [a * x - b * y for x, y in zip(aug[r], aug[c])]
    d = lcm(*(aug[i][i] for i in range(n)))
    return _reduced([[x * (d // aug[i][i]) for x in aug[i][n:]]
                     for i in range(n)], d)


def weyl_factors(family: str, rank: int):
    """Factors of |W| of family_rank from the type alone (Bourbaki, Lie
    Groups and Lie Algebras VI, plates I, III-VII): 2, ..., l+1 on A_l,
    2, 4, ..., 2l on C_l, |W| itself on D_4 and E; ValueError on a type
    this module does not support."""
    if family not in ("A", "C", "D", "E"):
        raise ValueError(f"unknown family {family!r}")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if family == "A":
        return range(2, rank + 2)
    if family == "C":
        return range(2, 2 * rank + 1, 2)
    if family == "D" and rank != 4:
        raise ValueError("only D_4 is supported")
    if family == "E" and rank not in (6, 7, 8):
        raise ValueError("E rank must be 6, 7 or 8")
    return ({4: 192, 6: 51840, 7: 2903040, 8: 696729600}[rank],)


def weyl_order(family: str, rank: int) -> int:
    """|W| of family_rank: (l+1)! on A_l, 2^l l! on C_l."""
    return prod(weyl_factors(family, rank))


def check_weyl_order(family: str, rank: int) -> int:
    """|W| of family_rank, or WeylSizeError over WEYL_LIMIT.  The running
    product stops at WEYL_DIGITS digits, so no rank costs more than that."""
    order, shown = 1, 10**WEYL_DIGITS
    for f in weyl_factors(family, rank):
        order *= f
        if order >= shown:
            raise WeylSizeError(
                f"Weyl group of {family}{rank} has more than {WEYL_LIMIT} "
                f"elements (its order has more than {WEYL_DIGITS} digits)")
    if order > WEYL_LIMIT:
        raise WeylSizeError(f"Weyl group of {family}{rank} has {order} "
                            f"elements, more than {WEYL_LIMIT}")
    return order


def _dynkin(fam: str, l: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges of the Dynkin diagram (Bourbaki's numbering, from 0) and the
    squared lengths (a_i|a_i) of the simple roots, long roots at 2."""
    weyl_factors(fam, l)  # refuses an unsupported type
    chain = [(i, i + 1) for i in range(l - 1)]
    if fam == "A":
        return chain, [2] * l
    if fam == "C":
        return chain, [1] * (l - 1) + [2]
    if fam == "D":
        # node 2 is the branch node: a_2 meets a_1, a_3, a_4
        return [(0, 1), (1, 2), (1, 3)], [2] * 4
    # a_1 - a_3 - a_4 - ... - a_l, and a_2 meets a_4
    return [(0, 2), (1, 3)] + chain[2:], [2] * l


# fund: fundamental coordinates (v|a_i^vee); root_coords: coefficients over
# the simple roots; norm: (alpha|alpha); all ints
PosRoot = namedtuple("PosRoot", "fund root_coords height norm")


class RootSystem:
    """Immutable container of exact data for one finite root system."""

    def __init__(self, family: str, rank: int):
        self.family = family
        self.rank = rank
        self._derive()

    # -- construction -----------------------------------------------------

    def _derive(self) -> None:
        l = self.rank
        edges, norms = _dynkin(self.family, l)
        # twice the Gram matrix of the simple roots; on these (at most
        # doubly laced) diagrams an edge carries 2(a_i|a_j) = -max(n_i, n_j)
        gram2 = [[2 * n * (i == j) for j in range(l)]
                 for i, n in enumerate(norms)]
        for i, j in edges:
            gram2[i][j] = gram2[j][i] = -max(norms[i], norms[j])
        # cartan[i][j] = (a_j | a_i^vee) = 2(a_i|a_j) / (a_i|a_i);
        # fundamental coords of a_j = column j
        self.cartan = cart = tuple(tuple(x // n for x in row)
                                   for row, n in zip(gram2, norms))
        # s_i moves coordinate j != i of a weight by -cartan[j][i] times its
        # i-th coordinate: the nonzero off-diagonal entries of column i
        self._nbrs = [[(j, row[i]) for j, row in enumerate(cart)
                       if j != i and row[i]] for i in range(l)]
        # C^{-1} = _inv_num / _inv_den over the integers
        self._inv_num, self._inv_den = int_inverse(cart)

        # close the simple roots under the simple reflections on pairs
        # (root coords, fundamental coords), a_i starting at column i of
        # cart: s_i moves a root by -x a_i, x = fc[i], and fixes it at x = 0
        roots = {tuple(int(i == j) for j in range(l)):
                 tuple(row[i] for row in cart) for i in range(l)}
        todo = list(roots.items())  # grows while it is read
        for rc, fc in todo:
            for i, x in enumerate(fc):
                if x:
                    s = rc[:i] + (rc[i] - x,) + rc[i + 1:]
                    if s not in roots:
                        roots[s] = self.reflect(i, fc)
                        todo.append((s, roots[s]))
        pos: list[PosRoot] = []
        for rc, fc in roots.items():
            if sum(rc) > 0:
                # (r|r) = sum_i r_i (a_i|a_i)/2 (r|a_i^vee)
                norm2 = sum(map(mul, rc, map(mul, norms, fc)))
                pos.append(PosRoot(fc, rc, sum(rc), norm2 // 2))
        pos.sort(key=lambda p: (p.height, p.root_coords))
        self.positive_roots: tuple[PosRoot, ...] = tuple(pos)
        if 2 * len(pos) != len(roots):
            raise AssertionError("positive roots must be half of all roots")

        self.theta = pos[-1]
        if self.theta.norm != 2:
            raise AssertionError("normalization requires (theta|theta) = 2")
        self.marks = self.theta.root_coords
        # theta^vee = theta, and a_i = (a_i|a_i)/2 a_i^vee (Kac, 6.1)
        self.comarks = tuple(m * n // 2 for m, n in zip(self.marks, norms))
        self.dual_coxeter = 1 + sum(self.comarks)

        # (w_i|w_j) = (a_i|a_i)/2 (C^{-1})_ij = _gram_num[i][j] / _gram_den
        self._gram_num, self._gram_den = _reduced(
            [[n * x for x in row] for n, row in zip(norms, self._inv_num)],
            2 * self._inv_den)
        self.rho = (1,) * l

        # fundamental coords of the simple coroots (integral):
        # (a_j^vee | a_i^vee) = 2 cartan[i][j] / (a_j|a_j)
        self.coroot_fund = tuple(
            tuple(2 * cart[i][j] // n for i in range(l))
            for j, n in enumerate(norms)
        )

    # -- exact pairings on fundamental coordinates ------------------------

    def _pair(self, x, y):
        """_gram_den (x|y): an int on integer coordinates."""
        return sum(a * sum(map(mul, row, y))
                   for a, row in zip(x, self._gram_num) if a)

    def inner(self, x, y) -> Fraction:
        """(x|y) on fundamental coordinates, as one sum over the integers."""
        return Fraction(self._pair(x, y), self._gram_den)

    def fund_to_root(self, fund) -> tuple[Fraction, ...]:
        return tuple(Fraction(sum(map(mul, row, fund)), self._inv_den)
                     for row in self._inv_num)

    # -- Weyl group --------------------------------------------------------

    def reflect(self, i: int, v) -> tuple:
        """s_i on fundamental coordinates, in the number type of v: v_i goes
        to -v_i and each v_j, j != i, loses cartan[j][i] v_i."""
        w = list(v)
        x, w[i] = w[i], -w[i]
        for j, c in self._nbrs[i]:
            w[j] -= c * x
        return tuple(w)

    def weyl_group(self) -> list[tuple[int, tuple[int, ...]]]:
        """W as the pairs (eps(w), root coordinates of w rho - rho), one per
        element: rho is regular, so W acts simply transitively on its orbit
        (Humphreys, Reflection Groups and Coxeter Groups, 1.8 and 1.12), and
        orbit_offsets(rho, rho) walks the group itself.  Nothing here
        refuses a large group: cli checks the size before it builds rs.
        """
        group = list(self.orbit_offsets(self.rho, self.rho))
        order = weyl_order(self.family, self.rank)
        if len(group) != order:
            raise AssertionError(f"enumerated {len(group)} of {order} "
                                 "Weyl group elements")
        return group

    def dominant_offset(self, v, base):
        """(v+, sign, root coordinates of v+ - base): v+ = w(v) is dominant,
        sign is eps(w), and v+ is regular exactly when all(v+); all ints,
        an integral Fraction v being turned into ints before the walk.
        AssertionError unless every w(v) - base lies in the root lattice,
        that is unless v is integral and v - base a root sum."""
        if any(x % 1 for x in v):
            raise AssertionError("orbit offset left the root lattice")
        vi, sign = [int(x) for x in v], 1
        # reflect at the first negative coordinate until there is none
        while (i := next((i for i, x in enumerate(vi) if x < 0), -1)) >= 0:
            vi[:], sign = self.reflect(i, vi), -sign
        d = self._inv_den
        off = [sum(map(mul, row, map(sub, vi, base))) for row in self._inv_num]
        if any(x % d for x in off):
            raise AssertionError("orbit offset left the root lattice")
        return vi, sign, tuple([x // d for x in off])

    def orbit_offsets(self, v, base, bound: int | None = None):
        """Yield (eps(w), root coordinates of w(v) - base) over W(v).

        Breadth-first down from the dominant v+: for regular v+, s_i
        lengthens w exactly when x = (w v+)_i > 0 (Humphreys, Reflection
        Groups and Coxeter Groups, 1.6-1.7), so each element is met at its
        length, with sign (-1)^length times the reduction's.  A step is one
        reflect and x off root coordinate i.  Singular v yield nothing
        (their alternating sum is zero).  With `bound`, only w with
        ht(v+ - w v+) <= bound are walked; that height grows by x per step.
        """
        dom, sign, off = self.dominant_offset(v, base)
        if not all(dom):
            return
        level = {tuple(dom): (off, 0)}
        while level:
            nxt = {}
            for u, (o, h) in level.items():
                yield sign, o
                for i, x in enumerate(u):
                    if x > 0 and (bound is None or h + x <= bound):
                        w = self.reflect(i, u)
                        if w not in nxt:
                            nxt[w] = (o[:i] + (o[i] - x,) + o[i + 1:], h + x)
            level = nxt
            sign = -sign

    def weyl_dim(self, fund) -> Fraction:
        """Dimension of the irreducible with highest weight `fund` (Weyl):
        prod (fund + rho|a) / (rho|a) over the positive roots a."""
        lam_rho = [x + 1 for x in fund]
        num = den = 1
        for a in self.positive_roots:
            num *= self._pair(lam_rho, a.fund)
            den *= self._pair(self.rho, a.fund)
        return Fraction(num, den)


class WeylSizeError(RuntimeError):
    pass


def root_system(family: str, rank: int) -> RootSystem:
    return RootSystem(family, rank)


def coroot_lattice_basis(rs: RootSystem) -> list[tuple[int, ...]]:
    """Basis of the coroot lattice in fundamental coordinates."""
    return list(rs.coroot_fund)
