"""Exact integer series: the superdenominator cone series and CharSlices.

ExpSeries is a height-truncated Z-linear combination of formal exponentials

    e^{-k_0 m_0 - k_1 m_1 - ... }        (all k_i >= 0)

where the m_i are the simple monomial directions of a frame (for an affine
root system: alpha_0 = delta - theta and the finite simple roots).  It only
holds terms and lists them; cone_product and the superdenominator sums
fill it.  Terms are exact up to the stated cone height sum(k_i); nothing
above it is kept.

CharSlices is the one q-sliced type for numerators and characters.

Every product of factors (1 - e^o q^j) or their inverses is one
factor_product call; every product of two series adds through
_convolve_into.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import mul

from .rootdata import RootSystem


class AffineWeight(namedtuple("AffineWeight", "finite level delta")):
    """Weight of the extended algebra: finite part, level, delta coefficient.

    The finite part is in fundamental coordinates of the underlying finite
    root system (or a frame-specific encoding for the super frames).  The
    fields hold ints for integral weights.
    """

    __slots__ = ()


def weight_from_coeffs(rs: RootSystem, coeffs) -> AffineWeight:
    """Weight m_0 Lambda_0 + sum_i m_i Lambda_i, delta coefficient 0."""
    if len(coeffs) != rs.rank + 1:
        raise ValueError("need rank+1 coefficients")
    level = coeffs[0] + sum(map(mul, coeffs[1:], rs.comarks))
    return AffineWeight(tuple(coeffs[1:]), level, 0)


class ExpSeries:
    """Terms {(k_0, k_1, ...): coeff} of a series on a cone frame, one
    exponent per direction, exact up to cone height order.  Zero terms and
    terms above the order are dropped on construction."""

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: dict):
        self.order = order
        self.terms = {k: c for k, c in terms.items() if c and sum(k) <= order}

    def n_terms(self) -> int:
        return len(self.terms)


def _root_string(e, marks, height: int):
    """e + k delta for k >= 0 and k delta - e for k >= 1, up to cone height;
    delta has the cone exponents marks."""
    he, hd = sum(e), sum(marks)
    for k in range((height - he) // hd + 1):
        yield tuple(x + k * m for x, m in zip(e, marks))
    for k in range(1, (height + he) // hd + 1):
        yield tuple(k * m - x for x, m in zip(e, marks))


def cone_product(marks, imaginary: int, even, odd, height: int) -> ExpSeries:
    """prod_{k>=1} (1 - e^{k delta})^imaginary, times (1 - e^x) for every x
    on the root string of each exponent vector in even, divided by (1 - e^x)
    for every x on those of odd; delta has the cone exponents marks.  Exact
    up to cone height `height`.  Every x must be a nonzero vector with no
    negative exponent, or ValueError."""
    deltas = [tuple(k * m for m in marks)
              for k in range(1, height // sum(marks) + 1)
              for _ in range(imaginary)]
    factors = []
    for x, inverse in itertools.chain(
            ((x, False) for x in deltas),
            ((x, False) for e in even for x in _root_string(e, marks, height)),
            ((x, True) for e in odd for x in _root_string(e, marks, height))):
        if min(x) < 0:
            raise ValueError(f"negative exponent in {x}")
        if not sum(x):
            raise ValueError("factor must raise the height")
        factors.append((sum(x), x, inverse))
    slices = factor_product(len(marks), height, factors)
    return ExpSeries(height,
                     {x: c for b in slices.values() for x, c in b.items()})


# -- q-sliced characters -----------------------------------------------------


class SliceError(ValueError):
    pass


def first_diff(a: dict, b: dict):
    """First (key, a coeff, b coeff), in key order, where two term dicts differ."""
    if a == b:
        return None
    for k in sorted(set(a) | set(b)):
        ca, cb = a.get(k, 0), b.get(k, 0)
        if ca != cb:
            return k, ca, cb
    return None


class CharSlices:
    """A weight-graded object complete per q-power: a numerator or a character.

    slices[m] maps a finite offset (root coordinates relative to base) to
    its integer multiplicity at e^{base - m delta + offset}.  Numerators come
    straight from the lattice sums and may carry terms at negative m until
    require_nonnegative() refuses them; characters never do.
    """

    __slots__ = ("rs", "base", "qmax", "slices")

    def __init__(self, rs: RootSystem, base: AffineWeight, qmax: int,
                 slices: dict[int, dict[tuple[int, ...], int]]):
        self.rs = rs
        self.base = base
        self.qmax = qmax
        self.slices = slices

    def __len__(self) -> int:
        """Number of nonzero terms."""
        return sum(len(b) for b in self.slices.values())

    def terms(self) -> dict[tuple[int, ...], int]:
        """{(m, *offset): coeff}, the one flat view of the terms; sorting
        the keys orders them by q-power, then by offset."""
        return {(m, *off): c for m, b in self.slices.items()
                for off, c in b.items()}

    def q_series(self) -> list[int]:
        return [sum(self.slices.get(m, {}).values())
                for m in range(self.qmax + 1)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharSlices):
            return NotImplemented
        return ((self.base, self.qmax, self.terms())
                == (other.base, other.qmax, other.terms()))

    def require_nonnegative(self) -> "CharSlices":
        """Return self, or raise SliceError on a term at a negative q-power."""
        for m in sorted(m for m, b in self.slices.items() if m < 0 and b):
            off, c = min(self.slices[m].items())
            raise SliceError(
                f"uncancelled term at negative q-power {m}: {off} -> {c}")
        return self

    def _combine(self, other: "CharSlices", sign: int) -> "CharSlices":
        if self.base != other.base:
            raise ValueError("bases differ")
        qmax = min(self.qmax, other.qmax)
        out: dict[int, dict[tuple[int, ...], int]] = {}
        for m in set(self.slices) | set(other.slices):
            if m > qmax:
                continue
            b = dict(self.slices.get(m, {}))
            for k, c in other.slices.get(m, {}).items():
                nc = b.get(k, 0) + sign * c
                if nc:
                    b[k] = nc
                else:
                    b.pop(k, None)
            if b:
                out[m] = b
        return CharSlices(self.rs, self.base, qmax, out)

    def __sub__(self, other: "CharSlices") -> "CharSlices":
        return self._combine(other, -1)

    def __add__(self, other: "CharSlices") -> "CharSlices":
        return self._combine(other, 1)

    def __neg__(self) -> "CharSlices":
        return CharSlices(self.rs, self.base, self.qmax, {
            m: {off: -c for off, c in b.items()} for m, b in self.slices.items()
        })

    def mul_slices(self, other: dict[int, dict[tuple[int, ...], int]]
                   ) -> "CharSlices":
        """Multiply by sliced data {m: {offset: coeff}}, up to q^qmax.

        Both operands are packed by one OffsetPacking wide enough for a sum
        of two offsets, multiplied on ints, and the product unpacked once.
        """
        top = max((abs(x) for sl in (self.slices, other) for b in sl.values()
                   for o in b for x in o), default=0)
        pk = OffsetPacking(self.rs.rank, 2 * top)
        right = {m: pk.pack_dict(b) for m, b in other.items()}
        out: dict[int, dict[int, int]] = {}
        for m1, b1 in self.slices.items():
            left = pk.pack_dict(b1)
            for m2, b2 in right.items():
                if m1 + m2 <= self.qmax:
                    _convolve_into(out.setdefault(m1 + m2, {}), left, b2)
        return CharSlices(self.rs, self.base, self.qmax,
                          {m: pk.unpack_dict(b) for m, b in out.items() if b})

    def mul_qpoly(self, qpoly: dict[int, int]) -> "CharSlices":
        """Multiply by a one-variable q-series {power: coeff}, power >= 0."""
        if any(j < 0 for j in qpoly):
            raise ValueError("q-poly must have nonnegative powers")
        zero = (0,) * self.rs.rank
        return self.mul_slices({j: {zero: c} for j, c in qpoly.items()})

    def halve(self) -> "CharSlices":
        out = {}
        for m, b in self.slices.items():
            for off, v in b.items():
                if v % 2:
                    raise SliceError(f"odd coefficient {v} at {m}, {off}")
            out[m] = {off: v // 2 for off, v in b.items()}
        return CharSlices(self.rs, self.base, self.qmax, out)

    def rebase(self, new_base: AffineWeight, m_shift: int,
               off_shift) -> "CharSlices":
        """Re-express relative to new_base = base - m_shift*delta + off_shift.

        off_shift is in root coordinates; slice m at offset o becomes slice
        m - m_shift at offset o - off_shift.
        """
        off_shift = tuple(off_shift)
        out: dict[int, dict[tuple[int, ...], int]] = {}
        for m, b in self.slices.items():
            nm = m - m_shift
            if nm < 0:
                raise SliceError("rebase produced a negative q-power")
            out[nm] = {
                tuple(a - d for a, d in zip(off, off_shift)): v
                for off, v in b.items()
            }
        return CharSlices(self.rs, new_base, self.qmax - m_shift, out)


def phi_power_qpoly(exponent: int, qmax: int,
                    step: int = 1) -> dict[int, int]:
    """Coefficients of prod_{k>=1} (1 - q^{step k})^exponent up to q^qmax;
    a negative exponent takes the inverse factors."""
    slices = factor_product(0, qmax, ((k, (), exponent < 0)
                                      for k in range(step, qmax + 1, step)
                                      for _ in range(abs(exponent))))
    return {m: b[()] for m, b in slices.items()}


def qpoly_mul(a: dict[int, int], b: dict[int, int],
              qmax: int) -> dict[int, int]:
    """Product of two q-series {power: coeff}, powers >= 0, up to qmax."""
    out: dict[int, int] = {}
    _convolve_into(out, a, b)
    return {m: c for m, c in out.items() if m <= qmax}


class OffsetPacking:
    """Root-coordinate offsets packed one int each: sum(o_i << (width * i)).

    The map is linear, so offsets add as ints.  The width is derived from a
    bound on |o_i|, so every offset within the bound unpacks back, and
    coordinate i is one shift and one mask.
    """

    def __init__(self, rank: int, bound: int):
        self.rank = rank
        self.width = w = bound.bit_length() + 1  # |o_i| <= bound < half
        self.mask = (1 << w) - 1
        self.half = 1 << (w - 1)
        self.bias = sum(self.half << (w * i) for i in range(rank))

    def pack(self, off) -> int:
        return sum(x << (self.width * i) for i, x in enumerate(off))

    def unpack(self, key: int) -> tuple[int, ...]:
        k, w = key + self.bias, self.width
        return tuple(((k >> (w * i)) & self.mask) - self.half
                     for i in range(self.rank))

    def pack_dict(self, d: dict) -> dict[int, int]:
        return {self.pack(o): c for o, c in d.items()}

    def unpack_dict(self, d: dict[int, int]) -> dict[tuple[int, ...], int]:
        return {self.unpack(k): c for k, c in d.items()}


def _mul_two_term(slices: list[dict[int, int]], qmax: int, j: int,
                  key: int) -> None:
    # multiply packed slices in place by (1 - e^{key} q^j); q-powers go top
    # down so a slice is read before it is added to, for j = 0 from a copy
    for m in range(qmax - j, -1, -1):
        src = slices[m]
        tgt = slices[m + j]
        for o, c in (list(src.items()) if j == 0 else src.items()):
            no = o + key
            nc = tgt.get(no, 0) - c
            if nc:
                tgt[no] = nc
            else:
                del tgt[no]


def _mul_geometric(slices: list[dict[int, int]], qmax: int, j: int,
                   key: int) -> None:
    # multiply packed slices in place by (1 - e^{key} q^j)^{-1}, j >= 1;
    # q-powers go bottom up so a slice already carries the whole geometric
    # series when it is added on j higher
    for m in range(qmax - j + 1):
        tgt = slices[m + j]
        for o, c in slices[m].items():
            no = o + key
            nc = tgt.get(no, 0) + c
            if nc:
                tgt[no] = nc
            else:
                del tgt[no]


def factor_product(nvars: int, qmax: int, factors
                   ) -> dict[int, dict[tuple[int, ...], int]]:
    """Nonzero q-slices, up to q^qmax, of the product of (1 - e^o q^j) over
    the factors (j, o, inverse), o a tuple of nvars ints, taking the inverse
    (j >= 1) where inverse is set.

    A term of slice m sums at most one o of each j = 0 factor and multiples
    t o of j >= 1 factors whose t j add up to at most m, so no coordinate
    exceeds the sum of max|o| over j = 0 plus the most of qmax max|o| // j
    over j >= 1.
    Offsets are packed to that width, multiplied in place one factor at a
    time, and unpacked once.
    """
    factors = list(factors)
    tops = [(j, max(map(abs, o), default=0)) for j, o, _ in factors]
    pk = OffsetPacking(nvars, sum(t for j, t in tops if j == 0)
                       + max((qmax * t // j for j, t in tops if j), default=0))
    slices: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(qmax)]
    for j, o, inverse in factors:
        (_mul_geometric if inverse else _mul_two_term)(slices, qmax, j,
                                                       pk.pack(o))
    return {m: pk.unpack_dict(b) for m, b in enumerate(slices) if b}


def _convolve_into(tgt: dict[int, int], left: dict[int, int],
                   right: dict[int, int]) -> None:
    # add left * right to the packed target in place, dropping zero terms
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            nc = tgt.get(k1 + k2, 0) + c1 * c2
            if nc:
                tgt[k1 + k2] = nc
            else:
                tgt.pop(k1 + k2, None)


def denominator_slices(rs: RootSystem, qmax: int, finite: bool = True
                       ) -> dict[int, dict[tuple[int, ...], int]]:
    """q-slices of e^{-rho-hat} R-hat; offsets in root coordinates.

    One factor_product call, the q^{j>=1} factors (1 - e^{off} q^j) first
    and the finite ones last; finite=False skips those and gives the
    W-invariant quotient R-hat / R, whose slice 0 is 1.  The finite factors
    alone make |W| terms in slice 0.
    """
    roots = [a.root_coords for a in rs.positive_roots]
    neg = [tuple(-x for x in a) for a in roots]
    per_k = [x for pair in zip(neg, roots) for x in pair]
    per_k += [(0,) * rs.rank] * rs.rank
    factors = [(k, x, False) for k in range(1, qmax + 1) for x in per_k]
    factors += [(0, x, False) for x in neg if finite]
    return factor_product(rs.rank, qmax, factors)


def laurent_divide(num: dict[int, int], roots: list[tuple[int, ...]],
                   pk: OffsetPacking) -> dict[int, int]:
    """Exact division by prod_{alpha in roots} (1 - e^{-alpha}).

    Offsets are packed by pk, roots are in root coordinates.  Dividing by
    one factor (1 - e^{-alpha}) is a suffix sum along each alpha-string:
    the quotient at o is num(o) + num(o + alpha) + num(o + 2 alpha) + ...
    A string is keyed by its point o - t alpha with t = o_i // alpha_i, i
    the first nonzero coordinate of alpha.  The division is exact precisely
    when every string sums to zero; otherwise SliceError.
    """
    w, mask, half, bias = pk.width, pk.mask, pk.half, pk.bias
    for a in roots:
        i = next(i for i, x in enumerate(a) if x)
        ai, shift, step = a[i], w * i, pk.pack(a)
        strings: dict[int, dict[int, int]] = {}
        for o, c in num.items():
            t = ((((o + bias) >> shift) & mask) - half) // ai
            strings.setdefault(o - t * step, {})[t] = c
        quo: dict[int, int] = {}
        for key, line in strings.items():
            acc, top = 0, max(line)
            o = key + top * step
            for t in range(top, min(line) - 1, -1):
                acc += line.get(t, 0)
                if acc:
                    quo[o] = acc
                o -= step
            if acc:
                raise SliceError(f"slice not divisible by the Weyl denominator:"
                                 f" the {a}-string through {pk.unpack(key)}"
                                 f" sums to {acc}")
        num = quo
    return num


def character_from_numerator(numerator: CharSlices) -> CharSlices:
    """Solve R-hat * ch = numerator slice by slice, on the numerator's root
    system, base and order.

    R-hat = D_0 P with D_0 the finite Weyl denominator and P = R-hat / D_0,
    so V_m = N_m / D_0 and ch_m = V_m - sum_{j=1..m} P_j ch_{m-j}.  A
    multiple of D_0 changes no string sum, so a slice fails as with R-hat.
    Offsets are packed on entry and unpacked on exit.  A quotient stays in
    its dividend's coordinate range, so every offset is within (qmax + 1) *
    (max|N| + max|P|), and a string key o - t alpha 1 + max(theta) times it.
    """
    rs, qmax = numerator.rs, numerator.qmax
    numerator.require_nonnegative()
    psl = denominator_slices(rs, qmax, finite=False)
    if psl[0] != {(0,) * rs.rank: 1}:
        raise AssertionError("R-hat / R must have constant slice 1")
    nsl = [numerator.slices.get(m, {}) for m in range(qmax + 1)]
    top = [max((abs(x) for b in sl for o in b for x in o), default=0)
           for sl in (nsl, psl.values())]
    pk = OffsetPacking(rs.rank, (qmax + 1) * sum(top)
                       * (1 + max(rs.theta.root_coords)))
    neg_p = {m: {pk.pack(o): -c for o, c in b.items()}
             for m, b in psl.items()}
    roots = [a.root_coords for a in rs.positive_roots]
    out: dict[int, dict[int, int]] = {}
    for m in range(qmax + 1):
        acc = laurent_divide(pk.pack_dict(nsl[m]), roots, pk)
        for j in range(1, m + 1):
            _convolve_into(acc, neg_p.get(j, {}), out.get(m - j, {}))
        if acc:
            out[m] = acc
    return CharSlices(rs, numerator.base, qmax,
                      {m: pk.unpack_dict(b) for m, b in out.items()})
