"""Brute-force algebra that the tests check the library against.

None of this is used by the package.  :class:`MultiLaurent` holds Laurent
polynomials in several variables over Z, :func:`elementary_symmetric` builds
every symmetric function of them up to a degree in one pass, and
:func:`character_on_Tm` expands the full maximal-torus character of a
representation-ring symbol (up to 3^m terms), which :func:`circle_oracle`
collapses to the first circle factor; :func:`lambda_characters` expands
every exterior power at once.  The
``series_*`` functions and :func:`truncate` are the truncated-series
operations the library does not offer: products, powers, inversion and
truncation of a ``TruncatedPoly``, read from and built from its term map.
:func:`sq_on_generator` is the Wu formula in the full ring
F2[w_1, ..., w_n], w_1 kept, and :func:`sq_by_factors` applies a Steenrod
square with it one factor at a time on sorted tuples, skipping the Wu
pieces with a w_1 factor: the reference for ``spinchern.steenrod.sq_bso``.
:func:`sq_top_oracle` is the square one below the top, Sq^{d-1} in degree
d, which makes each Quillen generator from the one before; it needs no
binomials and shares no code with either.
:func:`poly_sum`, :func:`poly_product` and :func:`poly_degree` add,
multiply and grade homogeneous ``GradedPolyF2`` values, which the library
only squares and prints; they go through index tuples alone
(``from_monomials`` XORs repeated monomials, and packing adds up repeated
indices).
:func:`e8_roots` and :func:`f4_short_roots` are root data in doubled
coordinates, from which the tests read the weights of the four exceptional
representations independently of the hand-entered case table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Iterable, Mapping

from spinchern.char_classes import TruncatedPoly
from spinchern.spin_reps import CONVENTIONS, PAPER_LITERAL, VECTOR_REP, RepSymbol, SpinGroup
from spinchern.steenrod import GradedPolyF2

ExponentVector = tuple[int, ...]


class MultiLaurent:
    """A Laurent polynomial in ``nvars`` variables over Z.

    Terms map exponent tuples (one signed integer per variable) to nonzero
    integer coefficients.  Zero coefficients are pruned on construction, so
    the term map is a canonical form and ``==`` is exact polynomial equality.
    Values are immutable; all operations return new polynomials.

    >>> z = MultiLaurent.variable(1, 0)
    >>> str((z + z**-1) * (z - z**-1))
    'z1^2 - z1^-2'
    """

    __slots__ = ("nvars", "_terms")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[ExponentVector, int] | Iterable[tuple[ExponentVector, int]] = (),
    ):
        if nvars < 1:
            raise ValueError("a Laurent polynomial needs at least one variable")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[ExponentVector, int] = {}
        for exps, coeff in items:
            key = tuple(exps)
            if len(key) != nvars:
                raise ValueError(
                    f"exponent vector {key} has length {len(key)}, expected {nvars}"
                )
            c = clean.get(key, 0) + coeff
            if c:
                clean[key] = c
            else:
                clean.pop(key, None)
        self.nvars = nvars
        self._terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> MultiLaurent:
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: int) -> MultiLaurent:
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int, power: int = 1) -> MultiLaurent:
        """The monomial z_{index+1}^power (indices count from 0)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = power
        return cls(nvars, {tuple(exps): 1})

    # ---- inspection ----------------------------------------------------

    def items(self) -> list[tuple[ExponentVector, int]]:
        """Terms in descending lexicographic order of exponent vectors."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def coefficient(self, exps: Iterable[int]) -> int:
        return self._terms.get(tuple(exps), 0)

    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiLaurent.constant(self.nvars, other)
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    # ---- ring operations ----------------------------------------------

    def _coerce(self, other: int | MultiLaurent) -> MultiLaurent:
        if isinstance(other, int):
            return MultiLaurent.constant(self.nvars, other)
        if isinstance(other, MultiLaurent):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"variable count mismatch: {self.nvars} vs {other.nvars}"
                )
            return other
        raise TypeError(f"cannot combine MultiLaurent with {type(other).__name__}")

    def _with_terms(self, terms: dict[ExponentVector, int]) -> MultiLaurent:
        result = MultiLaurent.__new__(MultiLaurent)
        result.nvars = self.nvars
        result._terms = terms
        return result

    def __add__(self, other: int | MultiLaurent) -> MultiLaurent:
        other = self._coerce(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                del out[exps]
        return self._with_terms(out)

    __radd__ = __add__

    def __neg__(self) -> MultiLaurent:
        return self._with_terms({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: int | MultiLaurent) -> MultiLaurent:
        return self + (-self._coerce(other))

    def __rsub__(self, other: int | MultiLaurent) -> MultiLaurent:
        return (-self) + other

    def __mul__(self, other: int | MultiLaurent) -> MultiLaurent:
        if isinstance(other, int):
            return self._with_terms(
                {e: c * other for e, c in self._terms.items()} if other else {}
            )
        other = self._coerce(other)
        out: dict[ExponentVector, int] = {}
        # iterate the smaller operand outside for fewer tuple allocations
        a, b = (self._terms, other._terms)
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
        return self._with_terms(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MultiLaurent:
        if k < 0:
            if len(self._terms) != 1 or abs(next(iter(self._terms.values()))) != 1:
                raise ValueError("negative powers are only defined for unit monomials")
            (exps, coeff), = self._terms.items()
            return MultiLaurent(self.nvars, {tuple(-e for e in exps): coeff}) ** (-k)
        result = MultiLaurent.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # ---- specializations ------------------------------------------------

    def substitute_ones(self, keep_index: int = 0) -> MultiLaurent:
        """Set every variable except ``keep_index`` to 1; result has one variable."""
        if not 0 <= keep_index < self.nvars:
            raise ValueError(
                f"keep_index {keep_index} out of range for {self.nvars} variables"
            )
        return MultiLaurent(1, [((e[keep_index],), c) for e, c in self._terms.items()])

    def evaluate_at_one(self) -> int:
        """Sum of all coefficients (the value at z1 = ... = zm = 1)."""
        return sum(self._terms.values())

    # ---- formatting ------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.items():
            vars_part = "*".join(
                f"z{i+1}" if e == 1 else f"z{i+1}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            mag = abs(coeff)
            if vars_part:
                body = vars_part if mag == 1 else f"{mag}*{vars_part}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiLaurent({self.nvars}, '{self}')"


def elementary_symmetric(values: list[MultiLaurent], i: int) -> list[MultiLaurent]:
    """The elementary symmetric functions e_0, ..., e_i of the given
    polynomials, all from one pass over them.

    e_0 = 1 and e_j = 0 for j beyond the list length (empty sum).  All
    values must share a variable count.
    """
    if i < 0:
        raise ValueError(f"elementary symmetric index must be nonnegative, got {i}")
    if not values:
        raise ValueError("need at least one value to fix the variable count")
    nvars = values[0].nvars
    for v in values:
        if v.nvars != nvars:
            raise ValueError("all values must share a variable count")
    # e[j] after processing k values is e_j(values[:k]), zero for j > k
    e = [MultiLaurent.constant(nvars, 1)] + [MultiLaurent.zero(nvars)] * i
    for k, v in enumerate(values, 1):
        for j in range(min(i, k), 0, -1):
            e[j] = e[j] + e[j - 1] * v
    return e


# ---- torus characters ---------------------------------------------------------


def character_on_Tm(
    g: SpinGroup, sym: RepSymbol, convention: str = PAPER_LITERAL
) -> MultiLaurent:
    """The full T^m character of one symbol, by brute-force expansion.

    lambda_i is the i-th elementary symmetric function of the
    z_j^2 + z_j^-2 (with a constant 1 among the arguments under
    ``vector-rep`` at odd n); a (half-)spinor has one monomial per sign
    vector, Delta+ those with an even number of minus signs and Delta- the
    rest.  The range checks are this oracle's own.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    m = g.m
    if sym.kind == "triv":
        return MultiLaurent.constant(m, sym.index)
    if sym.kind == "lambda":
        top = m - 2 if g.is_even else m - 1
        if not 1 <= sym.index <= top:
            raise ValueError(f"lambda{sym.index} is outside 1..{top} for {g}")
        return lambda_characters(g, sym.index, convention)[-1]
    if (sym.kind == "delta") == g.is_even:
        raise ValueError(f"{sym.kind} is not a generator for {g}")
    want = {"delta+": (0,), "delta-": (1,), "delta": (0, 1)}[sym.kind]
    terms = []
    for bits in range(1 << m):
        if bin(bits).count("1") % 2 in want:
            terms.append((tuple(-1 if bits >> j & 1 else 1 for j in range(m)), 1))
    return MultiLaurent(m, terms)


def lambda_characters(
    g: SpinGroup, top: int, convention: str = PAPER_LITERAL
) -> list[MultiLaurent]:
    """The T^m characters of lambda_0, ..., lambda_top, from one expansion:
    the elementary symmetric functions of the z_j^2 + z_j^-2 (and of a
    constant 1 under ``vector-rep`` at odd n)."""
    m = g.m
    args = [MultiLaurent.variable(m, j, 2) + MultiLaurent.variable(m, j, -2) for j in range(m)]
    if convention == VECTOR_REP and not g.is_even:
        args.append(MultiLaurent.constant(m, 1))
    return elementary_symmetric(args, top)


def weight_map(ch: MultiLaurent) -> dict[int, int]:
    """The signed weight map ``{k: a_k}`` of a one-variable character."""
    assert ch.nvars == 1
    return {e[0]: c for e, c in ch.items()}


def circle_oracle(
    g: SpinGroup, sym: RepSymbol, convention: str = PAPER_LITERAL
) -> dict[int, int]:
    """The weight map of ``sym`` on the first circle factor, from the T^m
    expansion with every other variable set to 1."""
    return weight_map(character_on_Tm(g, sym, convention).substitute_ones(0))


# ---- root data -------------------------------------------------------------------


def e8_roots() -> list[ExponentVector]:
    """The 240 roots of E8 in doubled coordinates 2*mu, so that a root is the
    exponent vector of its torus monomial: the 112 vectors +-2e_i +- 2e_j and
    the 128 sign vectors (+-1, ..., +-1) with an even number of minus signs
    (Bourbaki, *Lie Groups and Lie Algebras*, ch. VI, plate VII)."""
    roots = []
    for i, j in combinations(range(8), 2):
        for a, b in product((2, -2), repeat=2):
            v = [0] * 8
            v[i], v[j] = a, b
            roots.append(tuple(v))
    roots += [v for v in product((1, -1), repeat=8) if v.count(-1) % 2 == 0]
    return roots


def f4_short_roots() -> list[ExponentVector]:
    """The 24 short roots of F4 in doubled coordinates: the 8 vectors +-2e_i
    and the 16 sign vectors (+-1, +-1, +-1, +-1) (Adams, *Lectures on
    Exceptional Lie Groups*)."""
    roots = []
    for i in range(4):
        for a in (2, -2):
            v = [0] * 4
            v[i] = a
            roots.append(tuple(v))
    return roots + list(product((1, -1), repeat=4))


# ---- truncated series -----------------------------------------------------------


def series_product(p: TruncatedPoly, q: TruncatedPoly) -> TruncatedPoly:
    """p * q truncated at their common cutoff, one pair of terms at a time.

    The two factors must share their ring and their cutoff.
    """
    if p.ring != q.ring:
        raise ValueError(f"ring mismatch: {p.ring} vs {q.ring}")
    if p.cutoff != q.cutoff:
        raise ValueError(f"cutoff mismatch: {p.cutoff} vs {q.cutoff}")
    out: dict[int, int] = {}
    for i, a in p.terms.items():
        for j, b in q.terms.items():
            if i + j <= p.cutoff:
                out[i + j] = out.get(i + j, 0) + a * b
    return TruncatedPoly(p.ring, p.cutoff, out)


def series_pow(p: TruncatedPoly, k: int) -> TruncatedPoly:
    """p^k for k >= 0, by repeated squaring."""
    if k < 0:
        raise ValueError("negative powers go through series_inverse")
    result = TruncatedPoly(p.ring, p.cutoff, {0: 1})
    while k:
        if k & 1:
            result = series_product(result, p)
        p = series_product(p, p) if k > 1 else p
        k >>= 1
    return result


def series_inverse(p: TruncatedPoly) -> TruncatedPoly:
    """The multiplicative inverse of p as a truncated series.

    The constant term must be a unit: +-1 over Z, 1 over F2.
    """
    c0 = p.terms.get(0, 0)
    if c0 not in ((1, -1) if p.ring == "Z" else (1,)):
        raise ValueError(f"constant term {c0} is not a unit over {p.ring}")
    out = {0: c0}  # +-1 is its own inverse
    for k in range(1, p.cutoff + 1):
        out[k] = -c0 * sum(c * out[k - j] for j, c in p.terms.items() if 0 < j <= k)
        if p.ring == "F2":
            out[k] &= 1
    return TruncatedPoly(p.ring, p.cutoff, out)


def truncate(p: TruncatedPoly, cutoff: int) -> TruncatedPoly:
    """p with every power above u^cutoff dropped; the cutoff cannot grow."""
    if cutoff > p.cutoff:
        raise ValueError("cannot extend a truncated polynomial")
    return TruncatedPoly(p.ring, cutoff, p.terms)


# ---- Steenrod squares ---------------------------------------------------------


@lru_cache(maxsize=None)
def sq_on_generator(i: int, j: int, n: int) -> GradedPolyF2:
    """Sq^i(w_j) in F2[w_1 ... w_n] by the Wu formula, w_1 kept; its
    binomials come from ``math.comb``, binom(-a, t) = (-1)^t binom(a + t - 1, t)
    for a top argument below 0."""
    if i < 0:
        raise ValueError("Sq index must be nonnegative")
    if not 1 <= j <= n:
        raise ValueError(f"generator index {j} out of range 1..{n}")
    monomials = []
    for t in range(i + 1):
        a = j - i + t - 1
        if not (comb(a, t) if a >= 0 else comb(t - a - 1, t)) % 2:
            continue
        lo, hi = i - t, j + t
        if hi > n or lo > n:
            continue
        monomials.append(tuple(idx for idx in (lo, hi) if idx))  # w_0 = 1
    return GradedPolyF2.from_monomials(n, monomials)


def sq_by_factors(i: int, mon: tuple[int, ...], n: int) -> GradedPolyF2:
    """Sq^i of one monomial in H*(BSO(n)), by the Cartan convolution over
    its factors.

    States are (spent, partial monomial) with mod-2 multiplicity, one Wu
    expansion per factor (so w_2^128 takes 128 steps); branches that can no
    longer reach a total spend of i are pruned via the suffix degree sum (a
    factor w_j absorbs at most Sq^j).  Every Wu piece with a w_1 factor is
    skipped: w_1 divides every product such a piece enters, so this is the
    full-ring square with its w_1 monomials removed.
    """
    suffix = [0] * (len(mon) + 1)
    for pos in range(len(mon) - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] + mon[pos]
    states: set[tuple[int, tuple[int, ...]]] = {(0, ())}
    for pos, j in enumerate(mon):
        cap = suffix[pos + 1]
        nxt: set[tuple[int, tuple[int, ...]]] = set()
        for spent, partial in states:
            for s in range(max(0, i - spent - cap), min(j, i - spent) + 1):
                for gmon in sq_on_generator(s, j, n).monomials():
                    if 1 not in gmon:
                        nxt ^= {(spent + s, tuple(sorted(partial + gmon)))}
        states = nxt
    return GradedPolyF2.from_monomials(n, [partial for spent, partial in states if spent == i])


def sq_top_oracle(monomials: Iterable[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    """Sq^{d-1} of a degree-d polynomial in H*(BSO(n)), on index tuples.

    Sq^{d-1} falls one short of the top square, so by the Cartan formula
    every factor of a monomial but one takes its top square x^2, and the one
    left, w_j, takes Sq^{j-1}(w_j); every binomial in that Wu formula is 1,
    so it is the sum of w_a w_b over a + b = 2j - 1, 0 <= a < j (w_0 = 1).
    Equal factors give equal terms, so only the w_j of odd exponent count.
    Pieces with a = 1 (w_1 = 0) or b > n are dropped.
    """
    out: set[tuple[int, ...]] = set()
    for mon in monomials:
        for j in set(mon):
            if mon.count(j) % 2 == 0:
                continue
            rest = list(mon)
            rest.remove(j)
            for a in range(j):
                b = 2 * j - 1 - a
                if a != 1 and b <= n:
                    out ^= {tuple(sorted(rest * 2 + [b] + [a] * (a > 0)))}
    return out


def poly_sum(n: int, *ps: GradedPolyF2) -> GradedPolyF2:
    """The sum of polynomials in F2[w_1, ..., w_n] (0 for none)."""
    return GradedPolyF2.from_monomials(n, [m for p in ps for m in p.monomials()])


def poly_product(a: GradedPolyF2, b: GradedPolyF2) -> GradedPolyF2:
    """a * b, one concatenated index tuple per pair of monomials."""
    return GradedPolyF2.from_monomials(a.n, [x + y for x in a.monomials() for y in b.monomials()])


def poly_degree(p: GradedPolyF2) -> int:
    """The degree of a nonzero homogeneous polynomial."""
    (d,) = {sum(m) for m in p.monomials()}
    return d
