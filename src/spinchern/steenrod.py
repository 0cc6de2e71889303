"""Steenrod squares on universal Stiefel-Whitney classes.

Elements of F2[w_1, ..., w_n] are sets of monomials (set semantics is mod-2
addition).  Squares act on generators by the Wu formula

    Sq^i(w_j) = sum_t binom(j - i + t - 1, t) w_{i-t} w_{j+t}   (mod 2)

with w_0 = 1 and w_k = 0 for k > n, and extend to products by the Cartan
formula.  Binomials with negative top argument are the generalized ones,
binom(-a, t) = binom(a + t - 1, t) mod 2, which is what makes the excess
terms cancel (Sq^i w_j = 0 for i > j).  Everything mod 2 goes through
Lucas' theorem, a bitwise test.

A monomial is one packed Python int (Monagan & Pearce's packed exponent
vectors).  The width is the bit length of the polynomial's largest total
degree, so no field overflows and equal polynomials have equal ints.  The
exponent of w_j sits in a ``width``-bit field at bit (J - j) * width and
the total degree in one more field above them, at bit J * width, where
J = min(n, 2^width - 1): no monomial of degree below 2^width has a factor
w_j with j > J (so J = n unless n is large against the degree).  A product
of monomials is an integer sum and a square is a doubling.  The degree
field makes degree and homogeneity a shift, a ``min`` and a ``max``, and
inside one homogeneous polynomial descending int order is the order of the
sorted index tuples (w_2 * w_3^2 is (2, 3, 3)), which is the print order.
``GradedPolyF2.monomials`` decodes the ints into those tuples.

Within one application of Sq^i the squares of generator powers are
memoised, Sq^s(w_j^e) being the square of Sq^{s/2}(w_j^{e/2}) for even e
and one Wu factor times the even power for odd e, and the Cartan formula
runs over the distinct generators of each monomial, not over its factors.

Setting w_1 = 0 passes to oriented bundles; the ideal (w_1) is stable under
squares, so dropping w_1-monomials after each application computes the
quotient action.  The iterated squares of w_2 generate the ideal that cuts
the mod-2 cohomology of BSpin(n) out of that of BSO(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .spin_reps import quillen_h

Monomial = tuple[int, ...]

# Exponent fields per memoised piece of text when a polynomial is printed.
RENDER_CHUNK_FIELDS = 4


def binom_mod2(n: int, k: int) -> int:
    """binom(n, k) mod 2 for any integer n, k >= 0 (generalized for n < 0)."""
    if k < 0:
        return 0
    if n < 0:
        # binom(n, k) = (-1)^k binom(k - n - 1, k)
        n = k - n - 1
    return 1 if (n & k) == k else 0


def _fields(n: int, width: int) -> int:
    """The exponent fields w_1 .. w_J of the ``width``-bit layout: a monomial
    of degree d < 2^width has no factor w_j with j > d."""
    return min(n, (1 << width) - 1)


def _spread(m: int, n: int, old: int, new: int) -> int:
    """A packed monomial moved from the ``old``-bit layout to the ``new``-bit one."""
    old_top, new_top = _fields(n, old), _fields(n, new)
    mask = (1 << old) - 1
    degree = m >> old_top * old
    out = degree << new_top * new
    for j in range(1, min(old_top, new_top, degree) + 1):  # higher w_j have no field or are 0
        out |= ((m >> (old_top - j) * old) & mask) << (new_top - j) * new
    return out


class _ChunkText(dict):
    """Memoised text of one chunk of exponent fields, w_first .. w_last.

    A chunk value maps to ``"*w3^2*w5"``: its factors, each with a leading
    ``*``, so a monomial prints as the concatenation of its chunks minus the
    first character.
    """

    def __init__(self, top: int, first: int, last: int, width: int) -> None:
        super().__init__()
        self.first, self.last, self.width = first, last, width
        self.shift = (top - last) * width
        self.mask = (1 << (last - first + 1) * width) - 1

    def __missing__(self, chunk: int) -> str:
        mask = (1 << self.width) - 1
        text = ""
        for j in range(self.first, self.last + 1):
            e = (chunk >> (self.last - j) * self.width) & mask
            if e:
                text += f"*w{j}" if e == 1 else f"*w{j}^{e}"
        self[chunk] = text
        return text

    def column(self, order: Iterable[int]) -> Iterator[str]:
        """The text of this chunk in each packed monomial of ``order``."""
        shift, mask = self.shift, self.mask
        return map(self.__getitem__, (m >> shift & mask for m in order))


@dataclass(frozen=True)
class GradedPolyF2:
    """A polynomial over F2 in graded generators w_1 ... w_n.

    ``terms`` holds one packed int per monomial at the canonical ``width``
    (see the module docstring), so ``len(terms)`` counts monomials.
    """

    n: int
    terms: frozenset[int]
    width: int

    @property
    def _shift(self) -> int:
        """The bit where each monomial's degree field starts."""
        return _fields(self.n, self.width) * self.width

    @classmethod
    def packed(cls, n: int, terms: Iterable[int], width: int) -> GradedPolyF2:
        """The polynomial on ``width``-bit packed monomials, re-spread to the
        canonical width if its largest degree needs fewer bits."""
        terms = frozenset(terms)
        canonical = (max(terms) >> _fields(n, width) * width).bit_length() if terms else 0
        if canonical != width:
            terms = frozenset(_spread(m, n, width, canonical) for m in terms)
        return cls(n, terms, canonical)

    @classmethod
    def zero(cls, n: int) -> GradedPolyF2:
        return cls(n, frozenset(), 0)

    @classmethod
    def one(cls, n: int) -> GradedPolyF2:
        return cls(n, frozenset({0}), 0)

    @classmethod
    def generator(cls, j: int, n: int) -> GradedPolyF2:
        if not 1 <= j <= n:
            raise ValueError(f"generator index {j} out of range 1..{n}")
        return cls.from_monomials(n, [(j,)])

    @classmethod
    def from_monomials(cls, n: int, monomials: Iterable[Monomial]) -> GradedPolyF2:
        """The mod-2 sum of monomials given as generator-index tuples."""
        monomials = list(monomials)
        for mon in monomials:
            if any(not 1 <= idx <= n for idx in mon):
                raise ValueError(f"monomial {mon} has an index outside 1..{n}")
        width = max(map(sum, monomials), default=0).bit_length()
        top = _fields(n, width)
        terms: set[int] = set()
        for mon in monomials:
            m = sum(mon) << top * width
            for idx in mon:
                m += 1 << (top - idx) * width
            terms ^= {m}
        return cls.packed(n, terms, width)

    def monomials(self) -> frozenset[Monomial]:
        """The terms as sorted generator-index tuples: w_2 * w_3^2 is (2, 3, 3)."""
        return frozenset(map(self._decode, self.terms))

    def _decode(self, m: int) -> Monomial:
        width = self.width
        top, mask = _fields(self.n, width), (1 << width) - 1
        return tuple(j for j in range(1, top + 1) for _ in range((m >> (top - j) * width) & mask))

    def _at(self, width: int) -> frozenset[int]:
        """The terms with ``width``-bit fields (``width`` >= ``self.width``)."""
        if width == self.width:
            return self.terms
        return frozenset(_spread(m, self.n, self.width, width) for m in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: GradedPolyF2) -> GradedPolyF2:
        self._check(other)
        width = max(self.width, other.width)
        return GradedPolyF2.packed(self.n, self._at(width) ^ other._at(width), width)

    def __mul__(self, other: GradedPolyF2) -> GradedPolyF2:
        self._check(other)
        if not self.terms or not other.terms:
            return GradedPolyF2.zero(self.n)
        width = ((max(self.terms) >> self._shift) + (max(other.terms) >> other._shift)).bit_length()
        right = other._at(width)
        out: set[int] = set()
        for a in self._at(width):
            out.symmetric_difference_update({a + b for b in right})
        return GradedPolyF2.packed(self.n, out, width)

    def _check(self, other: GradedPolyF2) -> None:
        if self.n != other.n:
            raise ValueError(f"generator bound mismatch: {self.n} vs {other.n}")

    def degree(self) -> int:
        """Degree of a homogeneous polynomial (0 for the zero polynomial)."""
        if not self.is_homogeneous():
            degs = sorted({m >> self._shift for m in self.terms})
            raise ValueError(f"polynomial is not homogeneous: degrees {degs}")
        return max(self.terms, default=0) >> self._shift

    def is_homogeneous(self) -> bool:
        shift = self._shift
        return not self.terms or min(self.terms) >> shift == max(self.terms) >> shift

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        if not self.width:
            return "1"  # the only monomial of degree 0
        if self.is_homogeneous():
            order = sorted(self.terms, reverse=True)  # ascending index tuples
        else:
            order = sorted(self.terms, key=self._decode)
        top = _fields(self.n, self.width)
        used = min(top, max(self.terms) >> self._shift)  # no w_j above the top degree
        columns = [
            _ChunkText(top, j, min(j + RENDER_CHUNK_FIELDS - 1, used), self.width).column(order)
            for j in range(1, used + 1, RENDER_CHUNK_FIELDS)
        ]
        return " + ".join("".join(chunks)[1:] or "1" for chunks in zip(*columns))


@lru_cache(maxsize=None)
def sq_on_generator(i: int, j: int, n: int) -> GradedPolyF2:
    """Sq^i(w_j) in F2[w_1 ... w_n] by the Wu formula."""
    if i < 0:
        raise ValueError("Sq index must be nonnegative")
    if not 1 <= j <= n:
        raise ValueError(f"generator index {j} out of range 1..{n}")
    monomials = []
    for t in range(i + 1):
        if not binom_mod2(j - i + t - 1, t):
            continue
        lo, hi = i - t, j + t
        if hi > n or lo > n:
            continue
        monomials.append(tuple(idx for idx in (lo, hi) if idx))  # w_0 = 1
    return GradedPolyF2.from_monomials(n, monomials)


def _sq(i: int, p: GradedPolyF2, drop_w1: bool) -> GradedPolyF2:
    """Sq^i on packed monomials; Sq^0 = id and negative indices are rejected.

    The output fields are as wide as the largest output degree needs, so no
    field overflows: a product is an integer sum and a square is ``2 * m``.
    """
    if i < 0:
        raise ValueError("Sq index must be nonnegative")
    if i == 0 or not p.terms:
        return p
    n, in_width, in_shift = p.n, p.width, p._shift
    in_top, in_mask = _fields(n, in_width), (1 << in_width) - 1
    width = ((max(p.terms) >> in_shift) + i).bit_length()
    w1_field = ((1 << width) - 1) << (_fields(n, width) - 1) * width
    memo: dict[tuple[int, int, int], set[int]] = {}

    def power(s: int, j: int, e: int) -> set[int]:
        """Sq^s(w_j^e) as a set of packed monomials (shared: never mutated)."""
        key = (s, j, e)
        if key in memo:
            return memo[key]
        out: set[int] = set()
        if s > j * e:
            pass  # instability: Sq^s x = 0 above the degree of x
        elif e == 1:
            wu = sq_on_generator(s, j, n)
            for g in wu.terms:
                g = _spread(g, n, wu.width, width)
                if not (drop_w1 and g & w1_field):  # a w_1 factor can never cancel later
                    out.add(g)
        elif e % 2 == 0:
            if s % 2 == 0:  # Sq(x^2) = (Sq x)^2 mod 2
                out = {2 * m for m in power(s // 2, j, e // 2)}
        else:  # w_j^e = w_j * w_j^(e-1), by Cartan
            for t in range(max(0, s - j * (e - 1)), min(j, s) + 1):
                rest = power(s - t, j, e - 1)
                for g in power(t, j, 1):
                    out.symmetric_difference_update({g + m for m in rest})
        memo[key] = out
        return out

    out: set[int] = set()
    for mon in p.terms:
        cap = mon >> in_shift
        # Cartan over the distinct generators; states map Sq degree spent so
        # far to partial products, pruned when the rest cannot absorb i
        states: dict[int, set[int]] = {0: {0}}
        for j in range(1, in_top + 1):
            e = (mon >> (in_top - j) * in_width) & in_mask
            if not e:
                continue
            cap -= j * e
            nxt: dict[int, set[int]] = {}
            for spent, partials in states.items():
                for s in range(max(0, i - spent - cap), min(j * e, i - spent) + 1):
                    pieces = power(s, j, e)
                    if pieces:
                        acc = nxt.setdefault(spent + s, set())
                        for g in pieces:
                            acc.symmetric_difference_update({g + m for m in partials})
            states = nxt
        out.symmetric_difference_update(states.get(i, ()))
    return GradedPolyF2.packed(n, out, width)


def sq(i: int, p: GradedPolyF2) -> GradedPolyF2:
    """Sq^i of a polynomial: additive, Cartan on products, Sq^0 = id."""
    return _sq(i, p, drop_w1=False)


def drop_w1(p: GradedPolyF2) -> GradedPolyF2:
    """Pass to oriented bundles: kill every monomial containing w_1."""
    w1_field = ((1 << p.width) - 1) << (_fields(p.n, p.width) - 1) * p.width  # the top one
    return GradedPolyF2.packed(p.n, (m for m in p.terms if not m & w1_field), p.width)


def sq_bso(i: int, p: GradedPolyF2) -> GradedPolyF2:
    """Sq^i in the quotient with w_1 = 0 (input must already avoid w_1)."""
    return _sq(i, p, drop_w1=True)


def j_degrees_expected(h: int) -> list[int]:
    """Degrees of the h ideal generators: 2, 3, 5, ..., 2^{h-1} + 1."""
    return [2 ** (r - 1) + 1 for r in range(1, h + 1)]


def j_ideal_generators(n: int, max_degree: int | None = None) -> tuple[GradedPolyF2, ...]:
    """The ideal generators theta_1 = w_2, theta_2 = Sq^1 w_2, ... of degree
    at most ``max_degree`` (all h of them for ``None``; none below 2).

    theta_{r+1} = Sq^{2^{r-1}}(theta_r), computed with w_1 = 0; the degrees
    come out as 2, 3, 5, ..., 2^{h-1} + 1 (see :func:`j_degrees_expected`),
    and no square is taken past the last generator returned.
    """
    if n < 6:
        raise ValueError(f"j_ideal_generators requires n >= 6, got {n}")
    degrees = j_degrees_expected(quillen_h(n).h)
    count = sum(1 for d in degrees if max_degree is None or d <= max_degree)
    gens = [GradedPolyF2.generator(2, n)] if count else []
    for r in range(1, count):
        gens.append(sq_bso(2 ** (r - 1), gens[-1]))
    return tuple(gens)
