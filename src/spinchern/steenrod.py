"""Steenrod squares on universal Stiefel-Whitney classes.

Elements of F2[w_1, ..., w_n] are sets of monomials (set semantics is mod-2
addition).  Squares are taken in H*(BSO(n)) = F2[w_1, ..., w_n]/(w_1), the
ring of oriented bundles, and act on generators by the Wu formula

    Sq^i(w_j) = sum_t binom(j - i + t - 1, t) w_{i-t} w_{j+t}   (mod 2)

with w_0 = 1 and w_k = 0 for k > n, and extend to products by the Cartan
formula.  Binomials with negative top argument are the generalized ones,
which make the excess terms cancel (Sq^i w_j = 0 for i > j).  Everything
mod 2 goes through Lucas' theorem, a bitwise test that reads a negative
top argument as its 2-adic expansion.

A polynomial is homogeneous: its degree d is stored once, and each
monomial is one packed Python int (Monagan & Pearce's packed exponent
vectors) in the layout that n and d fix.  The width is the bit length of d,
so no field overflows and equal polynomials have equal ints, and the
exponent of w_j sits in a ``width``-bit field at bit (J - j) * width, where
J = min(n, d): no monomial of degree d has a factor w_j with j > d.  A
product of monomials is an integer sum and a square is a doubling, and
descending int order is the order of the sorted index tuples (w_2 * w_3^2
is (2, 3, 3)), which is the print order.  ``GradedPolyF2.monomials``
decodes the ints into those tuples, walking only the nonzero fields.

Within one application of Sq^i the squares of generator powers are
memoised, Sq^s(w_j^e) being the square of Sq^{s/2}(w_j^{e/2}) for even e
and one Wu factor times the even power for odd e, and the Cartan formula
runs over the distinct generators of each monomial, not over its factors.

The ideal (w_1) is stable under squares, so :func:`sq_bso` computes the
quotient action: it builds each Wu piece packed in the square's own layout
and skips the pieces with a w_1 factor where they are made.  Only the test
oracles square with w_1.  The iterated squares of w_2 generate the ideal
that cuts the mod-2 cohomology of BSpin(n) out of that of BSO(n).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .spin_reps import quillen_h

Monomial = tuple[int, ...]

# Exponent fields per memoised piece of text when a polynomial is printed.
RENDER_CHUNK_FIELDS = 4


def binom_mod2(n: int, k: int) -> int:
    """binom(n, k) mod 2 for any integer n, k >= 0 (generalized for n < 0)."""
    if k < 0:
        return 0
    return 1 if (n & k) == k else 0


def _layout(n: int, degree: int) -> tuple[int, int]:
    """The field width and the fields w_1 .. w_J of degree-``degree``
    monomials: no factor w_j of such a monomial has j > degree."""
    return degree.bit_length(), min(n, degree)


def _decode(m: int, width: int, top: int) -> Monomial:
    """The packed monomial ``m`` with fields w_1 .. w_top as a sorted index
    tuple, read from its nonzero fields only, highest set bit (lowest j) first."""
    out: list[int] = []
    while m:
        field = (m.bit_length() - 1) // width
        low = field * width
        out += [top - field] * (m >> low)
        m &= (1 << low) - 1
    return tuple(out)


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


class GradedPolyF2(NamedTuple):
    """A homogeneous polynomial over F2 in graded generators w_1 ... w_n.

    ``terms`` holds one packed int per monomial in the layout of ``n`` and
    ``degree`` (see the module docstring), so ``len(terms)`` counts
    monomials.  Zero has degree 0.
    """

    n: int
    degree: int
    terms: frozenset[int]

    @property
    def width(self) -> int:
        """The bit width of each exponent field."""
        return self.degree.bit_length()

    @classmethod
    def generator(cls, j: int, n: int) -> GradedPolyF2:
        if not 1 <= j <= n:
            raise ValueError(f"generator index {j} out of range 1..{n}")
        return cls.from_monomials(n, [(j,)])

    @classmethod
    def from_monomials(cls, n: int, monomials: Iterable[Monomial]) -> GradedPolyF2:
        """The mod-2 sum of monomials given as generator-index tuples in any
        order; the monomials that survive it must share one degree."""
        survivors: set[Monomial] = set()
        for mon in monomials:
            if any(not 1 <= idx <= n for idx in mon):
                raise ValueError(f"monomial {mon} has an index outside 1..{n}")
            survivors ^= {tuple(sorted(mon))}
        degrees = set(map(sum, survivors)) or {0}
        if len(degrees) > 1:
            raise ValueError(f"monomials of degrees {sorted(degrees)} in one polynomial")
        (degree,) = degrees
        width, top = _layout(n, degree)
        terms = frozenset(sum(1 << (top - idx) * width for idx in mon) for mon in survivors)
        return cls(n, degree, terms)

    def monomials(self) -> frozenset[Monomial]:
        """The terms as sorted generator-index tuples: w_2 * w_3^2 is (2, 3, 3)."""
        width, top = _layout(self.n, self.degree)
        return frozenset(_decode(m, width, top) for m in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        if not self.degree:
            return "1"  # the only monomial of degree 0
        width, top = _layout(self.n, self.degree)
        order = sorted(self.terms, reverse=True)  # ascending index tuples
        columns = [
            _ChunkText(top, j, min(j + RENDER_CHUNK_FIELDS - 1, top), width).column(order)
            for j in range(1, top + 1, RENDER_CHUNK_FIELDS)
        ]
        return " + ".join("".join(chunks)[1:] for chunks in zip(*columns))


def sq_bso(i: int, p: GradedPolyF2) -> GradedPolyF2:
    """Sq^i in H*(BSO(n)), the quotient by w_1 (``p`` must avoid w_1).

    Sq^0 = id and negative indices are rejected.  Wu pieces with a w_1
    factor are skipped, since the ideal (w_1) is stable under squares.

    A square of a degree-d polynomial is zero or homogeneous of degree
    d + i, and its fields are as wide as that degree needs, so no field
    overflows: a product is an integer sum and a square is ``2 * m``.  Each
    Wu piece Sq^s(w_j) is packed straight into that layout.
    """
    if i < 0:
        raise ValueError("Sq index must be nonnegative")
    if i == 0 or not p.terms:
        return p
    n, degree = p.n, p.degree + i
    in_width, in_top = _layout(n, p.degree)
    in_mask = (1 << in_width) - 1
    width, top = _layout(n, degree)
    memo: dict[tuple[int, int, int], set[int]] = {}

    def power(s: int, j: int, e: int) -> set[int]:
        """Sq^s(w_j^e) for s <= j * e (every caller stays within the degree)
        as a set of packed monomials (shared: never mutated)."""
        key = (s, j, e)
        if key in memo:
            return memo[key]
        out: set[int] = set()
        if e == 1:  # the Wu formula; its pieces are distinct monomials
            for t in range(s + 1):
                lo, hi = s - t, j + t
                if hi > n or lo == 1 or not binom_mod2(j - s + t - 1, t):
                    continue  # w_k = 0 for k > n, and w_1 = 0
                g = 1 << (top - hi) * width
                out.add(g + (1 << (top - lo) * width) if lo else g)
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
        cap = p.degree
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
    return GradedPolyF2(n, degree if out else 0, frozenset(out))


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
