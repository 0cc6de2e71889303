"""Steenrod squares on universal Stiefel-Whitney classes.

Elements of F2[w_1, ..., w_n] are sets of monomials (set semantics is mod-2
addition); a monomial is the sorted tuple of its generator indices with
repetition, so w_2 * w_3^2 is (2, 3, 3) and the empty tuple is 1.  Squares
act on generators by the Wu formula

    Sq^i(w_j) = sum_t binom(j - i + t - 1, t) w_{i-t} w_{j+t}   (mod 2)

with w_0 = 1 and w_k = 0 for k > n, and extend to products by the Cartan
formula.  Binomials with negative top argument are the generalized ones,
binom(-a, t) = binom(a + t - 1, t) mod 2, which is what makes the excess
terms cancel (Sq^i w_j = 0 for i > j).  Everything mod 2 goes through
Lucas' theorem, a bitwise test.

Squares run on packed monomials (Monagan & Pearce's packed exponent
vectors): one Python int with a fixed-width exponent field per generator,
so a product of monomials is an integer sum and a square is a doubling.
Within one application of Sq^i the squares of generator powers are
memoised, Sq^s(w_j^e) being the square of Sq^{s/2}(w_j^{e/2}) for even e
and one Wu factor times the even power for odd e, and the Cartan formula
runs over the distinct generators of each monomial, not over its factors.
The result is unpacked into sorted tuples.

Setting w_1 = 0 passes to oriented bundles; the ideal (w_1) is stable under
squares, so dropping w_1-monomials after each application computes the
quotient action.  The iterated squares of w_2 generate the ideal that cuts
the mod-2 cohomology of BSpin(n) out of that of BSO(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

from .spin_reps import quillen_h

Monomial = tuple[int, ...]


def binom_mod2(n: int, k: int) -> int:
    """binom(n, k) mod 2 for any integer n, k >= 0 (generalized for n < 0)."""
    if k < 0:
        return 0
    if n < 0:
        # binom(n, k) = (-1)^k binom(k - n - 1, k)
        n = k - n - 1
    return 1 if (n & k) == k else 0


@dataclass(frozen=True)
class GradedPolyF2:
    """A polynomial over F2 in graded generators w_1 ... w_n."""

    n: int
    terms: frozenset[Monomial]

    @classmethod
    def zero(cls, n: int) -> GradedPolyF2:
        return cls(n, frozenset())

    @classmethod
    def one(cls, n: int) -> GradedPolyF2:
        return cls(n, frozenset({()}))

    @classmethod
    def generator(cls, j: int, n: int) -> GradedPolyF2:
        if not 1 <= j <= n:
            raise ValueError(f"generator index {j} out of range 1..{n}")
        return cls(n, frozenset({(j,)}))

    @classmethod
    def from_monomials(cls, n: int, monomials: list[Monomial]) -> GradedPolyF2:
        terms: set[Monomial] = set()
        for mon in monomials:
            if any(not 1 <= idx <= n for idx in mon):
                raise ValueError(f"monomial {mon} has an index outside 1..{n}")
            terms ^= {tuple(sorted(mon))}
        return cls(n, frozenset(terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: GradedPolyF2) -> GradedPolyF2:
        self._check(other)
        return GradedPolyF2(self.n, self.terms ^ other.terms)

    def __mul__(self, other: GradedPolyF2) -> GradedPolyF2:
        self._check(other)
        out: set[Monomial] = set()
        for a in self.terms:
            for b in other.terms:
                mon = tuple(sorted(a + b))
                if all(idx <= self.n for idx in mon):
                    out ^= {mon}
        return GradedPolyF2(self.n, frozenset(out))

    def _check(self, other: GradedPolyF2) -> None:
        if self.n != other.n:
            raise ValueError(f"generator bound mismatch: {self.n} vs {other.n}")

    def degree(self) -> int:
        """Degree of a homogeneous polynomial (0 for the zero polynomial)."""
        degs = {sum(mon) for mon in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def is_homogeneous(self) -> bool:
        return len({sum(mon) for mon in self.terms}) <= 1

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for mon in sorted(self.terms):
            if not mon:
                rendered.append("1")
                continue
            factors = []
            for idx, run in groupby(mon):  # mon is sorted: one run per generator
                e = len(list(run))
                factors.append(f"w{idx}" if e == 1 else f"w{idx}^{e}")
            rendered.append("*".join(factors))
        return " + ".join(rendered)


@lru_cache(maxsize=None)
def sq_on_generator(i: int, j: int, n: int) -> GradedPolyF2:
    """Sq^i(w_j) in F2[w_1 ... w_n] by the Wu formula."""
    if i < 0:
        raise ValueError("Sq index must be nonnegative")
    if not 1 <= j <= n:
        raise ValueError(f"generator index {j} out of range 1..{n}")
    terms: set[Monomial] = set()
    for t in range(i + 1):
        if not binom_mod2(j - i + t - 1, t):
            continue
        lo, hi = i - t, j + t
        if hi > n or lo > n:
            continue
        mon = tuple(sorted(idx for idx in (lo, hi) if idx))  # w_0 = 1
        terms ^= {mon}
    return GradedPolyF2(n, frozenset(terms))


def _sq(i: int, p: GradedPolyF2, drop_w1: bool) -> GradedPolyF2:
    """Sq^i on packed monomials; Sq^0 = id and negative indices are rejected.

    A monomial packs into one int with a ``width``-bit exponent field per
    generator (w_j's field starts at bit (j - 1) * width).  No exponent
    exceeds the output degree, so no field overflows: a product is an
    integer sum and a square is ``2 * m``.
    """
    if i < 0:
        raise ValueError("Sq index must be nonnegative")
    if i == 0:
        return p
    n = p.n
    width = (max(map(sum, p.terms), default=0) + i).bit_length()
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
            for gmon in sq_on_generator(s, j, n).terms:
                if drop_w1 and 1 in gmon:
                    continue  # a w_1 factor can never cancel later
                out.add(sum(1 << (k - 1) * width for k in gmon))
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
        cap = sum(mon)
        # Cartan over the distinct generators; states map Sq degree spent so
        # far to partial products, pruned when the rest cannot absorb i
        states: dict[int, set[int]] = {0: {0}}
        for j, run in groupby(mon):
            e = len(list(run))
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

    mask = (1 << width) - 1

    def unpack(m: int) -> Monomial:
        mon: Monomial = ()
        j = 1
        while m:
            if m & mask:
                mon += (j,) * (m & mask)
            m >>= width
            j += 1
        return mon

    return GradedPolyF2(n, frozenset(map(unpack, out)))


def sq(i: int, p: GradedPolyF2) -> GradedPolyF2:
    """Sq^i of a polynomial: additive, Cartan on products, Sq^0 = id."""
    return _sq(i, p, drop_w1=False)


def drop_w1(p: GradedPolyF2) -> GradedPolyF2:
    """Pass to oriented bundles: kill every monomial containing w_1."""
    return GradedPolyF2(p.n, frozenset(m for m in p.terms if 1 not in m))


def sq_bso(i: int, p: GradedPolyF2) -> GradedPolyF2:
    """Sq^i in the quotient with w_1 = 0 (input must already avoid w_1)."""
    return _sq(i, p, drop_w1=True)


@dataclass(frozen=True)
class SpinPresentation:
    """Presentation data for the mod-2 cohomology of BSpin(n).

    The cohomology of BSO(n) gets divided by the ideal generated by the h
    iterated squares of w_2 and tensored with a polynomial generator z of
    degree 2^h.
    """

    n: int
    h: int
    generators: tuple[GradedPolyF2, ...]

    @property
    def deg_z(self) -> int:
        return 2**self.h

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(g.degree() for g in self.generators)


def j_degrees_expected(h: int) -> list[int]:
    """Degrees of the h ideal generators: 2, 3, 5, ..., 2^{h-1} + 1."""
    return [2 ** (r - 1) + 1 for r in range(1, h + 1)]


def j_ideal_generators(n: int, depth: int | None = None) -> SpinPresentation:
    """The ideal generators w_2, Sq^1 w_2, Sq^2 Sq^1 w_2, ... (h of them).

    theta_1 = w_2 and theta_{r+1} = Sq^{2^{r-1}}(theta_r), computed with
    w_1 = 0; the degrees come out as 2, 3, 5, ..., 2^{h-1} + 1.  ``depth``
    caps how many generators are expanded (they grow quickly in degree);
    the presentation's h is unaffected.
    """
    if n < 6:
        raise ValueError(f"j_ideal_generators requires n >= 6, got {n}")
    h = quillen_h(n).h
    count = h if depth is None else max(1, min(depth, h))
    theta = GradedPolyF2.generator(2, n)
    gens = [theta]
    for r in range(1, count):
        theta = sq_bso(2 ** (r - 1), theta)
        gens.append(theta)
    return SpinPresentation(n=n, h=h, generators=tuple(gens))
