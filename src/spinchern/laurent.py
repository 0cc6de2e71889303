"""Exact truncated series for total characteristic classes.

Total characteristic classes live in Z[u] or F2[u] truncated above a
caller-chosen power of u and are held as :class:`TruncatedPoly` values,
which store only their nonzero terms, so a class such as 1 + u^65536 costs
two entries whatever its cutoff.  Coefficients are Python ints throughout,
so nothing overflows or rounds, and equality of values is equality of
truncated polynomials.  Circle characters are signed weight maps (see
:mod:`spinchern.spin_reps`), not values of this module.
"""

from __future__ import annotations

from typing import Iterable, Mapping


def signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Print (coefficient, variable text) pairs as a signed sum.

    Zero coefficients are skipped; the first term keeps its sign and later
    ones join with ``+`` or ``-``; a unit coefficient is dropped before a
    variable, and an empty variable text prints the bare magnitude.  An
    empty sum is ``"0"``.

    >>> signed_sum([(-1, "u"), (2, "u^2"), (-3, "")])
    '-u + 2*u^2 - 3'
    """
    parts: list[str] = []
    for c, var in terms:
        if not c:
            continue
        mag = abs(c)
        body = (var if mag == 1 else f"{mag}*{var}") if var else str(mag)
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


class TruncatedPoly:
    """A polynomial in one generator u, truncated above u^cutoff.

    ``ring`` is ``"Z"`` or ``"F2"``.  ``terms`` maps each k with a nonzero
    coefficient of u^k to that coefficient, in ascending k, with every
    k <= cutoff and, over F2, every coefficient reduced to 1; treat it as
    read-only.  ``coeffs`` is a dense read-only view, the tuple of all
    cutoff + 1 coefficients.  The generator u carries cohomological degree
    2, so k represents degree 2k.  Every operation discards powers above
    the cutoff.
    """

    __slots__ = ("ring", "cutoff", "terms")

    def __init__(self, ring: str, cutoff: int, coeffs: Iterable[int] = ()):
        self._set(ring, cutoff, zip(range(cutoff + 1), coeffs))

    def _set(self, ring: str, cutoff: int, items: Iterable[tuple[int, int]]) -> None:
        """Store the (k, c) pairs, given in ascending k, in reduced form."""
        if ring not in ("Z", "F2"):
            raise ValueError(f"ring must be 'Z' or 'F2', got {ring!r}")
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        self.ring = ring
        self.cutoff = cutoff
        if ring == "F2":
            self.terms = {k: 1 for k, c in items if c & 1 and 0 <= k <= cutoff}
        else:
            self.terms = {k: c for k, c in items if c and 0 <= k <= cutoff}

    # ---- constructors ---------------------------------------------------

    @classmethod
    def one(cls, ring: str, cutoff: int) -> TruncatedPoly:
        return cls(ring, cutoff, (1,))

    @classmethod
    def from_dict(cls, ring: str, cutoff: int, sparse: Mapping[int, int]) -> TruncatedPoly:
        """The series with coefficient ``sparse[k]`` at u^k; keys outside
        0..cutoff are dropped."""
        poly = cls.__new__(cls)
        poly._set(ring, cutoff, sorted(sparse.items()))
        return poly

    # ---- inspection -------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self.terms.get(k, 0) for k in range(self.cutoff + 1))

    def coefficient(self, k: int) -> int:
        return self.terms.get(k, 0)

    def sparse(self) -> dict[int, int]:
        return dict(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.cutoff == other.cutoff
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.cutoff, tuple(self.terms.items())))

    def _check_compat(self, other: TruncatedPoly) -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
        if self.cutoff != other.cutoff:
            raise ValueError(f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    # ---- arithmetic ------------------------------------------------------

    def __mul__(self, other: TruncatedPoly) -> TruncatedPoly:
        self._check_compat(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return TruncatedPoly(self.ring, self.cutoff)
        pairs = list(b.items())
        top = min(self.cutoff, next(reversed(a)) + pairs[-1][0])
        out = [0] * (top + 1)
        for i, ca in a.items():
            room = top - i
            for j, cb in pairs:
                if j > room:
                    break
                out[i + j] += ca * cb
        return TruncatedPoly(self.ring, self.cutoff, out)

    # ---- formatting --------------------------------------------------------

    def __str__(self) -> str:
        return signed_sum(
            (c, "" if k == 0 else ("u" if k == 1 else f"u^{k}")) for k, c in self.terms.items()
        )

    def __repr__(self) -> str:
        return f"TruncatedPoly({self.ring!r}, {self.cutoff}, '{self}')"
