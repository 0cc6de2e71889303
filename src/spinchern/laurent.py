"""Exact truncated series for total characteristic classes.

Total characteristic classes live in Z[u] or F2[u] truncated above a
caller-chosen power of u and are held as :class:`TruncatedPoly` values.
Coefficients are Python ints throughout, so nothing overflows or rounds, and
equality of values is equality of truncated polynomials.  Circle characters
are signed weight maps (see :mod:`spinchern.spin_reps`), not values of this
module.
"""

from __future__ import annotations

from itertools import compress
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

    ``ring`` is ``"Z"`` or ``"F2"``; ``coeffs[k]`` is the coefficient of u^k,
    reduced mod 2 when the ring is F2.  The generator u carries cohomological
    degree 2, so index k represents degree 2k.  Every operation discards
    powers above the cutoff.
    """

    __slots__ = ("ring", "cutoff", "coeffs")

    def __init__(self, ring: str, cutoff: int, coeffs: Iterable[int] = ()):
        if ring not in ("Z", "F2"):
            raise ValueError(f"ring must be 'Z' or 'F2', got {ring!r}")
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        data = list(coeffs)[: cutoff + 1]
        data += [0] * (cutoff + 1 - len(data))
        if ring == "F2":
            data = [c & 1 for c in data]
        self.ring = ring
        self.cutoff = cutoff
        self.coeffs = tuple(data)

    # ---- constructors ---------------------------------------------------

    @classmethod
    def one(cls, ring: str, cutoff: int) -> TruncatedPoly:
        return cls(ring, cutoff, (1,))

    @classmethod
    def from_dict(cls, ring: str, cutoff: int, sparse: Mapping[int, int]) -> TruncatedPoly:
        data = [0] * (cutoff + 1)
        for k, c in sparse.items():
            if 0 <= k <= cutoff:
                data[k] = c
        return cls(ring, cutoff, data)

    # ---- inspection -------------------------------------------------------

    def coefficient(self, k: int) -> int:
        if not 0 <= k <= self.cutoff:
            return 0
        return self.coeffs[k]

    def sparse(self) -> dict[int, int]:
        coeffs = self.coeffs
        return {k: coeffs[k] for k in compress(range(len(coeffs)), coeffs)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.cutoff == other.cutoff
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.cutoff, self.coeffs))

    def _check_compat(self, other: TruncatedPoly) -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
        if self.cutoff != other.cutoff:
            raise ValueError(f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    # ---- arithmetic ------------------------------------------------------

    def __mul__(self, other: TruncatedPoly) -> TruncatedPoly:
        self._check_compat(other)
        a, b = self.coeffs, other.coeffs
        if sum(1 for c in a if c) > sum(1 for c in b if c):
            a, b = b, a
        out = [0] * (self.cutoff + 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j in range(min(len(b), self.cutoff - i + 1)):
                cb = b[j]
                if cb:
                    out[i + j] += ca * cb
        return TruncatedPoly(self.ring, self.cutoff, out)

    # ---- formatting --------------------------------------------------------

    def __str__(self) -> str:
        return signed_sum(
            (c, "" if k == 0 else ("u" if k == 1 else f"u^{k}")) for k, c in self.sparse().items()
        )

    def __repr__(self) -> str:
        return f"TruncatedPoly({self.ring!r}, {self.cutoff}, '{self}')"
