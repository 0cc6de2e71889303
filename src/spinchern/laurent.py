"""Exact truncated series for total characteristic classes.

Total characteristic classes live in Z[u] or F2[u] truncated above a
caller-chosen power of u and are held as :class:`TruncatedPoly` values.
Coefficients are Python ints throughout, so nothing overflows or rounds, and
equality of values is equality of truncated polynomials.  Circle characters
are signed weight maps (see :mod:`spinchern.spin_reps`), not values of this
module.
"""

from __future__ import annotations

from typing import Iterable, Mapping


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
        return {k: c for k, c in enumerate(self.coeffs) if c}

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
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            u_part = "" if k == 0 else ("u" if k == 1 else f"u^{k}")
            mag = abs(c)
            body = u_part if (mag == 1 and u_part) else (f"{mag}*{u_part}" if u_part else str(mag))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TruncatedPoly({self.ring!r}, {self.cutoff}, '{self}')"
