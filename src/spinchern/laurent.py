"""Exact truncated series for total characteristic classes.

Total characteristic classes live in Z[u] or F2[u] truncated above a
caller-chosen power of u and are held as :class:`TruncatedPoly` values.
A value is its term map ``{k: c}``: it is built from one and stores only
the nonzero terms, so a class such as 1 + u^65536 costs two entries
whatever its cutoff.  Coefficients are Python ints throughout,
so nothing overflows or rounds, and equality of values is equality of
truncated polynomials.  Values have no arithmetic: ``total_chern`` forms
the one product the package needs.  Circle characters are signed weight
maps (see :mod:`spinchern.spin_reps`), not values of this module.
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

    ``ring`` is ``"Z"`` or ``"F2"``.  ``TruncatedPoly(ring, cutoff, terms)``
    takes a map ``{k: c}`` from powers of u to coefficients; keys outside
    0..cutoff and zero coefficients (over F2, the even ones) are dropped.
    ``terms`` is what remains, in ascending k with every F2 coefficient 1,
    so equal values have equal ``terms``; treat it as read-only.  The
    generator u carries cohomological degree 2, so k represents degree 2k.
    A value is its ring, cutoff and terms, with equality and printing only.
    """

    __slots__ = ("ring", "cutoff", "terms")

    def __init__(self, ring: str, cutoff: int, terms: Mapping[int, int]):
        if ring not in ("Z", "F2"):
            raise ValueError(f"ring must be 'Z' or 'F2', got {ring!r}")
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        self.ring = ring
        self.cutoff = cutoff
        keys = sorted(k for k in terms if 0 <= k <= cutoff)
        if ring == "F2":
            self.terms = {k: 1 for k in keys if terms[k] & 1}
        else:
            self.terms = {k: c for k in keys if (c := terms[k])}

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

    def __str__(self) -> str:
        return signed_sum(
            (c, "" if k == 0 else ("u" if k == 1 else f"u^{k}")) for k, c in self.terms.items()
        )

    def __repr__(self) -> str:
        return f"TruncatedPoly({self.ring!r}, {self.cutoff}, '{self}')"
