"""Exact arithmetic for multivariate Laurent polynomials and truncated series.

Torus characters live in Z[z1^{+-1}, ..., zm^{+-1}] and are held exactly as
:class:`MultiLaurent` values.  Total characteristic classes live in Z[u] or
F2[u] truncated above a caller-chosen power of u and are held as
:class:`TruncatedPoly` values.  Coefficients are Python ints throughout, so
nothing overflows or rounds, and equality of values is equality of
polynomials.
"""

from __future__ import annotations

from typing import Iterable, Mapping

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

    def __add__(self, other: int | MultiLaurent) -> MultiLaurent:
        other = self._coerce(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                del out[exps]
        result = MultiLaurent.__new__(MultiLaurent)
        result.nvars = self.nvars
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> MultiLaurent:
        result = MultiLaurent.__new__(MultiLaurent)
        result.nvars = self.nvars
        result._terms = {e: -c for e, c in self._terms.items()}
        return result

    def __sub__(self, other: int | MultiLaurent) -> MultiLaurent:
        return self + (-self._coerce(other))

    def __rsub__(self, other: int | MultiLaurent) -> MultiLaurent:
        return (-self) + other

    def __mul__(self, other: int | MultiLaurent) -> MultiLaurent:
        if isinstance(other, int):
            result = MultiLaurent.__new__(MultiLaurent)
            result.nvars = self.nvars
            result._terms = {e: c * other for e, c in self._terms.items()} if other else {}
            return result
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
        result = MultiLaurent.__new__(MultiLaurent)
        result.nvars = self.nvars
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MultiLaurent:
        if k < 0:
            inv = self._monomial_inverse()
            if inv is None:
                raise ValueError("negative powers are only defined for unit monomials")
            return inv ** (-k)
        result = MultiLaurent.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _monomial_inverse(self) -> MultiLaurent | None:
        if len(self._terms) != 1:
            return None
        (exps, coeff), = self._terms.items()
        if coeff not in (1, -1):
            return None
        return MultiLaurent(self.nvars, {tuple(-e for e in exps): coeff})

    # ---- specializations ------------------------------------------------

    def substitute_ones(self, keep_index: int = 0) -> MultiLaurent:
        """Set every variable except ``keep_index`` to 1; result has one variable."""
        if not 0 <= keep_index < self.nvars:
            raise ValueError(
                f"keep_index {keep_index} out of range for {self.nvars} variables"
            )
        out: dict[ExponentVector, int] = {}
        for exps, c in self._terms.items():
            key = (exps[keep_index],)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return MultiLaurent(1, out)

    def evaluate_at_one(self) -> int:
        """Sum of all coefficients (the value at z1 = ... = zm = 1)."""
        return sum(self._terms.values())

    def is_palindromic(self) -> bool:
        """True iff the coefficient of z^k equals that of z^-k for every k.

        Only defined for univariate values (self-conjugacy under z -> z^-1).
        """
        if self.nvars != 1:
            raise ValueError("is_palindromic is defined for univariate polynomials")
        return all(c == self._terms.get((-e[0],), 0) for e, c in self._terms.items())

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


def elementary_symmetric(values: list[MultiLaurent], i: int) -> MultiLaurent:
    """The i-th elementary symmetric function of the given polynomials.

    e_0 = 1 and e_i = 0 for i beyond the list length (empty sum).  All
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
    if i > len(values):
        return MultiLaurent.zero(nvars)
    # e[j] after processing k values is e_j(values[:k])
    e = [MultiLaurent.constant(nvars, 1)] + [MultiLaurent.zero(nvars)] * i
    for v in values:
        for j in range(i, 0, -1):
            e[j] = e[j] + e[j - 1] * v
    return e[i]


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

    def __bool__(self) -> bool:
        return any(self.coeffs)

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

    def __add__(self, other: TruncatedPoly) -> TruncatedPoly:
        self._check_compat(other)
        return TruncatedPoly(
            self.ring, self.cutoff, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

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

    def __pow__(self, k: int) -> TruncatedPoly:
        if k < 0:
            raise ValueError("negative powers go through inverse()")
        result = TruncatedPoly.one(self.ring, self.cutoff)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def inverse(self) -> TruncatedPoly:
        """Multiplicative inverse as a truncated series.

        The constant term must be a unit: +-1 over Z, 1 over F2.
        Satisfies p * p.inverse() == 1 up to the cutoff.
        """
        c0 = self.coeffs[0]
        if self.ring == "Z" and c0 not in (1, -1):
            raise ValueError(f"constant term {c0} is not a unit in Z")
        if self.ring == "F2" and c0 != 1:
            raise ValueError("constant term must be 1 over F2")
        inv0 = c0  # both +1 and -1 are their own inverse
        out = [0] * (self.cutoff + 1)
        out[0] = inv0
        for k in range(1, self.cutoff + 1):
            acc = 0
            for j in range(1, k + 1):
                aj = self.coeffs[j] if j < len(self.coeffs) else 0
                if aj:
                    acc += aj * out[k - j]
            out[k] = -inv0 * acc
            if self.ring == "F2":
                out[k] &= 1
        return TruncatedPoly(self.ring, self.cutoff, out)

    # ---- conversions -------------------------------------------------------

    def to_f2(self) -> TruncatedPoly:
        """Coefficientwise mod-2 reduction."""
        return TruncatedPoly("F2", self.cutoff, self.coeffs)

    def truncate(self, new_cutoff: int) -> TruncatedPoly:
        if new_cutoff > self.cutoff:
            raise ValueError("cannot extend a truncated polynomial")
        return TruncatedPoly(self.ring, new_cutoff, self.coeffs[: new_cutoff + 1])

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
