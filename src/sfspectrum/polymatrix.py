"""Exact sparse multivariate polynomials, matrices of them, and exact rank.

Coefficients are kept as exact ``Fraction`` values end to end, so algebraic
identities (a product being the zero polynomial, a determinant vanishing) are
decided without floating-point noise.  Matrices evaluate exactly over Q or
over the prime field GF(p) that the randomized routes sample.

The sampling stop of every randomized claim lives here.  A false claim
survives an independent uniform point of GF(p) only where a nonzero
polynomial vanishes, with probability at most its degree over p (Schwartz,
*JACM* 1980; Zippel 1979), so t points bound it by (degree / p)^t.
``_confirm`` samples a claim until that bound, times the number of claims a
false verdict may come from, is at most ``FAILURE_TARGET`` = 2^-40, or until
``trials`` points; ``trials`` is a cap and must be at least 1.  Claims of
one decision may read the same points: the factor is a union bound, which
needs no independence between claims, only each claim's own points
independent of one another.  The claims of the decision routes and their
degrees are in the ``structural`` module docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "FIELD_PRIME",
    "FALLBACK_PRIME",
    "evaluation_prime",
    "ParamPoly",
    "ParamMatrix",
    "ParamPoint",
    "Echelon",
    "rank_exact",
]

# First prime above 2**61.  Desk-scale minors have degree far below the field
# size, keeping the per-trial failure probability of randomized rank tests
# under 2**-40.
FIELD_PRIME = 2305843009213693967
# The Mersenne prime 2**61 - 1: the evaluation field of a system with a
# coefficient denominator divisible by FIELD_PRIME.
FALLBACK_PRIME = 2**61 - 1
# Sampling of a claim stops once its failure bound is at most this.
FAILURE_TARGET = Fraction(1, 2**40)

Rational = Fraction | int
# Canonical monomial: ((param index, exponent), ...) sorted by index, all
# exponents >= 1.  The empty tuple is the constant monomial.
Monomial = tuple[tuple[int, int], ...]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class ParamPoly:
    """A sparse polynomial in parameters p1, p2, ... with Fraction coefficients.

    Instances are immutable; arithmetic returns new objects.  Zero
    coefficients are never stored and monomial keys are kept canonical.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        canonical: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                key = tuple(sorted(mono))
                for idx, exp in key:
                    if idx < 0 or exp < 1:
                        raise ValueError(f"bad monomial factor ({idx}, {exp})")
                canonical[key] = canonical.get(key, Fraction(0)) + coeff
        self._terms = {m: c for m, c in canonical.items() if c != 0}

    @classmethod
    def _of_checked(cls, terms: dict[Monomial, Fraction]) -> "ParamPoly":
        """A polynomial over canonical monomials with nonzero Fraction coefficients."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls()

    @classmethod
    def constant(cls, value: Rational) -> "ParamPoly":
        return cls({(): _as_fraction(value)})

    @classmethod
    def param(cls, index: int) -> "ParamPoly":
        """The polynomial consisting of the single parameter ``p{index+1}``."""
        if index < 0:
            raise ValueError("parameter index must be nonnegative")
        return cls({((index, 1),): Fraction(1)})

    @classmethod
    def coerce(cls, value) -> "ParamPoly":
        if isinstance(value, ParamPoly):
            return value
        return cls.constant(value)

    # -- views -------------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The term map; treat as read-only."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def params(self) -> frozenset[int]:
        """Indices of parameters that actually occur."""
        return frozenset(idx for mono in self._terms for idx, _ in mono)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0."""
        if not self._terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self._terms)

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get((), Fraction(0))

    def linear_coefficients(self) -> dict[int, Fraction] | None:
        """Coefficient per parameter if this is a homogeneous linear form.

        Returns None when any monomial is a constant or has total degree
        above one.
        """
        coeffs: dict[int, Fraction] = {}
        for mono, coeff in self._terms.items():
            if len(mono) != 1 or mono[0][1] != 1:
                return None
            coeffs[mono[0][0]] = coeff
        return coeffs

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "ParamPoly":
        other = ParamPoly.coerce(other)
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            merged[mono] = merged.get(mono, Fraction(0)) + coeff
        return ParamPoly(merged)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "ParamPoly":
        return self + (-ParamPoly.coerce(other))

    def __rsub__(self, other) -> "ParamPoly":
        return ParamPoly.coerce(other) + (-self)

    def __mul__(self, other) -> "ParamPoly":
        other = ParamPoly.coerce(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                exps = dict(m1)
                for idx, exp in m2:
                    exps[idx] = exps.get(idx, 0) + exp
                key = tuple(sorted(exps.items()))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return ParamPoly(out)

    __rmul__ = __mul__

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, values: Sequence[Rational]) -> Fraction:
        """The value at a point of exact rationals (ints or Fractions).

        Integer arithmetic: each term is an integer numerator over an integer
        denominator, the terms are summed over a common denominator, and one
        Fraction is normalized at the end.  Fractions are canonical, so it
        equals the termwise Fraction sum.  A value that a monomial uses and
        that is not an exact rational raises TypeError.
        """
        num, den = 0, 1
        for mono, coeff in self._terms.items():
            t_num, t_den = coeff.numerator, coeff.denominator
            for idx, exp in mono:
                value = values[idx]
                if type(value) is not Fraction and type(value) is not int:
                    value = _as_fraction(value)
                t_num *= value.numerator**exp
                t_den *= value.denominator**exp
            if t_den == den:
                num += t_num
            else:
                num, den = num * t_den + t_num * den, den * t_den
        return Fraction(num, den)

    def evaluate_mod(self, values: Sequence[int], modulus: int) -> int:
        total = 0
        for mono, coeff in self._terms.items():
            if coeff.denominator == 1:
                term = coeff.numerator % modulus
            else:
                term = coeff.numerator * pow(coeff.denominator, -1, modulus) % modulus
            for idx, exp in mono:
                term = term * pow(values[idx], exp, modulus) % modulus
            total = (total + term) % modulus
        return total

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.constant(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self._terms.items()):
            factors = "*".join(
                f"p{idx + 1}" if exp == 1 else f"p{idx + 1}^{exp}" for idx, exp in mono
            )
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(factors)
            elif coeff == -1:
                parts.append(f"-{factors}")
            else:
                parts.append(f"{coeff}*{factors}")
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class ParamPoint:
    """A value of the parameter vector, exact rationals; ``seed`` records its draw."""

    values: tuple
    seed: int

    def __len__(self) -> int:
        return len(self.values)


class ParamMatrix:
    """A sparse rows x cols matrix of ParamPoly entries over q parameters."""

    __slots__ = ("rows", "cols", "param_count", "_entries")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Mapping[tuple[int, int], ParamPoly] | None = None,
        param_count: int = 0,
    ):
        if rows < 0 or cols < 0 or param_count < 0:
            raise ValueError("matrix dimensions and parameter count must be nonnegative")
        self.rows = rows
        self.cols = cols
        self.param_count = param_count
        cleaned: dict[tuple[int, int], ParamPoly] = {}
        if entries:
            for (i, j), poly in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i}, {j}) outside {rows}x{cols} matrix")
                poly = ParamPoly.coerce(poly)
                if poly.is_zero:
                    continue
                bad = [idx for idx in poly.params() if idx >= param_count]
                if bad:
                    raise ValueError(
                        f"entry ({i}, {j}) uses parameter index {max(bad)} "
                        f"but param_count is {param_count}"
                    )
                cleaned[(i, j)] = poly
        self._entries = cleaned

    @classmethod
    def _of_checked(
        cls, rows: int, cols: int, entries: dict[tuple[int, int], ParamPoly], param_count: int
    ) -> "ParamMatrix":
        """A matrix over entries the constructor's checks already passed: nonzero
        ParamPoly values in range, over at most ``param_count`` parameters."""
        mat = object.__new__(cls)
        mat.rows, mat.cols, mat.param_count, mat._entries = rows, cols, param_count, entries
        return mat

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, param_count: int = 0) -> "ParamMatrix":
        return cls(rows, cols, None, param_count)

    @classmethod
    def from_rows(cls, data: Sequence[Sequence], param_count: int) -> "ParamMatrix":
        """Build from a dense list of lists of ParamPoly / int / Fraction."""
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, value in enumerate(row):
                poly = ParamPoly.coerce(value)
                if not poly.is_zero:
                    entries[(i, j)] = poly
        return cls(rows, cols, entries, param_count)

    # -- views ---------------------------------------------------------------

    def entry(self, i: int, j: int) -> ParamPoly:
        return self._entries.get((i, j), ParamPoly.zero())

    def items(self) -> list[tuple[tuple[int, int], ParamPoly]]:
        return sorted(self._entries.items())

    @property
    def is_zero(self) -> bool:
        return not self._entries

    def params(self) -> frozenset[int]:
        out: set[int] = set()
        for poly in self._entries.values():
            out |= poly.params()
        return frozenset(out)

    def degree(self) -> int:
        """The largest total degree of an entry; 0 for the zero matrix."""
        return max((poly.degree() for poly in self._entries.values()), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"ParamMatrix({self.rows}x{self.cols}, q={self.param_count}, {len(self._entries)} entries)"

    # -- algebra ---------------------------------------------------------------

    def _require_same_space(self, other: "ParamMatrix"):
        if self.param_count != other.param_count:
            raise ValueError("matrices live over different parameter spaces")

    def __add__(self, other: "ParamMatrix") -> "ParamMatrix":
        self._require_same_space(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        entries = dict(self._entries)
        for key, poly in other._entries.items():
            entries[key] = entries.get(key, ParamPoly.zero()) + poly
        return ParamMatrix(self.rows, self.cols, entries, self.param_count)

    @staticmethod
    def hstack(mats: Iterable["ParamMatrix"]) -> "ParamMatrix":
        mats = list(mats)
        if not mats:
            raise ValueError("hstack of nothing")
        rows = mats[0].rows
        param_count = mats[0].param_count
        entries: dict[tuple[int, int], ParamPoly] = {}
        offset = 0
        for m in mats:
            if m.rows != rows or m.param_count != param_count:
                raise ValueError("hstack mismatch")
            for (i, j), poly in m._entries.items():
                entries[(i, j + offset)] = poly
            offset += m.cols
        return ParamMatrix._of_checked(rows, offset, entries, param_count)

    @staticmethod
    def vstack(mats: Iterable["ParamMatrix"]) -> "ParamMatrix":
        mats = list(mats)
        if not mats:
            raise ValueError("vstack of nothing")
        cols = mats[0].cols
        param_count = mats[0].param_count
        entries: dict[tuple[int, int], ParamPoly] = {}
        offset = 0
        for m in mats:
            if m.cols != cols or m.param_count != param_count:
                raise ValueError("vstack mismatch")
            for (i, j), poly in m._entries.items():
                entries[(i + offset, j)] = poly
            offset += m.rows
        return ParamMatrix._of_checked(offset, cols, entries, param_count)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: ParamPoint) -> list[list]:
        """Entrywise exact evaluation at a rational point."""
        if len(point) != self.param_count:
            raise ValueError(
                f"point has {len(point)} coordinates, matrix expects {self.param_count}"
            )
        return self.evaluate_at(point.values)

    def evaluate_at(self, values: Sequence, modulus: int | None = None) -> list[list]:
        if modulus is None:
            out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
            for (i, j), poly in self._entries.items():
                out[i][j] = poly.evaluate(values)
        else:
            out = [[0] * self.cols for _ in range(self.rows)]
            for (i, j), poly in self._entries.items():
                out[i][j] = poly.evaluate_mod(values, modulus)
        return out


def evaluation_prime(mats: Iterable[ParamMatrix]) -> int:
    """The prime field in which to evaluate these matrices.

    FIELD_PRIME unless it divides some coefficient denominator, then
    FALLBACK_PRIME; every coefficient must map to a residue.  Raises
    ValueError naming the offending coefficients when both primes fail.
    """
    fractional = [
        coeff
        for m in mats
        for poly in m._entries.values()
        for coeff in poly.terms.values()
        if coeff.denominator != 1
    ]
    blocking = []
    for prime in (FIELD_PRIME, FALLBACK_PRIME):
        hit = next((c for c in fractional if c.denominator % prime == 0), None)
        if hit is None:
            return prime
        blocking.append(f"{prime} divides the denominator of coefficient {hit}")
    raise ValueError("no evaluation prime fits: " + "; ".join(blocking))


def _residue(x, modulus: int) -> int:
    if type(x) is int:  # the common case, without the slower ABC isinstance check
        return x % modulus
    if isinstance(x, Fraction):
        return x.numerator * pow(x.denominator, -1, modulus) % modulus
    return x % modulus


class Echelon:
    """A row-echelon basis over Q (``modulus`` None) or GF(modulus), grown row by row.

    Each kept row is stored from its pivot (first nonzero entry) on, scaled
    so the pivot is 1, and it is zero at the pivots of the rows kept before
    it.  So one forward pass over the kept rows, in order, reduces a new
    vector.  Over GF(p) the vectors must already hold residues; the pass
    defers reduction mod p to the end (each step adds less than p^2 to an
    entry's magnitude).
    """

    __slots__ = ("modulus", "_rows")

    def __init__(self, modulus: int | None = None):
        self.modulus = modulus
        self._rows: list[tuple[int, list]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, vec: Sequence) -> bool:
        """Keep ``vec`` iff it lies outside the span of the kept rows; True when kept."""
        p = self.modulus
        if len(self._rows) >= len(vec):
            return False
        v = list(vec)
        for piv, tail in self._rows:
            f = v[piv] if p is None else v[piv] % p
            if f:
                v[piv:] = [a - f * b for a, b in zip(v[piv:], tail)]
        if p is not None:
            v = [x % p for x in v]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        if p is None:
            inv = Fraction(1) / _as_fraction(v[piv])
            tail = [x * inv for x in v[piv:]]
        else:
            inv = pow(v[piv], -1, p)
            tail = [x * inv % p for x in v[piv:]]
        self._rows.append((piv, tail))
        return True


def rank_exact(matrix: Sequence[Sequence], modulus: int | None = None) -> int:
    """Exact rank over Q (``modulus`` None) or over GF(modulus).

    Forward elimination: the rows enter an ``Echelon`` basis one by one
    (over GF(p) each entry is mapped to its residue once, on entry), and
    the pass stops as soon as the rank reaches the row width.
    """
    basis = Echelon(modulus)
    for row in matrix:
        if len(basis) == len(row):
            break
        if modulus is not None:
            row = [_residue(x, modulus) for x in row]
        basis.add(row)
    return len(basis)


def _points(degree: int, p: int, trials: int, claims: int = 1) -> int:
    """The fewest points t <= ``trials`` at which claims * (degree / p)^t is
    at most FAILURE_TARGET (``trials`` when none is)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    target = FAILURE_TARGET
    t = 1
    while t < trials and claims * degree**t * target.denominator > target.numerator * p**t:
        t += 1
    return t


def _bound(degree: int, p: int, trials: int, claims: int = 1) -> Fraction:
    """The failure bound claims * (degree / p)^t after ``_points`` points."""
    t = _points(degree, p, trials, claims)
    return Fraction(claims * degree**t, p**t)


def _confirm(settles, degree: int, p: int, trials: int, claims: int = 1) -> Fraction | None:
    """Sample a claim at independent points until its failure bound meets the target.

    ``settles(t)`` tests the claim at the t-th point and returns True when
    that point decides the question exactly.  Sampling stops there (the
    result is None) or after ``_points`` points: the claim then stands
    with the failure bound ``_bound``.
    """
    if any(settles(t) for t in range(_points(degree, p, trials, claims))):
        return None
    return _bound(degree, p, trials, claims)

