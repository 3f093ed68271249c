"""Multi-channel system model: channel bookkeeping and parameterization class.

A k-channel system couples a state matrix A with per-channel input blocks B_i
and output blocks C_i, all parameterized over one shared vector of q
algebraically independent parameters.  This module lays out
(``channel_spans``), stacks and splits the channel blocks, lists the
entries a block-diagonal (decentralized) output-feedback gain may use
(``feedback_slots``, the one description of that gain), and classifies the
parameterization (polynomial / linear / binary / unitary) by factoring each
parameter's constant derivative matrix of [A B; C 0] into a rank-one
product.  ``reachability`` answers every "what reaches what" question of the
package: the components of the colored graph, the Krylov caps of
``structural.generic_dims`` (read from ``MultiChannelSystem.pattern_reach``,
built once per system) and the gain-free components of ``fixedmodes``.

Detection reads the blocks in place: one pass over the stored entries of A,
each B_i and each C_i, at their offsets in [A B; C 0], with no stacked copy.
Each parameter is factored on its support only, and a term stores that
support (the rows and columns it touches, with the nonzero entries of g and
h there); the dense vectors g and h are derived views.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator

import numpy as np

from .polymatrix import ParamMatrix, evaluation_prime

__all__ = [
    "MultiChannelSystem",
    "ChannelSubset",
    "LinearParamDecomposition",
    "RankOneTerm",
    "Classification",
    "NotLinearlyParameterized",
    "all_subsets",
    "channel_spans",
    "feedback_slots",
    "reachability",
    "stack",
    "split",
    "detect_linear_parameterization",
    "classify",
]


class NotLinearlyParameterized(ValueError):
    """Raised when a system fails the linear-parameterization test.

    ``param_index`` names the offending parameter when one is identifiable
    (None for entry-level failures such as a constant term).
    """

    def __init__(self, reason: str, param_index: int | None = None):
        super().__init__(reason)
        self.reason = reason
        self.param_index = param_index


@dataclass(frozen=True)
class ChannelSubset:
    """A subset of channel indices (0-based, strictly increasing)."""

    members: tuple[int, ...]

    def __post_init__(self):
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("subset members must be strictly increasing")
        if self.members and self.members[0] < 0:
            raise ValueError("channel indices are 0-based and nonnegative")

    @classmethod
    def of(cls, *members: int) -> "ChannelSubset":
        return cls(tuple(sorted(members)))

    def complement(self, k: int) -> "ChannelSubset":
        inside = set(self.members)
        return ChannelSubset(tuple(i for i in range(k) if i not in inside))

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        if not self.members:
            return "{}"
        return "{" + ", ".join(str(i + 1) for i in self.members) + "}"


def all_subsets(k: int) -> list[ChannelSubset]:
    """All 2^k channel subsets, by increasing cardinality then lexicographic."""
    out = []
    for size in range(k + 1):
        for combo in itertools.combinations(range(k), size):
            out.append(ChannelSubset(combo))
    return out


@dataclass(frozen=True)
class MultiChannelSystem:
    """A k-channel parameterized linear system.

    channels lists (input width m_i, output width l_i) per channel; A is
    n x n, each B block n x m_i, each C block l_i x n, all over the same
    q-parameter space.  ``prime`` is the modulus of the prime field every
    randomized route evaluates the system in (``evaluation_prime`` of its
    blocks); construction fails when no such prime fits the coefficients.
    """

    n: int
    channels: tuple[tuple[int, int], ...]
    A: ParamMatrix
    B_blocks: tuple[ParamMatrix, ...]
    C_blocks: tuple[ParamMatrix, ...]
    q: int
    prime: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state dimension must be at least 1")
        if len(self.B_blocks) != len(self.channels) or len(self.C_blocks) != len(self.channels):
            raise ValueError("one B and one C block per channel required")
        if self.A.rows != self.n or self.A.cols != self.n:
            raise ValueError("A must be n x n")
        for i, ((m_i, l_i), B_i, C_i) in enumerate(
            zip(self.channels, self.B_blocks, self.C_blocks)
        ):
            if m_i < 0 or l_i < 0:
                raise ValueError(f"channel {i + 1} has negative width")
            if (B_i.rows, B_i.cols) != (self.n, m_i):
                raise ValueError(f"B block {i + 1} must be {self.n} x {m_i}")
            if (C_i.rows, C_i.cols) != (l_i, self.n):
                raise ValueError(f"C block {i + 1} must be {l_i} x {self.n}")
        blocks = (self.A, *self.B_blocks, *self.C_blocks)
        for mat in blocks:
            if mat.param_count != self.q:
                raise ValueError("all blocks must share the same parameter space")
        object.__setattr__(self, "prime", evaluation_prime(blocks))

    @property
    def k(self) -> int:
        return len(self.channels)

    @property
    def m(self) -> int:
        return sum(m_i for m_i, _ in self.channels)

    @property
    def l(self) -> int:
        return sum(l_i for _, l_i in self.channels)

    def subsets(self) -> list[ChannelSubset]:
        return all_subsets(self.k)

    @cached_property
    def degrees(self) -> tuple[int, int, int]:
        """(d_A, d_B, d_C): the largest entry degree of A, of the B blocks, of the C blocks."""
        return (
            self.A.degree(),
            max((B.degree() for B in self.B_blocks), default=0),
            max((C.degree() for C in self.C_blocks), default=0),
        )

    @cached_property
    def pattern_reach(self) -> np.ndarray:
        """Read-only ``reachability`` of A's stored entries read as arcs j -> i."""
        reach = reachability(self.n, ((j, i) for (i, j), _ in self.A.items()))
        reach.setflags(write=False)
        return reach


def channel_spans(channels) -> tuple[tuple[range, ...], tuple[range, ...]]:
    """Per channel, its columns of the stacked B and its rows of the stacked C."""
    cols, rows = [], []
    col = row = 0
    for m_i, l_i in channels:
        cols.append(range(col, col + m_i))
        rows.append(range(row, row + l_i))
        col += m_i
        row += l_i
    return tuple(cols), tuple(rows)


def feedback_slots(channels) -> list[tuple[int, int]]:
    """The (input, output) entries of a block-diagonal m x l gain, channel by
    channel, each block row-major: slot r is the r-th feedback parameter or gain drawn."""
    return [(r, c) for cols, rows in zip(*channel_spans(channels)) for r in cols for c in rows]


def reachability(size: int, arcs) -> np.ndarray:
    """Reflexive-transitive closure of the arcs (src, dst) on vertices 0..size-1.

    A boolean matrix, closed by repeated squaring: entry (u, v) is set iff
    v is reachable from u (u included).  The strongly connected components
    are the distinct rows of ``reach & reach.T``.
    """
    reach = np.eye(size, dtype=bool)
    pairs = np.array(list(arcs), dtype=np.intp).reshape(-1, 2)
    reach[pairs[:, 0], pairs[:, 1]] = True
    for _ in range((size - 1).bit_length()):
        reach = reach @ reach
    return reach


def stack(sys: MultiChannelSystem) -> tuple[ParamMatrix, ParamMatrix]:
    """Stacked (B, C): B is the n x m row of blocks, C the l x n column."""
    B = ParamMatrix.hstack(sys.B_blocks) if sys.k else ParamMatrix.zeros(sys.n, 0, sys.q)
    C = ParamMatrix.vstack(sys.C_blocks) if sys.k else ParamMatrix.zeros(0, sys.n, sys.q)
    return B, C


def split(sys: MultiChannelSystem, s: ChannelSubset) -> tuple[ParamMatrix, ParamMatrix]:
    """(B_S, C over the complement of S), blocks in increasing channel order.

    S empty yields an n x 0 matrix; S equal to all channels yields a 0 x n
    complement.
    """
    for i in s:
        if i >= sys.k:
            raise ValueError(f"channel index {i} out of range for k={sys.k}")
    b_mats = [sys.B_blocks[i] for i in s]
    c_mats = [sys.C_blocks[j] for j in s.complement(sys.k)]
    B_S = ParamMatrix.hstack(b_mats) if b_mats else ParamMatrix.zeros(sys.n, 0, sys.q)
    C_compl = ParamMatrix.vstack(c_mats) if c_mats else ParamMatrix.zeros(0, sys.n, sys.q)
    return B_S, C_compl


@dataclass(frozen=True)
class RankOneTerm:
    """One rank-one term of a linear parameterization: D_r = outer(g, h).

    Only supports are stored: ``rows`` and ``cols`` are the supports of g
    and h, ascending, and ``g_values`` and ``h_values`` the entries there
    (g's first is 1).  The dense g (length n + l) and h (length n + m) are
    derived views of the factored matrix's ``shape``.
    """

    param_index: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    g_values: tuple[Fraction, ...]
    h_values: tuple[Fraction, ...]
    shape: tuple[int, int]

    @property
    def g(self) -> tuple[Fraction, ...]:
        return _dense(self.rows, self.g_values, self.shape[0])

    @property
    def h(self) -> tuple[Fraction, ...]:
        return _dense(self.cols, self.h_values, self.shape[1])


@dataclass(frozen=True)
class LinearParamDecomposition:
    """Rank-one decomposition of the block matrix [A B; C 0].

    Parameters whose derivative matrix is zero are dropped; ``is_binary``
    and ``is_unitary`` report whether every g and h is a 0/1 vector,
    respectively a unit vector.  ``system`` is the system it was detected on,
    which also gives the shape.
    """

    terms: tuple[RankOneTerm, ...]
    is_binary: bool
    is_unitary: bool
    system: MultiChannelSystem = field(compare=False, repr=False)


_ZERO = Fraction(0)  # shared by every off-support position of g and h
_ONE = Fraction(1)


def _dense(support: tuple[int, ...], values: tuple[Fraction, ...], size: int) -> tuple:
    """The length-``size`` vector with ``values`` on ``support``, zero elsewhere."""
    out = [_ZERO] * size
    for i, x in zip(support, values):
        out[i] = x
    return tuple(out)


def _rank_one_factor(
    d_entries: dict[tuple[int, int], Fraction], r: int
) -> tuple[tuple[int, ...], tuple[Fraction, ...], tuple[int, ...], tuple[Fraction, ...]]:
    """Factor a nonzero derivative matrix as outer(g, h), on its support.

    ``d_entries`` holds the nonzero entries only.  Returns (rows, g_values,
    cols, h_values): the supports of g and h, ascending, and their entries
    there.  g is the first nonzero column scaled so its first nonzero entry
    (the pivot) is 1; h is then the pivot's row.  Raises when the matrix
    has rank two or more, that is when some entry x at (i, j) has
    x * pivot != column[i] * row[j], or the entries do not fill the
    rectangle supp(g) x supp(h).  The check runs on the entries scaled to
    integers by their common denominator.
    """
    if len(d_entries) == 1:
        ((i, j), x), = d_entries.items()
        return (i,), (_ONE,), (j,), (x,)
    col_star = min(j for (_, j) in d_entries)
    rows = tuple(sorted(i for (i, j) in d_entries if j == col_star))
    i_star = rows[0]
    cols = tuple(sorted(j for (i, j) in d_entries if i == i_star))
    scale = math.lcm(*(x.denominator for x in d_entries.values()))
    z = {key: x.numerator * (scale // x.denominator) for key, x in d_entries.items()}
    z_pivot = z[(i_star, col_star)]
    # an entry outside the rectangle meets a zero product, as x * z_pivot != 0
    if len(z) != len(rows) * len(cols) or any(
        x * z_pivot != z.get((i, col_star), 0) * z.get((i_star, j), 0)
        for (i, j), x in z.items()
    ):
        raise NotLinearlyParameterized(
            f"derivative matrix of parameter p{r + 1} has rank 2 or more",
            param_index=r,
        )
    pivot = d_entries[(i_star, col_star)]
    g_values = tuple(d_entries[(i, col_star)] for i in rows)
    if pivot != 1:
        g_values = tuple(x / pivot for x in g_values)
    return rows, g_values, cols, tuple(d_entries[(i_star, j)] for j in cols)


def _rank_one_terms(
    blocks: list[tuple[ParamMatrix, int, int]], rows: int, cols: int
) -> tuple[tuple[RankOneTerm, ...], bool, bool]:
    """Rank-one terms of a rows x cols homogeneous-linear matrix, read in place.

    ``blocks`` lists (matrix, row offset, column offset): the stored entries
    of each matrix, moved by its offsets, are the nonzero entries of the
    whole matrix.  An entry that is not a homogeneous linear form raises;
    of several, the first in (row, column) order is reported.  Returns
    (terms, is_binary, is_unitary).
    """
    derivatives: dict[int, dict[tuple[int, int], Fraction]] = {}
    first_bad = None
    for mat, row_off, col_off in blocks:
        for (i, j), poly in mat.items():
            key = (i + row_off, j + col_off)
            coeffs = poly.linear_coefficients()
            if coeffs is None:
                if first_bad is None or key < first_bad[0]:
                    first_bad = (key, poly)
                continue
            for r, coeff in coeffs.items():
                derivatives.setdefault(r, {})[key] = coeff
    if first_bad is not None:
        (i, j), poly = first_bad
        kind = "constant term" if poly.constant_term != 0 else "nonlinear entry"
        raise NotLinearlyParameterized(
            f"{kind} at row {i + 1}, column {j + 1}: {poly!r}",
            param_index=None,
        )
    terms = []
    is_binary = True
    is_unitary = True
    for r in sorted(derivatives):
        support_rows, g_values, support_cols, h_values = _rank_one_factor(derivatives[r], r)
        # binary: every entry g[i] h[j] is 1, so (as g's pivot is 1) every g and h value is
        if is_binary and any(x != 1 for x in g_values + h_values):
            is_binary = False
        if len(derivatives[r]) != 1 or h_values[0] != 1:
            is_unitary = False
        terms.append(
            RankOneTerm(
                param_index=r,
                rows=support_rows,
                cols=support_cols,
                g_values=g_values,
                h_values=h_values,
                shape=(rows, cols),
            )
        )
    return tuple(terms), is_binary, is_unitary


def detect_linear_parameterization(sys: MultiChannelSystem) -> LinearParamDecomposition:
    """Decompose [A B; C 0] into rank-one parameter terms, or raise.

    The blocks are read in place: A at (0, 0), B_i and C_i at their
    offsets in the stacked input columns and output rows.  Raises
    NotLinearlyParameterized when an entry is not a homogeneous linear
    form or some parameter's derivative matrix has rank two or more (which
    also catches a parameter appearing in both B and C).
    """
    n = sys.n
    in_cols, out_rows = channel_spans(sys.channels)
    blocks = [(sys.A, 0, 0)]
    blocks += [(B_i, 0, n + cols.start) for B_i, cols in zip(sys.B_blocks, in_cols)]
    blocks += [(C_i, n + rows.start, 0) for C_i, rows in zip(sys.C_blocks, out_rows)]
    terms, is_binary, is_unitary = _rank_one_terms(blocks, n + sys.l, n + sys.m)
    return LinearParamDecomposition(
        terms=terms,
        is_binary=is_binary,
        is_unitary=is_unitary,
        system=sys,
    )


def _own_decomposition(
    sys: MultiChannelSystem, decomp: LinearParamDecomposition | None
) -> LinearParamDecomposition:
    """``decomp`` if it was detected on ``sys`` or on an equal system, else raise;
    None detects it.  Identity is checked first: the usual caller pays no comparison."""
    if decomp is None:
        return detect_linear_parameterization(sys)
    if decomp.system is not sys and decomp.system != sys:
        raise ValueError("the decomposition does not belong to this system")
    return decomp


@dataclass(frozen=True)
class Classification:
    """Parameterization class of a system, with the decomposition when linear."""

    polynomial: bool
    linear: bool
    binary: bool
    unitary: bool
    decomposition: LinearParamDecomposition | None
    linear_failure: str | None

    def as_dict(self) -> dict:
        return {
            "polynomial": self.polynomial,
            "linear": self.linear,
            "binary": self.binary,
            "unitary": self.unitary,
            "linear_failure": self.linear_failure,
        }


def classify(sys: MultiChannelSystem) -> Classification:
    """Classify the parameterization; linear failure reasons are retained."""
    try:
        decomp = detect_linear_parameterization(sys)
    except NotLinearlyParameterized as err:
        return Classification(
            polynomial=True,
            linear=False,
            binary=False,
            unitary=False,
            decomposition=None,
            linear_failure=err.reason,
        )
    return Classification(
        polynomial=True,
        linear=True,
        binary=decomp.is_binary,
        unitary=decomp.is_unitary,
        decomposition=decomp,
        linear_failure=None,
    )
