"""Fixed-spectrum computation for numeric multi-channel systems.

A complex number is in the fixed spectrum exactly when some channel subset S
makes the bordered pencil [lambda I - A, B_S; C over the complement, 0] drop
below rank n.  This module runs that test over all eigenvalues and subsets,
and provides a definition-level oracle that intersects closed-loop spectra
over many random block-diagonal feedback gains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polymatrix import ParamPoint
from .system import ChannelSubset, MultiChannelSystem, all_subsets

__all__ = [
    "NumericSystem",
    "FixedEigenvalue",
    "FixedSpectrumResult",
    "numeric_rank",
    "pencil_rank_deficient",
    "fixed_spectrum",
    "random_feedback_oracle",
]

DEFAULT_RANK_TOL = 1e-9
DEFAULT_CLUSTER_TOL = 1e-6


def _exact_matrix(data) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in data)


@dataclass(frozen=True)
class NumericSystem:
    """A multi-channel system at a fixed parameter value, entries exact rationals."""

    n: int
    channels: tuple[tuple[int, int], ...]
    A: tuple[tuple[Fraction, ...], ...]
    B_blocks: tuple[tuple[tuple[Fraction, ...], ...], ...]
    C_blocks: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state dimension must be at least 1")
        if len(self.A) != self.n or any(len(row) != self.n for row in self.A):
            raise ValueError("A must be n x n")
        for i, ((m_i, l_i), B_i, C_i) in enumerate(
            zip(self.channels, self.B_blocks, self.C_blocks)
        ):
            if len(B_i) != self.n or any(len(row) != m_i for row in B_i):
                raise ValueError(f"B block {i + 1} must be {self.n} x {m_i}")
            if len(C_i) != l_i or any(len(row) != self.n for row in C_i):
                raise ValueError(f"C block {i + 1} must be {l_i} x {self.n}")

    @classmethod
    def build(cls, A, B_blocks, C_blocks) -> "NumericSystem":
        A = _exact_matrix(A)
        Bs = tuple(_exact_matrix(B) for B in B_blocks)
        Cs = tuple(_exact_matrix(C) for C in C_blocks)
        channels = tuple(
            (len(B[0]) if B else 0, len(C)) for B, C in zip(Bs, Cs)
        )
        return cls(n=len(A), channels=channels, A=A, B_blocks=Bs, C_blocks=Cs)

    @classmethod
    def from_system(cls, sys: MultiChannelSystem, point: ParamPoint) -> "NumericSystem":
        """Evaluate a parameterized system at a rational parameter point."""
        if point.modulus is not None:
            raise ValueError("numeric systems require a rational point")
        return cls(
            n=sys.n,
            channels=sys.channels,
            A=_exact_matrix(sys.A.evaluate(point)),
            B_blocks=tuple(_exact_matrix(B.evaluate(point)) for B in sys.B_blocks),
            C_blocks=tuple(_exact_matrix(C.evaluate(point)) for C in sys.C_blocks),
        )

    @property
    def k(self) -> int:
        return len(self.channels)

    @property
    def m(self) -> int:
        return sum(m_i for m_i, _ in self.channels)

    @property
    def l(self) -> int:
        return sum(l_i for _, l_i in self.channels)

    # -- float views ---------------------------------------------------------

    def A_array(self) -> np.ndarray:
        return np.array(self.A, dtype=float) if self.n else np.zeros((0, 0))

    def B_array(self, s: ChannelSubset | None = None) -> np.ndarray:
        idx = range(self.k) if s is None else s.members
        cols = sum(self.channels[i][0] for i in idx)
        out = np.zeros((self.n, cols))
        at = 0
        for i in idx:
            m_i = self.channels[i][0]
            if m_i:
                out[:, at : at + m_i] = np.array(self.B_blocks[i], dtype=float)
            at += m_i
        return out

    def C_array(self, s: ChannelSubset | None = None) -> np.ndarray:
        idx = range(self.k) if s is None else s.members
        rows = sum(self.channels[i][1] for i in idx)
        out = np.zeros((rows, self.n))
        at = 0
        for i in idx:
            l_i = self.channels[i][1]
            if l_i:
                out[at : at + l_i, :] = np.array(self.C_blocks[i], dtype=float)
            at += l_i
        return out


@dataclass(frozen=True)
class FixedEigenvalue:
    value: complex
    witnesses: tuple[ChannelSubset, ...]


@dataclass(frozen=True)
class FixedSpectrumResult:
    """Fixed eigenvalues with their witness subsets and the tolerances used.

    Eigenvalues are multiplicity-agnostic: values closer than cluster_tol
    are merged and reported once.
    """

    fixed_eigenvalues: tuple[FixedEigenvalue, ...]
    rank_tol: float
    cluster_tol: float

    def values(self) -> list[complex]:
        return [fe.value for fe in self.fixed_eigenvalues]

    @property
    def is_empty(self) -> bool:
        return not self.fixed_eigenvalues


def numeric_rank(M: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank by SVD; a singular value counts if above tol * sigma_max * max(shape)."""
    if M.size == 0:
        return 0
    sigma = np.linalg.svd(M, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    threshold = tol * sigma[0] * max(M.shape)
    return int(np.count_nonzero(sigma > threshold))


def pencil_rank_deficient(
    A: np.ndarray,
    B_S: np.ndarray,
    C_compl: np.ndarray,
    lam: complex | np.ndarray,
    tol: float = DEFAULT_RANK_TOL,
) -> bool | np.ndarray:
    """True iff the bordered pencil at lambda has rank below n.

    ``lam`` is a complex number, or a 1-D array of them; an array gives a
    bool array, one entry per lambda.  The pencils are stacked and ranked
    by one batched SVD, each against its own threshold
    tol * sigma_max * max(shape), as ``numeric_rank`` does (so a zero
    pencil has rank 0).
    """
    lams = np.asarray(lam, dtype=complex)
    n = A.shape[0]
    ms = B_S.shape[1]
    lc = C_compl.shape[0]
    pencils = np.zeros((lams.size, n + lc, n + ms), dtype=complex)
    pencils[:, :n, :n] = lams.reshape(-1, 1, 1) * np.eye(n) - A
    if ms:
        pencils[:, :n, n:] = B_S
    if lc:
        pencils[:, n:, :n] = C_compl
    sigma = np.linalg.svd(pencils, compute_uv=False)
    threshold = tol * sigma[:, :1] * max(n + lc, n + ms)
    deficient = np.count_nonzero(sigma > threshold, axis=1) < n
    return bool(deficient[0]) if lams.ndim == 0 else deficient


def _cluster(values: Sequence[complex], radius: float) -> list[complex]:
    """Greedy clustering of complex values; representatives are cluster means."""
    order = sorted(values, key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
    for z in order:
        placed = False
        for group in clusters:
            if abs(z - group[0]) <= radius:
                group.append(z)
                placed = True
                break
        if not placed:
            clusters.append([z])
    return [sum(g) / len(g) for g in clusters]


def fixed_spectrum(
    nsys: NumericSystem,
    tol: float = DEFAULT_RANK_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> FixedSpectrumResult:
    """All eigenvalues of A that some channel subset keeps fixed.

    Eigenvalues closer than cluster_tol are merged and tested once; subsets
    are scanned by increasing cardinality, every witness retained.  Each
    subset's pencils at all the merged eigenvalues go to one
    ``pencil_rank_deficient`` call.
    """
    A = nsys.A_array()
    eigs = np.linalg.eigvals(A)
    reps = _cluster(list(map(complex, eigs)), cluster_tol)
    lams = np.array(reps, dtype=complex)
    witnesses: list[list[ChannelSubset]] = [[] for _ in reps]
    for s in all_subsets(nsys.k):
        B_S, C_compl = nsys.B_array(s), nsys.C_array(s.complement(nsys.k))
        deficient = pencil_rank_deficient(A, B_S, C_compl, lams, tol)
        for found, lam_witnesses in zip(deficient, witnesses):
            if found:
                lam_witnesses.append(s)
    fixed = [
        FixedEigenvalue(value=lam, witnesses=tuple(ws))
        for lam, ws in zip(reps, witnesses)
        if ws
    ]
    return FixedSpectrumResult(
        fixed_eigenvalues=tuple(fixed), rank_tol=tol, cluster_tol=cluster_tol
    )


def random_feedback_oracle(
    nsys: NumericSystem,
    samples: int = 1000,
    seed: int = 0,
    tol: float = DEFAULT_CLUSTER_TOL,
) -> list[complex]:
    """Definition-level oracle: intersect closed-loop spectra over random gains.

    Starts from the spectrum of A itself (zero feedback is admissible) and
    keeps the eigenvalues that persist, within tol, across ``samples`` random
    block-diagonal gains with entries uniform in [-1, 1] scaled by the norm
    of A.  One-sided: may over-approximate with vanishing probability.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    A = nsys.A_array()
    B = nsys.B_array()
    C = nsys.C_array()
    scale = max(1.0, float(np.linalg.norm(A)))
    # the fixed spectrum is a set: merge repeated eigenvalues of A up front
    survivors = _cluster(list(map(complex, np.linalg.eigvals(A))), tol)
    col_off = [0]
    for _, l_i in nsys.channels:
        col_off.append(col_off[-1] + l_i)
    row_off = [0]
    for m_i, _ in nsys.channels:
        row_off.append(row_off[-1] + m_i)
    for _ in range(samples):
        if not survivors:
            break
        F = np.zeros((nsys.m, nsys.l))
        for i, (m_i, l_i) in enumerate(nsys.channels):
            for r in range(m_i):
                for c in range(l_i):
                    F[row_off[i] + r, col_off[i] + c] = rng.uniform(-scale, scale)
        closed = A + B @ F @ C
        eigs = np.linalg.eigvals(closed)
        survivors = [z for z in survivors if np.min(np.abs(eigs - z)) <= tol]
    return survivors
