"""Fixed-spectrum computation for numeric multi-channel systems.

A complex number is in the fixed spectrum exactly when some channel subset S
makes the bordered pencil [lambda I - A, B_S; C over the complement, 0] drop
below rank n.  This module runs that test over all eigenvalues and subsets,
and provides a definition-level oracle that intersects closed-loop spectra
over many random block-diagonal feedback gains.

A ``NumericSystem`` is built once per sample: its float views
(``NumericSystem._floats``) and the clustered eigenvalues of its float A,
which ``fixed_spectrum`` and the oracle read, are computed once.

``fixed_spectrum`` decides each (eigenvalue, subset) pair exactly as one
``pencil_rank_deficient`` test would, but runs that test only where its
outcome is open:

* Conjugate sharing.  A, B and C are real, so the pencil at conj(lambda) is
  the entrywise conjugate of the pencil at lambda and has the same singular
  values.  An eigenvalue below the real axis whose exact conjugate is also
  tested takes that conjugate's witnesses.
* One-channel screen.  Every subset's rank threshold tol * sigma_max *
  max(shape) is at most
  thr = tol * (n + max(m, l)) * sqrt(|lambda I - A|_F^2 + |B|_F^2 + |C|_F^2),
  because sigma_max is at most the Frobenius norm and the pencil is at most
  (n + l) x (n + m).  [lambda I - A, B_i] (the B side of channel i) is a
  submatrix of every pencil whose subset contains i, and [lambda I - A; C_i]
  (its C side) of every pencil whose subset leaves i out; deleting rows or
  columns cannot raise a singular value (interlacing), so sigma_n(pencil) >=
  sigma_n(side).  A side with sigma_n above thr therefore rules out those
  subsets.

  sigma_n(M)^2 is the smallest eigenvalue of the Gram matrix G = M M^H (B
  side) or M^H M (C side), so sigma_n(M) > sqrt(tau) exactly when G - tau I
  is positive definite, which one Cholesky factorization tests.  G is built
  in O(n^2) per lambda from A A^T and A^T A, computed once per call:
  G_B = |lambda|^2 I - lambda A^T - conj(lambda) A + A A^T + B_i B_i^T, and
  G_C the same with A^T A + C_i^T C_i.  With u the unit roundoff, d = n plus
  the widest channel's columns (rows) and S = (|lambda| sqrt(n) + |A|_F)^2 +
  |B|_F^2 (|C|_F^2), S bounds trace(G) and the 2-norm of the entrywise
  absolute values summed into G.  The screen uses
  tau = (thr + e_svd)^2 + delta, where

  - delta = 4 (d + 8) u S covers rounding: forming G - tau I errs by at most
    2 gamma_{d+6} S + gamma_4 tau in the 2-norm, and a Cholesky
    factorization that succeeds is exact for the matrix it factored plus E
    with |E|_2 <= gamma_{n+1} / (1 - gamma_{n+1}) trace(G) (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 10.5);
  - e_svd = 8 d^2 u sqrt(S) covers the backward error of an SVD of the side
    (a small multiple of d u |M|_2) and the rounding of lambda I - A;
  - thr is evaluated with |lambda| sqrt(n) + |A|_F in place of
    |lambda I - A|_F and a factor 1 + 4 N u for N summed squares, so it is
    never below thr evaluated as a sum of squares in any order.

  So a side the Cholesky clears has sigma_n > thr + e_svd, and an SVD of it
  would give sigma_n above thr: every side this screen clears is one an SVD
  screen against thr clears too.  A side that fails stays open.  An S
  below 2^-900 (where underflow could outgrow these bounds), an S near the
  float range or an infinite tau also leaves the side open.

  A channel that clears its B side rules out every subset that contains it,
  and one that clears its C side every subset that leaves it out.  Once one
  channel clears both sides at lambda, every subset contains it or leaves
  it out, so none stays open: later channels skip that lambda, as their
  bits could only rule out subsets already ruled out.  Each side of a
  channel is one batched factorization over the lambdas still open
  (``np.linalg.cholesky`` raises for a whole stack when one matrix fails,
  so a failed stack is split in halves until each failure stands alone).
  The pairs that remain go to ``pencil_rank_deficient``, one batched call
  per subset, so the screen changes which tests run, never their outcome:
  only a pencil whose sigma_n rounds onto its own threshold could be
  decided otherwise, and there the full test itself is not reproducible.

``random_feedback_oracle`` solves only the part of a closed loop a gain can
move.  Let P be (A != 0) together with rowsupp(B_i) x colsupp(C_i) for every
channel i.  An entry of A + B F C outside P is an exact float zero for every
block-diagonal F: each product in its sum has an exact-zero factor.  So one
symmetric permutation, to the order of P's strongly connected components
(read from ``system.reachability``, as the colored graph's are), makes every
closed loop block upper triangular, and its spectrum is the union of the
spectra of the diagonal blocks.  A component with no entry of any
rowsupp(B_i) x colsupp(C_i) inside is gain-free: its block equals A's, bit
for bit, under every F.  The eigenvalues of A over the gain-free states are
computed once; an eigenvalue of A within DEFAULT_CLUSTER_TOL of one of
them is pinned (it is in every closed loop) and needs no gain.  Every other
eigenvalue is farther from all pinned ones, so it survives a gain exactly
when the closed loop over the gain-touched states keeps it.  Those loops use the gains a
one-gain-at-a-time loop would draw, in the same order (slot by slot, in
``system.feedback_slots`` order), stacked in chunks of 1, 2, 4, ... up to 64
gains for one ``eigvals`` call each.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polymatrix import ParamPoint
from .system import (
    ChannelSubset,
    MultiChannelSystem,
    all_subsets,
    channel_spans,
    feedback_slots,
    reachability,
)

__all__ = [
    "NumericSystem",
    "FloatRangeError",
    "FixedEigenvalue",
    "FixedSpectrumResult",
    "pencil_rank_deficient",
    "fixed_spectrum",
    "random_feedback_oracle",
]

DEFAULT_RANK_TOL = 1e-9
DEFAULT_CLUSTER_TOL = 1e-6
ORACLE_CHUNK = 64  # most gains stacked into one eigvals call; bounds the buffers
UNIT_ROUNDOFF = 2.0**-53
# below this S, underflow could exceed the screen's relative error bounds
SCREEN_MIN_SCALE = 2.0**-900


class FloatRangeError(OverflowError):
    """An exact entry of a numeric system is outside the float range.

    Either it is too large for a float, or it is nonzero and too small: it
    would round to 0.0 and silently change the system's zero pattern.
    """


def _exact_matrix(data) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in data)


def _nonzeros(M) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i, row in enumerate(M) for j, x in enumerate(row) if x)


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
        # a rational evaluation already yields Fraction entries
        return cls(
            n=sys.n,
            channels=sys.channels,
            A=tuple(map(tuple, sys.A.evaluate(point))),
            B_blocks=tuple(tuple(map(tuple, B.evaluate(point))) for B in sys.B_blocks),
            C_blocks=tuple(tuple(map(tuple, C.evaluate(point))) for C in sys.C_blocks),
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

    @cached_property
    def _floats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only float A, stacked B (n x m) and stacked C (l x n), built once.

        Each starts as zeros, and only the nonzero exact entries are
        converted, with float(): it rounds a Fraction correctly, as
        np.array(..., dtype=float) does, so the bits are those of a dense
        conversion.  An entry too large for a float, or a nonzero one that
        rounds to 0.0, raises FloatRangeError.
        """
        n = self.n
        A, B, C = np.zeros((n, n)), np.zeros((n, self.m)), np.zeros((self.l, n))
        cols, rows = self._channel_index
        views = (
            [("A", A)]
            + [(f"B[{i + 1}]", B[:, c.start : c.stop]) for i, c in enumerate(cols)]
            + [(f"C[{i + 1}]", C[r.start : r.stop]) for i, r in enumerate(rows)]
        )
        for (name, view), M in zip(views, (self.A, *self.B_blocks, *self.C_blocks)):
            for i, j in _nonzeros(M):
                try:
                    x = float(M[i][j])
                except OverflowError:
                    raise FloatRangeError(
                        f"entry ({i}, {j}) of {name} evaluates to a value too large for a float"
                    ) from None
                if not x:
                    raise FloatRangeError(
                        f"entry ({i}, {j}) of {name} evaluates to a nonzero value too small"
                        " for a float"
                    )
                view[i, j] = x
        for M in (A, B, C):
            M.setflags(write=False)
        return A, B, C

    @cached_property
    def _eigenvalues(self) -> tuple[complex, ...]:
        """The eigenvalues of the float A, merged within DEFAULT_CLUSTER_TOL (a set)."""
        eigs = np.linalg.eigvals(self._floats[0])
        return tuple(_cluster(list(map(complex, eigs)), DEFAULT_CLUSTER_TOL))

    @cached_property
    def _channel_index(self) -> tuple[tuple[range, ...], tuple[range, ...]]:
        """Per channel, its columns of the stacked B and its rows of the stacked C."""
        return channel_spans(self.channels)

    def A_array(self) -> np.ndarray:
        return self._floats[0].copy()

    def B_array(self, s: ChannelSubset | None = None) -> np.ndarray:
        B = self._floats[1]
        if s is None:
            return B.copy()
        return B[:, [j for i in s.members for j in self._channel_index[0][i]]]

    def C_array(self, s: ChannelSubset | None = None) -> np.ndarray:
        C = self._floats[2]
        if s is None:
            return C.copy()
        return C[[j for i in s.members for j in self._channel_index[1][i]]]


@dataclass(frozen=True)
class FixedEigenvalue:
    value: complex
    witnesses: tuple[ChannelSubset, ...]


@dataclass(frozen=True)
class FixedSpectrumResult:
    """Fixed eigenvalues with their witness subsets.

    Eigenvalues are multiplicity-agnostic: values closer than
    DEFAULT_CLUSTER_TOL are merged and reported once.
    """

    fixed_eigenvalues: tuple[FixedEigenvalue, ...]

    def values(self) -> list[complex]:
        return [fe.value for fe in self.fixed_eigenvalues]

    @property
    def is_empty(self) -> bool:
        return not self.fixed_eigenvalues


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
    by one batched SVD.  A singular value counts toward a pencil's rank
    when it exceeds that pencil's own threshold tol * sigma_max *
    max(shape), so a zero pencil has rank 0.
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
        for group in clusters:
            if abs(z - group[0]) <= radius:
                group.append(z)
                break
        else:
            clusters.append([z])
    return [sum(g) / len(g) for g in clusters]


def _cholesky_succeeds(grams: np.ndarray) -> np.ndarray:
    """Per matrix of a nonempty stack, whether its Cholesky factorization succeeds.

    One call factors the whole stack.  It raises when any matrix fails, so a
    failed stack is split in halves until each failing matrix stands alone.
    """
    try:
        np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        if len(grams) == 1:
            return np.zeros(1, dtype=bool)
        half = len(grams) // 2
        return np.concatenate(
            (_cholesky_succeeds(grams[:half]), _cholesky_succeeds(grams[half:]))
        )
    return np.ones(len(grams), dtype=bool)


def _screen_sides(nsys: NumericSystem, lams: np.ndarray, tol: float):
    """The one-channel side tests at ``lams`` (module docstring).

    Returns ``sides(i, live)``: for the lambdas ``lams[live]``, whether the B
    side and whether the C side of channel i clear thr.  Everything but the
    channel's own Gram term and the factorizations is computed here, once.
    Quantities that overflow belong to lambdas the bounds do not trust, which
    are never factored; callers silence those floating-point warnings.
    """
    A, B, C = nsys._floats
    n, m, l = nsys.n, nsys.m, nsys.l
    cols, rows = nsys._channel_index
    a2, b2, c2 = np.vdot(A, A), np.vdot(B, B), np.vdot(C, C)
    # per side (row 0: B, row 1: C): the squared norm in S, and d
    norms2 = np.array([[b2], [c2]])
    d = n + np.array([[max((w for w, _ in nsys.channels), default=0)],
                      [max((w for _, w in nsys.channels), default=0)]])
    u = UNIT_ROUNDOFF
    # 1 + 4 N u, N = n^2 + n (m + l) + 16: never below thr as a sum of squares in any order
    thr_factor = tol * (n + max(m, l)) * (1 + 4 * (n * n + n * (m + l) + 16) * u)
    modulus = np.abs(lams)
    base = (modulus * math.sqrt(n) + math.sqrt(a2)) ** 2  # >= |lambda I - A|_F^2
    thr = thr_factor * np.sqrt(base + (b2 + c2))
    scale = base + norms2  # S per (side, lambda)
    e_svd = 8 * u * d * d * np.sqrt(scale)
    tau = (thr + e_svd) ** 2 + 4 * u * (d + 8) * scale
    trusted = np.isfinite(4 * (tau + scale)) & (scale >= SCREEN_MIN_SCALE)
    shift = modulus**2 - tau  # the diagonal |lambda|^2 - tau
    real = lams.imag == 0
    # -lambda A^T - conj(lambda) A, real and imaginary parts apart
    if real.all():
        cross = np.multiply.outer(-lams.real, A + A.T)
    else:
        cross = np.empty((lams.size, n, n), dtype=complex)
        np.multiply.outer(-lams.real, A + A.T, out=cross.real)
        np.multiply.outer(-lams.imag, A.T - A, out=cross.imag)
    a_grams = (A @ A.T, A.T @ A)

    def clears(side, live, X):
        """Per lambda in ``live``: does G - tau I of this side, with X X^T, factor?"""
        ok = trusted[side, live]
        at = live[ok]
        if at.size:
            grams = (cross[at].real if real[at].all() else cross[at]) + (a_grams[side] + X @ X.T)
            # the diagonal of each n x n block, through a flat view
            grams.reshape(at.size, n * n)[:, :: n + 1] += shift[side, at, None]
            ok[ok] = _cholesky_succeeds(grams)
        return ok

    def sides(i, live):
        return clears(0, live, B[:, cols[i]]), clears(1, live, C[rows[i]].T)

    return sides


def _one_channel_screen(
    nsys: NumericSystem, lams: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bit masks, one per lambda, of the channels that clear thr on each side.

    Bit i of the first mask is set when G_B - tau I of channel i has a
    Cholesky factor, bit i of the second when G_C - tau I has one; either
    proves sigma_n of that side above thr, the upper bound on every
    subset's rank threshold (module docstring).  Each side is one batched
    factorization per channel, over the lambdas that no earlier channel
    cleared on both sides.
    """
    b_pass = np.zeros(lams.size, dtype=np.int64)
    c_pass = np.zeros(lams.size, dtype=np.int64)
    live = np.arange(lams.size)
    with np.errstate(over="ignore", invalid="ignore"):
        sides = _screen_sides(nsys, lams, tol)
        for i in range(nsys.k):
            if not live.size:
                break
            b_ok, c_ok = sides(i, live)
            b_pass[live] |= np.where(b_ok, 1 << i, 0)
            c_pass[live] |= np.where(c_ok, 1 << i, 0)
            live = live[~(b_ok & c_ok)]
    return b_pass, c_pass


def _witnesses(
    nsys: NumericSystem, reps: Sequence[complex], tol: float
) -> list[list[ChannelSubset]]:
    """Per lambda in ``reps``, every subset whose pencil drops rank, in subset order."""
    at = {z: j for j, z in enumerate(reps)}
    partner = [at.get(z.conjugate()) if z.imag < 0 else None for z in reps]
    tested = [j for j, p in enumerate(partner) if p is None]
    lams = np.array([reps[j] for j in tested], dtype=complex)
    b_pass, c_pass = _one_channel_screen(nsys, lams, tol)
    A = nsys._floats[0]
    witnesses: list[list[ChannelSubset]] = [[] for _ in reps]
    for s in all_subsets(nsys.k):
        bits = sum(1 << i for i in s.members)
        # S is ruled out by a member passing on B or a non-member passing on C
        open_ = np.flatnonzero(((b_pass & bits) == 0) & ((c_pass & ~bits) == 0))
        if not open_.size:
            continue
        B_S = nsys.B_array(s)
        C_compl = nsys.C_array(s.complement(nsys.k))
        deficient = pencil_rank_deficient(A, B_S, C_compl, lams[open_], tol)
        for t in open_[deficient]:
            witnesses[tested[t]].append(s)
    for j, p in enumerate(partner):
        if p is not None:
            witnesses[j] = witnesses[p]
    return witnesses


def fixed_spectrum(nsys: NumericSystem, tol: float = DEFAULT_RANK_TOL) -> FixedSpectrumResult:
    """All eigenvalues of A that some channel subset keeps fixed.

    Eigenvalues closer than DEFAULT_CLUSTER_TOL are merged and tested once;
    subsets are scanned by increasing cardinality, every witness retained.
    The result is that of one ``pencil_rank_deficient`` test per
    (eigenvalue, subset); conjugate sharing and the one-channel screen
    (module docstring) skip the tests whose outcome is already decided.
    """
    reps = nsys._eigenvalues
    fixed = [
        FixedEigenvalue(value=lam, witnesses=tuple(ws))
        for lam, ws in zip(reps, _witnesses(nsys, reps, tol))
        if ws
    ]
    return FixedSpectrumResult(fixed_eigenvalues=tuple(fixed))


def _gain_free_states(nsys: NumericSystem) -> np.ndarray:
    """Mask of the states in a strongly connected component of P with no gain entry.

    P = (A != 0) | G, with G the union of rowsupp(B_i) x colsupp(C_i): the
    entries a block-diagonal gain can reach, each entry (i, j) read as an
    arc i -> j; states reaching each other share a component.
    """
    A, B, C = nsys._floats
    gain = np.zeros((nsys.n, nsys.n), dtype=bool)
    for cols, rows in zip(*nsys._channel_index):
        gain |= np.outer(B[:, cols].any(axis=1), C[rows].any(axis=0))
    reach = reachability(nsys.n, zip(*np.nonzero((A != 0) | gain)))
    component = reach & reach.T
    return ~np.any((component @ gain) & component, axis=1)


def random_feedback_oracle(
    nsys: NumericSystem,
    samples: int = 1000,
    seed: int = 0,
) -> list[complex]:
    """Definition-level oracle: intersect closed-loop spectra over random gains.

    Starts from the spectrum of A itself (zero feedback is admissible) and
    keeps the eigenvalues that persist, within DEFAULT_CLUSTER_TOL, across
    random block-diagonal gains with entries uniform in [-1, 1] scaled by
    the norm of A.  One-sided: may over-approximate with vanishing probability.

    ``samples`` is the number of gains the loop may draw.  Every closed loop
    is block upper triangular in the component order of its pattern (module
    docstring), so an eigenvalue within DEFAULT_CLUSTER_TOL of the spectrum
    of A over the gain-free components is pinned: it is in every closed
    loop and needs no gain.  The others are tested on the closed loop over
    the gain-touched states only, with the gains drawn one after another,
    channel by channel, and stacked in chunks of 1, 2, 4, ... up to ORACLE_CHUNK for one
    ``eigvals`` call each.  The loop stops once none of them survives.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    A, B, C = nsys._floats
    scale = max(1.0, float(np.linalg.norm(A)))
    values = np.array(nsys._eigenvalues, dtype=complex)
    free = _gain_free_states(nsys)
    pins = np.linalg.eigvals(A[np.ix_(free, free)]) if free.any() else values[:0]
    pinned = np.any(np.abs(values[:, None] - pins) <= DEFAULT_CLUSTER_TOL, axis=1)
    touched = ~free
    # with no gain-touched state every closed loop has A's spectrum: nothing to test
    live = np.flatnonzero(~pinned & touched.any())
    A_t, B_t, C_t = A[np.ix_(touched, touched)], B[touched], C[:, touched]
    # the block-diagonal slots of F, in drawing order
    slots = feedback_slots(nsys.channels)
    f_rows, f_cols = np.array(slots, dtype=np.intp).reshape(-1, 2).T
    drawn, chunk = 0, 1
    while live.size and drawn < samples:
        size = min(chunk, samples - drawn)
        gains = [rng.uniform(-scale, scale) for _ in range(size * len(slots))]
        F = np.zeros((size, nsys.m, nsys.l))
        F[:, f_rows, f_cols] = np.reshape(gains, (size, len(slots)))
        eigs = np.linalg.eigvals(A_t + B_t @ F @ C_t)
        gaps = np.abs(eigs[:, :, None] - values[live])
        live = live[np.all(gaps.min(axis=1) <= DEFAULT_CLUSTER_TOL, axis=0)]
        drawn += size
        chunk = min(2 * chunk, ORACLE_CHUNK)
    pinned[live] = True
    return [z for z, keep in zip(nsys._eigenvalues, pinned) if keep]
