"""Shared fixtures: the worked two-channel example and friends."""

import importlib
import sys
from pathlib import Path

import pytest

from sfspectrum import MultiChannelSystem, NumericSystem, ParamMatrix, ParamPoly
from sfspectrum.polymatrix import Echelon
from sfspectrum.structural import _mat_mul_mod
from sfspectrum.system import feedback_slots

p = ParamPoly.param

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """A module of the benchmark harness in ``perfbench/``, imported by name."""
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    return importlib.import_module(name)


def dense_krylov_dim(rows, M, prime: int) -> int:
    """Reference: dimension of the smallest M-invariant row space holding ``rows``.

    The stall-stop growth with dense products (``_mat_mul_mod``) by a dense
    M and no cap, so an oracle built on it shares no code with the sparse
    products of ``structural._krylov_dim``.
    """
    basis = Echelon(prime)
    while rows:
        kept = [r for r in rows if basis.add(r)]
        rows = _mat_mul_mod(kept, M, prime) if kept else []
    return len(basis)


def symbolic_feedback(channels, offset: int = 0) -> ParamMatrix:
    """The block-diagonal m x l gain F of ``channels`` with one fresh parameter per entry.

    Slot r of ``feedback_slots`` holds parameter ``offset + r``; F lives over
    ``offset`` + (sum of m_i l_i) parameters, so an offset of q puts the
    gains after a system's own parameters.
    """
    slots = feedback_slots(channels)
    entries = {slot: p(offset + r) for r, slot in enumerate(slots)}
    m, l = sum(m_i for m_i, _ in channels), sum(l_i for _, l_i in channels)
    return ParamMatrix(m, l, entries, offset + len(slots))


def two_channel_shared_params() -> MultiChannelSystem:
    """Two-channel system whose parameters appear in several locations.

    A = [[p1, p1], [0, p2]], b1 = [0, p2]', b2 = [p3, 0]', c1 = [p4, 0],
    c2 = [p1, p1]; linearly parameterized, binary, not unitary, and known
    to have no structurally fixed spectrum.
    """
    return MultiChannelSystem(
        n=2,
        channels=((1, 1), (1, 1)),
        A=ParamMatrix.from_rows([[p(0), p(0)], [0, p(1)]], 4),
        B_blocks=(
            ParamMatrix.from_rows([[0], [p(1)]], 4),
            ParamMatrix.from_rows([[p(2)], [0]], 4),
        ),
        C_blocks=(
            ParamMatrix.from_rows([[p(3), 0]], 4),
            ParamMatrix.from_rows([[p(0), p(0)]], 4),
        ),
        q=4,
    )


def repeated_diagonal_counterexample() -> MultiChannelSystem:
    """Same shape but A = diag(p1, p1): p1's derivative matrix has rank 2."""
    return MultiChannelSystem(
        n=2,
        channels=((1, 1), (1, 1)),
        A=ParamMatrix.from_rows([[p(0), 0], [0, p(0)]], 4),
        B_blocks=(
            ParamMatrix.from_rows([[0], [p(1)]], 4),
            ParamMatrix.from_rows([[p(2)], [0]], 4),
        ),
        C_blocks=(
            ParamMatrix.from_rows([[p(3), 0]], 4),
            ParamMatrix.from_rows([[p(0), p(0)]], 4),
        ),
        q=4,
    )


def chain_with_fixed_mode() -> NumericSystem:
    """Lower-triangular chain where each channel touches only an end state.

    The closed loop stays lower triangular for every decentralized gain, so
    the middle eigenvalue 2 is fixed; witness subset is channel 1 alone.
    """
    return NumericSystem.build(
        A=[[1, 0, 0], [1, 2, 0], [0, 1, 3]],
        B_blocks=[[[0], [0], [1]], [[1], [0], [0]]],
        C_blocks=[[[0, 0, 1]], [[1, 0, 0]]],
    )


def spectra_match(a, b, tol=1e-6) -> bool:
    """Set-style matching of two eigenvalue collections within tol."""
    if len(a) != len(b):
        return False
    remaining = list(b)
    for z in a:
        best_idx = None
        best = None
        for idx, w in enumerate(remaining):
            d = abs(z - w)
            if best is None or d < best:
                best, best_idx = d, idx
        if best is None or best > tol:
            return False
        remaining.pop(best_idx)
    return True


@pytest.fixture
def worked_system():
    return two_channel_shared_params()


@pytest.fixture
def counterexample_system():
    return repeated_diagonal_counterexample()


@pytest.fixture
def classic_numeric():
    return chain_with_fixed_mode()
