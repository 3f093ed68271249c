"""Metamorphic invariance of the algebraic route: relabelling the states.

Renaming state i as perm[i] maps (A, B, C) to (P A P^T, P B, C P^T) for the
permutation matrix P.  The parameters and channels stay as they were, so
``decide_linear`` at the same seed draws the same points and gains, and every
question it asks has the same answer: the closed-loop rank of A + B F C, the
zero transfers C_compl A^j B_S, the Krylov dimensions, the reachability caps
|R| and |O|, the entry degrees and the evaluation prime.  So the verdict,
reason, witness and diagnostics must come out identical (relation R4 of the
roadmap, restricted to the states).
"""

import random

import pytest

from sfspectrum import MultiChannelSystem, NotLinearlyParameterized, ParamMatrix, decide_linear
from sfspectrum.cli import parse_system
from conftest import PERFBENCH, perfbench_module
from test_golden_linear import CASES


def relabel_states(sys_: MultiChannelSystem, perm: list[int]) -> MultiChannelSystem:
    """The same system with state i renamed perm[i]."""

    def moved(M: ParamMatrix, rows: bool, cols: bool) -> ParamMatrix:
        entries = {
            (perm[i] if rows else i, perm[j] if cols else j): poly for (i, j), poly in M.items()
        }
        return ParamMatrix(M.rows, M.cols, entries, M.param_count)

    return MultiChannelSystem(
        n=sys_.n,
        channels=sys_.channels,
        A=moved(sys_.A, True, True),
        B_blocks=tuple(moved(B, True, False) for B in sys_.B_blocks),
        C_blocks=tuple(moved(C, False, True) for C in sys_.C_blocks),
        q=sys_.q,
    )


def outcome(sys_: MultiChannelSystem, seed: int):
    try:
        verdict = decide_linear(sys_, seed=seed)
    except NotLinearlyParameterized as err:
        return "rejected", err.param_index
    witness = None if verdict.witness is None else verdict.witness.members
    return verdict.has_sfs, verdict.reason, witness, verdict.diagnostics


def check_relabelling(systems) -> int:
    """Compare each system with one random relabelling; the number of SFS verdicts."""
    sfs = 0
    for index, (sys_, seed) in enumerate(systems):
        perm = list(range(sys_.n))
        random.Random(index).shuffle(perm)
        want = outcome(sys_, seed)
        assert outcome(relabel_states(sys_, perm), seed) == want, (index, perm)
        sfs += want[0] is True
    return sfs


def test_relabelling_moves_every_state():
    sys_ = CASES["demos"][0]()[1][0]  # chain_fixed_mode: n = 3
    perm, inverse = [2, 0, 1], [1, 2, 0]
    moved = relabel_states(sys_, perm)
    assert {pos for pos, _ in moved.A.items()} == {
        (perm[i], perm[j]) for (i, j), _ in sys_.A.items()
    }
    assert {pos for pos, _ in moved.B_blocks[0].items()} == {
        (perm[i], c) for (i, c), _ in sys_.B_blocks[0].items()
    }
    back = relabel_states(moved, inverse)
    assert (back.A, back.B_blocks, back.C_blocks) == (sys_.A, sys_.B_blocks, sys_.C_blocks)


def test_linear_scale_corpus(tmp_path):
    # the 80 systems of the benchmark's seed-7 linear-scale corpus, n 8-24,
    # each decided with its own operation seed
    items = perfbench_module("workloads").LinearScale().build(7, tmp_path, PERFBENCH.parent)
    systems = [(parse_system(item.path)[0], item.op_seed) for item in items]
    assert len(systems) == 80
    assert 10 <= check_relabelling(systems) <= 70


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_linear_systems(name):
    build, _ = CASES[name]
    check_relabelling(build())
