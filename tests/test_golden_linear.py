"""Golden `decide_linear` outcomes: the algebraic route must reproduce them exactly.

Each group pins the sha256 of, per system, the linearity decomposition and
``(has_sfs, reason, witness, diagnostics)`` of ``decide_linear`` at a fixed
seed, or the message and parameter index of NotLinearlyParameterized when
detection rejects the system.  The groups cover the demo systems, the
conftest examples, seeded ``random_binary_system`` ensembles and seeded
linear non-binary systems with rational coefficients, some of them broken
on purpose into rank-two derivative matrices.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sfspectrum import (
    MultiChannelSystem,
    NotLinearlyParameterized,
    ParamMatrix,
    ParamPoly,
    decide_linear,
    detect_linear_parameterization,
)
from sfspectrum.cli import parse_system
from sfspectrum.ensembles import random_binary_system
from conftest import repeated_diagonal_counterexample, two_channel_shared_params

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "systems"
COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 5), 7)


def random_linear_system(seed: int) -> MultiChannelSystem:
    """Sum of random rank-one rectangles g h^T p_r in [A B; C 0].

    About a fifth of the systems get one extra coefficient on an existing
    parameter, which usually makes its derivative matrix rank two.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    k = rng.randint(1, 3)
    channels = tuple((rng.randint(0, 2), rng.randint(0, 2)) for _ in range(k))
    m = sum(mi for mi, _ in channels)
    l = sum(li for _, li in channels)
    q = rng.randint(n, 2 * n + 2)
    cells: dict[tuple[int, int], dict] = {}
    for r in range(q):
        if rng.random() < 0.5:
            row_pool, col_pool = range(n), range(n + m)
        else:
            row_pool, col_pool = range(n + l), range(n)
        rows = rng.sample(row_pool, min(len(row_pool), rng.choice((1, 1, 2, 3))))
        cols = rng.sample(col_pool, min(len(col_pool), rng.choice((1, 1, 2))))
        g = {i: rng.choice(COEFFS) for i in rows}
        h = {j: rng.choice(COEFFS) for j in cols}
        for i in rows:
            for j in cols:
                cells.setdefault((i, j), {})[((r, 1),)] = Fraction(g[i]) * h[j]
    if rng.random() < 0.2:
        r = rng.randrange(q)
        i, j = rng.randrange(n), rng.randrange(n)
        cells.setdefault((i, j), {})[((r, 1),)] = Fraction(rng.choice(COEFFS)) * 5

    def block(r0, r1, c0, c1) -> ParamMatrix:
        entries = {
            (i - r0, j - c0): ParamPoly(terms)
            for (i, j), terms in cells.items()
            if r0 <= i < r1 and c0 <= j < c1
        }
        return ParamMatrix(r1 - r0, c1 - c0, entries, q)

    B_blocks, C_blocks = [], []
    col_at, row_at = n, n
    for m_i, l_i in channels:
        B_blocks.append(block(0, n, col_at, col_at + m_i))
        C_blocks.append(block(row_at, row_at + l_i, 0, n))
        col_at += m_i
        row_at += l_i
    return MultiChannelSystem(
        n=n,
        channels=channels,
        A=block(0, n, 0, n),
        B_blocks=tuple(B_blocks),
        C_blocks=tuple(C_blocks),
        q=q,
    )


def outcome(system: MultiChannelSystem, seed: int) -> list:
    try:
        decomp = detect_linear_parameterization(system)
    except NotLinearlyParameterized as err:
        return ["rejected", err.reason, err.param_index]
    verdict = decide_linear(system, decomp=decomp, seed=seed)
    terms = [[t.param_index, [str(x) for x in t.g], [str(x) for x in t.h]] for t in decomp.terms]
    return [
        "decided",
        terms,
        decomp.is_binary,
        decomp.is_unitary,
        verdict.has_sfs,
        verdict.reason,
        None if verdict.witness is None else list(verdict.witness.members),
        verdict.diagnostics,
    ]


def digest(systems) -> str:
    payload = [outcome(system, seed) for system, seed in systems]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _demos():
    return [(parse_system(DEMOS / name)[0], seed)
            for name, seed in (("two_channel_shared.json", 3), ("chain_fixed_mode.json", 0))]


def _conftest():
    return [(two_channel_shared_params(), 1), (repeated_diagonal_counterexample(), 2)]


def _binary(lo, hi):
    return lambda: [(random_binary_system(s, max_n=7, max_k=3), s) for s in range(lo, hi)]


def _linear(lo, hi):
    return lambda: [(random_linear_system(s), s) for s in range(lo, hi)]


# group -> (builder of [(system, decide seed)], sha256)
CASES = {
    "demos": (_demos,
        "95ee7aadb5bcc99b4aa712fbfaa72ef751aa2d5f7022f6f770e488a09af8d16c",
    ),
    "conftest": (_conftest,
        "e0dab9f91318a90e5e081359d3e650b510e901464c2d96deb506644720be3496",
    ),
    "binary-00-24": (_binary(0, 25),
        "2287a8f4522e673e6b1e39bbb1b4f63a110d3959f8b61222c702ffbf022a62cd",
    ),
    "binary-25-49": (_binary(25, 50),
        "62580eb918001b71737eacdec109d9a60185e6e6ace9482d93b1ae46b39696c7",
    ),
    "linear-00-19": (_linear(0, 20),
        "f5776466f751613541b2a76526c01d958fdc6c90caeb1c04f91a5e027ee453a9",
    ),
    "linear-20-39": (_linear(20, 40),
        "9f6ab05973bece94417635bfa8a5e430fa129d71bfa2cfa88ddac20cea545be1",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_decide_linear(name):
    build, expected = CASES[name]
    assert digest(build()) == expected


def test_random_linear_systems_cover_both_outcomes():
    kinds = [outcome(random_linear_system(s), s)[0] for s in range(40)]
    assert 3 <= kinds.count("rejected") <= 20
    decided = [outcome(random_binary_system(s, max_n=7, max_k=3), s) for s in range(50)]
    assert {entry[4] for entry in decided} == {True, False}
