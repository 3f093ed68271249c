"""Golden `analyze` reports: the exact routes must reproduce them byte for byte.

Each case pins the sha256 of the JSON report of ``cmd_analyze``.  Two fields
are normalized before hashing: ``input`` (a temporary path) and the
floating-point ``eigenvalue`` values of the numeric fixed-spectrum samples,
which come from LAPACK and may differ in the last bits between numpy builds.
Everything else (classification, every verdict with its sampled points and
diagnostics, the sample points and their witness subsets) is hashed as
emitted.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from sfspectrum import MultiChannelSystem, ParamMatrix, ParamPoly
from sfspectrum.cli import cmd_analyze, report_json, serialize_system
from sfspectrum.ensembles import random_binary_system
from conftest import repeated_diagonal_counterexample

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "systems"
p = ParamPoly.param


def polynomial_with_fractions() -> MultiChannelSystem:
    """A nonlinear three-state system with fractional coefficients."""
    two_sevenths = ParamPoly({((1, 1),): Fraction(2, 7)})
    A = ParamMatrix.from_rows(
        [
            [p(0) * p(0), 3 * p(1), 0],
            [two_sevenths, 0, p(2)],
            [0, p(0) * p(2), Fraction(-5, 3)],
        ],
        4,
    )
    return MultiChannelSystem(
        n=3,
        channels=((1, 1), (1, 0)),
        A=A,
        B_blocks=(
            ParamMatrix.from_rows([[0], [p(3)], [0]], 4),
            ParamMatrix.from_rows([[p(3) * p(3)], [0], [0]], 4),
        ),
        C_blocks=(
            ParamMatrix.from_rows([[0, 0, p(0)]], 4),
            ParamMatrix.zeros(0, 3, 4),
        ),
        q=4,
    )


def _ensemble(seed):
    return lambda: random_binary_system(seed, max_n=6, max_k=3)


# name -> (system builder or demo file name, analyze seed, sha256)
CASES = {
    "demo-two-channel-shared": (
        "two_channel_shared.json", 3,
        "a26ea17642b5d5c1a4a8ef23b548f39cb5be8703cb81587e94d90301a67f93d2",
    ),
    "demo-chain-fixed-mode": (
        "chain_fixed_mode.json", 0,
        "d585abe53c519cb868bf10c367bb433aa02612d8dbcb199907b3e5cd4eccd968",
    ),
    "ensemble-5": (
        _ensemble(5), 5,
        "9bf08879d45f638fc405568567091911d0ceb785543e5440833b548f219cd453",
    ),
    "ensemble-11": (
        _ensemble(11), 11,
        "31c8a6accc46298c7f0e31138e190306ef27e0318e1863ee4fd85cce45f4fe9c",
    ),
    "ensemble-16": (
        _ensemble(16), 16,
        "855818e60bcd59430e77ae9e44f8488840111a0dddbae04e163263989992538c",
    ),
    "ensemble-20": (
        _ensemble(20), 20,
        "22cb2988c81b92f6f7532ce68ec401d60b8a87e0c506e1f102b71c09078685d5",
    ),
    "ensemble-29": (
        _ensemble(29), 29,
        "6e8f1da313465f51cf3292980945399078828abc4e773f15f3739ff420c007f0",
    ),
    "repeated-diagonal": (
        repeated_diagonal_counterexample, 2,
        "786c6a835ac290a63db43ce8b5ffa6daf83330c0aa701c1110b82142a48d42f8",
    ),
    "polynomial-fractions": (
        polynomial_with_fractions, 7,
        "584c77477ac8e957656393c9e5de6a580d8c140ca3131760b2cfacd2409d4ff1",
    ),
}


def golden_digest(source, seed: int, tmp_path: Path) -> str:
    if isinstance(source, str):
        path = DEMOS / source
    else:
        system = source()
        names = [f"p{i + 1}" for i in range(system.q)]
        path = tmp_path / "system.json"
        path.write_text(json.dumps(serialize_system(system, names)), encoding="utf-8")
    report, _ = cmd_analyze(path, seed=seed)
    report["input"] = "system.json"
    for sample in report["fixed_spectrum_samples"]:
        for fe in sample["fixed_eigenvalues"]:
            fe["eigenvalue"] = None
    return hashlib.sha256(report_json(report).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    source, seed, digest = CASES[name]
    assert golden_digest(source, seed, tmp_path) == digest
