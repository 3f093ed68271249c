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
        "581f0fc1872423dc542ab63d9949acbea0a8afa446dd4af5229bc0c2c2bb5b61",
    ),
    "demo-chain-fixed-mode": (
        "chain_fixed_mode.json", 0,
        "0ba25d35e06a868292774e3abeed5aeca97bc350b23919c4ee8c2decd3c38137",
    ),
    "ensemble-5": (
        _ensemble(5), 5,
        "87b76ae7d8ad009b0612d17c5d9662c13e3b2e6e0e7e96084aa7fdfddda30b04",
    ),
    "ensemble-11": (
        _ensemble(11), 11,
        "9d9c1764b6fd8c0a94c1b685a2c913531bcba5b733eb55f60201534fe2dfbdb3",
    ),
    "ensemble-16": (
        _ensemble(16), 16,
        "8ffc70a3fe200ebd648147caba53a3556dc91d35d9cf3e374bdd76d6c67644d3",
    ),
    "ensemble-20": (
        _ensemble(20), 20,
        "c8138c20c27acb8c731e959fdb554e9ffc4fc39bad6cc45f786f1d974071550f",
    ),
    "ensemble-29": (
        _ensemble(29), 29,
        "52fc47c3b54d27e439f26698b1deeeee0fa5216c222c56840eb9b8c616c5dbb6",
    ),
    "repeated-diagonal": (
        repeated_diagonal_counterexample, 2,
        "ecbb3bbded800f7fd67caffe6ef00fc7265140031cc00684f09bf934e9ee6fbd",
    ),
    "polynomial-fractions": (
        polynomial_with_fractions, 7,
        "501004b755538cc9e0c205953164d9d56e1ce0cb541d2c60c5d3fa812ab7f497",
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
