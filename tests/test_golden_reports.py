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
        "b9753d93cf9326d7f2e46d03ac7cac5cc19c0230ed25765ad7e65fd284b47309",
    ),
    "demo-chain-fixed-mode": (
        "chain_fixed_mode.json", 0,
        "773da9ddbf7e90fe1f689d24f1df9cd365469a74e6ad48b896a5c643a1a05a92",
    ),
    "ensemble-5": (
        _ensemble(5), 5,
        "48a1c5aee573ec6a28199feedd5f5cd6275cebae997ba10b9e15e73b718ecca0",
    ),
    "ensemble-11": (
        _ensemble(11), 11,
        "c7c433cd19fcfe47765eadb5edd505f6154a32745cb1180ade890105750dc6d5",
    ),
    "ensemble-16": (
        _ensemble(16), 16,
        "4403f0d534eab7573bc60c5a8d6a4f3c48987bd78ca02b7d960a6ea782b1d704",
    ),
    "ensemble-20": (
        _ensemble(20), 20,
        "71d48971deac7f2348e8b36e96bd163ecda2d889c851cfe72fbc6617b4d52c20",
    ),
    "ensemble-29": (
        _ensemble(29), 29,
        "5e80ce0b5ba8e1dff19849156d83679513c9c9aec2782713867dfe01f2161bd8",
    ),
    "repeated-diagonal": (
        repeated_diagonal_counterexample, 2,
        "1c60426e61fc588b824b0a5fede323f940005da97f6a8c9221294b2fd721f14b",
    ),
    "polynomial-fractions": (
        polynomial_with_fractions, 7,
        "d1dce9834471d22091975a9e5f217a5ba9cd29815a643166364611de66ee354e",
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
