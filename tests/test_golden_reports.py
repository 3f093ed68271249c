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
        "75a1f9468ada4303eaafdae89820981a1b6c2e418a8632a8aa09442d7998dcb6",
    ),
    "demo-chain-fixed-mode": (
        "chain_fixed_mode.json", 0,
        "d585abe53c519cb868bf10c367bb433aa02612d8dbcb199907b3e5cd4eccd968",
    ),
    "ensemble-5": (
        _ensemble(5), 5,
        "625c65f59ba8173c27f70c30b77753a4b6fc515f8cc33f1f55fcbb6b8f8a20e2",
    ),
    "ensemble-11": (
        _ensemble(11), 11,
        "007c18aadac94c8c189968a0694e1b6ef86eb82930d4a12d0c0401186195b210",
    ),
    "ensemble-16": (
        _ensemble(16), 16,
        "1d605cbd08adaf4e819024309a8e161c87320520f66eb37f6f36688d0340d21e",
    ),
    "ensemble-20": (
        _ensemble(20), 20,
        "70e6fbfaea2549afad744f93970ee2904cb4a3cfac9b1f32e599406f0f49435c",
    ),
    "ensemble-29": (
        _ensemble(29), 29,
        "c23d73499297836fdb5fbbc5959f1579ba16270e3acae2752fd79d1e3105e7e4",
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
