"""Record ``linear_manifest.json``: the expected verdict of every ``linear-scale`` pool system.

    python3 perfbench/manifest.py

Each pool structure (its document generated with the value seed
``MANIFEST_SEED``) is decided by ``decide_linear`` and cross-checked by a route
that shares no code with it: the numeric fixed spectrum (SVD pencil tests)
and the random-gain oracle at two random nonzero integer points.  The system
has a structurally fixed spectrum iff its fixed spectrum is nonempty at a
generic point, so at both points the fixed spectrum and the oracle must be
empty exactly when ``decide_linear`` says no SFS; a planted system must also
come out SFS.  (Only emptiness is compared: the numeric routes may count
ill-conditioned eigenvalues differently.)  The
script refuses to write a manifest when any of these disagree.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from sfspectrum import cli, decide_linear  # noqa: E402
from sfspectrum.fixedmodes import NumericSystem, fixed_spectrum, random_feedback_oracle  # noqa: E402
from sfspectrum.polymatrix import ParamPoint  # noqa: E402

from workloads import MANIFEST, MANIFEST_SEED, LinearScale, doc_sha256, generate  # noqa: E402

CHECK_POINTS = 2


def numeric_check(system, name: str) -> list[dict]:
    rng = random.Random(f"manifest/{name}")
    out = []
    for _ in range(CHECK_POINTS):
        seed = rng.randrange(10**6)
        values = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 30)) for _ in range(system.q))
        numeric = NumericSystem.from_system(system, ParamPoint(values=values, seed=seed))
        pencil = len(fixed_spectrum(numeric).fixed_eigenvalues)
        oracle = len(random_feedback_oracle(numeric, seed=seed))
        out.append({"point_seed": seed, "fixed_eigenvalues": pencil, "oracle": oracle})
    return out


def main() -> int:
    entries = {}
    problems = []
    pool = LinearScale()
    for spec, doc, _ in generate(pool.name, MANIFEST_SEED, pool.cells, pool.variants, pool.density):
        system, _ = cli.parse_system_dict(doc)
        verdict = decide_linear(system, seed=0)
        points = numeric_check(system, spec.name)
        nonempty = {p["fixed_eigenvalues"] > 0 for p in points} | {p["oracle"] > 0 for p in points}
        agree = nonempty == {verdict.has_sfs} and (verdict.has_sfs or not spec.planted)
        if not agree:
            problems.append(f"{spec.name}: decide_linear {verdict.has_sfs}, numeric {points}")
        entries[spec.name] = {
            "n": spec.n,
            "k": spec.k,
            "plant": spec.plant,
            "sha256": doc_sha256(doc),
            "has_sfs": verdict.has_sfs,
            "reason": verdict.reason,
            "cross_check": {
                "method": "planted fixed mode" if spec.planted else
                "numeric fixed spectrum and random-gain oracle at nonzero integer points",
                "points": points,
            },
        }
        print(spec.name, verdict.has_sfs, points, file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    MANIFEST.write_text(json.dumps({"entries": entries}, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
