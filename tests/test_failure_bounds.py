"""Failure bounds of the randomized SFS verdicts, and the stop they drive.

``decide_polynomial`` confirms a witness, and ``decide_linear``'s three
randomized claims sample points, only until the claim's failure bound is at
most 2^-40 (``trials`` is a cap).  The oracle is a copy of the routes that
sampled every claim at all ``trials`` points: verdict, reason and witness
must agree, and the diagnostics may differ only in the new keys
(``failure_bound``, each pencil sample's ``seed``) and in the witness's
shorter sample list.  Over a small prime, failures are frequent enough to
count, and the observed rates stay below the computed per-point bounds.
"""

import json
import random
from fractions import Fraction

import pytest

from sfspectrum import NotLinearlyParameterized, detect_linear_parameterization
from sfspectrum.ensembles import random_binary_system
from sfspectrum.cli import parse_system
from sfspectrum.polymatrix import FAILURE_TARGET, _bound, _points, rank_exact
from sfspectrum.structural import (
    REASON_GENERIC_RANK,
    REASON_PENCIL_DROP,
    REASON_PROPER_SUBSPACE,
    GenericDims,
    _krylov_degree,
    _markov_degree,
    _mat_add_mod,
    _mat_mul_mod,
    _no_fixed_mode_at,
    _rank_degree,
    _SamplePoints,
    closed_loop_generic_rank,
    decide_linear,
    decide_polynomial,
    generic_dims,
    markov_identity,
    pencil_drop_at_point,
)
from sfspectrum.system import ChannelSubset, split, stack
from conftest import PERFBENCH, dense_krylov_dim, perfbench_module, symbolic_feedback
from test_golden_reports import CASES
from test_pencil_route import golden_system, random_polynomial_system, witness_points

SMALL_PRIME = 101


def _closure(starts, arcs: dict[int, list[int]]) -> set[int]:
    """The vertices reachable from ``starts`` along ``arcs`` (starts included)."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        for w in arcs.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


# -- the routes that confirmed every claim at all `trials` points ---------------


def old_decide_polynomial(sys_, trials=10, seed=0):
    """(has_sfs, reason, witness, diagnostics); the witness drops at all points."""
    rng = random.Random(seed)
    p = sys_.prime
    points = [[rng.randrange(p) for _ in range(sys_.q)] for _ in range(trials)]
    labels = [[str(v) for v in values] for values in points]
    evaluated = _SamplePoints(sys_, rng, points)
    subset_diag = []
    witness = None
    if _no_fixed_mode_at(sys_, evaluated[0], rng):
        subset_diag = [
            {
                "subset": [i + 1 for i in s.members],
                "certified": True,
                "samples": [{"point": labels[0], "pencil_drop": False}],
            }
            for s in sys_.subsets()
        ]
    else:
        for s in sys_.subsets():
            samples = []
            certified = False
            for t, values in enumerate(points):
                drop = pencil_drop_at_point(
                    sys_, s, values, seed=rng.randrange(2**32), _point=evaluated[t]
                )
                samples.append({"point": labels[t], "pencil_drop": drop})
                if not drop:
                    certified = True
                    break
            subset_diag.append(
                {"subset": [i + 1 for i in s.members], "certified": certified, "samples": samples}
            )
            if not certified:
                witness = s
                break
    diagnostics = {"trials": trials, "seed": seed, "subsets": subset_diag}
    if witness is not None:
        return True, REASON_PENCIL_DROP, witness, diagnostics
    return False, None, None, diagnostics


def old_markov_identity(sys_, s, trials=10, seed=0):
    rng = random.Random(seed)
    B_S, C_compl = split(sys_, s)
    if B_S.cols == 0 or C_compl.rows == 0:
        return True
    p = sys_.prime
    for _ in range(trials):
        values = [rng.randrange(p) for _ in range(sys_.q)]
        A = sys_.A.evaluate_at(values, p)
        M = B_S.evaluate_at(values, p)
        C = C_compl.evaluate_at(values, p)
        for _ in range(sys_.n):
            if any(x for row in _mat_mul_mod(C, M, p) for x in row):
                return False
            M = _mat_mul_mod(A, M, p)
    return True


def old_generic_dims(sys_, s, trials=10, seed=0):
    rng = random.Random(seed)
    B_S, C_compl = split(sys_, s)
    n, p = sys_.n, sys_.prime
    forward, backward = {}, {}
    for (i, j), _ in sys_.A.items():
        forward.setdefault(j, []).append(i)
        backward.setdefault(i, []).append(j)
    ctrb_cap = len(_closure({i for (i, _), _ in B_S.items()}, forward))
    obs_cap = len(_closure({j for (_, j), _ in C_compl.items()}, backward))
    best_ctrb = best_obs = 0
    for _ in range(trials):
        values = [rng.randrange(p) for _ in range(sys_.q)]
        A = sys_.A.evaluate_at(values, p)
        if B_S.cols:
            columns = list(zip(*B_S.evaluate_at(values, p)))
            best_ctrb = max(best_ctrb, dense_krylov_dim(columns, list(zip(*A)), p))
        if C_compl.rows:
            best_obs = max(best_obs, dense_krylov_dim(C_compl.evaluate_at(values, p), A, p))
        if best_ctrb == ctrb_cap and best_obs == obs_cap:
            break
    return GenericDims(ctrb_dim=best_ctrb, unobs_dim=n - best_obs)


def old_closed_loop_generic_rank(sys_, trials=10, seed=0):
    F = symbolic_feedback(sys_.channels)
    B, C = stack(sys_)
    rng = random.Random(seed)
    p = sys_.prime
    best = 0
    for _ in range(trials):
        values = [rng.randrange(p) for _ in range(sys_.q)]
        f_values = [rng.randrange(p) for _ in range(F.param_count)]
        closed = sys_.A.evaluate_at(values, p)
        if sys_.m and sys_.l:
            BF = _mat_mul_mod(B.evaluate_at(values, p), F.evaluate_at(f_values, p), p)
            closed = _mat_add_mod(closed, _mat_mul_mod(BF, C.evaluate_at(values, p), p), p)
        best = max(best, rank_exact(closed, p))
        if best == sys_.n:
            break
    return best


def old_decide_linear(sys_, trials=10, seed=0):
    """(has_sfs, reason, witness, diagnostics) with every claim at all points."""
    rng = random.Random(seed)
    g = old_closed_loop_generic_rank(sys_, trials=trials, seed=rng.randrange(2**32))
    diagnostics = {"trials": trials, "seed": seed, "closed_loop_grank": g, "n": sys_.n,
                   "subsets": []}
    if g < sys_.n:
        return True, REASON_GENERIC_RANK, None, diagnostics
    for s in sys_.subsets():
        zero = old_markov_identity(sys_, s, trials=trials, seed=rng.randrange(2**32))
        entry = {"subset": [i + 1 for i in s.members], "markov_zero": zero}
        diagnostics["subsets"].append(entry)
        if zero:
            dims = old_generic_dims(sys_, s, trials=trials, seed=rng.randrange(2**32))
            entry["ctrb_dim"] = dims.ctrb_dim
            entry["unobs_dim"] = dims.unobs_dim
            if dims.ctrb_dim < dims.unobs_dim:
                return True, REASON_PROPER_SUBSPACE, s, diagnostics
    return False, None, None, diagnostics


# -- comparison --------------------------------------------------------------------


def check_bound(verdict):
    """An SFS verdict reports a bound at most the target, a no-SFS verdict 0."""
    bound = verdict.diagnostics["failure_bound"]
    assert isinstance(bound, float)
    if verdict.has_sfs:
        assert 0 <= bound <= FAILURE_TARGET
    else:
        assert bound == 0


def compare_pencil(sys_, seed):
    verdict = decide_polynomial(sys_, trials=10, seed=seed)
    has_sfs, reason, witness, old = old_decide_polynomial(sys_, trials=10, seed=seed)
    assert (verdict.has_sfs, verdict.reason, verdict.witness) == (has_sfs, reason, witness)
    check_bound(verdict)
    new = json.loads(json.dumps(verdict.diagnostics))
    del new["failure_bound"], new["semantics"]
    for entry in new["subsets"]:
        for sample in entry["samples"]:
            sample.pop("seed", None)
    if has_sfs:
        t = witness_points(sys_, trials=10)
        assert len(new["subsets"][-1]["samples"]) == t
        old["subsets"][-1]["samples"] = old["subsets"][-1]["samples"][:t]
    assert new == old
    return has_sfs


def compare_linear(sys_, seed):
    try:
        decomp = detect_linear_parameterization(sys_)
    except NotLinearlyParameterized:
        return None
    verdict = decide_linear(sys_, decomp, trials=10, seed=seed)
    has_sfs, reason, witness, old = old_decide_linear(sys_, trials=10, seed=seed)
    assert (verdict.has_sfs, verdict.reason, verdict.witness) == (has_sfs, reason, witness)
    check_bound(verdict)
    new = dict(verdict.diagnostics)
    del new["failure_bound"]
    assert new == old
    return has_sfs


class TestMatchesTheConfirmAllRoutes:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_golden_cases(self, name):
        source, seed, _ = CASES[name]
        sys_ = golden_system(source)
        compare_pencil(sys_, seed)
        compare_linear(sys_, seed)

    def test_binary_ensembles(self):
        kinds = set()
        for seed in range(320):
            sys_ = random_binary_system(seed=31_000 + seed, max_n=5, max_k=4)
            kinds.add((compare_pencil(sys_, seed), compare_linear(sys_, seed)))
        assert kinds == {(False, False), (True, True)}

    def test_linear_scale_corpus(self, tmp_path):
        # the 80 systems of the benchmark's seed-7 linear-scale corpus, n 8-24
        # and k 3-4, each decided with its own operation seed
        items = perfbench_module("workloads").LinearScale().build(7, tmp_path, PERFBENCH.parent)
        verdicts = [compare_linear(parse_system(item.path)[0], item.op_seed) for item in items]
        assert len(verdicts) == 80 and 10 <= sum(verdicts) <= 70

    def test_nonlinear_polynomial_systems(self):
        verdicts = [compare_pencil(random_polynomial_system(seed), seed) for seed in range(80)]
        assert 10 <= sum(verdicts) <= 70


# -- the reported bound ------------------------------------------------------------


def _small_prime(sys_):
    object.__setattr__(sys_, "prime", SMALL_PRIME)
    return sys_


def entry_degrees(sys_):
    """(d_A, d_B, d_C) read off the entries."""

    def top(mats):
        return max((poly.degree() for m in mats for _, poly in m.items()), default=0)

    return top([sys_.A]), top(sys_.B_blocks), top(sys_.C_blocks)


def linear_bound(sys_, reason, trials):
    """decide_linear's bound: the rank claim's, or 2^k times the sum of the
    zero-transfer and dimension bounds (each stopped with 2^(k+1) claims)."""
    d_A, d_B, d_C = entry_degrees(sys_)
    n, claims = sys_.n, 2 ** (sys_.k + 1)

    def stopped(degree, claims=1):
        per_point, t = Fraction(degree, sys_.prime), 1
        while t < trials and claims * per_point**t > Fraction(1, 2**40):
            t += 1
        return claims * per_point**t

    if reason == REASON_GENERIC_RANK:
        return stopped(n * max(d_A, d_B + d_C + 1))
    if reason == REASON_PROPER_SUBSPACE:
        markov = stopped(d_C + (n - 1) * d_A + d_B, claims)
        krylov = stopped(n * (d_B + (n - 1) * d_A) + n * (d_C + (n - 1) * d_A), claims)
        return (markov + krylov) / 2
    return 0


class TestReportedBound:
    def test_sampling_takes_the_fewest_points_that_meet_the_target(self):
        for args, points, bound in (
            ((1, 2, 100), 40, FAILURE_TARGET),
            ((1, 2, 100, 4), 42, FAILURE_TARGET),
            ((1, 2, 10), 10, Fraction(1, 2**10)),
            ((0, 7, 10), 1, 0),
            ((3, 2, 2), 2, Fraction(9, 4)),
        ):
            assert (_points(*args), _bound(*args)) == (points, bound)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_every_sampling_route_rejects_a_cap_below_one(self, worked_system, trials):
        for route in (decide_polynomial, decide_linear, closed_loop_generic_rank):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                route(worked_system, trials=trials)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            generic_dims(worked_system, ChannelSubset.of(0), trials=trials)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_markov_identity_checks_its_cap_before_its_early_returns(self, worked_system, trials):
        # S = {} has no input column and S = {1, 2} leaves no output row: with
        # nothing to refute they still check the cap, as S = {1} does
        for members in ((), (0, 1), (0,)):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                markov_identity(worked_system, ChannelSubset(members), trials=trials)

    def test_values_follow_the_route_formulas(self):
        seen = set()
        for seed in range(60):
            sys_ = random_binary_system(seed=34_000 + seed, max_n=5, max_k=3)
            pencil = decide_polynomial(sys_, seed=seed)
            if pencil.has_sfs:
                d_A, d_B, d_C = entry_degrees(sys_)
                per_point = Fraction(sys_.n**2 * max(d_A, d_B + 1, d_C + 1), sys_.prime)
                t = len(pencil.diagnostics["subsets"][-1]["samples"])
                assert pencil.diagnostics["failure_bound"] == float(2**sys_.k * per_point**t)
            linear = decide_linear(sys_, seed=seed)
            expected = linear_bound(sys_, linear.reason, trials=10)
            assert linear.diagnostics["failure_bound"] == float(expected)
            seen.add(linear.reason)
        assert seen == {None, REASON_GENERIC_RANK, REASON_PROPER_SUBSPACE}

    def test_cap_reports_the_weaker_bound(self):
        """Over GF(101) two points cannot meet the target; the verdict stands
        and reports the bound the two points give."""
        reasons = set()
        for seed in range(40):
            sys_ = _small_prime(random_binary_system(seed=35_000 + seed, max_n=4, max_k=2))
            pencil = decide_polynomial(sys_, trials=2, seed=seed)
            if pencil.has_sfs:
                t = witness_points(sys_, trials=2)
                assert t == 2 and len(pencil.diagnostics["subsets"][-1]["samples"]) == 2
                d_A, d_B, d_C = entry_degrees(sys_)
                per_point = Fraction(sys_.n**2 * max(d_A, d_B + 1, d_C + 1), SMALL_PRIME)
                expected = min(2**sys_.k * per_point**2, 1)
                assert pencil.diagnostics["failure_bound"] == float(expected) > FAILURE_TARGET
            linear = decide_linear(sys_, trials=2, seed=seed)
            if linear.has_sfs:
                expected = min(linear_bound(sys_, linear.reason, trials=2), 1)
                assert linear.diagnostics["failure_bound"] == float(expected)
                if expected:  # zero when every claim is constant, so exact
                    assert expected > FAILURE_TARGET
                    reasons.add(linear.reason)
        assert reasons == {REASON_GENERIC_RANK, REASON_PROPER_SUBSPACE}


# -- empirical failure rates over a small prime -------------------------------------


def test_false_pencil_drops_stay_below_the_bound():
    """No-SFS systems: no subset drops for generic parameters, so every
    reported drop over GF(101) is a sampling failure.  Their number stays
    below the sum of the per-test bounds n^2 D / p."""
    systems = [random_binary_system(seed=40_000 + i, max_n=4, max_k=3) for i in range(30)]
    systems += [random_polynomial_system(200 + i) for i in range(30)]
    systems = [_small_prime(s) for s in systems if not decide_polynomial(s, seed=1).has_sfs]
    assert len(systems) >= 10
    failures, expected = 0, Fraction(0)
    for sys_ in systems:
        d_A, d_B, d_C = sys_.degrees
        per_point = Fraction(sys_.n**2 * max(d_A, d_B + 1, d_C + 1), SMALL_PRIME)
        rng = random.Random(sys_.n)
        for s in sys_.subsets():
            for _ in range(30):
                values = [rng.randrange(SMALL_PRIME) for _ in range(sys_.q)]
                failures += pencil_drop_at_point(sys_, s, values, seed=rng.randrange(2**32))
                expected += per_point
    assert 0 < failures <= expected


def test_false_algebraic_claims_stay_below_the_bounds():
    """Claims refuted exactly over the 61-bit prime (full closed-loop rank,
    nonzero transfer, dimensions) are sampled at one point of GF(101); the
    false rank-deficient, zero-transfer and dimension outcomes stay below
    the sums of their per-point bounds."""
    systems = [random_binary_system(seed=41_000 + i, max_n=4, max_k=3) for i in range(60)]
    counts = {"rank": [0, Fraction(0)], "markov": [0, Fraction(0)], "dims": [0, Fraction(0)]}
    for sys_ in systems:
        full = closed_loop_generic_rank(sys_) == sys_.n
        nonzero = [s for s in sys_.subsets() if not markov_identity(sys_, s)]
        dims = {s: generic_dims(sys_, s) for s in sys_.subsets()}
        _small_prime(sys_)
        for seed in range(30):
            if full:
                counts["rank"][0] += closed_loop_generic_rank(sys_, trials=1, seed=seed) < sys_.n
                counts["rank"][1] += Fraction(_rank_degree(sys_), SMALL_PRIME)
            for s in nonzero:
                counts["markov"][0] += markov_identity(sys_, s, trials=1, seed=seed)
                counts["markov"][1] += Fraction(_markov_degree(sys_), SMALL_PRIME)
            for s, generic in dims.items():
                counts["dims"][0] += generic_dims(sys_, s, trials=1, seed=seed) != generic
                counts["dims"][1] += Fraction(_krylov_degree(sys_), SMALL_PRIME)
    for name, (failures, expected) in counts.items():
        assert 0 < failures <= expected, name
