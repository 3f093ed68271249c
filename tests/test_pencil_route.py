"""The pencil-sampling route against a copy of its earlier per-subset form.

``decide_polynomial`` now draws uniform GF(p) points shared by every subset
and certifies all subsets at once, at the first point, by one block-diagonal
feedback.  Only the sampled points and sub-seeds in its diagnostics may
differ from the earlier route; verdict, reason and witness must not.
"""

import json
import random
import re
from fractions import Fraction

import pytest

from sfspectrum import ChannelSubset, MultiChannelSystem, ParamMatrix, ParamPoly
from sfspectrum.cli import parse_system
from sfspectrum.ensembles import random_binary_system
from sfspectrum.structural import (
    REASON_PENCIL_DROP,
    _mat_add_mod,
    _mat_mul_mod,
    char_poly_exact,
    decide_polynomial,
    pencil_drop_at_point,
    poly_gcd,
)
from sfspectrum.system import split
from test_golden_reports import CASES, DEMOS

p = ParamPoly.param
F = Fraction


# -- the earlier route, kept as the oracle ---------------------------------------


def old_pencil_drop_at_point(sys_, s, values, seed=0, draws=3):
    """The earlier per-subset test: integer perturbations with entries in [-99, 99]."""
    rng = random.Random(seed)
    prime = sys_.prime
    residues = [v % prime for v in values]
    B_S, C_compl = split(sys_, s)
    A = sys_.A.evaluate_at(residues, prime)
    B = B_S.evaluate_at(residues, prime)
    C = C_compl.evaluate_at(residues, prime)
    n, ms, lc = sys_.n, B_S.cols, C_compl.rows
    g = char_poly_exact(A, prime)
    for _ in range(draws):
        if not ms and not lc:
            break
        M = A
        if ms:
            E = [[rng.randint(-99, 99) % prime for _ in range(n)] for _ in range(ms)]
            M = _mat_add_mod(M, _mat_mul_mod(B, E, prime), prime)
        if lc:
            K = [[rng.randint(-99, 99) % prime for _ in range(lc)] for _ in range(n)]
            M = _mat_add_mod(M, _mat_mul_mod(K, C, prime), prime)
        g = poly_gcd(g, char_poly_exact(M, prime), prime)
        if len(g) == 1:
            return False
    return len(g) > 1


def old_decide_polynomial(sys_, trials=10, seed=0):
    """(has_sfs, reason, witness) of the earlier route: integer points in
    [-300, 300], drawn afresh for each subset."""
    rng = random.Random(seed)
    for s in sys_.subsets():
        for _ in range(trials):
            values = [rng.randint(-300, 300) for _ in range(sys_.q)]
            if not old_pencil_drop_at_point(sys_, s, values, seed=rng.randrange(2**32)):
                break
        else:
            return True, REASON_PENCIL_DROP, s
    return False, None, None


def outcome(verdict):
    return verdict.has_sfs, verdict.reason, verdict.witness


def witness_points(sys_, trials):
    """The fewest t <= trials with 2^k (n^2 D / p)^t <= 2^-40 (else trials),
    D = max(d_A, d_B + 1, d_C + 1) from the largest entry degrees."""

    def top(mats):
        return max((poly.degree() for m in mats for _, poly in m.items()), default=0)

    D = max(top([sys_.A]), top(sys_.B_blocks) + 1, top(sys_.C_blocks) + 1)
    per_point = Fraction(sys_.n**2 * D, sys_.prime)
    t = 1
    while t < trials and 2**sys_.k * per_point**t > Fraction(1, 2**40):
        t += 1
    return t


# -- systems ---------------------------------------------------------------------


def random_polynomial_system(seed: int) -> MultiChannelSystem:
    """A small system with nonlinear entries (products and squares of parameters).

    Half the draws have a lower-triangular A and channels confined to a
    slice of the state, so fixed modes occur.
    """
    rng = random.Random(seed)
    n, k, q = rng.randint(1, 4), rng.randint(1, 3), rng.randint(2, 4)
    channels = tuple((rng.randint(0, 2), rng.randint(0, 2)) for _ in range(k))
    confined = rng.random() < 0.5

    def entry():
        if rng.random() < 0.45:
            return 0
        poly = ParamPoly.zero()
        for _ in range(rng.randint(1, 2)):
            term = F(rng.choice((1, -1, 2, -3))) * F(1, rng.choice((1, 1, 2, 3)))
            for _ in range(rng.randint(1, 3)):
                term = term * p(rng.randrange(q))
            poly = poly + term
        return poly

    A = [[entry() for _ in range(n)] for _ in range(n)]
    if confined:
        for i in range(n):
            for j in range(i + 1, n):
                A[i][j] = 0
    B_blocks, C_blocks = [], []
    for m_i, l_i in channels:
        B = [[entry() for _ in range(m_i)] for _ in range(n)]
        C = [[entry() for _ in range(n)] for _ in range(l_i)]
        if confined:
            lo = rng.randint(0, n - 1)
            hi = rng.randint(lo, n - 1)
            B = [row if lo <= i <= hi else [0] * m_i for i, row in enumerate(B)]
            lo = rng.randint(0, n - 1)
            hi = rng.randint(lo, n - 1)
            C = [[x if lo <= j <= hi else 0 for j, x in enumerate(row)] for row in C]
        B_blocks.append(ParamMatrix.from_rows(B, q) if m_i else ParamMatrix.zeros(n, 0, q))
        C_blocks.append(ParamMatrix.from_rows(C, q) if l_i else ParamMatrix.zeros(0, n, q))
    return MultiChannelSystem(
        n=n,
        channels=channels,
        A=ParamMatrix.from_rows(A, q),
        B_blocks=tuple(B_blocks),
        C_blocks=tuple(C_blocks),
        q=q,
    )


def golden_system(source):
    if isinstance(source, str):
        return parse_system(DEMOS / source)[0]
    return source()


def degenerate_systems():
    """k = 1, zero-width channels, and a system with no inputs or outputs."""
    one = ParamMatrix.from_rows([[p(0)]], 3)
    return {
        "k1-chain": MultiChannelSystem(
            n=1, channels=((1, 1),), A=one,
            B_blocks=(ParamMatrix.from_rows([[p(1)]], 3),),
            C_blocks=(ParamMatrix.from_rows([[p(2)]], 3),), q=3,
        ),
        "k1-no-outputs": MultiChannelSystem(
            n=1, channels=((1, 0),), A=one,
            B_blocks=(ParamMatrix.from_rows([[p(1)]], 3),),
            C_blocks=(ParamMatrix.zeros(0, 1, 3),), q=3,
        ),
        "split-input-output": MultiChannelSystem(
            n=2, channels=((1, 0), (0, 1)),
            A=ParamMatrix.from_rows([[p(0), p(1)], [p(2) * p(2), 0]], 3),
            B_blocks=(ParamMatrix.from_rows([[p(1)], [0]], 3), ParamMatrix.zeros(2, 0, 3)),
            C_blocks=(ParamMatrix.zeros(0, 2, 3), ParamMatrix.from_rows([[0, p(2)]], 3)),
            q=3,
        ),
        "zero-width-third-channel": MultiChannelSystem(
            n=2, channels=((1, 1), (1, 1), (0, 0)),
            A=ParamMatrix.from_rows([[p(0), 0], [p(1), p(2) * p(0)]], 3),
            B_blocks=(
                ParamMatrix.from_rows([[p(1)], [0]], 3),
                ParamMatrix.from_rows([[0], [p(2)]], 3),
                ParamMatrix.zeros(2, 0, 3),
            ),
            C_blocks=(
                ParamMatrix.from_rows([[0, p(0)]], 3),
                ParamMatrix.from_rows([[p(1), 0]], 3),
                ParamMatrix.zeros(0, 2, 3),
            ),
            q=3,
        ),
        "no-inputs-no-outputs": MultiChannelSystem(
            n=2, channels=((0, 0),),
            A=ParamMatrix.from_rows([[p(0), 0], [0, p(1)]], 3),
            B_blocks=(ParamMatrix.zeros(2, 0, 3),),
            C_blocks=(ParamMatrix.zeros(0, 2, 3),), q=3,
        ),
    }


# -- the oracle comparisons ------------------------------------------------------


class TestMatchesTheEarlierRoute:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_golden_cases(self, name):
        source, seed, _ = CASES[name]
        sys_ = golden_system(source)
        assert outcome(decide_polynomial(sys_, trials=10, seed=seed)) == old_decide_polynomial(
            sys_, trials=10, seed=seed
        )

    def test_binary_ensembles(self):
        seen = set()
        for seed in range(320):
            sys_ = random_binary_system(seed=31_000 + seed, max_n=5, max_k=4)
            got = outcome(decide_polynomial(sys_, seed=seed))
            assert got == old_decide_polynomial(sys_, seed=seed), seed
            seen.add((got[0], got[2] is not None and len(got[2]) > 0))
        # no SFS, SFS with the empty witness, SFS with a nonempty witness
        assert seen == {(False, False), (True, False), (True, True)}

    def test_nonlinear_polynomial_systems(self):
        verdicts = []
        for seed in range(80):
            sys_ = random_polynomial_system(seed)
            got = outcome(decide_polynomial(sys_, seed=seed))
            assert got == old_decide_polynomial(sys_, seed=seed), seed
            verdicts.append(got[0])
        assert 10 <= sum(verdicts) <= 70

    @pytest.mark.parametrize("name", sorted(degenerate_systems()))
    def test_degenerate_channels(self, name):
        sys_ = degenerate_systems()[name]
        got = outcome(decide_polynomial(sys_, seed=8))
        assert got == old_decide_polynomial(sys_, seed=8)
        if name == "no-inputs-no-outputs":
            assert got == (True, REASON_PENCIL_DROP, ChannelSubset(()))
        if name == "k1-chain":
            assert not got[0]


# -- the shared points and the one-shot certificate ------------------------------


def no_sfs_systems():
    systems = [golden_system(source) for source, _, _ in CASES.values()]
    systems += [random_binary_system(seed=32_000 + i, max_n=5, max_k=4) for i in range(40)]
    systems += [random_polynomial_system(100 + i) for i in range(40)]
    return [s for s in systems if not old_decide_polynomial(s, seed=1)[0]]


@pytest.mark.parametrize("coordinates", [0, 4])
def test_pencil_drop_refuses_a_point_of_the_wrong_length(coordinates):
    # chain_fixed_mode has q = 1: a longer point used to be truncated (and
    # report a drop), an empty one to raise a bare IndexError
    sys_ = golden_system("chain_fixed_mode.json")
    assert sys_.q == 1
    with pytest.raises(ValueError, match=f"point has {coordinates} coordinates, system expects 1"):
        pencil_drop_at_point(sys_, ChannelSubset.of(0), [2] * coordinates)
    assert pencil_drop_at_point(sys_, ChannelSubset.of(0), [2])  # {1} is the witness


@pytest.mark.parametrize("num, den_factor", [(1, 1), (-2, 3), (5, 7)])
def test_pencil_drop_refuses_a_coordinate_without_a_residue(num, den_factor):
    # a denominator divisible by the evaluation prime has no inverse mod p:
    # the error names the coordinate and the prime, not the modular inverse
    sys_ = golden_system("chain_fixed_mode.json")
    bad = Fraction(num, den_factor * sys_.prime)
    want = (f"coordinate 1 of the point, {bad}, has a denominator divisible by "
            f"the system's evaluation prime {sys_.prime}")
    with pytest.raises(ValueError, match=re.escape(want)):
        pencil_drop_at_point(sys_, ChannelSubset.of(0), [bad])
    assert pencil_drop_at_point(sys_, ChannelSubset.of(0), [Fraction(5, 3)])


class TestSharedPoints:
    def test_one_shot_certificate_on_no_sfs_systems(self):
        systems = no_sfs_systems()
        assert len(systems) >= 25
        for sys_ in systems:
            verdict = decide_polynomial(sys_, seed=5)
            assert not verdict.has_sfs
            entries = verdict.diagnostics["subsets"]
            assert [e["subset"] for e in entries] == [
                [i + 1 for i in s.members] for s in sys_.subsets()
            ]
            point = entries[0]["samples"][0]["point"]
            for entry in entries:
                assert entry["certified"]
                assert entry["samples"] == [{"point": point, "pencil_drop": False}]
            values = [int(v) for v in point]
            assert all(0 <= v < sys_.prime for v in values)
            # the certificate covers every subset: each one certifies on its own
            rng = random.Random(9)
            for s in sys_.subsets():
                assert not pencil_drop_at_point(sys_, s, values, seed=rng.randrange(2**32))

    def test_subsets_sample_a_prefix_of_the_shared_points(self):
        """Every subset samples a prefix of the shared points; the witness
        exactly the fewest t <= trials with 2^k (n^2 D / p)^t <= 2^-40.
        Over the 61-bit prime that is one point; over GF(10007) it takes
        several, and the cap of 6 trials cuts some short."""
        for prime in (None, 10007):
            sfs = 0
            lengths = set()
            for seed in range(80):
                sys_ = random_polynomial_system(seed)
                if prime is not None:
                    object.__setattr__(sys_, "prime", prime)
                verdict = decide_polynomial(sys_, trials=6, seed=seed)
                entries = verdict.diagnostics["subsets"]
                if not verdict.has_sfs and len(entries[0]["samples"]) == 1 and all(
                    e["samples"] == entries[0]["samples"] for e in entries
                ):
                    continue  # certified by the one-shot certificate
                longest = max((e["samples"] for e in entries), key=len)
                shared = [sample["point"] for sample in longest]
                for entry in entries:
                    points = [sample["point"] for sample in entry["samples"]]
                    assert points == shared[: len(points)]
                    drops = [sample["pencil_drop"] for sample in entry["samples"]]
                    assert all(drops[:-1]) and drops[-1] == (not entry["certified"])
                if verdict.has_sfs:
                    sfs += 1
                    t = witness_points(sys_, trials=6)
                    assert len(entries[-1]["samples"]) == len(longest) == t
                    assert not entries[-1]["certified"]
                    assert entries[-1]["subset"] == [i + 1 for i in verdict.witness.members]
                    lengths.add(t)
            assert sfs >= 10
            if prime is None:
                assert lengths == {1}
            else:
                assert min(lengths) > 1 and max(lengths) == 6 and len(lengths) > 1

    def test_each_point_is_evaluated_once(self, monkeypatch):
        """Counts: three evaluations (A, stacked B, stacked C) per point used,
        one chi(A) per point where a gcd needs it, one chi for the
        block-diagonal certificate, and one chi per pencil test of a subset
        with feedback paths.  A point that only subsets with no feedback path
        test computes no chi(A)."""
        from sfspectrum import structural

        counts = {"evaluate": 0, "chi": 0}
        evaluate_at, char_poly = ParamMatrix.evaluate_at, structural.char_poly_exact

        def counted_evaluate(self, values, modulus=None):
            counts["evaluate"] += 1
            return evaluate_at(self, values, modulus)

        def counted_char_poly(M, modulus=None):
            counts["chi"] += 1
            return char_poly(M, modulus)

        monkeypatch.setattr(ParamMatrix, "evaluate_at", counted_evaluate)
        monkeypatch.setattr(structural, "char_poly_exact", counted_char_poly)
        systems = [random_polynomial_system(seed) for seed in range(60)]
        systems += [random_binary_system(seed=33_000 + i, max_n=5, max_k=4) for i in range(60)]
        systems += list(degenerate_systems().values())
        one_shot = no_chi_A = 0
        for sys_ in systems:
            counts.update(evaluate=0, chi=0)
            verdict = decide_polynomial(sys_, seed=3)
            entries = verdict.diagnostics["subsets"]
            points = max(len(e["samples"]) for e in entries)
            closes_loop = any(m_i and l_i for m_i, l_i in sys_.channels)
            if not verdict.has_sfs and all(len(e["samples"]) == 1 for e in entries):
                one_shot += 1
                assert counts == {"evaluate": 3, "chi": 2}
                continue
            tests, gcd_points = 0, {0} if closes_loop else set()
            for entry in entries:
                s = ChannelSubset(tuple(i - 1 for i in entry["subset"]))
                B_S, C_compl = split(sys_, s)
                if B_S.cols or C_compl.rows:
                    tests += len(entry["samples"])
                    gcd_points.update(range(len(entry["samples"])))
            chi = len(gcd_points) + closes_loop + tests
            assert counts == {"evaluate": 3 * points, "chi": chi}
            no_chi_A += len(gcd_points) < points
        assert one_shot >= 20 and no_chi_A >= 1

    def test_points_are_uniform_residues_recorded_as_strings(self, worked_system):
        verdict = decide_polynomial(worked_system, seed=4)
        point = verdict.diagnostics["subsets"][0]["samples"][0]["point"]
        assert len(point) == worked_system.q
        assert all(isinstance(v, str) and 0 <= int(v) < worked_system.prime for v in point)
        # large residues, not the earlier small integers
        assert max(int(v) for v in point) > 10**6
        json.dumps(verdict.diagnostics)

    def test_deterministic(self, worked_system):
        a = decide_polynomial(worked_system, seed=12).diagnostics
        b = decide_polynomial(worked_system, seed=12).diagnostics
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
