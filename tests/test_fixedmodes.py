"""Numeric fixed spectrum: pencil tests, full computation, and the oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest

from sfspectrum import (
    ChannelSubset,
    NumericSystem,
    fixed_spectrum,
    pencil_rank_deficient,
    random_feedback_oracle,
    rank_exact,
)
from sfspectrum.ensembles import random_numeric_system
from sfspectrum.fixedmodes import _cluster, numeric_rank
from sfspectrum.system import all_subsets
from conftest import chain_with_fixed_mode, spectra_match


def empty_cols(n):
    return np.zeros((n, 0))


def empty_rows(n):
    return np.zeros((0, n))


class TestPencil:
    def test_scalar_no_borders_drops(self):
        A = np.zeros((1, 1))
        assert pencil_rank_deficient(A, empty_cols(1), empty_rows(1), 0.0)

    def test_scalar_with_input_column(self):
        A = np.zeros((1, 1))
        B = np.array([[1.0]])
        assert not pencil_rank_deficient(A, B, empty_rows(1), 0.0)

    def test_classic_instance_drop_at_fixed_mode(self, classic_numeric):
        A = classic_numeric.A_array()
        s = ChannelSubset.of(0)
        B_S = classic_numeric.B_array(s)
        C_compl = classic_numeric.C_array(s.complement(2))
        assert pencil_rank_deficient(A, B_S, C_compl, 2.0)
        assert not pencil_rank_deficient(A, B_S, C_compl, 1.0)
        assert not pencil_rank_deficient(A, B_S, C_compl, 3.0)


def scalar_pencil_rank_deficient(A, B_S, C_compl, lam, tol=1e-9):
    """Reference: one bordered pencil at one lambda, one SVD."""
    n = A.shape[0]
    ms = B_S.shape[1]
    lc = C_compl.shape[0]
    pencil = np.zeros((n + lc, n + ms), dtype=complex)
    pencil[:n, :n] = lam * np.eye(n) - A
    if ms:
        pencil[:n, n:] = B_S
    if lc:
        pencil[n:, :n] = C_compl
    return numeric_rank(pencil, tol) < n


def per_lambda_fixed_spectrum(nsys, tol=1e-9, cluster_tol=1e-6):
    """Reference: the fixed spectrum by one scalar pencil test per (lambda, subset)."""
    A = nsys.A_array()
    reps = _cluster(list(map(complex, np.linalg.eigvals(A))), cluster_tol)
    subset_arrays = [
        (s, nsys.B_array(s), nsys.C_array(s.complement(nsys.k)))
        for s in all_subsets(nsys.k)
    ]
    fixed = []
    for lam in reps:
        witnesses = tuple(
            s
            for s, B_S, C_compl in subset_arrays
            if scalar_pencil_rank_deficient(A, B_S, C_compl, lam, tol)
        )
        if witnesses:
            fixed.append((lam, witnesses))
    return fixed


class TestBatchedPencil:
    """The batched pencil test equals one SVD per lambda, entry by entry."""

    @staticmethod
    def _check(A, B_S, C_compl, lams):
        batched = pencil_rank_deficient(A, B_S, C_compl, np.array(lams, dtype=complex))
        assert batched.shape == (len(lams),)
        expected = [scalar_pencil_rank_deficient(A, B_S, C_compl, lam) for lam in lams]
        assert batched.tolist() == expected
        for lam, want in zip(lams, expected):
            single = pencil_rank_deficient(A, B_S, C_compl, lam)
            assert type(single) is bool and single == want
        return expected

    def test_random_real_and_complex_lambdas(self):
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(60):
            n, ms, lc = rng.integers(1, 6), rng.integers(0, 3), rng.integers(0, 3)
            A = rng.integers(-3, 4, size=(n, n)).astype(float)
            if rng.random() < 0.5:
                A = np.tril(A)  # real eigenvalues, often fixed by a confined channel
            B_S = rng.integers(-2, 3, size=(n, ms)).astype(float)
            C_compl = rng.integers(-2, 3, size=(lc, n)).astype(float)
            if ms and rng.random() < 0.5:
                B_S[: n // 2 + 1] = 0.0
            lams = list(np.linalg.eigvals(A))
            lams += list(rng.normal(size=3) + 1j * rng.normal(size=3))
            lams += list(rng.normal(size=2))
            seen.update(self._check(A, B_S, C_compl, lams))
        assert seen == {True, False}

    def test_repeated_eigenvalues(self):
        A = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        B_S = np.array([[1.0], [0.0], [0.0]])
        C_compl = np.array([[1.0, 0.0, 0.0]])
        # 1e8 in the same batch: each pencil keeps its own threshold
        lams = [2.0, 2.0, 2.0 + 1e-12, 2.01, 3.0, 1e8]
        assert self._check(A, B_S, C_compl, lams) == [True, True, True, False, False, False]

    def test_zero_pencil_and_empty_borders(self):
        n = 3
        zero = np.zeros((n, n))
        # lambda = 0 makes the whole pencil zero: sigma_max = 0, rank 0
        assert self._check(zero, empty_cols(n), empty_rows(n), [0.0, 1.0]) == [True, False]
        assert self._check(zero, np.zeros((n, 2)), np.zeros((1, n)), [0.0]) == [True]
        A = np.diag([1.0, 2.0, 3.0])
        B = np.eye(n)[:, :1]
        C = np.eye(n)[2:]
        assert self._check(A, B, empty_rows(n), [1.0, 2.0, 3.0]) == [False, True, True]
        assert self._check(A, empty_cols(n), C, [1.0, 2.0, 3.0]) == [True, True, False]
        assert pencil_rank_deficient(A, B, C, np.array([], dtype=complex)).shape == (0,)

    def test_fixed_spectrum_equals_the_per_lambda_loop(self, classic_numeric):
        systems = [
            classic_numeric,
            chain_with_fixed_mode(),
            NumericSystem.build(
                A=[[0, 1], [0, 0]], B_blocks=[[[1, 0], [0, 1]]], C_blocks=[[[1, 0], [0, 1]]]
            ),
            NumericSystem.build(A=[[5, 0], [0, 7]], B_blocks=[[[], []]], C_blocks=[[]]),
            NumericSystem.build(A=[[4, 1], [0, 9]], B_blocks=[[[], []]], C_blocks=[[]]),
        ]
        rng = random.Random(2)
        systems += [random_numeric_system(seed=rng.randrange(10**6)) for _ in range(60)]
        nonempty = 0
        for ns in systems:
            got = [(fe.value, fe.witnesses) for fe in fixed_spectrum(ns).fixed_eigenvalues]
            assert got == per_lambda_fixed_spectrum(ns)
            nonempty += bool(got)
        assert nonempty >= 10


class TestFixedSpectrum:
    def test_centralized_full_actuation_empty(self):
        ns = NumericSystem.build(
            A=[[0, 1], [0, 0]],
            B_blocks=[[[1, 0], [0, 1]]],
            C_blocks=[[[1, 0], [0, 1]]],
        )
        assert fixed_spectrum(ns).is_empty

    def test_no_feedback_paths_entire_spectrum(self):
        ns = NumericSystem.build(
            A=[[5, 0], [0, 7]], B_blocks=[[[], []]], C_blocks=[[]]
        )
        result = fixed_spectrum(ns)
        assert spectra_match(result.values(), [5.0, 7.0])
        # the empty subset witnesses both
        assert all(ChannelSubset(()) in fe.witnesses for fe in result.fixed_eigenvalues)

    def test_classic_instance(self, classic_numeric):
        result = fixed_spectrum(classic_numeric)
        assert spectra_match(result.values(), [2.0])
        assert result.fixed_eigenvalues[0].witnesses == (ChannelSubset.of(0),)

    def test_contained_in_spectrum_of_A(self):
        rng = random.Random(2)
        from sfspectrum.ensembles import random_numeric_system

        for i in range(30):
            ns = random_numeric_system(seed=rng.randrange(10**6))
            eigs = np.linalg.eigvals(ns.A_array())
            for fe in fixed_spectrum(ns).fixed_eigenvalues:
                assert min(abs(eigs - fe.value)) < 1e-6


class TestRandomFeedbackOracle:
    def test_no_inputs_gives_spectrum_of_A(self):
        ns = NumericSystem.build(A=[[4, 1], [0, 9]], B_blocks=[[[], []]], C_blocks=[[]])
        assert spectra_match(random_feedback_oracle(ns, samples=5, seed=1), [4.0, 9.0])

    def test_centralized_empties_after_samples(self):
        ns = NumericSystem.build(
            A=[[1, 0], [0, 1]],
            B_blocks=[[[1, 0], [0, 1]]],
            C_blocks=[[[1, 0], [0, 1]]],
        )
        assert random_feedback_oracle(ns, samples=5, seed=1) == []

    def test_agrees_with_pencil_route_on_classic_instance(self, classic_numeric):
        oracle = random_feedback_oracle(classic_numeric, samples=1000, seed=9)
        pencil = fixed_spectrum(classic_numeric).values()
        assert spectra_match(oracle, pencil)


class TestRankInvariance:
    def test_invertible_recombination_of_borders(self, classic_numeric):
        rng = random.Random(17)
        A = classic_numeric.A_array()
        s = ChannelSubset.of(0)
        B_S = classic_numeric.B_array(s)
        C_compl = classic_numeric.C_array(s.complement(2))
        for _ in range(10):
            T = np.array([[rng.uniform(0.5, 2.0) * (-1) ** rng.randint(0, 1)]])
            T2 = np.array([[rng.uniform(0.5, 2.0) * (-1) ** rng.randint(0, 1)]])
            assert pencil_rank_deficient(A, B_S @ T, T2 @ C_compl, 2.0)
            assert not pencil_rank_deficient(A, B_S @ T, T2 @ C_compl, 3.0)


def random_rational_matrix(rng, rows, cols, span=5):
    return [
        [Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)
    ]


def mat_mul(a, b):
    cols = len(b[0]) if b and b[0] else 0
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def bordered(A, B, C):
    n, m, l = len(A), len(B[0]) if B and B[0] else 0, len(C)
    rows = [list(A[i]) + (list(B[i]) if m else []) for i in range(n)]
    rows += [list(C[i]) + [Fraction(0)] * m for i in range(l)]
    return rows


def perturbed(A, B, C, rng, span=7):
    n, m, l = len(A), len(B[0]) if B and B[0] else 0, len(C)
    out = [row[:] for row in A]
    if m:
        out = mat_add(out, mat_mul(B, random_rational_matrix(rng, m, n, span)))
    if l:
        out = mat_add(out, mat_mul(random_rational_matrix(rng, n, l, span), C))
    return out


class TestBorderedRankEquivalence:
    """Exact equivalence between the bordered rank drop and perturbed ranks."""

    def test_forward_and_reverse(self):
        rng = random.Random(31)
        deficient_seen = full_seen = 0
        for case in range(40):
            n = rng.randint(1, 5)
            if case % 2 == 0:
                # rank A + m + l < n forces a bordered rank drop
                m, l = rng.randint(0, 1), rng.randint(0, 1)
                r = max(0, n - 1 - m - l)
                A = (
                    mat_mul(
                        random_rational_matrix(rng, n, r),
                        random_rational_matrix(rng, r, n),
                    )
                    if r
                    else [[Fraction(0)] * n for _ in range(n)]
                )
            else:
                m, l = rng.randint(0, 2), rng.randint(0, 2)
                A = random_rational_matrix(rng, n, n)
            B = random_rational_matrix(rng, n, m)
            C = random_rational_matrix(rng, l, n)
            if rank_exact(bordered(A, B, C)) < n:
                deficient_seen += 1
                for _ in range(50):
                    assert rank_exact(perturbed(A, B, C, rng)) < n
            else:
                full_seen += 1
                assert any(
                    rank_exact(perturbed(A, B, C, rng)) >= n for _ in range(50)
                )
        assert deficient_seen and full_seen


class TestNumericSystemValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            NumericSystem(
                n=2,
                channels=((1, 1),),
                A=((Fraction(1),),),
                B_blocks=(((Fraction(1),), (Fraction(0),)),),
                C_blocks=(((Fraction(1), Fraction(0)),),),
            )
