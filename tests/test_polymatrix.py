"""Exact polynomial arithmetic, evaluation, exact rank and the evaluation prime."""

import random
from fractions import Fraction

import pytest

from sfspectrum import (
    FIELD_PRIME,
    ParamMatrix,
    ParamPoint,
    ParamPoly,
    rank_exact,
)
from sfspectrum.polymatrix import FALLBACK_PRIME, _confirm, evaluation_prime
from conftest import two_channel_shared_params

p = ParamPoly.param


def ones_point(q):
    return ParamPoint(values=(Fraction(1),) * q, seed=0)


class TestParamPoly:
    def test_canonical_no_zero_terms(self):
        poly = p(0) - p(0)
        assert poly.is_zero
        assert poly.terms == {}

    def test_monomial_keys_sorted(self):
        poly = ParamPoly({((2, 1), (0, 1)): 1})
        assert list(poly.terms) == [((0, 1), (2, 1))]

    def test_add_mul(self):
        poly = (p(0) + p(1)) * (p(0) - p(1))
        square_diff = p(0) * p(0) - p(1) * p(1)
        assert poly == square_diff

    def test_evaluate_sum(self):
        poly = p(0) + p(1)
        assert poly.evaluate([1, 2]) == 3

    def test_evaluate_mod_matches_rational(self):
        poly = 3 * p(0) * p(0) + Fraction(1, 2) * p(1)
        values = [5, 7]
        exact = poly.evaluate(values)
        mod = poly.evaluate_mod(values, FIELD_PRIME)
        expected = (exact.numerator * pow(exact.denominator, -1, FIELD_PRIME)) % FIELD_PRIME
        assert mod == expected

    def test_linear_coefficients(self):
        assert (2 * p(0) + p(3)).linear_coefficients() == {0: 2, 3: 1}
        assert (p(0) * p(1)).linear_coefficients() is None
        assert (p(0) + 1).linear_coefficients() is None

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            ParamPoly({((0, 0),): 1})


class TestEvaluate:
    def test_entry_sum_at_point(self):
        m = ParamMatrix.from_rows([[p(0) + p(1)]], 2)
        pt = ParamPoint(values=(Fraction(1), Fraction(2)), seed=0)
        assert m.evaluate(pt) == [[Fraction(3)]]

    def test_zero_matrix(self):
        m = ParamMatrix.zeros(2, 3, 2)
        pt = ParamPoint(values=(Fraction(-7), Fraction(3, 5)), seed=7)
        assert m.evaluate(pt) == [[0, 0, 0], [0, 0, 0]]

    def test_worked_example_state_matrix_at_ones(self):
        sys_ = two_channel_shared_params()
        out = sys_.A.evaluate(ones_point(4))
        assert out == [[1, 1], [0, 1]]

    def test_dimension_mismatch(self):
        m = ParamMatrix.from_rows([[p(0)]], 1)
        with pytest.raises(ValueError):
            m.evaluate(ParamPoint(values=(1, 2), seed=0))


class TestRankExact:
    def test_identity(self):
        eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        assert rank_exact(eye) == 3

    def test_all_ones(self):
        assert rank_exact([[Fraction(1)] * 3] * 3) == 1

    def test_proportional_rows(self):
        assert rank_exact([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1

    def test_prime_field_rank(self):
        mat = [[2, 4], [1, 2]]
        assert rank_exact(mat, FIELD_PRIME) == 1
        assert rank_exact([[2, 4], [1, 3]], FIELD_PRIME) == 2

    def test_empty_shapes(self):
        assert rank_exact([]) == 0
        assert rank_exact([[], []]) == 0

    @pytest.mark.parametrize("modulus", [None, 7, FIELD_PRIME])
    def test_matches_full_gauss_jordan(self, modulus):
        rng = random.Random(11 if modulus is None else modulus % 1000)
        shapes = [(3, 7), (7, 3), (5, 5), (1, 6), (6, 1), (4, 4), (8, 5)]
        for trial in range(120):
            rows, cols = shapes[trial % len(shapes)]
            mat = random_matrix(rng, rows, cols, kind=("wide-tall", "low-rank", "zero-cols")[trial % 3])
            assert rank_exact(mat, modulus) == rank_gauss_jordan(mat, modulus), mat

    def test_residues_taken_once_from_fractions(self):
        mat = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
        assert rank_exact(mat, FIELD_PRIME) == rank_exact(mat) == 1


def random_matrix(rng, rows, cols, kind):
    """Small-integer / fraction entries; "low-rank" is a product of thin factors,
    "zero-cols" zeroes about half the columns."""
    def entry():
        return rng.choice((0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-5, 3)))

    if kind == "low-rank":
        inner = rng.randint(0, min(rows, cols))
        left = [[entry() for _ in range(inner)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(inner)]
        return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
                if inner else [Fraction(0)] * cols for row in left]
    mat = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "zero-cols":
        dead = {j for j in range(cols) if rng.random() < 0.5}
        mat = [[0 if j in dead else x for j, x in enumerate(row)] for row in mat]
    return mat


def rank_gauss_jordan(matrix, modulus=None):
    """Reference: full Gauss-Jordan elimination (every row reduced at every pivot)."""
    def residue(x):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, modulus) % modulus

    work = [[Fraction(x) if modulus is None else residue(x) for x in row] for row in matrix]
    nrows, ncols = len(work), len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col] if modulus is None else pow(work[rank][col], -1, modulus)
        work[rank] = [x * inv if modulus is None else x * inv % modulus for x in work[rank]]
        for r in range(nrows):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
                if modulus is not None:
                    work[r] = [a % modulus for a in work[r]]
        rank += 1
    return rank


class TestEvaluationPrime:
    def test_field_prime_denominator_switches_prime(self):
        m = ParamMatrix.from_rows(
            [[ParamPoly({((0, 1),): Fraction(1, FIELD_PRIME)}), p(1)], [p(1), p(2)]], 3
        )
        assert evaluation_prime([m]) == FALLBACK_PRIME
        values = [random.Random(5).randrange(FALLBACK_PRIME) for _ in range(3)]
        assert rank_exact(m.evaluate_at(values, FALLBACK_PRIME), FALLBACK_PRIME) == 2
        both = ParamPoly.constant(Fraction(1, FIELD_PRIME * FALLBACK_PRIME))
        with pytest.raises(ValueError, match="no evaluation prime fits"):
            evaluation_prime([ParamMatrix.from_rows([[both]], 0)])


class TestConfirm:
    def test_trials_must_be_positive(self):
        # the shared stop checks its cap before it samples a single point
        sampled = []
        for trials in (0, -3):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                _confirm(sampled.append, 0, FIELD_PRIME, trials)
        assert sampled == []
