"""Exact polynomial arithmetic, evaluation, and randomized generic rank."""

import itertools
import random
from fractions import Fraction

import pytest

from sfspectrum import (
    FIELD_PRIME,
    ParamMatrix,
    ParamPoint,
    ParamPoly,
    field_point,
    grank,
    rank_exact,
)
from sfspectrum.polymatrix import FALLBACK_PRIME, _points, evaluation_prime
from conftest import symbolic_feedback, two_channel_shared_params

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


def closed_loop_worked_example() -> ParamMatrix:
    """A + B F C of the worked example over the joint 6-parameter space."""
    sys_ = two_channel_shared_params()
    from sfspectrum import stack

    B, C = stack(sys_)
    # the feedback parameters follow the system's: gain r is parameter q + r
    F = symbolic_feedback(sys_.channels, offset=sys_.q)
    gains = dict(F.items())
    closed = [
        [
            sys_.A.entry(i, j)
            + sum(
                (B.entry(i, r) * gain * C.entry(c, j) for (r, c), gain in gains.items()),
                ParamPoly.zero(),
            )
            for j in range(sys_.n)
        ]
        for i in range(sys_.n)
    ]
    return ParamMatrix.from_rows(closed, F.param_count)


class TestGrank:
    def test_single_parameter(self):
        assert grank(ParamMatrix.from_rows([[p(0)]], 1)) == 1

    def test_rank_one_for_all_parameters(self):
        m = ParamMatrix.from_rows([[p(0), p(0)], [p(0), p(0)]], 1)
        assert grank(m) == 1

    def test_worked_example_closed_loop(self):
        # independent oracle: the 2x2 determinant of A + BFC is a nonzero
        # polynomial; exhaustive small-grid evaluation finds a nonzero value
        closed = closed_loop_worked_example()
        det = (
            closed.entry(0, 0) * closed.entry(1, 1)
            - closed.entry(0, 1) * closed.entry(1, 0)
        )
        witness = None
        for values in itertools.product([0, 1, 2], repeat=6):
            if det.evaluate(values) != 0:
                witness = values
                break
        assert witness is not None
        assert grank(closed) == 2

    def test_field_prime_denominator_switches_prime(self):
        m = ParamMatrix.from_rows(
            [[ParamPoly({((0, 1),): Fraction(1, FIELD_PRIME)}), p(1)], [p(1), p(2)]], 3
        )
        assert evaluation_prime([m]) == FALLBACK_PRIME
        assert grank(m) == 2
        both = ParamPoly.constant(Fraction(1, FIELD_PRIME * FALLBACK_PRIME))
        with pytest.raises(ValueError, match="no evaluation prime fits"):
            evaluation_prime([ParamMatrix.from_rows([[both]], 0)])

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            grank(ParamMatrix.zeros(1, 1, 0), trials=0)


def random_sparse_matrix(rng, rows, cols, q, density=0.5):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = p(rng.randrange(q))
    return ParamMatrix(rows, cols, entries, q)


def max_bipartite_matching(support, rows, cols):
    """Kuhn's augmenting-path matching; the structural rank oracle."""
    adj = {}
    for i, j in support:
        adj.setdefault(i, []).append(j)
    match_col = {}

    def try_row(i, seen):
        for j in adj.get(i, ()):
            if j in seen:
                continue
            seen.add(j)
            if j not in match_col or try_row(match_col[j], seen):
                match_col[j] = i
                return True
        return False

    return sum(try_row(i, set()) for i in range(rows))


class TestGrankProperties:
    def test_monotone_under_adding_columns(self):
        rng = random.Random(11)
        for trial in range(25):
            q = rng.randint(1, 5)
            rows = rng.randint(1, 4)
            m1 = random_sparse_matrix(rng, rows, rng.randint(1, 4), q)
            m2 = random_sparse_matrix(rng, rows, rng.randint(1, 3), q)
            wide = ParamMatrix.hstack([m1, m2])
            assert grank(wide, seed=trial) >= grank(m1, seed=trial)

    def test_one_sided_bound_at_sampled_points(self):
        rng = random.Random(23)
        for trial in range(25):
            q = rng.randint(1, 5)
            m = random_sparse_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), q)
            g = grank(m, trials=10, seed=trial)
            for s in range(5):
                pt = field_point(q, seed=1000 * trial + s)
                assert rank_exact(m.evaluate(pt), FIELD_PRIME) <= g

    def test_matches_structural_rank_for_distinct_parameters(self):
        rng = random.Random(37)
        for trial in range(30):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            support = [
                (i, j) for i in range(rows) for j in range(cols) if rng.random() < 0.4
            ]
            q = max(1, len(support))
            entries = {cell: p(idx) for idx, cell in enumerate(support)}
            m = ParamMatrix(rows, cols, entries, q)
            assert grank(m, seed=trial) == max_bipartite_matching(support, rows, cols)

    def test_matches_the_best_of_trials_loop_on_these_ensembles(self, monkeypatch):
        real, checked = grank, []

        def compared(m, trials=10, seed=0):
            checked.append(real(m, trials=trials, seed=seed))
            assert checked[-1] == best_of_trials_grank(m, trials, seed)
            return checked[-1]

        monkeypatch.setitem(globals(), "grank", compared)
        self.test_monotone_under_adding_columns()
        self.test_one_sided_bound_at_sampled_points()
        self.test_matches_structural_rank_for_distinct_parameters()
        self.test_seed_independent_on_regression_suite()
        assert len(checked) == 50 + 25 + 30 + 40

    def test_seed_independent_on_regression_suite(self):
        rng = random.Random(53)
        suite = [
            random_sparse_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 5))
            for _ in range(10)
        ]
        for m in suite:
            results = {grank(m, trials=10, seed=s) for s in (1, 2, 3, 4)}
            assert len(results) == 1


def best_of_trials_grank(m, trials=10, seed=0):
    """The earlier grank: the best rank over up to ``trials`` points, stopping at full rank."""
    best, cap = 0, min(m.rows, m.cols)
    prime = evaluation_prime([m])
    rng = random.Random(seed)
    for _ in range(trials):
        values = [rng.randrange(prime) for _ in range(m.param_count)]
        best = max(best, rank_exact(m.evaluate_at(values, prime), prime))
        if best == cap:
            break
    return best


class TestGrankStop:
    """grank samples through the shared stop: it ends once (degree / p)^t <= 2^-40."""

    def points(self, monkeypatch, m, **kwargs):
        calls = []
        evaluate_at = ParamMatrix.evaluate_at

        def counting(self, values, modulus=None):
            calls.append(values)
            return evaluate_at(self, values, modulus)

        monkeypatch.setattr(ParamMatrix, "evaluate_at", counting)
        return grank(m, **kwargs), len(calls)

    def test_rank_deficient_takes_one_point(self, monkeypatch):
        # degree 2 * 1 over a 61-bit prime: one point already bounds it by 2^-60
        m = ParamMatrix.from_rows([[p(0), p(0)], [p(0), p(0)]], 1)
        assert self.points(monkeypatch, m) == (1, 1)

    def test_full_rank_settles_at_the_first_point(self, monkeypatch):
        m = ParamMatrix.from_rows([[p(0), 1], [0, p(1)]], 2)
        assert self.points(monkeypatch, m) == (2, 1)

    def test_high_degree_needs_more_points_up_to_the_cap(self, monkeypatch):
        x = ParamPoly({((0, 2**22),): 1})
        m = ParamMatrix.from_rows([[x, x], [x, x]], 1)
        # degree 2 * 2^22 = 2^23: one point gives about 2^-38, two meet 2^-40
        assert _points(2**23, FIELD_PRIME, 10) == 2
        assert self.points(monkeypatch, m) == (1, 2)
        assert self.points(monkeypatch, m, trials=1) == (1, 1)
