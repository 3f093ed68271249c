"""Channel stacking, splits, feedback slots, and parameterization class."""

import random
from fractions import Fraction

import pytest

from sfspectrum import (
    ChannelSubset,
    MultiChannelSystem,
    NotLinearlyParameterized,
    ParamMatrix,
    ParamPoly,
    classify,
    detect_linear_parameterization,
    split,
    stack,
)
from sfspectrum.system import _rank_one_factor, all_subsets, channel_spans, feedback_slots
from sfspectrum.ensembles import random_binary_system
from conftest import symbolic_feedback

p = ParamPoly.param


def block_matrix(sys_):
    """The (n+l) x (n+m) block matrix [A B; C 0], stacked."""
    B, C = stack(sys_)
    top = ParamMatrix.hstack([sys_.A, B])
    bottom = ParamMatrix.hstack([C, ParamMatrix.zeros(sys_.l, sys_.m, sys_.q)])
    return ParamMatrix.vstack([top, bottom])


def single_channel(A, B, C, q):
    return MultiChannelSystem(
        n=A.rows, channels=((B.cols, C.rows),), A=A, B_blocks=(B,), C_blocks=(C,), q=q
    )


class TestStack:
    def test_single_channel_passthrough(self):
        sys_ = single_channel(
            ParamMatrix.from_rows([[p(0)]], 2),
            ParamMatrix.from_rows([[p(1)]], 2),
            ParamMatrix.from_rows([[1]], 2),
            q=2,
        )
        B, C = stack(sys_)
        assert B == sys_.B_blocks[0]
        assert C == sys_.C_blocks[0]

    def test_worked_example(self, worked_system):
        B, C = stack(worked_system)
        assert B == ParamMatrix.from_rows([[0, p(2)], [p(1), 0]], 4)
        assert C == ParamMatrix.from_rows([[p(3), 0], [p(0), p(0)]], 4)

    def test_zero_blocks(self):
        sys_ = single_channel(
            ParamMatrix.from_rows([[p(0)]], 1),
            ParamMatrix.zeros(1, 2, 1),
            ParamMatrix.zeros(3, 1, 1),
            q=1,
        )
        B, C = stack(sys_)
        assert (B.rows, B.cols) == (1, 2) and B.is_zero
        assert (C.rows, C.cols) == (3, 1) and C.is_zero


class TestSplit:
    def test_worked_example_first_channel(self, worked_system):
        B_S, C_compl = split(worked_system, ChannelSubset.of(0))
        assert B_S == ParamMatrix.from_rows([[0], [p(1)]], 4)
        assert C_compl == ParamMatrix.from_rows([[p(0), p(0)]], 4)

    def test_empty_subset(self, worked_system):
        B_S, C_compl = split(worked_system, ChannelSubset(()))
        assert (B_S.rows, B_S.cols) == (2, 0)
        assert C_compl.rows == 2  # full stacked C

    def test_full_subset(self, worked_system):
        B_S, C_compl = split(worked_system, ChannelSubset.of(0, 1))
        assert B_S.cols == 2
        assert (C_compl.rows, C_compl.cols) == (0, 2)

    def test_partition_property(self):
        rng = random.Random(5)
        for trial in range(20):
            sys_ = random_binary_system(seed=trial + 300)
            B, C = stack(sys_)
            for s in all_subsets(sys_.k):
                B_S, _ = split(sys_, s)
                B_rest, _ = split(sys_, s.complement(sys_.k))
                assert B_S.cols + B_rest.cols == B.cols
                _, C_compl = split(sys_, s)
                _, C_own = split(sys_, s.complement(sys_.k))
                assert C_compl.rows + C_own.rows == C.rows


class TestFeedbackPattern:
    """``feedback_slots``, the one description of the block-diagonal gain."""

    def test_two_scalar_channels(self, worked_system):
        assert feedback_slots(worked_system.channels) == [(0, 0), (1, 1)]

    def test_single_wide_channel(self):
        sys_ = single_channel(
            ParamMatrix.from_rows([[p(0)]], 1),
            ParamMatrix.zeros(1, 2, 1),
            ParamMatrix.zeros(1, 1, 1),
            q=1,
        )
        # one block, row-major: both inputs read the one output
        assert feedback_slots(sys_.channels) == [(0, 0), (1, 0)]

    def test_mixed_widths_parameter_count(self):
        slots = feedback_slots(((1, 2), (2, 1)))
        assert slots == [(0, 0), (0, 1), (1, 2), (2, 2)]
        assert len(slots) == 1 * 2 + 2 * 1
        # off-block entries are never slots
        assert (0, 2) not in slots and (1, 0) not in slots

    def test_pattern_is_unitary_linear(self):
        rng = random.Random(5)
        for _ in range(200):
            channels = tuple((rng.randrange(3), rng.randrange(3)) for _ in range(rng.randrange(5)))
            slots = feedback_slots(channels)
            assert len(slots) == sum(m_i * l_i for m_i, l_i in channels)
            # channel by channel, each block row-major: ascending and distinct
            assert slots == sorted(set(slots))
            in_cols, out_rows = channel_spans(channels)
            block = {r: i for i, cols in enumerate(in_cols) for r in cols}
            assert all(c in out_rows[block[r]] for r, c in slots)
            # one fresh parameter per slot, coefficient 1: every entry its own unit term
            F = symbolic_feedback(channels)
            assert F.items() == [(slot, p(r)) for r, slot in enumerate(slots)]


class TestDetectLinear:
    def test_worked_example_binary_not_unitary(self, worked_system):
        decomp = detect_linear_parameterization(worked_system)
        assert decomp.is_binary and not decomp.is_unitary
        by_param = {t.param_index: t for t in decomp.terms}
        # p1 lives on the rectangle {x1 row, second output row} x {x1 col, x2 col}
        t = by_param[0]
        assert [i for i, x in enumerate(t.g) if x != 0] == [0, 3]
        assert [j for j, x in enumerate(t.h) if x != 0] == [0, 1]

    def test_counterexample_rejected(self, counterexample_system):
        with pytest.raises(NotLinearlyParameterized) as err:
            detect_linear_parameterization(counterexample_system)
        assert err.value.param_index == 0
        assert "rank 2" in err.value.reason

    def test_scalar_system_unitary(self):
        sys_ = single_channel(
            ParamMatrix.from_rows([[p(0)]], 1),
            ParamMatrix.zeros(1, 0, 1),
            ParamMatrix.zeros(0, 1, 1),
            q=1,
        )
        decomp = detect_linear_parameterization(sys_)
        assert decomp.is_unitary and decomp.is_binary

    def test_constant_term_rejected(self):
        sys_ = single_channel(
            ParamMatrix.from_rows([[p(0) + 1]], 1),
            ParamMatrix.zeros(1, 0, 1),
            ParamMatrix.zeros(0, 1, 1),
            q=1,
        )
        with pytest.raises(NotLinearlyParameterized, match="constant term"):
            detect_linear_parameterization(sys_)

    def test_nonlinear_entry_rejected(self):
        sys_ = single_channel(
            ParamMatrix.from_rows([[p(0) * p(0)]], 1),
            ParamMatrix.zeros(1, 0, 1),
            ParamMatrix.zeros(0, 1, 1),
            q=1,
        )
        with pytest.raises(NotLinearlyParameterized, match="nonlinear entry"):
            detect_linear_parameterization(sys_)

    def test_parameter_in_both_b_and_c_rejected(self):
        sys_ = single_channel(
            ParamMatrix.from_rows([[p(1)]], 2),
            ParamMatrix.from_rows([[p(0)]], 2),
            ParamMatrix.from_rows([[p(0)]], 2),
            q=2,
        )
        with pytest.raises(NotLinearlyParameterized):
            detect_linear_parameterization(sys_)

    def test_non_binary_coefficient(self):
        sys_ = single_channel(
            ParamMatrix.from_rows([[2 * p(0)]], 1),
            ParamMatrix.zeros(1, 0, 1),
            ParamMatrix.zeros(0, 1, 1),
            q=1,
        )
        decomp = detect_linear_parameterization(sys_)
        assert not decomp.is_binary and not decomp.is_unitary


def rank_one_factor_dense(d_entries, rows, cols, r):
    """Reference: factor, then compare outer(g, h) with every cell of the matrix."""
    col_star = min(j for (_, j) in d_entries)
    g = [d_entries.get((i, col_star), Fraction(0)) for i in range(rows)]
    i_star = next(i for i, x in enumerate(g) if x != 0)
    g = [x / g[i_star] for x in g]
    h = [d_entries.get((i_star, j), Fraction(0)) for j in range(cols)]
    for i in range(rows):
        for j in range(cols):
            if g[i] * h[j] != d_entries.get((i, j), 0):
                raise NotLinearlyParameterized(
                    f"derivative matrix of parameter p{r + 1} has rank 2 or more",
                    param_index=r,
                )
    return tuple(g), tuple(h)


def rank_one_factor_dense_built(d_entries, rows, cols, r):
    """Reference: g and h built position by position, support sizes counted on them."""
    col_star = min(j for (_, j) in d_entries)
    g = [d_entries.get((i, col_star), Fraction(0)) for i in range(rows)]
    i_star = next(i for i, x in enumerate(g) if x != 0)
    pivot = g[i_star]
    g = [x / pivot if x else x for x in g]
    h = [d_entries.get((i_star, j), Fraction(0)) for j in range(cols)]
    rectangle = sum(1 for x in g if x) * sum(1 for x in h if x)
    if len(d_entries) != rectangle or any(
        g[i] * h[j] != value for (i, j), value in d_entries.items()
    ):
        raise NotLinearlyParameterized(
            f"derivative matrix of parameter p{r + 1} has rank 2 or more",
            param_index=r,
        )
    return tuple(g), tuple(h)


def random_derivative(rng, rows, cols):
    """A sparse nonzero derivative pattern: rank one, or rank one disturbed."""
    values = (1, -1, 2, Fraction(1, 3), Fraction(-7, 2))

    def outer():
        g = {i: rng.choice(values) for i in rng.sample(range(rows), rng.randint(1, min(3, rows)))}
        h = {j: rng.choice(values) for j in rng.sample(range(cols), rng.randint(1, min(3, cols)))}
        return {(i, j): Fraction(x) * y for i, x in g.items() for j, y in h.items()}

    d = outer()
    kind = rng.choice(("rank-one", "drop", "extra", "rescale", "sum"))
    cells = sorted(d)
    if kind == "drop" and len(cells) > 1:
        del d[rng.choice(cells)]
    elif kind == "extra":
        d[(rng.randrange(rows), rng.randrange(cols))] = Fraction(rng.choice(values))
    elif kind == "rescale":
        cell = rng.choice(cells)
        d[cell] *= rng.choice((2, -1, Fraction(1, 2)))
    elif kind == "sum":
        for cell, x in outer().items():
            d[cell] = d.get(cell, 0) + x
    return {cell: x for cell, x in d.items() if x != 0}


class TestRankOneFactorReference:
    def test_matches_dense_check(self):
        rng = random.Random(17)
        outcomes = {"accepted": 0, "rejected": 0}
        for trial in range(600):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            d = random_derivative(rng, rows, cols)
            if not d:
                continue
            r = trial % 9

            def run(factor):
                try:
                    g, h = factor(d, rows, cols, r)
                except NotLinearlyParameterized as err:
                    return (str(err), err.reason, err.param_index)
                assert all(type(x) is Fraction for x in g + h)
                return g, h

            def sparse(d, rows, cols, r):
                """The support form, checked, then spread into dense g and h."""
                support_rows, g_values, support_cols, h_values = _rank_one_factor(d, r)
                assert list(support_rows) == sorted({i for i, _ in d})
                assert list(support_cols) == sorted({j for _, j in d})
                assert 0 not in g_values + h_values and g_values[0] == 1
                g, h = [Fraction(0)] * rows, [Fraction(0)] * cols
                for i, x in zip(support_rows, g_values):
                    g[i] = x
                for j, x in zip(support_cols, h_values):
                    h[j] = x
                return tuple(g), tuple(h)

            expected = run(rank_one_factor_dense)
            assert run(rank_one_factor_dense_built) == expected, d
            assert run(sparse) == expected, d
            outcomes["rejected" if isinstance(expected[0], str) else "accepted"] += 1
        assert min(outcomes.values()) >= 150


class TestDecompositionInvariants:
    def test_resummation_reproduces_block_matrix(self):
        for seed in range(25):
            sys_ = random_binary_system(seed=seed + 900)
            decomp = detect_linear_parameterization(sys_)
            Z = block_matrix(sys_)
            rows, cols = Z.rows, Z.cols
            resum = [[ParamPoly.zero() for _ in range(cols)] for _ in range(rows)]
            for t in decomp.terms:
                for i in range(rows):
                    if t.g[i] == 0:
                        continue
                    for j in range(cols):
                        if t.h[j] == 0:
                            continue
                        resum[i][j] = resum[i][j] + t.g[i] * t.h[j] * p(t.param_index)
            for i in range(rows):
                for j in range(cols):
                    assert resum[i][j] == Z.entry(i, j)

    def test_lower_right_block_stays_zero(self):
        for seed in range(10):
            sys_ = random_binary_system(seed=seed + 31)
            decomp = detect_linear_parameterization(sys_)
            n, m, l = sys_.n, sys_.m, sys_.l
            for t in decomp.terms:
                for i in range(n, n + l):
                    for j in range(n, n + m):
                        assert t.g[i] * t.h[j] == 0

    def test_rectangle_completion_property(self):
        # a color leaving vertex j and entering vertex i forces entry (i, j)
        for seed in range(40):
            sys_ = random_binary_system(seed=seed + 60, max_n=6, max_k=3)
            decomp = detect_linear_parameterization(sys_)
            for t in decomp.terms:
                rows = [i for i, x in enumerate(t.g) if x != 0]
                cols = [j for j, x in enumerate(t.h) if x != 0]
                assert (t.rows, t.cols) == (tuple(rows), tuple(cols))
                for i in rows:
                    for j in cols:
                        assert t.g[i] * t.h[j] != 0

    def test_classify_worked_example(self, worked_system):
        cls = classify(worked_system)
        assert (cls.polynomial, cls.linear, cls.binary, cls.unitary) == (
            True,
            True,
            True,
            False,
        )

    def test_classify_counterexample(self, counterexample_system):
        cls = classify(counterexample_system)
        assert cls.polynomial and not cls.linear
        assert cls.decomposition is None


class TestChannelSubset:
    def test_ordering_required(self):
        with pytest.raises(ValueError):
            ChannelSubset((1, 0))

    def test_complement(self):
        s = ChannelSubset.of(1)
        assert s.complement(3).members == (0, 2)

    def test_all_subsets_order(self):
        subsets = all_subsets(2)
        assert [s.members for s in subsets] == [(), (0,), (1,), (0, 1)]
