"""Linear-parameterization detection read in place, against the stacked reference.

The reference below is the earlier detection: stack [A B; C 0] into one
matrix, collect each parameter's derivative entries in (row, column) order,
and factor each derivative matrix into dense g and h vectors, checked
against every cell.  The detection in ``sfspectrum.system`` reads the
blocks in place and stores supports; it must give the same terms, flags
and errors.
"""

from fractions import Fraction

import pytest

from sfspectrum import (
    MultiChannelSystem,
    NotLinearlyParameterized,
    ParamMatrix,
    ParamPoly,
    detect_linear_parameterization,
    split,
)
from sfspectrum.cli import parse_system
from sfspectrum.ensembles import random_binary_system
from test_golden_linear import CASES as LINEAR_CASES
from test_golden_linear import random_linear_system
from test_golden_reports import CASES as REPORT_CASES
from test_golden_reports import DEMOS
from test_pencil_route import random_polynomial_system
from test_system import block_matrix, rank_one_factor_dense, single_channel

p = ParamPoly.param


def reference_terms(Z):
    """(terms, is_binary, is_unitary), each term (param_index, g, h, rows, cols)."""
    derivatives = {}
    for (i, j), poly in Z.items():
        coeffs = poly.linear_coefficients()
        if coeffs is None:
            kind = "constant term" if poly.constant_term != 0 else "nonlinear entry"
            raise NotLinearlyParameterized(
                f"{kind} at row {i + 1}, column {j + 1}: {poly!r}",
                param_index=None,
            )
        for r, coeff in coeffs.items():
            derivatives.setdefault(r, {})[(i, j)] = coeff
    terms, is_binary, is_unitary = [], True, True
    for r in sorted(derivatives):
        support = derivatives[r]
        g, h = rank_one_factor_dense(support, Z.rows, Z.cols, r)
        rows = tuple(i for i, x in enumerate(g) if x != 0)
        cols = tuple(j for j, x in enumerate(h) if x != 0)
        is_binary &= all(value in (0, 1) for value in support.values())
        is_unitary &= len(support) == 1 and next(iter(support.values())) == 1
        terms.append((r, g, h, rows, cols))
    return terms, is_binary, is_unitary


def outcome(detect, *args):
    try:
        terms, is_binary, is_unitary = detect(*args)
    except NotLinearlyParameterized as err:
        return ("rejected", str(err), err.reason, err.param_index)
    return ("decided", terms, is_binary, is_unitary)


def current(sys_):
    decomp = detect_linear_parameterization(sys_)
    assert decomp.system is sys_
    return as_tuples(decomp.terms), decomp.is_binary, decomp.is_unitary


def as_tuples(terms):
    out = []
    for t in terms:
        assert all(type(x) is Fraction for x in t.g + t.h)
        assert t.g_values == tuple(t.g[i] for i in t.rows)
        assert t.h_values == tuple(t.h[j] for j in t.cols)
        out.append((t.param_index, t.g, t.h, t.rows, t.cols))
    return out


def reference(sys_):
    return reference_terms(block_matrix(sys_))


def two_channels(A, B1, B2, C1, C2, q):
    return MultiChannelSystem(
        n=A.rows,
        channels=((B1.cols, C1.rows), (B2.cols, C2.rows)),
        A=A,
        B_blocks=(B1, B2),
        C_blocks=(C1, C2),
        q=q,
    )


def ensemble():
    yield from (random_binary_system(s) for s in range(60))
    yield from (random_binary_system(s, max_n=7, max_k=3) for s in range(60))
    yield from (random_linear_system(s) for s in range(200))
    yield from (random_polynomial_system(s) for s in range(120))


def hand_made():
    """Constant-term, nonlinear and rank-2 rejections, several faults at once."""
    m = ParamMatrix.from_rows
    half = Fraction(1, 2)
    return [
        # constant term in A
        single_channel(m([[p(0) + 1]], 1), ParamMatrix.zeros(1, 0, 1),
                       ParamMatrix.zeros(0, 1, 1), 1),
        # nonlinear entry in C, constant term later in the same row order
        single_channel(m([[p(0), 0], [0, p(1)]], 2), m([[p(1)], [0]], 2),
                       m([[p(0) * p(1), 3 + p(0)]], 2), 2),
        # faults in B (row 0) and A (row 1): B's comes first in (row, column) order
        two_channels(m([[p(0), 0], [p(0) * p(0), p(1)]], 3), m([[0], [p(2)]], 3),
                     m([[p(1) - 2], [0]], 3), m([[p(2), 0]], 3),
                     ParamMatrix.zeros(0, 2, 3), 3),
        # faults in C of channel 2 and C of channel 1: channel 1's rows come first
        two_channels(m([[p(0), 0], [0, p(1)]], 3), ParamMatrix.zeros(2, 1, 3),
                     ParamMatrix.zeros(2, 1, 3), m([[0, p(2) * p(2)]], 3),
                     m([[1, 0]], 3), 3),
        # rank 2: p1 on the diagonal of A; p2 weighted off the rectangle
        single_channel(m([[p(0), half * p(1)], [p(1), p(0)]], 2), m([[p(1)], [0]], 2),
                       m([[0, 2 * p(1)]], 2), 2),
        # rank 2 with a full rectangle: p1 fills 2x2 with a non-rank-one weight
        single_channel(m([[p(0), 2 * p(0)], [3 * p(0), 5 * p(0)]], 1),
                       ParamMatrix.zeros(2, 0, 1), ParamMatrix.zeros(0, 2, 1), 1),
        # rank 1 with a fractional pivot and negative weights
        single_channel(m([[half * p(0), -p(0)], [Fraction(-1, 3) * p(0), Fraction(2, 3) * p(0)]],
                         3),
                       m([[Fraction(3, 7) * p(1)], [0]], 3), m([[0, -p(2)]], 3), 3),
        # parameter in both B and C
        single_channel(m([[p(1)]], 2), m([[p(0)]], 2), m([[p(0)]], 2), 2),
        # no parameter at all, and an n x 0 input block
        single_channel(m([[0]], 1), ParamMatrix.zeros(1, 0, 1), ParamMatrix.zeros(0, 1, 1), 1),
        # not binary only through g (h is all ones), and only through h
        single_channel(m([[p(0), 0], [2 * p(0), 0]], 1), ParamMatrix.zeros(2, 0, 1),
                       ParamMatrix.zeros(0, 2, 1), 1),
        single_channel(m([[p(0), -p(0)], [p(0), -p(0)]], 1), ParamMatrix.zeros(2, 0, 1),
                       ParamMatrix.zeros(0, 2, 1), 1),
    ]


class TestDetectionEquivalence:
    def test_matches_stacked_reference_on_ensembles(self):
        kinds = {"decided": 0, "rejected": 0}
        messages = set()
        for sys_ in ensemble():
            expected = outcome(reference, sys_)
            assert outcome(current, sys_) == expected
            kinds[expected[0]] += 1
            if expected[0] == "rejected":
                messages.add(expected[2].split(" ")[0])
        assert min(kinds.values()) >= 100
        assert messages == {"nonlinear", "derivative"}  # constant terms: hand-made below

    def test_matches_stacked_reference_on_hand_made_systems(self):
        outcomes = [outcome(reference, sys_) for sys_ in hand_made()]
        for sys_, expected in zip(hand_made(), outcomes):
            assert outcome(current, sys_) == expected
        reasons = [o[2] if o[0] == "rejected" else None for o in outcomes]
        assert reasons[0].startswith("constant term at row 1, column 1")
        assert reasons[1].startswith("nonlinear entry at row 3, column 1")
        assert reasons[2].startswith("constant term at row 1, column 4")
        assert reasons[3].startswith("nonlinear entry at row 3, column 2")
        assert [o[3] for o in outcomes[4:6]] == [0, 0]
        assert outcomes[6][0] == "decided" and not outcomes[6][2]
        assert outcomes[7][3] == 0
        assert outcomes[8] == ("decided", [], True, True)
        assert [o[:1] + o[2:] for o in outcomes[9:]] == [("decided", False, False)] * 2


class TestNoRestacking:
    def test_detection_builds_no_matrix(self, monkeypatch):
        sys_ = random_binary_system(7, max_n=7, max_k=3)
        calls = []
        init = ParamMatrix.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ParamMatrix, "__init__", counting_init)
        block_matrix(sys_)  # the counter sees the validating constructor
        assert calls
        calls.clear()
        decomp = detect_linear_parameterization(sys_)
        assert decomp.terms
        assert calls == []


def golden_systems():
    for source, _, _ in REPORT_CASES.values():
        yield parse_system(DEMOS / source)[0] if isinstance(source, str) else source()
    for build, _ in LINEAR_CASES.values():
        for sys_, _ in build():
            yield sys_


def validated_hstack(mats):
    entries, offset = {}, 0
    for mat in mats:
        entries.update({(i, j + offset): poly for (i, j), poly in mat.items()})
        offset += mat.cols
    return ParamMatrix(mats[0].rows, offset, entries, mats[0].param_count)


def validated_vstack(mats):
    entries, offset = {}, 0
    for mat in mats:
        entries.update({(i + offset, j): poly for (i, j), poly in mat.items()})
        offset += mat.rows
    return ParamMatrix(offset, mats[0].cols, entries, mats[0].param_count)


def same(a, b):
    return (a.rows, a.cols, a.param_count, a.items()) == (b.rows, b.cols, b.param_count, b.items())


class TestStackingSkipsRevalidation:
    def test_equals_validating_constructor_on_golden_systems(self):
        count = 0
        for sys_ in golden_systems():
            count += 1
            pair = [sys_.A, *sys_.B_blocks]
            assert same(ParamMatrix.hstack(pair), validated_hstack(pair))
            column = [sys_.A, *sys_.C_blocks]
            assert same(ParamMatrix.vstack(column), validated_vstack(column))
            for s in sys_.subsets():
                B_S, C_compl = split(sys_, s)
                b_mats = [sys_.B_blocks[i] for i in s]
                c_mats = [sys_.C_blocks[j] for j in s.complement(sys_.k)]
                if b_mats:
                    assert same(B_S, validated_hstack(b_mats))
                else:
                    assert (B_S.rows, B_S.cols, B_S.is_zero) == (sys_.n, 0, True)
                if c_mats:
                    assert same(C_compl, validated_vstack(c_mats))
                else:
                    assert (C_compl.rows, C_compl.cols, C_compl.is_zero) == (0, sys_.n, True)
        assert count >= 100

    def test_mismatches_still_raise(self):
        a = ParamMatrix.from_rows([[p(0), 1]], 2)
        other_space = ParamMatrix.from_rows([[0, 1]], 3)
        for stack_fn, other_shape in (
            (ParamMatrix.hstack, ParamMatrix.zeros(2, 2, 2)),
            (ParamMatrix.vstack, ParamMatrix.zeros(1, 3, 2)),
        ):
            for other in (other_shape, other_space):
                with pytest.raises(ValueError, match="mismatch"):
                    stack_fn([a, other])
            with pytest.raises(ValueError, match="of nothing"):
                stack_fn([])
