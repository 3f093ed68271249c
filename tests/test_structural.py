"""The decision procedures: pencil sampling and the algebraic route."""

import itertools
import random
from fractions import Fraction

import pytest

from sfspectrum import (
    ChannelSubset,
    MultiChannelSystem,
    NotLinearlyParameterized,
    NumericSystem,
    ParamMatrix,
    ParamPoint,
    ParamPoly,
    closed_loop_generic_rank,
    decide_linear,
    decide_polynomial,
    detect_linear_parameterization,
    fixed_spectrum,
    generic_dims,
    markov_identity,
)
from sfspectrum.structural import (
    REASON_GENERIC_RANK,
    REASON_PENCIL_DROP,
    REASON_PROPER_SUBSPACE,
    GenericDims,
    _krylov_degree,
    _krylov_dim,
    _mat_mul_mod,
    _SamplePoint,
    _sparse_mul_mod,
    _sparse_rows,
    char_poly_exact,
    pencil_drop_at_point,
    poly_gcd,
)
from sfspectrum.polymatrix import FIELD_PRIME, _points, rank_exact
from sfspectrum import system
from sfspectrum.cli import parse_system_dict
from sfspectrum.system import all_subsets, reachability, split, stack
from sfspectrum.ensembles import random_binary_system
from conftest import (
    dense_krylov_dim,
    perfbench_module,
    symbolic_feedback,
    two_channel_shared_params,
)

p = ParamPoly.param
F = Fraction


P = FIELD_PRIME


def _mat_mul_q(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _mat_add_q(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _char_poly_at(coeffs, M):
    """chi(M) by Horner's rule over Q."""
    n = len(M)
    out = [[F(0)] * n for _ in range(n)]
    for c in coeffs:
        out = _mat_mul_q(out, M)
        for i in range(n):
            out[i][i] += c
    return out


def _random_rational_matrix(rng, n):
    return [
        [F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))) if rng.random() < 0.7 else F(0)
         for _ in range(n)]
        for _ in range(n)
    ]


def _mod(c):
    return c.numerator * pow(c.denominator, -1, P) % P


class TestExactHelpers:
    def test_char_poly_companion(self):
        # companion matrix of t^2 - 3t + 2 = (t-1)(t-2)
        M = [[F(0), F(-2)], [F(1), F(3)]]
        assert char_poly_exact(M) == [F(1), F(-3), F(2)]
        assert char_poly_exact(M, P) == [1, P - 3, 2]

    def test_cayley_hamilton_over_q(self):
        rng = random.Random(5)
        for n in range(1, 8):
            for _ in range(4):
                M = _random_rational_matrix(rng, n)
                coeffs = char_poly_exact(M)
                assert len(coeffs) == n + 1 and coeffs[0] == 1
                assert coeffs[1] == -sum(M[i][i] for i in range(n))
                assert _char_poly_at(coeffs, M) == [[0] * n for _ in range(n)]

    def test_prime_field_is_rational_result_reduced(self):
        rng = random.Random(6)
        for n in range(1, 8):
            for _ in range(4):
                M = _random_rational_matrix(rng, n)
                assert char_poly_exact(M, P) == [_mod(c) for c in char_poly_exact(M)]

    def test_pivot_swap(self):
        # zero subdiagonal entry in column 1 with a nonzero entry below it
        M = [[1, 2, 3], [0, 4, 5], [6, 7, 8]]
        assert char_poly_exact(M) == [1, -13, -9, 15]
        assert char_poly_exact(M, P) == [1, P - 13, P - 9, 15]

    def test_block_triangular_without_pivot(self):
        # no column needs an elimination; zero subdiagonal entries split the
        # recurrence into the diagonal blocks
        M = [[1, 2, 3], [0, 4, 5], [0, 0, 6]]
        assert char_poly_exact(M) == [1, -11, 34, -24]  # (t-1)(t-4)(t-6)
        assert char_poly_exact(M, P) == [1, P - 11, 34, P - 24]
        M = [[2, 1, 7, 2], [3, 4, 1, 9], [0, 0, 1, 5], [0, 0, 1, 1]]
        # (t^2 - 6t + 5)(t^2 - 2t - 4)
        assert char_poly_exact(M) == [1, -8, 13, 14, -20]
        assert char_poly_exact(M, P) == [1, P - 8, 13, 14, P - 20]

    def test_one_by_one(self):
        assert char_poly_exact([[F(5, 3)]]) == [1, F(-5, 3)]
        assert char_poly_exact([[F(5, 3)]], P) == [1, _mod(F(-5, 3))]

    def test_poly_gcd_shared_factor(self):
        # (t-1)(t-2) and (t-1)(t+5)
        a = [F(1), F(-3), F(2)]
        b = [F(1), F(4), F(-5)]
        assert poly_gcd(a, b) == [F(1), F(-1)]
        assert poly_gcd([2 * x for x in a], b, P) == [1, P - 1]

    def test_poly_gcd_coprime(self):
        assert poly_gcd([F(1), F(0)], [F(1), F(-3)]) == [F(1)]
        assert poly_gcd([1, 0], [1, P - 3], P) == [1]

    def test_poly_gcd_mod_p_matches_rational(self):
        rng = random.Random(8)
        for _ in range(30):
            common = [F(1)] + [F(rng.randint(-5, 5)) for _ in range(rng.randint(0, 2))]
            a = [F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
            b = [F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
            a = _poly_mul(common, a)
            b = _poly_mul(common, b)
            assert poly_gcd(a, b, P) == [_mod(c) for c in poly_gcd(a, b)]


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pencil_drop_over_q(sys_, s, values, seed, draws=1):
    """Reference for pencil_drop_at_point: the same E and K draws, over Q.

    The draws are uniform residues mod the system's prime, taken as integers.
    """
    rng = random.Random(seed)
    prime = sys_.prime
    B_S, C_compl = split(sys_, s)
    A = sys_.A.evaluate_at(values)
    B, C = B_S.evaluate_at(values), C_compl.evaluate_at(values)
    g = char_poly_exact(A)
    for _ in range(draws):
        if not B_S.cols and not C_compl.rows:
            break
        M = A
        if B_S.cols:
            E = [[F(rng.randrange(prime)) for _ in range(sys_.n)] for _ in range(B_S.cols)]
            M = _mat_add_q(M, _mat_mul_q(B, E))
        if C_compl.rows:
            K = [[F(rng.randrange(prime)) for _ in range(C_compl.rows)] for _ in range(sys_.n)]
            M = _mat_add_q(M, _mat_mul_q(K, C))
        g = poly_gcd(g, char_poly_exact(M))
        if len(g) == 1:
            return False
    return len(g) > 1


class TestPencilAgreement:
    def test_prime_field_pencil_matches_rational_reference(self):
        rng = random.Random(44)
        outcomes = set()
        for seed in range(40):
            sys_ = random_binary_system(seed=seed + 900, max_n=5, max_k=3)
            for s in all_subsets(sys_.k):
                for _ in range(2):
                    values = [F(rng.randint(-300, 300), rng.choice((1, 1, 4, 9)))
                              for _ in range(sys_.q)]
                    sub_seed = rng.randrange(2**32)
                    drop = pencil_drop_at_point(sys_, s, values, seed=sub_seed)
                    assert drop == _pencil_drop_over_q(sys_, s, values, sub_seed)
                    outcomes.add(drop)
        assert outcomes == {True, False}


class TestDecidePolynomial:
    def test_worked_example_no_sfs(self, worked_system):
        verdict = decide_polynomial(worked_system, trials=10, seed=4)
        assert not verdict.has_sfs
        assert verdict.route == "pencil-sampling"
        assert verdict.witness is None and verdict.reason is None
        assert all(d["certified"] for d in verdict.diagnostics["subsets"])

    def test_no_inputs_or_outputs_is_sfs(self):
        sys_ = MultiChannelSystem(
            n=2,
            channels=((0, 0),),
            A=ParamMatrix.from_rows([[p(0), 0], [0, p(1)]], 2),
            B_blocks=(ParamMatrix.zeros(2, 0, 2),),
            C_blocks=(ParamMatrix.zeros(0, 2, 2),),
            q=2,
        )
        verdict = decide_polynomial(sys_, seed=8)
        assert verdict.has_sfs
        assert verdict.reason == REASON_PENCIL_DROP
        assert verdict.witness == ChannelSubset(())

    def test_scalar_chain_no_sfs(self):
        sys_ = MultiChannelSystem(
            n=1,
            channels=((1, 1),),
            A=ParamMatrix.from_rows([[p(0)]], 3),
            B_blocks=(ParamMatrix.from_rows([[p(1)]], 3),),
            C_blocks=(ParamMatrix.from_rows([[p(2)]], 3),),
            q=3,
        )
        assert not decide_polynomial(sys_, seed=2).has_sfs

    def test_certificates_replay_on_fresh_points(self, worked_system):
        rng = random.Random(77)
        for s in all_subsets(2):
            for _ in range(5):
                values = [F(rng.randint(-300, 300)) for _ in range(4)]
                assert not pencil_drop_at_point(
                    worked_system, s, values, seed=rng.randrange(2**31)
                )


class TestMarkovIdentity:
    def test_full_subset_vacuous(self, worked_system):
        assert markov_identity(worked_system, ChannelSubset.of(0, 1))

    def test_worked_example_first_channel_nonzero(self, worked_system):
        # complement output times first input block is p1*p2, not zero
        assert not markov_identity(worked_system, ChannelSubset.of(0), seed=5)

    def test_zero_input_block(self):
        sys_ = MultiChannelSystem(
            n=1,
            channels=((1, 1),),
            A=ParamMatrix.from_rows([[p(0)]], 2),
            B_blocks=(ParamMatrix.zeros(1, 1, 2),),
            C_blocks=(ParamMatrix.from_rows([[p(1)]], 2),),
            q=2,
        )
        assert markov_identity(sys_, ChannelSubset.of(0))


class TestGenericDims:
    def test_empty_subset_convention(self, worked_system):
        dims = generic_dims(worked_system, ChannelSubset(()))
        assert dims.ctrb_dim == 0
        assert dims.unobs_dim == 0  # stacked C observes everything generically

    def test_empty_complement_convention(self, worked_system):
        dims = generic_dims(worked_system, ChannelSubset.of(0, 1))
        assert dims.unobs_dim == 2
        assert dims.ctrb_dim == 2

    def test_monotone_in_subset(self):
        for seed in range(15):
            sys_ = random_binary_system(seed=seed + 400)
            by_subset = {
                s.members: generic_dims(sys_, s, seed=seed) for s in all_subsets(sys_.k)
            }
            for s in all_subsets(sys_.k):
                for t in all_subsets(sys_.k):
                    if set(s.members) <= set(t.members):
                        assert by_subset[s.members].ctrb_dim <= by_subset[t.members].ctrb_dim
                        assert by_subset[s.members].unobs_dim <= by_subset[t.members].unobs_dim


def _full_krylov_rank(A, B, prime):
    """Reference: rank of the whole Krylov matrix [B, AB, ..., A^(n-1) B] over GF(prime)."""
    n = len(A)
    blocks = []
    M = B
    for _ in range(n):
        blocks.append(M)
        M = _mat_mul_mod(A, M, prime)
    return rank_exact([sum((blk[i] for blk in blocks), []) for i in range(n)], prime)


def _transpose(M, width):
    """M^T for a matrix M with ``width`` columns (an empty M gives width empty rows)."""
    return [list(col) for col in zip(*M)] if M else [[] for _ in range(width)]


def _generic_dims_full_krylov(sys_, s, trials=10, seed=0):
    """Reference: full Krylov matrices, one rank per point, every one of ``trials`` points."""
    rng = random.Random(seed)
    B_S, C_compl = split(sys_, s)
    n, prime = sys_.n, sys_.prime
    best_ctrb = best_obs = 0
    for _ in range(trials):
        values = [rng.randrange(prime) for _ in range(sys_.q)]
        A = sys_.A.evaluate_at(values, prime)
        if B_S.cols:
            best_ctrb = max(best_ctrb, _full_krylov_rank(A, B_S.evaluate_at(values, prime), prime))
        if C_compl.rows:
            C_t = _transpose(C_compl.evaluate_at(values, prime), n)
            best_obs = max(best_obs, _full_krylov_rank(_transpose(A, n), C_t, prime))
    return GenericDims(ctrb_dim=best_ctrb, unobs_dim=n - best_obs)


def _nilpotent_system() -> MultiChannelSystem:
    """Strictly upper triangular A; channel 1 drives the last state, channel 2 reads the first."""
    n = 4
    q = n * (n - 1) // 2 + 2
    idx = iter(range(q))
    A = ParamMatrix.from_rows(
        [[p(next(idx)) if j > i else 0 for j in range(n)] for i in range(n)], q
    )
    return MultiChannelSystem(
        n=n,
        channels=((1, 0), (0, 1)),
        A=A,
        B_blocks=(ParamMatrix.from_rows([[0], [0], [0], [p(q - 2)]], q), ParamMatrix.zeros(n, 0, q)),
        C_blocks=(ParamMatrix.zeros(0, n, q), ParamMatrix.from_rows([[p(q - 1), 0, 0, 0]], q)),
        q=q,
    )


def _invariant_subspace_system() -> MultiChannelSystem:
    """A = [[A11, A12], [0, A22]] with B only in the top block and C only on the bottom."""
    n, top = 5, 2
    cells = [(i, j) for i in range(n) for j in range(n) if not (i >= top and j < top)]
    q = len(cells) + 3
    A = ParamMatrix(n, n, {cell: p(r) for r, cell in enumerate(cells)}, q)
    B = ParamMatrix(n, 2, {(0, 0): p(q - 3), (1, 1): p(q - 2)}, q)
    C = ParamMatrix(1, n, {(0, 4): p(q - 1)}, q)
    return MultiChannelSystem(
        n=n, channels=((2, 1),), A=A, B_blocks=(B,), C_blocks=(C,), q=q
    )


def _repeated_column_system() -> MultiChannelSystem:
    """A = 0; B's two columns (and C's two rows) carry the same parameters.

    Both states are reachable and both observe, so both caps are 2, but the
    Krylov spaces are the spans of one column and one row: dimension 1.
    """
    return MultiChannelSystem(
        n=2,
        channels=((2, 0), (0, 2)),
        A=ParamMatrix.zeros(2, 2, 4),
        B_blocks=(ParamMatrix.from_rows([[p(0), p(0)], [p(1), p(1)]], 4),
                  ParamMatrix.zeros(2, 0, 4)),
        C_blocks=(ParamMatrix.zeros(0, 2, 4),
                  ParamMatrix.from_rows([[p(2), p(3)], [p(2), p(3)]], 4)),
        q=4,
    )


def _rank_one_term_system(b_state=0, c_states=(1, 2)) -> MultiChannelSystem:
    """p1 drives states 2 and 3 from state 1 through one rank-one term.

    By default all three states are reachable from the input at state 1,
    but A e1 = p1 (e2 + e3) and A maps e2 + e3 to 0, so the controllable
    space is span(e1, e2 + e3): dimension 2 below the cap 3.  The output
    reads states 2 and 3 through one shared parameter, so the observable
    space is span(e2 + e3, e1): dimension 2 below the cap 3 as well.  An
    input at state 2 (cap 1) or an output of state 2 alone (cap 2) meets
    its cap instead.
    """
    return MultiChannelSystem(
        n=3,
        channels=((1, 0), (0, 1)),
        A=ParamMatrix(3, 3, {(1, 0): p(0), (2, 0): p(0)}, 3),
        B_blocks=(ParamMatrix(3, 1, {(b_state, 0): p(1)}, 3), ParamMatrix.zeros(3, 0, 3)),
        C_blocks=(ParamMatrix.zeros(0, 3, 3),
                  ParamMatrix(1, 3, {(0, j): p(2) for j in c_states}, 3)),
        q=3,
    )


def _ctrb_cap_met_system() -> MultiChannelSystem:
    return _rank_one_term_system(b_state=1)


def _obs_cap_met_system() -> MultiChannelSystem:
    return _rank_one_term_system(c_states=(1,))


def _residues(rng, rows, cols, prime, zero_rows=()):
    """A rows x cols residue matrix, about a third of its entries and the
    rows in ``zero_rows`` zero."""
    return [[0 if i in zero_rows or rng.random() < 0.3 else rng.randrange(prime)
             for _ in range(cols)] for i in range(rows)]


class TestSparseProducts:
    """``_sparse_mul_mod`` by the sparse rows of M equals the dense ``_mat_mul_mod``."""

    @pytest.mark.parametrize("prime", [101, P])
    def test_matches_mat_mul_mod(self, prime):
        rng = random.Random(prime)
        shapes = [(0, 3, 4), (3, 4, 0), (0, 4, 0), (1, 1, 1)]  # 0 x n and n x 0 factors
        shapes += [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)) for _ in range(80)]
        for r, k, c in shapes:
            a = _residues(rng, r, k, prime, zero_rows={rng.randrange(r)} if r else ())
            b = _residues(rng, k, c, prime, zero_rows={rng.randrange(k)})
            assert _sparse_mul_mod(a, _sparse_rows(b), c, prime) == _mat_mul_mod(a, b, prime)

    def test_sparse_rows_keep_the_nonzero_entries(self):
        assert _sparse_rows([[0, 5, 0], [0, 0, 0], [7, 0, 1]]) == [[(1, 5)], [], [(0, 7), (2, 1)]]
        assert _sparse_rows([[], []]) == [[], []]
        assert _sparse_rows([]) == []

    @pytest.mark.parametrize("prime", [101, P])
    def test_markov_step_is_the_transposed_product(self, prime):
        # markov_identity steps the columns of A^j B_S, as rows, by the sparse rows of A^T
        rng = random.Random(prime + 1)
        for _ in range(60):
            n, m = rng.randint(1, 7), rng.randint(1, 3)
            A = _residues(rng, n, n, prime, zero_rows={rng.randrange(n)})
            M = _residues(rng, n, m, prime)
            step = _sparse_mul_mod(_transpose(M, m), _sparse_rows(zip(*A)), n, prime)
            assert step == _transpose(_mat_mul_mod(A, M, prime), m)


class TestGenericDimsReference:
    def test_mat_mul_mod_matches_naive_product(self):
        rng = random.Random(5)
        for prime in (7, P):
            for _ in range(30):
                r, k, c = rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4)
                a = [[rng.choice((0, rng.randrange(prime))) for _ in range(k)] for _ in range(r)]
                b = [[rng.randrange(prime) for _ in range(c)] for _ in range(k)]
                naive = [[sum(x * y for x, y in zip(row, col)) % prime for col in zip(*b)]
                         for row in a]
                assert _mat_mul_mod(a, b, prime) == naive

    @pytest.mark.parametrize("prime", [2, 5, 7])
    def test_stall_stop_equals_full_krylov_at_every_point(self, prime):
        # small fields make degenerate points common: repeated columns,
        # nilpotent A, B inside an A-invariant subspace, zero B
        rng = random.Random(prime)
        kinds = ("random", "nilpotent", "invariant", "zero-b", "sparse")
        for trial in range(150):
            kind = kinds[trial % len(kinds)]
            n, m = rng.randint(1, 6), rng.randint(1, 3)
            A = [[rng.randrange(prime) for _ in range(n)] for _ in range(n)]
            B = [[rng.randrange(prime) for _ in range(m)] for _ in range(n)]
            if kind == "nilpotent":
                A = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(A)]
            elif kind == "invariant":
                top = rng.randint(0, n)
                A = [[0 if i >= top and j < top else x for j, x in enumerate(row)]
                     for i, row in enumerate(A)]
                B = [row if i < top else [0] * m for i, row in enumerate(B)]
            elif kind == "zero-b":
                B = [[0] * m for _ in range(n)]
            elif kind == "sparse":
                A = [[x if rng.random() < 0.3 else 0 for x in row] for row in A]
            columns = _transpose(B, m)
            AT = _transpose(A, n)
            want = _full_krylov_rank(A, B, prime)
            assert dense_krylov_dim(columns, AT, prime) == want
            # the sparse kernel, capped by the width or by the dimension itself
            for cap in (n, want):
                assert _krylov_dim(columns, _sparse_rows(AT), prime, cap) == want

    def test_matches_reference_on_random_ensembles(self):
        for seed in range(40):
            sys_ = random_binary_system(seed=seed + 900, max_n=6, max_k=3)
            for s in all_subsets(sys_.k):
                for trials in (1, 10):
                    assert generic_dims(sys_, s, trials=trials, seed=seed) == \
                        _generic_dims_full_krylov(sys_, s, trials=trials, seed=seed)

    @pytest.mark.parametrize("build", [
        _nilpotent_system, _invariant_subspace_system,
        # generic dimensions below the reachability cap: every trial runs
        _repeated_column_system, _rank_one_term_system,
        _ctrb_cap_met_system, _obs_cap_met_system,
    ])
    def test_matches_reference_at_non_generic_structures(self, build):
        sys_ = build()
        for s in all_subsets(sys_.k):
            for seed in range(3):
                assert generic_dims(sys_, s, trials=2, seed=seed) == \
                    _generic_dims_full_krylov(sys_, s, trials=2, seed=seed)

    def test_non_generic_structures_have_the_expected_dims(self):
        # nilpotent chain: the last state reaches everything, the first observes all
        nil = _nilpotent_system()
        assert generic_dims(nil, ChannelSubset.of(0)) == GenericDims(ctrb_dim=4, unobs_dim=0)
        assert generic_dims(nil, ChannelSubset(())) == GenericDims(ctrb_dim=0, unobs_dim=0)
        assert generic_dims(nil, ChannelSubset.of(0, 1)) == GenericDims(ctrb_dim=4, unobs_dim=4)
        # B inside the invariant top block; C reads the bottom block only
        inv = _invariant_subspace_system()
        assert generic_dims(inv, ChannelSubset(())) == GenericDims(ctrb_dim=0, unobs_dim=2)
        assert generic_dims(inv, ChannelSubset.of(0)) == GenericDims(ctrb_dim=2, unobs_dim=5)


# -- the structural cap on the Krylov dimensions -------------------------------


def _pattern_closure(A_pattern, start):
    """Reference: support of sum_j pattern(A)^j start, by boolean matrix powers."""
    n = len(A_pattern)
    reached = set(start)
    frontier = set(start)
    for _ in range(n):
        frontier = {i for i in range(n) for j in frontier if A_pattern[i][j]} - reached
        reached |= frontier
    return reached


def _caps(sys_, s):
    """(|R|, |O|): states reachable from B_S's rows, states reaching C_compl's columns."""
    B_S, C_compl = split(sys_, s)
    n = sys_.n
    pattern = [[not sys_.A.entry(i, j).is_zero for j in range(n)] for i in range(n)]
    transposed = [list(col) for col in zip(*pattern)]
    rows = {i for (i, _), _ in B_S.items()}
    cols = {j for (_, j), _ in C_compl.items()}
    return len(_pattern_closure(pattern, rows)), len(_pattern_closure(transposed, cols))


def _sparse_system(rng, nilpotent=False) -> MultiChannelSystem:
    """Two channels, a sparse A with one fresh parameter per nonzero, sparse B and C."""
    n = rng.randint(2, 7)
    channels = ((rng.randint(0, 2), rng.randint(0, 2)), (rng.randint(0, 2), rng.randint(0, 2)))
    counter = iter(range(10**6))

    def sparse(rows, cols, density, keep=lambda i, j: True):
        return {(i, j): p(next(counter)) for i in range(rows) for j in range(cols)
                if keep(i, j) and rng.random() < density}

    A = sparse(n, n, 0.25, lambda i, j: j > i or not nilpotent)
    Bs = [sparse(n, m_i, 0.3) for m_i, _ in channels]
    Cs = [sparse(l_i, n, 0.3) for _, l_i in channels]
    q = next(counter)
    return MultiChannelSystem(
        n=n,
        channels=channels,
        A=ParamMatrix(n, n, A, q),
        B_blocks=tuple(ParamMatrix(n, m_i, B, q) for (m_i, _), B in zip(channels, Bs)),
        C_blocks=tuple(ParamMatrix(l_i, n, C, q) for (_, l_i), C in zip(channels, Cs)),
        q=q,
    )


def _points_per_call(monkeypatch, sys_, s, trials):
    """Number of sample points one generic_dims call evaluates (one A per point)."""
    points = []
    original = ParamMatrix.evaluate_at

    def counting(self, values, modulus=None):
        if self is sys_.A:
            points.append(tuple(values))
        return original(self, values, modulus)

    monkeypatch.setattr(ParamMatrix, "evaluate_at", counting)
    dims = generic_dims(sys_, s, trials=trials, seed=11)
    monkeypatch.undo()
    return dims, len(points)


class TestKrylovCap:
    @pytest.mark.parametrize("prime", [2, 7, P])
    def test_cap_bounds_krylov_dims_at_every_point(self, prime):
        rng = random.Random(prime)
        for trial in range(60):
            sys_ = _sparse_system(rng, nilpotent=trial % 3 == 0)
            for s in all_subsets(sys_.k):
                ctrb_cap, obs_cap = _caps(sys_, s)
                B_S, C_compl = split(sys_, s)
                n = sys_.n
                for kind in ("random", "zero", "ones"):
                    values = {"random": [rng.randrange(prime) for _ in range(sys_.q)],
                              "zero": [0] * sys_.q, "ones": [1] * sys_.q}[kind]
                    A = sys_.A.evaluate_at(values, prime)
                    columns = _transpose(B_S.evaluate_at(values, prime), B_S.cols)
                    rows = C_compl.evaluate_at(values, prime)
                    AT_rows = _sparse_rows(_transpose(A, n))
                    assert _krylov_dim(columns, AT_rows, prime, n) <= ctrb_cap
                    assert _krylov_dim(rows, _sparse_rows(A), prime, n) <= obs_cap

    def test_capped_equals_all_trials_on_sparse_systems(self):
        rng = random.Random(8)
        for trial in range(40):
            sys_ = _sparse_system(rng, nilpotent=trial % 4 == 0)
            for s in all_subsets(sys_.k):
                assert generic_dims(sys_, s, trials=4, seed=trial) == \
                    _generic_dims_full_krylov(sys_, s, trials=4, seed=trial)

    def test_below_cap_dims(self):
        rep = _repeated_column_system()
        assert _caps(rep, ChannelSubset.of(0)) == (2, 2)
        assert generic_dims(rep, ChannelSubset.of(0)) == GenericDims(ctrb_dim=1, unobs_dim=1)
        one = _rank_one_term_system()
        assert _caps(one, ChannelSubset.of(0)) == (3, 3)
        assert generic_dims(one, ChannelSubset.of(0)) == GenericDims(ctrb_dim=2, unobs_dim=1)
        ctrb_met = _ctrb_cap_met_system()
        assert _caps(ctrb_met, ChannelSubset.of(0)) == (1, 3)
        assert generic_dims(ctrb_met, ChannelSubset.of(0)) == GenericDims(ctrb_dim=1, unobs_dim=1)
        obs_met = _obs_cap_met_system()
        assert _caps(obs_met, ChannelSubset.of(0)) == (3, 2)
        assert generic_dims(obs_met, ChannelSubset.of(0)) == GenericDims(ctrb_dim=2, unobs_dim=1)

    def test_one_point_when_the_cap_is_met(self, monkeypatch):
        # nilpotent chain: channel 1 reaches all four states, channel 2 observes all
        nil = _nilpotent_system()
        for s in all_subsets(nil.k):
            dims, points = _points_per_call(monkeypatch, nil, s, trials=7)
            ctrb_cap, obs_cap = _caps(nil, s)
            assert (dims.ctrb_dim, nil.n - dims.unobs_dim) == (ctrb_cap, obs_cap)
            assert points == 1, s
        # a reachable proper subset: the cap is below n and still stops at once
        inv = _invariant_subspace_system()
        dims, points = _points_per_call(monkeypatch, inv, ChannelSubset(()), trials=7)
        assert _caps(inv, ChannelSubset(())) == (0, 3)
        assert dims == GenericDims(ctrb_dim=0, unobs_dim=2) and points == 1

    @pytest.mark.parametrize("build", [_repeated_column_system, _rank_one_term_system,
                                       _ctrb_cap_met_system, _obs_cap_met_system])
    def test_every_point_when_the_cap_is_not_met(self, monkeypatch, build):
        # one span below its cap keeps the sampling going, whatever the other
        # does, until the failure bound meets its target: at once over the
        # 61-bit prime, after every one of the 7 points over GF(101)
        sys_ = build()
        s = ChannelSubset.of(0)
        for prime, expected in ((sys_.prime, 1), (101, 7)):
            object.__setattr__(sys_, "prime", prime)
            assert _points(_krylov_degree(sys_), prime, 7, 2 ** (sys_.k + 1)) == expected
            dims, points = _points_per_call(monkeypatch, sys_, s, trials=7)
            assert (dims.ctrb_dim, sys_.n - dims.unobs_dim) != _caps(sys_, s)
            assert dims == _generic_dims_full_krylov(sys_, s, trials=expected, seed=11)
            assert points == expected


def _linear_scale_systems(seed: int, count: int):
    """The first ``count`` systems of the benchmark's linear-scale corpus."""
    workloads = perfbench_module("workloads")
    w = workloads.LinearScale()
    walk = workloads.generate(w.name, seed, w.cells, w.variants, w.density)
    return [parse_system_dict(doc)[0] for _, doc, _ in itertools.islice(walk, count)]


class TestDecideLinear:
    def test_one_reachability_for_all_subsets(self, monkeypatch):
        # the closure of A's pattern is built once per system, lazily, and every
        # generic_dims call of decide_linear (and any later public call) reads it
        systems = _linear_scale_systems(1, 20) + [random_binary_system(seed, max_n=6, max_k=3)
                                                  for seed in range(20)]
        built = []

        def counted(*args):
            built.append(args[0])
            return reachability(*args)

        monkeypatch.setattr(system, "reachability", counted)
        dims_seen = 0
        for sys_ in systems:
            built.clear()
            verdict = decide_linear(sys_, seed=5)
            zero = [entry for entry in verdict.diagnostics["subsets"] if "ctrb_dim" in entry]
            assert len(built) == min(len(zero), 1)
            for entry in zero:
                s = ChannelSubset.of(*(i - 1 for i in entry["subset"]))
                assert generic_dims(sys_, s, seed=1).ctrb_dim <= _caps(sys_, s)[0]
            assert len(built) == min(len(zero), 1)
            dims_seen += len(zero)
        assert dims_seen > len(systems)

    def test_each_point_is_evaluated_once(self, monkeypatch):
        """One decide_linear call evaluates A, the stacked B and the stacked C
        at most once per point, whatever 2^k is: its three questions share the
        points.  Over the 61-bit prime every claim of these degree-1 systems
        stops at one point, so the call evaluates exactly three matrices."""
        calls = {}
        evaluate_at = ParamMatrix.evaluate_at

        def counted(self, values, modulus=None):
            key = (id(self), tuple(values))
            calls[key] = calls.get(key, 0) + 1
            return evaluate_at(self, values, modulus)

        monkeypatch.setattr(ParamMatrix, "evaluate_at", counted)
        systems = _linear_scale_systems(1, 20) + [
            random_binary_system(seed=36_000 + i, max_n=5, max_k=4) for i in range(40)
        ]
        small = [random_binary_system(seed=37_000 + i, max_n=4, max_k=4) for i in range(40)]
        for sys_ in small:
            object.__setattr__(sys_, "prime", 101)
        ks = set()
        for sys_ in systems + small:
            calls.clear()
            decide_linear(sys_, seed=9)
            points = {values for _, values in calls}
            assert all(count == 1 for count in calls.values())
            assert len(calls) == 3 * len(points)
            if sys_.prime != 101:
                assert len(points) == 1
            ks.add(sys_.k)
        assert ks >= {2, 3, 4}

    def test_sparse_rows_are_built_once_per_point(self, monkeypatch):
        """One decide_linear call builds the sparse rows of A and of A^T at most
        once per point, although every subset's zero transfer and dimensions
        step by them there."""
        built = []
        points = []
        sparse_rows, init = _sparse_rows, _SamplePoint.__init__

        def counted_rows(M):
            built.append(1)
            return sparse_rows(M)

        def counted_init(self, *args):
            points.append(self)
            init(self, *args)

        monkeypatch.setattr("sfspectrum.structural._sparse_rows", counted_rows)
        monkeypatch.setattr(_SamplePoint, "__init__", counted_init)
        systems = _linear_scale_systems(1, 20) + [
            random_binary_system(seed=36_000 + i, max_n=5, max_k=4) for i in range(40)
        ]
        asked = both = 0
        for sys_ in systems:
            built.clear()
            points.clear()
            verdict = decide_linear(sys_, seed=9)
            assert len(built) <= 2 * len(points)
            subsets = verdict.diagnostics["subsets"]
            asked += len(subsets) > 1 and len(built) > 0
            both += any("ctrb_dim" in entry for entry in subsets) and len(built) == 2 * len(points)
        # many calls ask several subsets at one point, and some build both forms
        assert asked >= 20 and both >= 10, (asked, both)

    def test_worked_example_no_sfs(self, worked_system):
        verdict = decide_linear(worked_system, seed=6)
        assert not verdict.has_sfs
        assert verdict.diagnostics["closed_loop_grank"] == 2
        markov_by_subset = {
            tuple(d["subset"]): d["markov_zero"] for d in verdict.diagnostics["subsets"]
        }
        assert markov_by_subset[(1,)] is False and markov_by_subset[(2,)] is False
        assert markov_by_subset[()] is True and markov_by_subset[(1, 2)] is True

    def test_unobservable_system_is_sfs(self):
        sys_ = MultiChannelSystem(
            n=1,
            channels=((1, 1),),
            A=ParamMatrix.from_rows([[p(0)]], 2),
            B_blocks=(ParamMatrix.from_rows([[p(1)]], 2),),
            C_blocks=(ParamMatrix.zeros(1, 1, 2),),
            q=2,
        )
        verdict = decide_linear(sys_, seed=3)
        assert verdict.has_sfs
        assert verdict.reason == REASON_PROPER_SUBSPACE
        assert verdict.witness == ChannelSubset(())

    def test_rejects_nonlinear(self, counterexample_system):
        with pytest.raises(NotLinearlyParameterized):
            decide_linear(counterexample_system)

    def test_refuses_the_decomposition_of_another_system(self):
        def one_channel(a11):
            return MultiChannelSystem(
                n=2,
                channels=((1, 1),),
                A=ParamMatrix.from_rows([[a11, 0], [0, p(1)]], 4),
                B_blocks=(ParamMatrix.from_rows([[p(2)], [0]], 4),),
                C_blocks=(ParamMatrix.from_rows([[p(3), 0]], 4),),
                q=4,
            )

        linear, squared = one_channel(p(0)), one_channel(p(0) * p(0))
        with pytest.raises(NotLinearlyParameterized, match=r"row 1, column 1: p1\^2"):
            decide_linear(squared)
        # the linear twin's decomposition must not let the nonlinear system through
        with pytest.raises(ValueError, match="does not belong to this system"):
            decide_linear(squared, detect_linear_parameterization(linear))
        # an equal system, built apart, owns the decomposition
        verdict = decide_linear(linear, detect_linear_parameterization(one_channel(p(0))))
        assert verdict.has_sfs and verdict.reason == REASON_PROPER_SUBSPACE

    def test_generic_rank_deficient_route(self):
        # two states sharing one parameter on the diagonal, no inputs/outputs
        sys_ = MultiChannelSystem(
            n=2,
            channels=((0, 0),),
            A=ParamMatrix.from_rows([[p(0), 0], [0, 0]], 1),
            B_blocks=(ParamMatrix.zeros(2, 0, 1),),
            C_blocks=(ParamMatrix.zeros(0, 2, 1),),
            q=1,
        )
        verdict = decide_linear(sys_, seed=1)
        assert verdict.has_sfs
        assert verdict.reason == REASON_GENERIC_RANK
        assert closed_loop_generic_rank(sys_) == 1


def _state_only_system(rows, q) -> MultiChannelSystem:
    """A system with state matrix ``rows`` and one channel of no input or output."""
    n = len(rows)
    return MultiChannelSystem(
        n=n,
        channels=((0, 0),),
        A=ParamMatrix.from_rows(rows, q),
        B_blocks=(ParamMatrix.zeros(n, 0, q),),
        C_blocks=(ParamMatrix.zeros(0, n, q),),
        q=q,
    )


class TestClosedLoopRank:
    """closed_loop_generic_rank samples through the shared stop: it ends at a
    full-rank point, or once (degree / p)^t <= 2^-40."""

    def points(self, monkeypatch, sys_, **kwargs):
        points = set()
        evaluate_at = ParamMatrix.evaluate_at

        def counting(self, values, modulus=None):
            if self is sys_.A:
                points.add(tuple(values))
            return evaluate_at(self, values, modulus)

        monkeypatch.setattr(ParamMatrix, "evaluate_at", counting)
        rank = closed_loop_generic_rank(sys_, **kwargs)
        monkeypatch.undo()
        return rank, len(points)

    def test_worked_example_closed_loop(self):
        # independent oracle: the 2x2 determinant of A + B F C is a nonzero
        # polynomial; exhaustive small-grid evaluation finds a nonzero value
        sys_ = two_channel_shared_params()
        B, C = stack(sys_)
        F = symbolic_feedback(sys_.channels, offset=sys_.q)
        closed = [
            [
                sys_.A.entry(i, j)
                + sum(
                    (B.entry(i, r) * f * C.entry(c, j) for (r, c), f in F.items()),
                    ParamPoly.zero(),
                )
                for j in range(sys_.n)
            ]
            for i in range(sys_.n)
        ]
        det = closed[0][0] * closed[1][1] - closed[0][1] * closed[1][0]
        assert any(det.evaluate(v) != 0 for v in itertools.product([0, 1, 2], repeat=6))
        assert closed_loop_generic_rank(sys_) == 2

    def test_rank_deficient_takes_one_point(self, monkeypatch):
        # degree 2 * 1 over a 61-bit prime: one point already bounds it by 2^-60
        sys_ = _state_only_system([[p(0), p(0)], [p(0), p(0)]], 1)
        assert self.points(monkeypatch, sys_) == (1, 1)

    def test_full_rank_settles_at_the_first_point(self, monkeypatch):
        sys_ = _state_only_system([[p(0), 1], [0, p(1)]], 2)
        assert self.points(monkeypatch, sys_) == (2, 1)

    def test_high_degree_needs_more_points_up_to_the_cap(self, monkeypatch):
        x = ParamPoly({((0, 2**22),): 1})
        sys_ = _state_only_system([[x, x], [x, x]], 1)
        # degree 2 * 2^22 = 2^23: one point gives about 2^-38, two meet 2^-40
        assert _points(2**23, FIELD_PRIME, 10) == 2
        assert self.points(monkeypatch, sys_) == (1, 2)
        assert self.points(monkeypatch, sys_, trials=1) == (1, 1)


class TestConventionExercises:
    def test_input_only_channel(self):
        # one input, no outputs: the feedback pattern is empty, the closed
        # loop is A itself, and the zero eigenvalue is structurally fixed
        sys_ = MultiChannelSystem(
            n=1,
            channels=((1, 0),),
            A=ParamMatrix.zeros(1, 1, 1),
            B_blocks=(ParamMatrix.from_rows([[p(0)]], 1),),
            C_blocks=(ParamMatrix.zeros(0, 1, 1),),
            q=1,
        )
        v_linear = decide_linear(sys_, seed=2)
        assert v_linear.has_sfs and v_linear.reason == REASON_GENERIC_RANK
        v_pencil = decide_polynomial(sys_, seed=2)
        assert v_pencil.has_sfs
        assert closed_loop_generic_rank(sys_) == 0

    def test_pencil_witness_matches_numeric_route(self):
        # a subset reported as witness must actually drop the pencil at
        # random numeric points, i.e. appear among the fixed-spectrum
        # witnesses there
        rng = random.Random(21)
        checked = 0
        for seed in range(120):
            sys_ = random_binary_system(seed=seed + 31_000)
            verdict = decide_polynomial(sys_, trials=10, seed=seed)
            if verdict.reason != REASON_PENCIL_DROP:
                continue
            checked += 1
            for _ in range(3):
                values = tuple(F(rng.randint(-40, 40)) for _ in range(sys_.q))
                ns = NumericSystem.from_system(sys_, ParamPoint(values=values, seed=0))
                result = fixed_spectrum(ns)
                witnesses = {
                    w.members for fe in result.fixed_eigenvalues for w in fe.witnesses
                }
                assert verdict.witness.members in witnesses
            if checked >= 8:
                break
        assert checked >= 5


class TestAgreementInvariants:
    def test_routes_agree_on_random_linear_systems(self):
        for seed in range(60):
            sys_ = random_binary_system(seed=seed + 5000)
            v1 = decide_polynomial(sys_, trials=10, seed=seed)
            v2 = decide_linear(sys_, trials=10, seed=seed + 1)
            assert v1.has_sfs == v2.has_sfs, f"seed {seed + 5000}"

    def test_no_sfs_implies_empty_fixed_spectrum_at_random_points(self):
        rng = random.Random(12)
        checked = 0
        for seed in range(40):
            sys_ = random_binary_system(seed=seed + 7000)
            if decide_polynomial(sys_, seed=seed).has_sfs:
                continue
            checked += 1
            for _ in range(3):
                values = tuple(F(rng.randint(-40, 40)) for _ in range(sys_.q))
                ns = NumericSystem.from_system(sys_, ParamPoint(values=values, seed=0))
                assert fixed_spectrum(ns).is_empty
            if checked >= 5:
                break
        assert checked >= 3

    def test_generic_rank_deficiency_pins_zero_eigenvalue(self):
        rng = random.Random(13)
        checked = 0
        for seed in range(200):
            sys_ = random_binary_system(seed=seed + 11000)
            verdict = decide_linear(sys_, seed=seed)
            if verdict.reason != REASON_GENERIC_RANK:
                continue
            checked += 1
            for _ in range(3):
                values = tuple(F(rng.randint(-30, 30)) for _ in range(sys_.q))
                ns = NumericSystem.from_system(sys_, ParamPoint(values=values, seed=0))
                result = fixed_spectrum(ns)
                assert any(abs(fe.value) < 1e-6 for fe in result.fixed_eigenvalues)
            if checked >= 5:
                break
        assert checked >= 3
