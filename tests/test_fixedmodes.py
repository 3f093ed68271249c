"""Numeric fixed spectrum: pencil tests, full computation, and the oracle."""

import itertools
import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sfspectrum import (
    ChannelSubset,
    MultiChannelSystem,
    NumericSystem,
    ParamMatrix,
    ParamPoint,
    ParamPoly,
    fixed_spectrum,
    pencil_rank_deficient,
    random_feedback_oracle,
    rank_exact,
)
from sfspectrum.ensembles import random_binary_system, random_numeric_system
from sfspectrum.polymatrix import FIELD_PRIME, _as_fraction
from sfspectrum import fixedmodes
from sfspectrum.fixedmodes import (
    ORACLE_CHUNK,
    _cluster,
    _gain_free_states,
    _one_channel_screen,
    _screen_sides,
    _witnesses,
)
from sfspectrum.system import all_subsets
from sfspectrum.cli import EXIT_OK, main, parse_system
from conftest import chain_with_fixed_mode, perfbench_module, spectra_match
from test_golden_linear import random_linear_system
from test_golden_reports import CASES as GOLDEN_CASES, DEMOS as GOLDEN_DEMOS


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


def numeric_rank(M, tol=1e-9):
    """Reference: rank by SVD; a singular value counts if above tol * sigma_max * max(shape)."""
    if M.size == 0:
        return 0
    sigma = np.linalg.svd(M, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    threshold = tol * sigma[0] * max(M.shape)
    return int(np.count_nonzero(sigma > threshold))


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


# -- test-local copies of the unscreened route and the one-gain-at-a-time oracle


def old_B_array(nsys, members):
    cols = sum(nsys.channels[i][0] for i in members)
    out = np.zeros((nsys.n, cols))
    at = 0
    for i in members:
        m_i = nsys.channels[i][0]
        if m_i:
            out[:, at : at + m_i] = np.array(nsys.B_blocks[i], dtype=float)
        at += m_i
    return out


def old_C_array(nsys, members):
    rows = sum(nsys.channels[i][1] for i in members)
    out = np.zeros((rows, nsys.n))
    at = 0
    for i in members:
        l_i = nsys.channels[i][1]
        if l_i:
            out[at : at + l_i, :] = np.array(nsys.C_blocks[i], dtype=float)
        at += l_i
    return out


def old_witnesses(nsys, reps, tol=1e-9):
    """Every representative tested against every subset, one batched call per subset."""
    A = np.array(nsys.A, dtype=float)
    lams = np.array(reps, dtype=complex)
    witnesses = [[] for _ in reps]
    for s in all_subsets(nsys.k):
        B_S = old_B_array(nsys, s.members)
        C_compl = old_C_array(nsys, s.complement(nsys.k).members)
        for found, ws in zip(pencil_rank_deficient(A, B_S, C_compl, lams, tol), witnesses):
            if found:
                ws.append(s)
    return witnesses


def old_fixed_spectrum(nsys, tol=1e-9, cluster_tol=1e-6):
    reps = _cluster(list(map(complex, np.linalg.eigvals(np.array(nsys.A, dtype=float)))),
                    cluster_tol)
    return [(lam, tuple(ws)) for lam, ws in zip(reps, old_witnesses(nsys, reps, tol)) if ws]


def old_oracle_prefixes(nsys, samples, seed, tol=1e-6):
    """Survivors of the one-gain-at-a-time oracle after 0, 1, ..., samples gains."""
    rng = random.Random(seed)
    A = np.array(nsys.A, dtype=float)
    B = old_B_array(nsys, range(nsys.k))
    C = old_C_array(nsys, range(nsys.k))
    scale = max(1.0, float(np.linalg.norm(A)))
    survivors = _cluster(list(map(complex, np.linalg.eigvals(A))), tol)
    col_off = [0]
    for _, l_i in nsys.channels:
        col_off.append(col_off[-1] + l_i)
    row_off = [0]
    for m_i, _ in nsys.channels:
        row_off.append(row_off[-1] + m_i)
    prefixes = [survivors]
    for _ in range(samples):
        if not survivors:
            break
        F = np.zeros((nsys.m, nsys.l))
        for i, (m_i, l_i) in enumerate(nsys.channels):
            for r in range(m_i):
                for c in range(l_i):
                    F[row_off[i] + r, col_off[i] + c] = rng.uniform(-scale, scale)
        eigs = np.linalg.eigvals(A + B @ F @ C)
        survivors = [z for z in survivors if np.min(np.abs(eigs - z)) <= tol]
        prefixes.append(survivors)
    return prefixes + [[]] * (samples + 1 - len(prefixes))


def screen_ensemble_system(rng):
    """Small integer systems mixing the cases the screen and the oracle must get right.

    Covers n = 1, k = 1, zero-width channels, A = cI, zero pencils (A, B and
    C zero at lambda = 0), rotation blocks (complex fixed pairs), channels
    confined to a slice of the state, and channels scaled by up to 10^6
    either way, so one subset's rank threshold can dwarf another's.
    """
    n = rng.choice([1, 1, 2, 3, 4, 5, 6])
    k = rng.choice([1, 1, 2, 2, 3, 3, 4])
    channels = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(k)]
    kind = rng.choice(["scalar", "rotations", "rotations", "confined", "zero", "dense"])

    def cell():
        return Fraction(0) if rng.random() < 0.45 else Fraction(rng.randint(-3, 3))

    if kind == "scalar":
        c = Fraction(rng.randint(-2, 2))
        A = [[c if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    elif kind == "zero":
        A = [[Fraction(0)] * n for _ in range(n)]
    else:
        A = [[cell() for _ in range(n)] for _ in range(n)]
    if kind == "rotations":
        for i in range(n):
            for j in range(i + 1, n):
                A[i][j] = Fraction(0)
        for i in range(0, n - 1, 2):
            if rng.random() < 0.6:
                A[i][i + 1] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 3))
                A[i + 1][i] = -A[i][i + 1] * rng.randint(1, 2)
                A[i + 1][i + 1] = A[i][i]
    B_blocks, C_blocks = [], []
    for m_i, l_i in channels:
        B = [[cell() for _ in range(m_i)] for _ in range(n)]
        C = [[cell() for _ in range(n)] for _ in range(l_i)]
        if kind in ("rotations", "confined") and n > 1:
            lo = rng.randint(0, n - 1)
            hi = rng.randint(lo, n - 1)
            for i in range(n):
                if not lo <= i <= hi:
                    B[i] = [Fraction(0)] * m_i
                    for row in C:
                        row[i] = Fraction(0)
        if kind == "zero" and rng.random() < 0.5:
            B = [[Fraction(0)] * m_i for _ in range(n)]
            C = [[Fraction(0)] * n for _ in range(l_i)]
        scale = Fraction(10) ** rng.choice([0, 0, 0, 0, -3, 3, 6, -6])
        if rng.random() < 0.5:
            B = [[x * scale for x in row] for row in B]
        else:
            C = [[x * scale for x in row] for row in C]
        B_blocks.append(B)
        C_blocks.append(C)
    return NumericSystem.build(A=A, B_blocks=B_blocks, C_blocks=C_blocks)


SCREEN_ENSEMBLE = [screen_ensemble_system(random.Random(f"screen/{i}")) for i in range(500)]


def mid_ensemble_system(rng, planted):
    """Sparse integer systems, n 16-32 and k 3-5, as in the fixed-modes benchmark.

    A random cycle through the states keeps A irreducible.  A planted state
    j is unobservable (its A column and every C column are zero off the
    diagonal) or uncontrollable (its A row and every B row are), so A_jj is
    a fixed mode.
    """
    n = rng.choice([16, 20, 24, 32])
    k = rng.randint(3, 5)
    channels = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(k)]

    def coeff():
        return Fraction(rng.choice([-9, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 9]))

    A = [[Fraction(0)] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        A[b][a] = coeff()
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.1:
                A[i][j] = coeff()
    B_blocks = [[[coeff() if rng.random() < 0.15 else Fraction(0) for _ in range(m_i)]
                 for _ in range(n)] for m_i, _ in channels]
    C_blocks = [[[coeff() if rng.random() < 0.15 else Fraction(0) for _ in range(n)]
                 for _ in range(l_i)] for _, l_i in channels]
    if planted:
        j = rng.randrange(n)
        A[j][j] = coeff()
        if rng.random() < 0.5:
            for i in range(n):
                if i != j:
                    A[i][j] = Fraction(0)
            for C in C_blocks:
                for row in C:
                    row[j] = Fraction(0)
        else:
            for i in range(n):
                if i != j:
                    A[j][i] = Fraction(0)
            for B in B_blocks:
                B[j] = [Fraction(0)] * len(B[j])
    return NumericSystem.build(A=A, B_blocks=B_blocks, C_blocks=C_blocks)


MID_ENSEMBLE = [mid_ensemble_system(random.Random(f"mid/{i}"), planted=i % 2 == 1)
                for i in range(40)]


class TestScreenedFixedSpectrum:
    """The screened route equals the unscreened one and skips only decided pairs."""

    def test_equals_the_unscreened_route(self, classic_numeric):
        systems = SCREEN_ENSEMBLE + [classic_numeric, chain_with_fixed_mode()]
        complex_fixed = shared = 0
        for ns in systems:
            got = [(fe.value, fe.witnesses) for fe in fixed_spectrum(ns).fixed_eigenvalues]
            assert got == old_fixed_spectrum(ns)
            complex_fixed += sum(lam.imag != 0 for lam, _ in got)
            shared += sum(lam.imag < 0 for lam, _ in got)
        assert complex_fixed >= 20 and shared >= 10

    def test_skipped_pairs_are_not_deficient(self):
        skipped = kept = 0
        for ns in SCREEN_ENSEMBLE:
            A = ns.A_array()
            lams = np.linalg.eigvals(A).astype(complex)
            b_pass, c_pass = _one_channel_screen(ns, lams, 1e-9)
            for s in all_subsets(ns.k):
                bits = sum(1 << i for i in s.members)
                ruled_out = ((b_pass & bits) != 0) | ((c_pass & ~bits) != 0)
                full = pencil_rank_deficient(
                    A, ns.B_array(s), ns.C_array(s.complement(ns.k)), lams
                )
                assert not np.any(full & ruled_out)
                skipped += int(np.count_nonzero(ruled_out))
                kept += int(np.count_nonzero(~ruled_out))
        assert skipped > 2000 and kept > 0

    def test_conjugate_sharing_needs_an_exact_partner(self, classic_numeric):
        # 2 is fixed (witness {1}); 2 - 1e-20j has no exact partner and is
        # tested itself, while 3 - 1j takes the witnesses of 3 + 1j
        reps = [2 + 1j, 2 - 1e-20j, 3 + 1j, 3 - 1j, 1 - 1e-9j, 1.0]
        got = _witnesses(classic_numeric, reps, 1e-9)
        assert got == old_witnesses(classic_numeric, reps)
        assert got[1] == [ChannelSubset.of(0)] and got[0] == []
        for ns in SCREEN_ENSEMBLE[:100]:
            eigs = list(map(complex, np.linalg.eigvals(ns.A_array())))
            # conjugate pairs, and lower-half points whose partner is absent
            reps = eigs + [complex(z.real, -abs(z.imag) - 1e-13) for z in eigs]
            assert _witnesses(ns, reps, 1e-9) == old_witnesses(ns, reps)

    def test_no_pencil_test_when_one_channel_sees_every_mode(self, monkeypatch):
        calls = []
        real = fixedmodes.pencil_rank_deficient

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fixedmodes, "pencil_rank_deficient", counted)
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(1, 5)
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            # channel 1 has the full state as input and output; others are random
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            extra = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(0, 3))]
            B_blocks = [eye] + [[[rng.randint(-1, 1) for _ in range(m)] for _ in range(n)]
                                for m, _ in extra]
            C_blocks = [eye] + [[[rng.randint(-1, 1) for _ in range(n)] for _ in range(l)]
                                for _, l in extra]
            ns = NumericSystem.build(A=A, B_blocks=B_blocks, C_blocks=C_blocks)
            assert fixed_spectrum(ns).is_empty
        # a single-input, single-output companion channel also sees every mode
        companion = NumericSystem.build(
            A=[[0, 1, 0], [0, 0, 1], [6, -11, 6]],
            B_blocks=[[[0], [0], [1]], [[1], [0], [0]]],
            C_blocks=[[[1, 0, 0]], [[0, 0, 1]]],
        )
        assert fixed_spectrum(companion).is_empty
        assert calls == []


def full_one_channel_screen(nsys, lams, tol):
    """The SVD screen the Gram screen replaced, without its early exit.

    sigma_n of each side of every channel at every lambda, by SVD, against
    thr computed as a sum of squares.
    """
    A, B, C = nsys._floats
    n = nsys.n
    shifted = lams.reshape(-1, 1, 1) * np.eye(n) - A
    frob2 = np.sum(np.abs(shifted) ** 2, axis=(1, 2)) + np.sum(B * B) + np.sum(C * C)
    thr = tol * (n + max(nsys.m, nsys.l)) * np.sqrt(frob2)
    b_pass = np.zeros(lams.size, dtype=np.int64)
    c_pass = np.zeros(lams.size, dtype=np.int64)
    for i, (cols, rows) in enumerate(zip(*nsys._channel_index)):
        B_i = np.broadcast_to(B[:, cols], (lams.size, n, len(cols)))
        sigma = np.linalg.svd(np.concatenate((shifted, B_i), axis=2), compute_uv=False)
        b_pass |= np.where(sigma[:, n - 1] > thr, 1 << i, 0)
        C_i = np.broadcast_to(C[rows], (lams.size, len(rows), n))
        sigma = np.linalg.svd(np.concatenate((shifted, C_i), axis=1), compute_uv=False)
        c_pass |= np.where(sigma[:, n - 1] > thr, 1 << i, 0)
    return b_pass, c_pass


def gram_screen_without_early_exit(nsys, lams, tol):
    """The Gram screen with every side of every channel factored at every lambda."""
    every = np.arange(lams.size)
    b_pass = np.zeros(lams.size, dtype=np.int64)
    c_pass = np.zeros(lams.size, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        sides = _screen_sides(nsys, lams, tol)
        for i in range(nsys.k):
            b_ok, c_ok = sides(i, every)
            b_pass |= np.where(b_ok, 1 << i, 0)
            c_pass |= np.where(c_ok, 1 << i, 0)
    return b_pass, c_pass


def open_pairs(nsys, b_pass, c_pass):
    """The (lambda index, subset) pairs no channel bit rules out."""
    pairs = set()
    for s in all_subsets(nsys.k):
        bits = sum(1 << i for i in s.members)
        for t in np.flatnonzero(((b_pass & bits) == 0) & ((c_pass & ~bits) == 0)):
            pairs.add((int(t), s.members))
    return pairs


class TestScreenEarlyExit:
    """Skipping eigenvalues one channel already decided changes no open pair."""

    def test_same_open_pairs_witnesses_and_pencil_tests(self, monkeypatch, classic_numeric):
        calls = []
        real_test = fixedmodes.pencil_rank_deficient

        def recorded(*args):
            calls.append([(np.shape(a), np.asarray(a).dtype, np.asarray(a).tobytes())
                          for a in args])
            return real_test(*args)

        monkeypatch.setattr(fixedmodes, "pencil_rank_deficient", recorded)
        tested = 0
        for ns in SCREEN_ENSEMBLE + MID_ENSEMBLE[:6] + [classic_numeric, chain_with_fixed_mode()]:
            lams = np.linalg.eigvals(ns.A_array()).astype(complex)
            assert open_pairs(ns, *_one_channel_screen(ns, lams, 1e-9)) == open_pairs(
                ns, *gram_screen_without_early_exit(ns, lams, 1e-9)
            )
            reps = _cluster(list(map(complex, lams)), 1e-6)
            outcomes = []
            for screen in (gram_screen_without_early_exit, _one_channel_screen):
                monkeypatch.setattr(fixedmodes, "_one_channel_screen", screen)
                calls.clear()
                outcomes.append((_witnesses(ns, reps, 1e-9), list(calls)))
            assert outcomes[1] == outcomes[0]
            tested += len(calls)
            # the SVD screen leaves fewer pairs open, and they give the same witnesses
            monkeypatch.setattr(fixedmodes, "_one_channel_screen", full_one_channel_screen)
            assert _witnesses(ns, reps, 1e-9) == outcomes[0][0]
        assert tested > 50

    def test_fewer_pencils_reach_the_svd(self, monkeypatch):
        real_svd, real_cholesky = np.linalg.svd, np.linalg.cholesky
        pencils, factored = [], []

        def counted_svd(a, *args, **kwargs):
            pencils.append(int(np.prod(np.shape(a)[:-2])))
            return real_svd(a, *args, **kwargs)

        def counted_cholesky(a, *args, **kwargs):
            factored.append(int(np.prod(np.shape(a)[:-2])))
            return real_cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        totals = []
        for screen in (full_one_channel_screen, gram_screen_without_early_exit,
                       _one_channel_screen):
            pencils.clear()
            factored.clear()
            for ns in SCREEN_ENSEMBLE:
                screen(ns, np.linalg.eigvals(ns.A_array()).astype(complex), 1e-9)
            totals.append((sum(pencils), sum(factored)))
        (svd_pencils, _), (none, full), (zero, early) = totals
        # the Gram screen runs no SVD at all; its early exit factors fewer matrices
        assert svd_pencils > 0 and none == zero == 0
        assert 0 < early < full


class TestGramScreen:
    """Every side the Cholesky screen clears is one the SVD screen clears."""

    @staticmethod
    def masks(ns):
        lams = np.linalg.eigvals(ns.A_array()).astype(complex)
        return (
            _one_channel_screen(ns, lams, 1e-9),
            gram_screen_without_early_exit(ns, lams, 1e-9),
            full_one_channel_screen(ns, lams, 1e-9),
        )

    @pytest.mark.parametrize("name", ["screen", "mid"])
    def test_cleared_sides_are_cleared_by_the_svd_screen(self, name):
        systems = SCREEN_ENSEMBLE if name == "screen" else MID_ENSEMBLE
        cleared = svd_cleared = 0
        for ns in systems:
            early, full, svd = self.masks(ns)
            for gram in (early, full):
                assert not np.any(gram[0] & ~svd[0]) and not np.any(gram[1] & ~svd[1])
            cleared += sum(bin(int(x)).count("1") for mask in full for x in mask)
            svd_cleared += sum(bin(int(x)).count("1") for mask in svd for x in mask)
        # the bound gives up few of the sides the SVD screen clears
        assert cleared >= 0.95 * svd_cleared

    def test_mid_size_ensemble_equals_the_unscreened_route(self):
        planted_fixed = 0
        for i, ns in enumerate(MID_ENSEMBLE):
            got = [(fe.value, fe.witnesses) for fe in fixed_spectrum(ns).fixed_eigenvalues]
            assert got == old_fixed_spectrum(ns)
            planted_fixed += i % 2 == 1 and bool(got)
        assert planted_fixed == len(MID_ENSEMBLE) // 2

    @pytest.mark.parametrize("scale", [Fraction(10) ** 200, Fraction(10) ** -150])
    def test_entries_out_of_the_bounds_range_stay_open(self, scale):
        # near 1e200 the Gram squares overflow, near 1e-150 they underflow: the
        # screen clears nothing there and the pencil tests decide every pair
        systems = [
            NumericSystem.build(
                A=[[x * scale for x in row] for row in ns.A],
                B_blocks=[[[x * scale for x in row] for row in B] for B in ns.B_blocks],
                C_blocks=[[[x * scale for x in row] for row in C] for C in ns.C_blocks],
            )
            for ns in SCREEN_ENSEMBLE[:60] + MID_ENSEMBLE[:2]
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ns in systems:
                lams = np.linalg.eigvals(ns.A_array()).astype(complex)
                b_pass, c_pass = _one_channel_screen(ns, lams, 1e-9)
                assert not b_pass.any() and not c_pass.any()
                got = [(fe.value, fe.witnesses) for fe in fixed_spectrum(ns).fixed_eigenvalues]
                assert got == old_fixed_spectrum(ns)


class TestBatchedOracle:
    """Chunked gains give the survivors of the one-gain-at-a-time loop."""

    COUNTS = (1, 2, 3, 63, 64, 65)

    def test_equals_the_per_gain_loop(self):
        persisted = 0
        for i, ns in enumerate(SCREEN_ENSEMBLE):
            counts = self.COUNTS + (1000,) if i % 10 == 0 else self.COUNTS
            prefixes = old_oracle_prefixes(ns, max(counts), seed=i)
            for samples in counts:
                got = random_feedback_oracle(ns, samples=samples, seed=i)
                assert got == prefixes[samples], (i, samples)
            persisted += bool(prefixes[max(counts)])
        assert 0 < persisted < len(SCREEN_ENSEMBLE)

    def test_every_gain_tested_in_stacks_of_at_most_64(self, monkeypatch):
        depths = []
        real = np.linalg.eigvals

        def recorded(a):
            depths.append(a.shape[0] if a.ndim == 3 else None)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        # 1 is fixed inside the one gain-touched component, so every gain is solved
        touched = NumericSystem.build(A=[[1, 0], [0, 1]], B_blocks=[[[1], [1]]],
                                      C_blocks=[[[1, 1]]])
        for samples in self.COUNTS + (1000,):
            depths.clear()
            assert spectra_match(random_feedback_oracle(touched, samples=samples, seed=3), [1.0])
            stacks = [d for d in depths if d is not None]
            assert max(stacks) <= ORACLE_CHUNK and sum(stacks) == samples
        # the chain's 2 is a gain-free singleton, pinned without a gain solve;
        # 1 and 3 are gone after the first gain
        ns = chain_with_fixed_mode()
        for samples in self.COUNTS + (1000,):
            depths.clear()
            assert spectra_match(random_feedback_oracle(ns, samples=samples, seed=3), [2.0])
            assert [d for d in depths if d is not None] == [1]
        # a gain that only couples two components moves neither eigenvalue
        depths.clear()
        across = NumericSystem.build(A=[[5, 0], [1, 7]], B_blocks=[[[0], [1]]],
                                     C_blocks=[[[1, 0]]])
        assert spectra_match(random_feedback_oracle(across, samples=1000, seed=3), [5.0, 7.0])
        assert [d for d in depths if d is not None] == []
        # once nothing survives, no further gains are tested
        depths.clear()
        free = NumericSystem.build(A=[[1]], B_blocks=[[[1]]], C_blocks=[[[1]]])
        assert random_feedback_oracle(free, samples=1000, seed=3) == []
        assert [d for d in depths if d is not None] == [1]


def block_triangular_system(rng):
    """A system whose closed loops are block lower triangular in a hidden state order.

    Blocks of 1-3 states: constant multiples of I, lower-triangular chains,
    rotations (complex pairs) and dense blocks, with A nonzero off them only
    below the diagonal blocks.  Each channel has a home block: its B rows lie
    in that block or later ones and its C columns in that block or earlier
    ones, so its gains keep the triangular order and act inside the home
    block only.  Some states are planted uncontrollable or unobservable,
    channels are scaled by 10^6 or 10^-6, and a random symmetric
    permutation hides the order.
    """
    sizes = [rng.choice([1, 1, 2, 2, 3, 3]) for _ in range(rng.randint(1, 4))]
    n = sum(sizes)
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    A = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for size in sizes:
        states = range(start, start + size)
        kind = rng.choice(["scalar", "scalar", "chain", "rotation", "dense"])
        if kind == "rotation" and size != 2:
            kind = "chain"
        c = rng.randint(-3, 3)
        for i in states:
            for j in states:
                if kind == "scalar":
                    A[i][j] = Fraction(c * (i == j))
                elif kind == "chain":
                    A[i][j] = Fraction(rng.randint(-3, 3) if j < i else c * (i == j))
                elif kind == "dense":
                    A[i][j] = Fraction(rng.randint(-3, 3))
        if kind == "rotation":
            b = rng.choice([-2, -1, 1, 2])
            A[start][start] = A[start + 1][start + 1] = Fraction(c)
            A[start][start + 1] = Fraction(b)
            A[start + 1][start] = Fraction(-b * rng.randint(1, 3))
        start += size
    for i in range(n):
        for j in range(n):
            if block[j] < block[i] and rng.random() < 0.3:
                A[i][j] = Fraction(rng.randint(-3, 3))
    B_blocks, C_blocks = [], []
    for _ in range(rng.randint(1, 3)):
        home = rng.randrange(len(sizes))
        m_i, l_i = rng.choice([1, 1, 2]), rng.choice([1, 1, 2])
        B = [[Fraction(rng.randint(-2, 2)) if block[r] >= home and rng.random() < 0.6
              else Fraction(0) for _ in range(m_i)] for r in range(n)]
        C = [[Fraction(rng.randint(-2, 2)) if block[c] <= home and rng.random() < 0.6
              else Fraction(0) for c in range(n)] for _ in range(l_i)]
        scale = Fraction(10) ** rng.choice([0, 0, 0, 6, -6])
        if rng.random() < 0.5:
            B = [[x * scale for x in row] for row in B]
        else:
            C = [[x * scale for x in row] for row in C]
        B_blocks.append(B)
        C_blocks.append(C)
    for _ in range(rng.choice([0, 0, 1, 2])):
        s = rng.randrange(n)
        if rng.random() < 0.5:  # uncontrollable: A row and B rows zero off the diagonal
            A[s] = [A[s][j] if j == s else Fraction(0) for j in range(n)]
            for B in B_blocks:
                B[s] = [Fraction(0)] * len(B[s])
        else:  # unobservable: A column and C columns zero off the diagonal
            for i in range(n):
                if i != s:
                    A[i][s] = Fraction(0)
            for C in C_blocks:
                for row in C:
                    row[s] = Fraction(0)
    perm = list(range(n))
    rng.shuffle(perm)
    return NumericSystem.build(
        A=[[A[i][j] for j in perm] for i in perm],
        B_blocks=[[B[i] for i in perm] for B in B_blocks],
        C_blocks=[[[row[j] for j in perm] for row in C] for C in C_blocks],
    )


BLOCK_ENSEMBLE = [block_triangular_system(random.Random(f"blocks/{i}")) for i in range(150)]


def reference_gain_free_states(nsys):
    """Test-local mask: reachability by search, components by mutual reachability."""
    A, B, C = nsys.A_array(), nsys.B_array(), nsys.C_array()
    n = nsys.n
    gain = set()
    row = col = 0
    for m_i, l_i in nsys.channels:
        for r in range(n):
            for c in range(n):
                if np.any(B[r, col : col + m_i]) and np.any(C[row : row + l_i, c]):
                    gain.add((r, c))
        col += m_i
        row += l_i
    succ = [{j for j in range(n) if A[i, j] != 0 or (i, j) in gain} for i in range(n)]

    def reachable(s):
        seen, todo = {s}, [s]
        while todo:
            for t in succ[todo.pop()] - seen:
                seen.add(t)
                todo.append(t)
        return seen

    reach = [reachable(s) for s in range(n)]
    component = [{t for t in reach[s] if s in reach[t]} for s in range(n)]
    return np.array([not any(r in component[s] and c in component[s] for r, c in gain)
                     for s in range(n)])


class TestPinnedOracle:
    """Eigenvalues of gain-free components are pinned; the result is the per-gain loop's."""

    def test_mask_equals_the_reference(self, classic_numeric):
        systems = BLOCK_ENSEMBLE + SCREEN_ENSEMBLE + [classic_numeric, chain_with_fixed_mode()]
        # an n-cycle is one component, reached only through paths of n - 1 arcs;
        # cut at one arc it falls apart into singletons
        for n in range(2, 11):
            for cut in (False, True):
                A = [[int(j == (i + 1) % n and not (cut and i == n - 1)) for j in range(n)]
                     for i in range(n)]
                at = [int(i == n // 2) for i in range(n)]  # one channel at one state
                systems.append(NumericSystem.build(A=A, B_blocks=[[[x] for x in at]],
                                                   C_blocks=[[at]]))
        partial = 0
        for ns in systems:
            free = _gain_free_states(ns)
            assert free.tolist() == reference_gain_free_states(ns).tolist()
            partial += 0 < np.count_nonzero(free) < ns.n
        assert partial >= 50

    def test_equals_the_per_gain_loop(self):
        """Equal survivors, except where the per-gain loop loses a pinned fixed mode.

        With channels scaled by 10^6 a closed loop's norm reaches ~10^12.
        Next to a defective eigenvalue, whose computed eigenvalues split by
        about (eps * norm)^(1/multiplicity), the per-gain loop can then move
        an eigenvalue of a gain-free block by more than tol and drop it.
        Pinning keeps it, since that block is in every closed loop; the
        pencil route confirms it is fixed.
        """
        both = none = 0
        tol = fixedmodes.DEFAULT_CLUSTER_TOL
        for i, ns in enumerate(BLOCK_ENSEMBLE):
            counts = TestBatchedOracle.COUNTS + (1000,)
            prefixes = old_oracle_prefixes(ns, max(counts), seed=i, tol=tol)
            free = reference_gain_free_states(ns)
            pins = np.linalg.eigvals(ns.A_array()[np.ix_(free, free)]) if free.any() else []
            for samples in counts:
                got = random_feedback_oracle(ns, samples=samples, seed=i)
                old = prefixes[samples]
                if got != old:
                    assert [z for z in got if z in old] == old, (i, samples)
                    fixed = fixed_spectrum(ns).values()
                    for z in got:
                        if z not in old:
                            assert any(abs(z - w) <= tol for w in pins), (i, samples, z)
                            assert any(abs(z - w) <= tol for w in fixed), (i, samples, z)
            pinned = [any(abs(z - w) <= tol for w in pins) for z in prefixes[1000]]
            both += any(pinned) and not all(pinned)
            none += not prefixes[1000]
        assert both >= 5 and none >= 5
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


# -- the numeric sample: built once, in integers, floats from the nonzeros ----------


def _termwise_evaluate(poly, values):
    """Test-local copy of the earlier ``ParamPoly.evaluate``: Fraction arithmetic per term."""
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        term = coeff
        for idx, exp in mono:
            term *= _as_fraction(values[idx]) ** exp
        total += term
    return total


def _termwise_dense(M, values):
    out = [[Fraction(0)] * M.cols for _ in range(M.rows)]
    for (i, j), poly in M.items():
        out[i][j] = _termwise_evaluate(poly, values)
    return tuple(map(tuple, out))


def _dense_floats(nsys):
    """Test-local copy of the earlier ``NumericSystem._floats``: every exact entry converted."""
    A = np.array(nsys.A, dtype=float).reshape(nsys.n, nsys.n)
    B = np.zeros((nsys.n, nsys.m))
    C = np.zeros((nsys.l, nsys.n))
    for cols, rows, B_i, C_i in zip(*nsys._channel_index, nsys.B_blocks, nsys.C_blocks):
        if cols:
            B[:, cols] = np.array(B_i, dtype=float)
        if rows:
            C[rows] = np.array(C_i, dtype=float)
    return A, B, C


def assert_sample_unchanged(system, values):
    """The sample's exact entries equal the termwise ones, and its float views have
    the bits of the dense conversion."""
    nsys = NumericSystem.from_system(system, ParamPoint(values=tuple(values), seed=0))
    mats = (system.A, *system.B_blocks, *system.C_blocks)
    got = (nsys.A, *nsys.B_blocks, *nsys.C_blocks)
    assert got == tuple(_termwise_dense(M, values) for M in mats)
    assert all(type(x) is Fraction for M in got for row in M for x in row)
    for view, dense in zip(nsys._floats, _dense_floats(nsys)):
        assert view.shape == dense.shape and view.tobytes() == dense.tobytes()
        assert not view.flags.writeable


def _rational_values(rng, q):
    pool = (0, 1, -1, 2, -30, 29, Fraction(-7, 3), Fraction(5, 8), Fraction(1, 3), -2)
    return [rng.choice(pool) if rng.random() < 0.5 else Fraction(rng.randint(-30, 30),
                                                                   rng.randint(1, 9))
            for _ in range(q)]


class TestSampleBuild:
    def test_demo_golden_and_ensemble_systems(self):
        systems = [parse_system(path)[0] for path in sorted(GOLDEN_DEMOS.glob("*.json"))]
        systems += [source() for source, _, _ in GOLDEN_CASES.values() if callable(source)]
        systems += [random_binary_system(seed, max_n=6, max_k=3) for seed in range(40)]
        systems += [random_linear_system(seed) for seed in range(40)]
        rng = random.Random(19)
        for system in systems:
            for _ in range(3):
                assert_sample_unchanged(system, _rational_values(rng, system.q))
            assert_sample_unchanged(system, [Fraction(rng.randint(-30, 30)) for _ in range(system.q)])
            assert_sample_unchanged(system, [rng.randint(-30, 30) for _ in range(system.q)])

    def test_powers_denominators_zeros_and_a_field_prime_denominator(self):
        x, y, z = (ParamPoly.param(i) for i in range(3))
        cube = ParamPoly({((0, 3),): Fraction(2, 7)})
        square_mixed = ParamPoly({((0, 2), (1, 1)): Fraction(-3, 4), ((2, 3),): 5})
        tiny = ParamPoly({((1, 1),): Fraction(1, FIELD_PRIME)})
        # x^2 - y*z vanishes at (3, 9/2, 2): a stored entry that evaluates to 0
        vanishing = x * x - y * z
        system = MultiChannelSystem(
            n=3,
            channels=((1, 1), (2, 0)),
            A=ParamMatrix.from_rows([[cube, vanishing, 0], [tiny, 0, square_mixed],
                                     [x - 3, Fraction(-5, 3), y * y * y]], 3),
            B_blocks=(ParamMatrix.from_rows([[0], [x * y], [Fraction(1, 6)]], 3),
                      ParamMatrix.from_rows([[z, 0], [0, 0], [vanishing, tiny]], 3)),
            C_blocks=(ParamMatrix.from_rows([[square_mixed, 0, z - 2]], 3),
                      ParamMatrix.zeros(0, 3, 3)),
            q=3,
        )
        for values in ([3, Fraction(9, 2), 2], [Fraction(-7, 3), Fraction(5, 2), Fraction(-1, 9)],
                       [0, 0, 0], [Fraction(-7, 3), 1, Fraction(10**30, 7)]):
            assert_sample_unchanged(system, values)
        nsys = NumericSystem.from_system(system, ParamPoint(values=(3, Fraction(9, 2), 2), seed=0))
        assert nsys.A[0][1] == 0 and nsys.A[2][0] == 0 and nsys.B_blocks[1][2][0] == 0

    def test_a_float_value_raises_type_error(self):
        poly = ParamPoly.param(0) * 3 + 1
        for bad in (0.5, 2.0, "1"):
            with pytest.raises(TypeError, match="expected an exact rational"):
                poly.evaluate([bad])
            with pytest.raises(TypeError, match="expected an exact rational"):
                ParamMatrix.from_rows([[poly]], 1).evaluate_at([bad])
        system = random_binary_system(3, max_n=4)
        with pytest.raises(TypeError, match="expected an exact rational"):
            NumericSystem.from_system(system, ParamPoint(values=(0.5,) * system.q, seed=0))

    def test_one_eigen_solve_of_A_per_sample(self, monkeypatch):
        solved = []
        real = np.linalg.eigvals

        def recorded(a):
            solved.append(a)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        for seed in range(30):
            nsys = random_numeric_system(seed)
            solved.clear()
            fixed_spectrum(nsys)
            random_feedback_oracle(nsys, samples=50, seed=seed)
            fixed_spectrum(nsys)
            A = nsys._floats[0]
            assert sum(a is A for a in solved) == 1

    def test_one_clustering_per_sample(self, monkeypatch):
        clustered = []
        real = fixedmodes._cluster

        def recorded(values, radius):
            clustered.append(radius)
            return real(values, radius)

        monkeypatch.setattr(fixedmodes, "_cluster", recorded)
        for seed in range(30):
            nsys = random_numeric_system(seed)
            clustered.clear()
            fixed_spectrum(nsys)
            random_feedback_oracle(nsys, samples=50, seed=seed)
            fixed_spectrum(nsys)
            assert clustered == [fixedmodes.DEFAULT_CLUSTER_TOL]


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


@pytest.fixture
def fixed_modes_seed_901_item_22(tmp_path):
    """``fixed-modes`` argv of the benchmark corpus of seed 901, item 22, as the harness builds it."""
    workloads = perfbench_module("workloads")
    w = workloads.FixedModes()
    walk = workloads.generate(w.name, 901, w.cells, w.variants, w.density)
    spec, doc, values = next(itertools.islice(walk, 22, None))
    assert spec.name == "linear-n24-k3-unobservable-4v1"
    # the harness draws the operation seed before the --set values, from the same generator
    item = workloads.Item(name=spec.name, spec=spec, path=workloads._write(tmp_path, spec.name, doc),
                          op_seed=values.randrange(10**6))
    w.prepare(item, doc, values)
    return item.argv


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="A has a simple eigenvalue 0 and a distinct one at -8.23e-6, where sigma_n of "
    "[lambda I - A, B] is 3.7e-6, below its rank threshold 1.09e-5: the pencil route reports "
    "both as fixed with witness {1, 2, 3}, the oracle keeps only 0",
)
def test_fixed_modes_keeps_a_near_zero_eigenvalue_apart_from_zero(
    fixed_modes_seed_901_item_22, capsys
):
    code = main(fixed_modes_seed_901_item_22)
    report = json.loads(capsys.readouterr().out)
    assert len(report["pencil_route"]) == len(report["oracle_route"])
    assert report["agree"] and code == EXIT_OK
