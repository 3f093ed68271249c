"""Structurally-fixed-spectrum decisions for parameterized systems.

Three decision routes are provided:

* ``decide_polynomial`` works for any polynomial parameterization.  A
  subset's bordered pencil drops rank at lambda only if lambda is a fixed
  mode, an eigenvalue of A + B K C for every block-diagonal K (Wang &
  Davison, 1973).  A constant gcd of characteristic polynomials mod p
  certifies at a point that no subset drops (``_no_fixed_mode_at``) or that
  one subset drops nowhere (``pencil_drop_at_point``), exactly, by Gauss's
  lemma.  Because rank-deficiency sets are proper algebraic varieties, one
  certifying sample discards a subset for almost every parameter value.

* ``decide_linear`` specializes to linearly parameterized systems: the system
  has a structurally fixed spectrum iff the closed-loop generic rank of
  A + B F C (F the fresh-parameter feedback pattern) falls below n, or some
  channel subset has an identically-zero transfer to the complement outputs
  while its generic controllable dimension stays below the complement's
  generic unobservable dimension.

* the graphical route for binary parameterizations lives in ``graph``.

Both routes answer every question at the points of one ``_SamplePoints``:
uniform points of GF(p)^q, p the system's evaluation prime, each evaluated
once and shared by all the claims of the decision.  A point also keeps the
nonzero entries of its A, row by row, and those of A^T, built on first use:
the Markov and Krylov products of ``decide_linear`` walk these sparse rows,
so a step costs the stored entries of A, not its n^2 positions, while the
pencil and closed-loop products, whose right factors are dense, stay dense
(``_mat_mul_mod``).

No-SFS verdicts rest on an explicit certificate and report failure bound 0.
An SFS verdict rests on claims sampled through ``polymatrix._confirm``:
until (degree / p)^t, times the number of claims a false verdict may come
from, is at most ``FAILURE_TARGET`` = 2^-40, or until ``trials`` points
(the stop rule and its Schwartz-Zippel argument are in the ``polymatrix``
module docstring).  That factor is a union bound, so it holds although
claims share points; each claim's own points are independent.  The verdict
reports the bound it reached as ``diagnostics["failure_bound"]``, a float
rounded from an exact fraction of integers.  With d_A, d_B and d_C the
largest entry degrees of A, the B blocks and the C blocks
(``MultiChannelSystem.degrees``), and the entries of E, K and F free
variables of degree 1:

* Pencil drop of S.  If S drops nowhere for generic parameters, some E, K
  moves every eigenvalue of A, so R = Res_lambda(chi(A), chi(A + B_S E +
  K C)) is a nonzero polynomial in (x, E, K); a reported drop makes it
  vanish.  The coefficient of lambda^(n-i) in chi(M) is a signed sum of
  i x i principal minors, of degree at most i D with D = max(d_A, d_B + 1,
  d_C + 1).  The resultant of two monic degree-n polynomials is the product
  of their n^2 root differences, isobaric of weight n^2 when that
  coefficient has weight i, so deg R <= n^2 D.  A false verdict needs one
  of the 2^k subsets to drop at all its t points: 2^k (n^2 D / p)^t.
* Rank deficiency of A + B F C: its entries have degree at most
  max(d_A, d_B + d_C + 1), so det has degree at most n times that.
* Zero transfer: an entry of C_compl A^j B_S (j < n) has degree at most
  d_C + (n - 1) d_A + d_B.
* Generic dimensions: a sampled maximum falls short only where a nonzero
  maximal minor of the Krylov matrix [B_S, A B_S, ..., A^(n-1) B_S]
  vanishes, of degree at most n (d_B + (n - 1) d_A), or its observability
  counterpart, at most n (d_C + (n - 1) d_A); the sum bounds both.
  A proper-subspace verdict is false only if one of the 2^k subsets gets a
  false zero transfer or a short maximum, so these two claims stop at
  2^(k+1) (degree / p)^t <= 2^-40 and the verdict reports 2^k times the sum.

The bounds are over the draws, for the system's prime p; they take each
polynomial to stay nonzero modulo p, as its p-integral coefficients ensure
unless p divides all of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul

from .polymatrix import Echelon, _bound, _confirm, _residue, rank_exact
from .system import (
    ChannelSubset,
    LinearParamDecomposition,
    MultiChannelSystem,
    _own_decomposition,
    channel_spans,
    feedback_slots,
    stack,
)

__all__ = [
    "StructuralVerdict",
    "GenericDims",
    "REASON_GENERIC_RANK",
    "REASON_PROPER_SUBSPACE",
    "REASON_PENCIL_DROP",
    "decide_polynomial",
    "decide_linear",
    "pencil_drop_at_point",
    "markov_identity",
    "generic_dims",
    "closed_loop_generic_rank",
    "rank_failure_bound",
]

REASON_GENERIC_RANK = "generic-rank-deficient"
REASON_PROPER_SUBSPACE = "proper-subspace"
REASON_PENCIL_DROP = "pencil-drop-all-p"

@dataclass(frozen=True)
class GenericDims:
    """Generic dimensions of the controllable and unobservable subspaces."""

    ctrb_dim: int
    unobs_dim: int


@dataclass(frozen=True)
class StructuralVerdict:
    has_sfs: bool
    route: str
    witness: ChannelSubset | None = None
    reason: str | None = None
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        wants_witness = self.reason in (REASON_PROPER_SUBSPACE, REASON_PENCIL_DROP)
        if wants_witness != (self.witness is not None):
            raise ValueError("witness must be present exactly for subset-based reasons")


# -- one exact kernel over Q or GF(p) -----------------------------------------
#
# ``modulus=None`` selects the rationals (entries become Fractions);
# otherwise every value is a residue in [0, modulus).


def _to_field(x, p):
    return Fraction(x) if p is None else _residue(x, p)


def _inverse(x, p):
    return Fraction(1) / x if p is None else pow(x, -1, p)


def _sub_scaled(xs, f, ys, p):
    """The vector xs - f * ys (over the shorter length), in the field of p."""
    if p is None:
        return [x - f * y for x, y in zip(xs, ys)]
    return [(x - f * y) % p for x, y in zip(xs, ys)]


def char_poly_exact(M, modulus: int | None = None) -> list:
    """Characteristic polynomial det(tI - M), leading coefficient first.

    Exact over Q (``modulus`` None; Fraction coefficients) or over
    GF(modulus) (residue coefficients).  M is first brought to upper
    Hessenberg form H by similarity eliminations (row i -= u * row m paired
    with column m += u * column i), then the characteristic polynomials of
    the leading principal blocks of H follow by the Hessenberg recurrence
    (Cohen, *A Course in Computational Algebraic Number Theory*,
    Alg. 2.2.9).  O(n^3) field operations.
    """
    p = modulus
    n = len(M)
    H = [[_to_field(x, p) for x in row] for row in M]
    for m in range(1, n - 1):
        col = m - 1
        pivot = next((i for i in range(m, n) if H[i][col]), None)
        if pivot is None:
            continue  # column already reduced: H is block upper triangular here
        if pivot != m:
            H[m], H[pivot] = H[pivot], H[m]
            for row in H:
                row[m], row[pivot] = row[pivot], row[m]
        inv = _inverse(H[m][col], p)
        for i in range(m + 1, n):
            u = H[i][col] * inv
            if p is not None:
                u %= p
            if not u:
                continue
            H[i] = _sub_scaled(H[i], u, H[m], p)
            column = _sub_scaled([row[m] for row in H], -u, [row[i] for row in H], p)
            for row, x in zip(H, column):
                row[m] = x
    zero, one = _to_field(0, p), _to_field(1, p)
    # polys[k] is the characteristic polynomial of the leading k x k block
    # of H, constant coefficient first
    polys = [[one]]
    for c in range(n):
        cur = _sub_scaled([zero] + polys[c], H[c][c], polys[c] + [zero], p)
        t = one
        for i in range(1, c + 1):
            t = t * H[c - i + 1][c - i]
            if p is not None:
                t %= p
            if not t:
                break  # a zero subdiagonal entry ends the coupling to earlier blocks
            f = t * H[c - i][c]
            if f:
                k = c - i + 1
                cur[:k] = _sub_scaled(cur[:k], f, polys[c - i], p)
        polys.append(cur)
    return polys[n][::-1]


def _poly_trim(c: list) -> list:
    """Drop leading zero coefficients; the zero polynomial is [0]."""
    i = 0
    while i < len(c) and not c[i]:
        i += 1
    return c[i:] or [0]


def poly_gcd(a: list, b: list, modulus: int | None = None) -> list:
    """Monic gcd of two univariate polynomials, coefficients leading first.

    Over Q (``modulus`` None) or over GF(modulus).  The gcd of two zero
    polynomials is [0].
    """
    p = modulus
    a = _poly_trim([_to_field(x, p) for x in a])
    b = _poly_trim([_to_field(x, p) for x in b])
    while b[0]:
        inv = _inverse(b[0], p)
        while a[0] and len(a) >= len(b):
            f = a[0] * inv
            a = _poly_trim(_sub_scaled(a[1:], f, b[1:], p) + a[len(b):])
        a, b = b, a
    if a[0]:
        inv = _inverse(a[0], p)
        a = [x * inv if p is None else x * inv % p for x in a]
    return a


def _reported(bound: Fraction) -> float:
    """A failure bound as a report value (a probability, so at most 1)."""
    return float(min(bound, 1))


def _rank_degree(sys: MultiChannelSystem) -> int:
    d_A, d_B, d_C = sys.degrees
    return sys.n * max(d_A, d_B + d_C + 1)


def _markov_degree(sys: MultiChannelSystem) -> int:
    d_A, d_B, d_C = sys.degrees
    return d_C + (sys.n - 1) * d_A + d_B


def _krylov_degree(sys: MultiChannelSystem) -> int:
    d_A, d_B, d_C = sys.degrees
    return sys.n * (d_B + d_C + 2 * (sys.n - 1) * d_A)


def _uniform(rng: random.Random, rows: int, cols: int, p: int):
    """A matrix of independent uniform residues mod p."""
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


class _SamplePoint:
    """A system evaluated once at a point of GF(p): A, the stacked B and C, and,
    each on its first use, chi(A) and the sparse rows of A and of A^T.  A
    subset's B_S and C_compl are slices of B and C."""

    def __init__(self, sys: MultiChannelSystem, stacked, residues):
        self.sys = sys
        self.A, self.B, self.C = (M.evaluate_at(residues, sys.prime) for M in (sys.A, *stacked))

    @cached_property
    def char_A(self) -> list:
        return char_poly_exact(self.A, self.sys.prime)

    @cached_property
    def A_rows(self) -> list:
        return _sparse_rows(self.A)

    @cached_property
    def AT_rows(self) -> list:
        return _sparse_rows(zip(*self.A))

    def split(self, s: ChannelSubset) -> tuple[list, list]:
        """(B_S, C_compl) at this point, blocks in increasing channel order."""
        if any(i >= self.sys.k for i in s):
            raise ValueError(f"channel index out of range for k={self.sys.k}")
        in_cols, out_rows = channel_spans(self.sys.channels)
        cols = [c for i in s for c in in_cols[i]]
        C = [self.C[r] for j in s.complement(self.sys.k) for r in out_rows[j]]
        return [[row[c] for c in cols] for row in self.B], C


class _SamplePoints:
    """The points of one decision, shared by all its questions: ``values`` (lists
    of q residues) then further uniform draws from ``rng``, each point drawn when
    first asked for and evaluated once."""

    def __init__(self, sys: MultiChannelSystem, rng: random.Random, values=()):
        self.sys = sys
        self.rng = rng
        self.stacked = stack(sys)
        self.values = list(values)
        self._evaluated = {}

    def __getitem__(self, t: int) -> _SamplePoint:
        while len(self.values) <= t:
            self.values.append([self.rng.randrange(self.sys.prime) for _ in range(self.sys.q)])
        if t not in self._evaluated:
            self._evaluated[t] = _SamplePoint(self.sys, self.stacked, self.values[t])
        return self._evaluated[t]


def pencil_drop_at_point(
    sys: MultiChannelSystem,
    s: ChannelSubset,
    values,
    seed: int = 0,
    *,
    _point: _SamplePoint | None = None,
) -> bool:
    """Exact test: does some eigenvalue drop the bordered pencil of S at this point?

    A drop at lambda puts lambda in the spectrum of A + B_S E + K C for every
    E and K, so a constant gcd of the characteristic polynomials of A and of
    one perturbation (entries uniform in GF(p)) certifies that no drop
    exists.

    ``values`` are rational coordinates whose denominators the system's
    evaluation prime p does not divide.  The whole test runs in GF(p): the
    characteristic polynomials are monic with p-integral coefficients, so
    by Gauss's lemma a nonconstant gcd over Q stays nonconstant mod p, and
    a constant gcd mod p proves a constant gcd over Q.  A "no drop" answer
    is therefore exact; the only extra error (p dividing a resultant)
    reports a drop and merely costs another sample.  A nonconstant gcd
    reports a drop; by the Schwartz-Zippel lemma the draw shares a root with
    chi(A) that no drop forces with probability at most n^2 / p.
    ``decide_polynomial`` passes the system already evaluated at ``values``
    as ``_point``.  ``values`` must have one coordinate per parameter.
    """
    if len(values) != sys.q:
        raise ValueError(f"point has {len(values)} coordinates, system expects {sys.q}")
    p = sys.prime
    if _point is None:
        for i, v in enumerate(values):
            if Fraction(v).denominator % p == 0:
                raise ValueError(
                    f"coordinate {i + 1} of the point, {v}, has a denominator divisible by "
                    f"the system's evaluation prime {p}"
                )
        _point = _SamplePoint(sys, stack(sys), [_residue(v, p) for v in values])
    B, C = _point.split(s)
    rng = random.Random(seed)
    n, ms, lc = sys.n, len(B[0]), len(C)
    if not ms and not lc:
        return True  # no feedback paths at all: every eigenvalue of A drops the pencil
    M = _point.A
    if ms:
        M = _mat_add_mod(M, _mat_mul_mod(B, _uniform(rng, ms, n, p), p), p)
    if lc:
        M = _mat_add_mod(M, _mat_mul_mod(_uniform(rng, n, lc, p), C, p), p)
    return len(poly_gcd(_point.char_A, char_poly_exact(M, p), p)) > 1


def _block_diagonal_gain(sys: MultiChannelSystem, rng: random.Random) -> list[list[int]]:
    """An m x l block-diagonal gain of uniform residues mod p, drawn slot by slot."""
    K = [[0] * sys.l for _ in range(sys.m)]
    for r, c in feedback_slots(sys.channels):
        K[r][c] = rng.randrange(sys.prime)
    return K


def _no_fixed_mode_at(sys: MultiChannelSystem, point: _SamplePoint, rng: random.Random) -> bool:
    """Exact certificate that no channel subset drops its pencil at this point.

    A drop of some subset's pencil at lambda makes lambda a fixed mode: an
    eigenvalue of A + B K C for every block-diagonal K (Wang & Davison,
    1973).  So a constant gcd mod p of chi(A) and chi(A + B K C), for one K
    with uniform residue entries, certifies every subset at once (exactly,
    by the Gauss's-lemma argument of ``pencil_drop_at_point``).
    """
    if not any(m_i and l_i for m_i, l_i in sys.channels):
        return False  # no channel closes a loop: every eigenvalue of A is fixed
    p = sys.prime
    K = _block_diagonal_gain(sys, rng)
    M = _mat_add_mod(point.A, _mat_mul_mod(point.B, _mat_mul_mod(K, point.C, p), p), p)
    return len(poly_gcd(point.char_A, char_poly_exact(M, p), p)) == 1


def decide_polynomial(
    sys: MultiChannelSystem, trials: int = 10, seed: int = 0
) -> StructuralVerdict:
    """Decide structurally fixed spectrum for a polynomial parameterization.

    ``trials`` points are drawn uniformly in GF(p)^q and shared by every
    channel subset; the system is evaluated at most once per point.  At the
    first point one block-diagonal feedback certifies every subset at once
    when the system has no fixed mode there.  Otherwise each subset is
    tested at the points in turn: one point with no pencil drop discards it
    (exactly, for that point; for almost all parameters by genericity), and
    the first subset dropping at every point it is tested at is returned as
    witness.  A subset is tested at no more points than it takes to bring
    2^k (n^2 D / p)^t to FAILURE_TARGET (module docstring), ``trials`` at
    most.  Each sample records the sub-seed of its test.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    p = sys.prime
    values = [[rng.randrange(p) for _ in range(sys.q)] for _ in range(trials)]
    points = _SamplePoints(sys, rng, values)
    labels = [[str(v) for v in row] for row in values]
    subsets = sys.subsets()
    subset_diag = []
    witness = None
    bound = Fraction(0)
    if _no_fixed_mode_at(sys, points[0], rng):
        subset_diag = [
            {
                "subset": [i + 1 for i in s.members],
                "certified": True,
                "samples": [{"point": labels[0], "pencil_drop": False}],
            }
            for s in subsets
        ]
    else:
        d_A, d_B, d_C = sys.degrees
        degree = sys.n**2 * max(d_A, d_B + 1, d_C + 1)
        for s in subsets:
            samples = []

            def certifies(t):
                sub_seed = rng.randrange(2**32)
                drop = pencil_drop_at_point(sys, s, values[t], seed=sub_seed, _point=points[t])
                samples.append({"point": labels[t], "pencil_drop": drop, "seed": sub_seed})
                return not drop

            confirmed = _confirm(certifies, degree, p, trials, claims=len(subsets))
            subset_diag.append(
                {
                    "subset": [i + 1 for i in s.members],
                    "certified": confirmed is None,
                    "samples": samples,
                }
            )
            if confirmed is not None:
                witness, bound = s, confirmed
                break
    diagnostics = {
        "trials": trials,
        "seed": seed,
        "subsets": subset_diag,
        "failure_bound": _reported(bound),
        "semantics": (
            "no-SFS verdicts are certificate-exact at the sampled points; "
            "SFS verdicts hold up to the sampling failure probability"
        ),
    }
    if witness is not None:
        return StructuralVerdict(
            has_sfs=True,
            route="pencil-sampling",
            witness=witness,
            reason=REASON_PENCIL_DROP,
            diagnostics=diagnostics,
        )
    return StructuralVerdict(
        has_sfs=False, route="pencil-sampling", diagnostics=diagnostics
    )


# -- prime-field linear algebra helpers ----------------------------------------


def _mat_mul_mod(a, b, p):
    """The product a b of residue matrices mod p, reduced once per output row.

    Each output row accumulates x * (row t of b) over the nonzero entries x
    of its row of a as plain integers and is reduced mod p at the end.  It
    walks every entry of the rows of b it uses, so it suits a dense b: the
    pencil and closed-loop products, whose right factors are drawn gains,
    output matrices and their products.
    """
    cols = len(b[0]) if b else 0
    out = []
    for ai in a:
        acc = [0] * cols
        for x, bt in zip(ai, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, bt)]
        out.append([s % p for s in acc])
    return out


def _sparse_rows(M) -> list:
    """The nonzero entries of each row of M, as (column, value) pairs."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in M]


def _sparse_mul_mod(a, rows, width, p):
    """The product a M mod p, for residue rows a and M given by ``_sparse_rows``.

    M has ``width`` columns.  Each output row adds x * y into column j for
    every nonzero x of its row of a and every stored (j, y) of the matching
    row of M, so a row costs the stored entries of M, not all its
    positions, and is reduced mod p at the end.
    """
    out = []
    for ai in a:
        acc = [0] * width
        for x, row in zip(ai, rows):
            if x:
                for j, y in row:
                    acc[j] += x * y
        out.append([s % p for s in acc])
    return out


def _mat_add_mod(a, b, p):
    return [[(x + y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def markov_identity(
    sys: MultiChannelSystem, s: ChannelSubset, trials: int = 10, seed: int = 0, *, _points=None
) -> bool:
    """True iff every product C_compl A^j B_S (j < n) is the zero polynomial matrix.

    Decided by polynomial identity testing: the products are evaluated at
    random prime-field points; any nonzero entry is an exact refutation.
    At a point the columns of A^j B_S are kept as rows and stepped to
    j + 1 by the sparse rows of A^T (``_sparse_mul_mod``), so a step costs
    the stored entries of A per column, not n^2.  All-zero results confirm
    the identity once 2^(k+1) (degree / p)^t is at most FAILURE_TARGET,
    degree = d_C + (n - 1) d_A + d_B (module docstring), or after
    ``trials`` points.  With no column in B_S or no
    row in C_compl every product is empty, and no point refutes it.
    """
    points = _SamplePoints(sys, random.Random(seed)) if _points is None else _points
    p = sys.prime

    def refutes(t):
        point = points[t]
        B_S, C = point.split(s)
        if not B_S[0] or not C:
            return False  # an empty product, whatever A is
        V = list(zip(*B_S))  # the columns of A^j B_S, as rows: V A^T at the next j
        for _ in range(sys.n):
            if any(sum(map(mul, c, v)) % p for c in C for v in V):
                return True
            V = _sparse_mul_mod(V, point.AT_rows, sys.n, p)
        return False

    return _confirm(refutes, _markov_degree(sys), p, trials, claims=2 ** (sys.k + 1)) is not None


def _krylov_dim(rows, M_rows, p: int, cap: int) -> int:
    """Dimension of the smallest M-invariant row space (over GF(p)) holding ``rows``.

    M is square and given by its sparse rows (``_sparse_rows``), so a step
    costs the stored entries of M per row.  The span grows step by step:
    the rows that enlarged the echelon basis are multiplied by M and
    offered again, and growth stops at the first step that keeps nothing.
    The kept rows span a space that holds the starting rows, and M maps
    every kept row into it (each image was offered and either kept or found
    in the span), so the space is M-invariant: it is the whole Krylov
    space.  Growth also stops once the basis reaches ``cap``, a bound on
    that dimension known in advance (at most the width of M).
    """
    basis = Echelon(p)
    while rows and len(basis) < cap:
        kept = [r for r in rows if basis.add(r)]
        rows = _sparse_mul_mod(kept, M_rows, len(M_rows), p)
    return len(basis)


def generic_dims(
    sys: MultiChannelSystem, s: ChannelSubset, trials: int = 10, seed: int = 0, *, _points=None
) -> GenericDims:
    """Generic controllable dimension of (A, B_S) and unobservable of (C_compl, A).

    Both are generic ranks of the reachability/observability Krylov spaces,
    computed at random prime-field points (the evaluation of the symbolic
    Krylov matrix is the Krylov matrix of the evaluations).  At each point
    the span of B_S's columns (as rows, multiplied by A^T) and of C_compl's
    rows (multiplied by A) is grown only from the vectors that enlarged it,
    through the point's sparse rows of A^T and A (``_krylov_dim``), and
    stops at the first step that adds none: the span is then
    A-invariant and holds B_S (respectively C_compl), so it is the whole
    Krylov space, exactly, over any field.  Conventions: an empty S gives
    dimension 0; an empty complement gives unobservable dimension n.

    Sampling stops once more points cannot raise either maximum.  Read the
    stored entries of A as arcs j -> i.  Every column of B_S is supported
    on the rows where B_S has stored entries, and A maps a vector supported
    on a vertex set into one supported on its out-neighbours, so at every
    point, over any field, the controllable Krylov space is supported on
    the set R reachable from those rows: its dimension is at most |R|.
    Likewise every row of C_compl A^j is supported on the set O of states
    from which C_compl's stored columns are reachable.  So the growth at a
    point also stops once the span reaches |R| (respectively |O|), and
    once both maxima reach |R| and |O| they are exact.  Otherwise sampling
    stops once 2^(k+1) (degree / p)^t is at most FAILURE_TARGET, degree the
    sum of the two Krylov minor degrees (module docstring), or after
    ``trials`` points.
    """
    if any(i >= sys.k for i in s):
        raise ValueError(f"channel index out of range for k={sys.k}")
    points = _SamplePoints(sys, random.Random(seed)) if _points is None else _points
    p = sys.prime
    rows = [i for j in s for (i, _), _ in sys.B_blocks[j].items()]
    cols = [c for j in s.complement(sys.k) for (_, c), _ in sys.C_blocks[j].items()]
    ctrb_cap = int(sys.pattern_reach[rows].any(axis=0).sum())
    obs_cap = int(sys.pattern_reach[:, cols].any(axis=1).sum())
    best_ctrb = best_obs = 0

    def reaches_caps(t):
        nonlocal best_ctrb, best_obs
        point = points[t]
        B_S, C_compl = point.split(s)
        best_ctrb = max(best_ctrb, _krylov_dim(list(zip(*B_S)), point.AT_rows, p, ctrb_cap))
        best_obs = max(best_obs, _krylov_dim(C_compl, point.A_rows, p, obs_cap))
        return best_ctrb == ctrb_cap and best_obs == obs_cap

    _confirm(reaches_caps, _krylov_degree(sys), p, trials, claims=2 ** (sys.k + 1))
    return GenericDims(ctrb_dim=best_ctrb, unobs_dim=sys.n - best_obs)


def closed_loop_generic_rank(
    sys: MultiChannelSystem, trials: int = 10, seed: int = 0, *, _points=None
) -> int:
    """Generic rank of A + B F C over the joint (system, feedback) parameters.

    A full-rank point settles it; otherwise the maximum over the points
    stands once (degree / p)^t is at most FAILURE_TARGET, degree =
    n max(d_A, d_B + d_C + 1) (module docstring), or after ``trials``
    points.  The gain F at each point is drawn from ``seed``, also when the
    points are passed as ``_points``.
    """
    rng = random.Random(seed)
    points = _SamplePoints(sys, rng) if _points is None else _points
    p = sys.prime
    best = 0

    def full_rank(t):
        nonlocal best
        point = points[t]
        K = _block_diagonal_gain(sys, rng)
        closed = point.A
        if sys.m and sys.l:
            BK = _mat_mul_mod(point.B, K, p)
            closed = _mat_add_mod(closed, _mat_mul_mod(BK, point.C, p), p)
        best = max(best, rank_exact(closed, p))
        return best == sys.n

    _confirm(full_rank, _rank_degree(sys), p, trials)
    return best


def rank_failure_bound(sys: MultiChannelSystem, trials: int) -> float:
    """The reported failure bound of a closed-loop rank below n.

    The bound (degree / p)^t of ``closed_loop_generic_rank`` on a
    rank-deficient claim, with degree = n max(d_A, d_B + d_C + 1).
    """
    return _reported(_bound(_rank_degree(sys), sys.prime, trials))


def decide_linear(
    sys: MultiChannelSystem,
    decomp: LinearParamDecomposition | None = None,
    trials: int = 10,
    seed: int = 0,
) -> StructuralVerdict:
    """Decide structurally fixed spectrum for a linearly parameterized system.

    The system has one iff the closed-loop generic rank of A + B F C is
    below n, or some subset passes the zero-transfer identity while its
    generic controllable dimension is below the complement's generic
    unobservable dimension.  Raises NotLinearlyParameterized otherwise, and
    ValueError for a ``decomp`` of another system.
    A no-SFS verdict is exact: a full-rank point, and per subset a nonzero
    transfer or sampled dimensions that already rule it out (a sampled
    controllable dimension is never above the generic one, a sampled
    unobservable dimension never below).
    """
    _own_decomposition(sys, decomp)
    rng = random.Random(seed)
    p = sys.prime
    points = _SamplePoints(sys, rng)  # drawn on first use, after the gains' seed
    g = closed_loop_generic_rank(sys, trials=trials, seed=rng.randrange(2**32), _points=points)
    diagnostics: dict = {
        "trials": trials,
        "seed": seed,
        "closed_loop_grank": g,
        "n": sys.n,
        "subsets": [],
        "failure_bound": 0.0,
    }
    if g < sys.n:
        diagnostics["failure_bound"] = rank_failure_bound(sys, trials)
        return StructuralVerdict(
            has_sfs=True,
            route="algebraic",
            reason=REASON_GENERIC_RANK,
            diagnostics=diagnostics,
        )
    witness = None
    for s in sys.subsets():
        zero_transfer = markov_identity(sys, s, trials=trials, _points=points)
        entry = {"subset": [i + 1 for i in s.members], "markov_zero": zero_transfer}
        if zero_transfer:
            dims = generic_dims(sys, s, trials=trials, _points=points)
            entry["ctrb_dim"] = dims.ctrb_dim
            entry["unobs_dim"] = dims.unobs_dim
            if dims.ctrb_dim < dims.unobs_dim:
                diagnostics["subsets"].append(entry)
                witness = s
                break
        diagnostics["subsets"].append(entry)
    if witness is not None:
        # 2^k times the sum of the two per-subset bounds; each bound below
        # carries the factor 2^(k+1) that its sampling stopped with
        claims = 2 ** (sys.k + 1)
        bound = _bound(_markov_degree(sys), p, trials, claims)
        bound += _bound(_krylov_degree(sys), p, trials, claims)
        diagnostics["failure_bound"] = _reported(bound / 2)
        return StructuralVerdict(
            has_sfs=True,
            route="algebraic",
            witness=witness,
            reason=REASON_PROPER_SUBSPACE,
            diagnostics=diagnostics,
        )
    return StructuralVerdict(has_sfs=False, route="algebraic", diagnostics=diagnostics)
