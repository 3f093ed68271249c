"""Exact parameterized matrices and randomized generic rank.

Coefficient matrices live over a ring of polynomial parameters; the generic
rank is the rank attained for almost every parameter value.  We evaluate at
uniform points of a 61-bit prime field, so one lucky draw already certifies
the answer and the rank at a point never overshoots it.  The decision
routes sample their generic ranks this way, with a failure bound
(``closed_loop_generic_rank`` below).
"""

import random
from fractions import Fraction

from sfspectrum import (
    FIELD_PRIME,
    MultiChannelSystem,
    ParamMatrix,
    ParamPoint,
    ParamPoly,
    closed_loop_generic_rank,
    rank_exact,
)

p = ParamPoly.param
rng = random.Random(0)


def best_rank(m, points=5):
    """The largest rank over uniform points of GF(FIELD_PRIME)."""
    draws = ([rng.randrange(FIELD_PRIME) for _ in range(m.param_count)] for _ in range(points))
    return max(rank_exact(m.evaluate_at(values, FIELD_PRIME), FIELD_PRIME) for values in draws)


# A 2x2 matrix whose rank depends on the parameters:
#   [p1   p1*p2]
#   [p3   p2*p3]
# the second column is p2 times the first, so the rank never exceeds 1.
m = ParamMatrix.from_rows(
    [[p(0), p(0) * p(1)], [p(2), p(1) * p(2)]],
    param_count=3,
)
print("rank of the proportional-column matrix at uniform points:", best_rank(m))

# Breaking the proportionality restores full generic rank.
m2 = ParamMatrix.from_rows([[p(0), p(0) * p(1)], [p(2), 1]], param_count=3)
print("after replacing one entry with a constant:", best_rank(m2))

# Evaluation is exact: rationals in, rationals out.
point = ParamPoint(values=(Fraction(1, 2), Fraction(3), Fraction(-2)), seed=0)
print("m evaluated at (1/2, 3, -2):", m.evaluate(point))
print("rank there:", rank_exact(m.evaluate(point)))

# The one-sided guarantee: the rank at ANY point never exceeds the generic rank.
for draw in range(5):
    values = [rng.randrange(FIELD_PRIME) for _ in range(3)]
    r = rank_exact(m.evaluate_at(values, FIELD_PRIME), FIELD_PRIME)
    print(f"  random field point #{draw}: rank {r} <= generic rank 1")

# The closed-loop generic rank of A + B F C, over the system's parameters and
# a fresh block-diagonal gain F: A = [[p1, p1*p2], [p3, p2*p3]] is singular,
# and one channel from state 2 to state 1 restores full rank.
sys_ = MultiChannelSystem(
    n=2,
    channels=((1, 1),),
    A=m,
    B_blocks=(ParamMatrix.from_rows([[0], [1]], 3),),
    C_blocks=(ParamMatrix.from_rows([[1, 0]], 3),),
    q=3,
)
print("closed-loop generic rank of A + B F C:", closed_loop_generic_rank(sys_))
