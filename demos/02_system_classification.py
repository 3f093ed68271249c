"""Classifying a parameterization: polynomial, linear, binary, unitary.

A system is linearly parameterized when the derivative of the block matrix
[A B; C 0] with respect to each parameter is rank one.  Sharing a parameter
across locations is fine as long as the shared locations form a rectangle;
the same values spread over a diagonal break the property.
"""

from sfspectrum import (
    MultiChannelSystem,
    ParamMatrix,
    ParamPoly,
    classify,
    stack,
)
from sfspectrum.system import feedback_slots

p = ParamPoly.param

# Two channels, four parameters; p1 appears three times (in A twice and in
# the second output row), p2 twice.  All shared locations are rectangles.
system = MultiChannelSystem(
    n=2,
    channels=((1, 1), (1, 1)),
    A=ParamMatrix.from_rows([[p(0), p(0)], [0, p(1)]], 4),
    B_blocks=(
        ParamMatrix.from_rows([[0], [p(1)]], 4),
        ParamMatrix.from_rows([[p(2)], [0]], 4),
    ),
    C_blocks=(
        ParamMatrix.from_rows([[p(3), 0]], 4),
        ParamMatrix.from_rows([[p(0), p(0)]], 4),
    ),
    q=4,
)

cls = classify(system)
print("linear:", cls.linear, "binary:", cls.binary, "unitary:", cls.unitary)
for term in cls.decomposition.terms:
    rows = [i for i, x in enumerate(term.g) if x]
    cols = [j for j, x in enumerate(term.h) if x]
    print(f"  p{term.param_index + 1} occupies rectangle rows {rows} x cols {cols}")

B, C = stack(system)
print("stacked B:", [[str(B.entry(i, j)) for j in range(B.cols)] for i in range(B.rows)])
print("stacked C:", [[str(C.entry(i, j)) for j in range(C.cols)] for i in range(C.rows)])

print("block-diagonal feedback has", len(feedback_slots(system.channels)), "gain slots")

# Moving p1 onto a diagonal instead of a rectangle is NOT linear: the
# derivative matrix becomes the identity, which has rank two.
bad = MultiChannelSystem(
    n=2,
    channels=((1, 1), (1, 1)),
    A=ParamMatrix.from_rows([[p(0), 0], [0, p(0)]], 4),
    B_blocks=system.B_blocks,
    C_blocks=system.C_blocks,
    q=4,
)
bad_cls = classify(bad)
print("diagonal variant linear?", bad_cls.linear)
print("  reason:", bad_cls.linear_failure)
