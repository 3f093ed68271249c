"""Seeded generator of structured schema-v1 system files for the benchmark.

Every nonzero entry of the block matrix [A B; C 0] carries its own fresh
parameter ("one fresh parameter per nonzero"), so the structure alone decides
the verdict.  Four kinds are produced:

* ``polynomial`` -- fresh parameters plus some degree-two monomials and
  constant terms, so the system is polynomial but not linear;
* ``linear`` -- one parameter per nonzero with an integer coefficient other
  than 0 and 1 (linear, not binary);
* ``unitary`` -- one parameter per nonzero with coefficient 1 (binary and
  unitary);
* ``binary`` -- parameters placed as 0/1 rank-one rectangles of the nonzero
  pattern, as in ``sfspectrum.ensembles.random_binary_system`` (binary, not
  unitary).

A planted fixed mode makes one state an eigenvector that no output sees
(its A column and every C column are zero off the diagonal; witness: the
empty channel set) or that no input reaches (its A row and every B row are
zero off the diagonal; witness: all channels).  Either way the mode is fixed
for every parameter value.

The module imports nothing from ``sfspectrum``: the program under test only
ever receives the JSON documents written here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

KINDS = ("polynomial", "linear", "unitary", "binary")


@dataclass(frozen=True)
class Spec:
    """Kind, size and planted mode of one generated system (planted means SFS)."""

    name: str
    kind: str
    n: int
    k: int
    plant: str | None  # None, "unobservable" or "uncontrollable"

    @property
    def planted(self) -> bool:
        return self.plant is not None


def _pattern(rng: random.Random, n: int, k: int, density: float, plant):
    """Nonzero cells of [A B; C 0] with one input and one output per channel.

    A random Hamiltonian cycle through the states keeps unplanted systems
    strongly connected; every input column and output row gets at least
    one state cell.
    """
    cells: set[tuple[int, int]] = set()
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        cells.add((b, a))  # arc a -> b
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                cells.add((i, j))
    for c in range(k):
        col = n + c
        cells.add((rng.randrange(n), col))
        row = n + c
        cells.add((row, rng.randrange(n)))
        for i in range(n):
            if rng.random() < density / 2:
                cells.add((i, col))
            if rng.random() < density / 2:
                cells.add((row, i))
    if plant is not None:
        j = rng.randrange(n)
        if plant == "unobservable":
            # nothing leaves state j: zero A column and C column off the diagonal
            cells = {(r, c) for (r, c) in cells if c != j or r == j}
        else:
            # nothing enters state j: zero A row and B row off the diagonal
            cells = {(r, c) for (r, c) in cells if r != j or c == j}
        cells.add((j, j))
        for c in range(k):
            if not any(cc == n + c for (_, cc) in cells):
                cells.add((rng.choice([i for i in range(n) if i != j]), n + c))
            if not any(rr == n + c for (rr, _) in cells):
                cells.add((n + c, rng.choice([i for i in range(n) if i != j])))
    return cells


def _coeff(rng: random.Random) -> int:
    return rng.choice((-9, -7, -5, -4, -3, -2, -1, 2, 3, 4, 5, 7, 9))


def _binary_cover(rng: random.Random, cells: set[tuple[int, int]]):
    """0/1 rank-one rectangles whose union is exactly ``cells``.

    Each rectangle lies inside the pattern, so it never touches the
    structurally zero C-by-B block; a cell may be covered more than once.
    """
    rects = []
    by_row: dict[int, list[int]] = {}
    for i, j in cells:
        by_row.setdefault(i, []).append(j)
    for i, j in sorted(cells):
        if rng.random() < 0.4:
            rows = [i]
            cols = [j]
            others = [jj for jj in by_row[i] if jj != j]
            if others and rng.random() < 0.6:
                cols.append(rng.choice(others))
            partners = [
                ii for ii in by_row if ii != i and all((ii, c) in cells for c in cols)
            ]
            if partners and rng.random() < 0.6:
                rows.append(rng.choice(partners))
            rects.append((rows, cols))
        else:
            rects.append(([i], [j]))
    return rects


def make_system(
    struct_rng: random.Random,
    value_rng: random.Random,
    kind: str,
    n: int,
    k: int,
    plant,
    density: float,
) -> dict:
    """One schema-v1 system document of the given kind and size.

    ``struct_rng`` draws the structure: the nonzero pattern, the planted
    state, the rank-one rectangles and the nonlinear monomials.
    ``value_rng`` draws what leaves the structure alone: the nonzero
    coefficients and a relabelling of states and channels.  Each nonzero
    has its own parameter, so a coefficient only rescales that parameter,
    and the verdict depends on the structure alone.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    cells = _pattern(struct_rng, n, k, density, plant)
    # cell -> [(coefficient is an integer draw, monomial as ((param, exp), ...))]
    terms: dict[tuple[int, int], list[tuple[bool, tuple]]] = {}
    count = 0
    if kind == "binary":
        for rows, cols in _binary_cover(struct_rng, cells):
            for i in rows:
                for j in cols:
                    terms.setdefault((i, j), []).append((False, ((count, 1),)))
            count += 1
    else:
        nonlinear_done = False
        for cell in sorted(cells):
            terms[cell] = [(kind != "unitary", ((count, 1),))]
            if kind == "polynomial" and (struct_rng.random() < 0.25 or not nonlinear_done):
                nonlinear_done = True
                shape = struct_rng.randrange(3)
                if shape == 0:
                    terms[cell].append((True, ((count, 2),)))
                elif shape == 1 and count > 0:
                    terms[cell].append((True, tuple(sorted(((count, 1), (struct_rng.randrange(count), 1))))))
                else:
                    terms[cell].append((True, ()))
            count += 1

    states = list(range(n))
    value_rng.shuffle(states)
    chans = list(range(k))
    value_rng.shuffle(chans)

    def move(index: int) -> int:
        return states[index] if index < n else n + chans[index - n]

    moved = {(move(i), move(j)): entry for (i, j), entry in terms.items()}
    names: dict[int, str] = {}
    for cell in sorted(moved):
        for _, mono in moved[cell]:
            for param, _ in mono:
                names.setdefault(param, f"p{len(names) + 1}")

    def entry_doc(i: int, j: int, row0: int, col0: int) -> dict:
        return {
            "row": i - row0,
            "col": j - col0,
            "terms": [
                {
                    "coeff": str(_coeff(value_rng)) if drawn else "1",
                    "monomial": {names[param]: exp for param, exp in mono},
                }
                for drawn, mono in moved[(i, j)]
            ],
        }

    def block(row_range, col_range, row0, col0):
        return [
            entry_doc(i, j, row0, col0) for i in row_range for j in col_range if (i, j) in moved
        ]

    return {
        "schema_version": 1,
        "n": n,
        "parameters": sorted(names.values(), key=lambda name: int(name[1:])),
        "channels": [{"m": 1, "l": 1} for _ in range(k)],
        "A": block(range(n), range(n), 0, 0),
        "B": [block(range(n), [n + c], 0, n + c) for c in range(k)],
        "C": [block([n + c], range(n), n + c, 0) for c in range(k)],
    }
