"""Colored directed multigraph of a binary linearly parameterized system.

Vertices are the states, stacked inputs, and stacked outputs; every
(entry, parameter) incidence of A, B, C contributes one arc colored by its
parameter, and the feedback pattern contributes output-to-input arcs in
fresh colors.  The graphical decision rests on two questions.  Is some
similarity class of multi-colored cycle subgraphs (vertex-disjoint cycle
unions covering every state vertex with pairwise distinct arc colors)
unbalanced in cycle-count parity?  That mirrors the closed-loop generic
rank; a bipartite cycle-cover matching answers it when no cover exists and
for unitary systems, and a lazy class search answers it for the others.
Is there a strongly connected component made of state vertices only?  That
certifies the block-triangular decoupling witness; components, and what
lies downstream of one, are read from one ``system.reachability`` matrix.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .structural import (
    REASON_GENERIC_RANK,
    REASON_PROPER_SUBSPACE,
    StructuralVerdict,
)
from .system import (
    ChannelSubset,
    LinearParamDecomposition,
    MultiChannelSystem,
    _own_decomposition,
    channel_spans,
    feedback_slots,
    reachability,
)

__all__ = [
    "Arc",
    "SystemGraph",
    "CycleSubgraph",
    "SimilarityClass",
    "NonBinaryParameterization",
    "EnumerationBudgetExceeded",
    "build_graph",
    "strongly_connected_components",
    "state_only_scc_exists",
    "enumerate_cycle_subgraphs",
    "similarity_classes",
    "decide_graphical",
    "export_dot",
]

DEFAULT_BUDGET = 10_000_000


class NonBinaryParameterization(ValueError):
    """The graph is defined only for binary linear parameterizations."""


class EnumerationBudgetExceeded(RuntimeError):
    """Cycle-subgraph enumeration hit its budget; the answer is inconclusive."""

    def __init__(self, budget: int):
        super().__init__(f"cycle subgraph enumeration exceeded budget of {budget} steps")
        self.budget = budget


@dataclass(frozen=True, order=True)
class Arc:
    src: int
    dst: int
    color: int
    kind: str  # "A", "B", "C" or "F"


# the dataclass order of arcs, as a sort key (cheaper than the generated __lt__)
_ARC_ORDER = attrgetter("src", "dst", "color", "kind")


@dataclass(frozen=True)
class SystemGraph:
    """Colored multigraph with state/input/output vertex classes.

    Vertex ids: states 0..n-1, inputs n..n+m-1, outputs n+m..n+m+l-1.
    System parameters color arcs 1..q; feedback parameters q+1..q+q_f.
    """

    n: int
    m: int
    l: int
    q: int
    feedback_colors: int
    channels: tuple[tuple[int, int], ...]
    arcs: tuple[Arc, ...]

    @property
    def vertex_count(self) -> int:
        return self.n + self.m + self.l

    def is_state(self, v: int) -> bool:
        return v < self.n

    def is_input(self, v: int) -> bool:
        return self.n <= v < self.n + self.m

    def is_output(self, v: int) -> bool:
        return self.n + self.m <= v < self.vertex_count

    def vertex_name(self, v: int) -> str:
        if self.is_state(v):
            return f"x{v + 1}"
        if self.is_input(v):
            return f"u{v - self.n + 1}"
        return f"y{v - self.n - self.m + 1}"

    def arcs_from(self) -> dict[int, tuple[Arc, ...]]:
        out: dict[int, list[Arc]] = {}
        for arc in self.arcs:
            out.setdefault(arc.src, []).append(arc)
        return {src: tuple(sorted(arcs, key=_ARC_ORDER)) for src, arcs in out.items()}


def build_graph(
    sys: MultiChannelSystem, decomp: LinearParamDecomposition | None = None
) -> SystemGraph:
    """Build the colored multigraph including the feedback-pattern arcs.

    Rejects parameterizations that are not binary linear: an unweighted graph
    cannot represent coefficients other than 0/1, and a ``decomp`` of
    another system.  The graph is correct by construction: vertex classes
    follow from the block offsets, colors from the parameter and feedback
    slot indices, and each color's arcs fill the rectangle of its term.
    """
    decomp = _own_decomposition(sys, decomp)
    if not decomp.is_binary:
        raise NonBinaryParameterization(
            "graph construction requires a binary linear parameterization"
        )
    n, m, l, q = sys.n, sys.m, sys.l, sys.q
    arcs: list[Arc] = []
    for term in decomp.terms:
        color = term.param_index + 1
        for i in term.rows:
            for j in term.cols:
                if i < n and j < n:
                    arcs.append(Arc(src=j, dst=i, color=color, kind="A"))
                elif i < n:
                    arcs.append(Arc(src=j, dst=i, color=color, kind="B"))
                elif j < n:
                    arcs.append(Arc(src=j, dst=i + m, color=color, kind="C"))
                else:  # would land in the structurally zero block
                    raise NonBinaryParameterization(
                        f"parameter p{term.param_index + 1} couples inputs and outputs"
                    )
    slots = feedback_slots(sys.channels)
    for r, (i, j) in enumerate(slots):
        arcs.append(Arc(src=n + m + j, dst=n + i, color=q + r + 1, kind="F"))
    return SystemGraph(
        n=n,
        m=m,
        l=l,
        q=q,
        feedback_colors=len(slots),
        channels=sys.channels,
        arcs=tuple(sorted(arcs, key=_ARC_ORDER)),
    )


# -- strongly connected components ---------------------------------------------


def _components(g: SystemGraph) -> tuple[np.ndarray, np.ndarray]:
    """The reachability matrix, and one row of ``reach & reach.T`` per component.

    Row v marks v's component, and its first set entry is v exactly when v
    is the component's smallest vertex: the rows come by smallest vertex.
    """
    reach = reachability(g.vertex_count, ((arc.src, arc.dst) for arc in g.arcs))
    mutual = reach & reach.T
    return reach, mutual[mutual.argmax(axis=1) == np.arange(g.vertex_count)]


def strongly_connected_components(g: SystemGraph) -> list[list[int]]:
    """Components as sorted vertex lists, sorted by smallest vertex."""
    return [np.flatnonzero(row).tolist() for row in _components(g)[1]]


def state_only_scc_exists(g: SystemGraph) -> bool:
    """True iff some strongly connected component contains only state vertices."""
    return any(all(g.is_state(v) for v in comp) for comp in strongly_connected_components(g))


# -- multi-colored cycle subgraphs ----------------------------------------------


@dataclass(frozen=True)
class CycleSubgraph:
    """A vertex-disjoint union of cycles covering all state vertices.

    Cycles are sorted by their minimum vertex and each starts at it; arc
    colors are pairwise distinct across the whole union.
    """

    cycles: tuple[tuple[Arc, ...], ...]

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    @property
    def color_set(self) -> frozenset[int]:
        return frozenset(arc.color for cycle in self.cycles for arc in cycle)


class _Steps:
    """Enumeration steps used so far against one budget.

    The graphical decision shares one counter between its outer search and
    every restricted enumeration it starts, so they spend a single budget.
    """

    __slots__ = ("budget", "used")

    def __init__(self, budget: int):
        self.budget = budget
        self.used = 0

    def take(self) -> None:
        self.used += 1
        if self.used > self.budget:
            raise EnumerationBudgetExceeded(self.budget)


def _matching(
    g: SystemGraph,
    arcs_from: dict[int, tuple[Arc, ...]],
    tails: list[int],
    heads: set[int],
    banned: set[int],
    steps: _Steps | None = None,
) -> dict[int, tuple[int, Arc | None]] | None:
    """Perfect matching of ``tails`` to ``heads`` along arcs of unbanned colors.

    An input or output vertex that is both a tail and a head may match itself
    (it then lies on no cycle).  Kuhn's augmenting paths, tails in the given
    order, arcs in sorted order.  Returns head -> (tail, arc or None for a
    self-match), or None when no perfect matching exists.  With ``steps``,
    every arc examined takes one step.
    """
    owner: dict[int, tuple[int, Arc | None]] = {}

    def augment(tail: int, seen: set[int]) -> bool:
        if tail in heads and not g.is_state(tail) and tail not in seen:
            seen.add(tail)
            if tail not in owner or augment(owner[tail][0], seen):
                owner[tail] = (tail, None)
                return True
        for arc in arcs_from.get(tail, ()):
            if steps is not None:
                steps.take()
            head = arc.dst
            if head in seen or head not in heads or arc.color in banned:
                continue
            seen.add(head)
            if head not in owner or augment(owner[head][0], seen):
                owner[head] = (tail, arc)
                return True
        return False

    for tail in tails:
        if not augment(tail, set()):
            return None
    return owner


def _cycle_subgraphs(
    g: SystemGraph, steps: _Steps, prune: bool = False
) -> Iterator[CycleSubgraph]:
    """Backtracking over the multi-colored cycle subgraphs, depth first.

    State vertices are covered in increasing order, so every subgraph is
    produced exactly once in canonical form.  Cycles may route through input
    and output vertices; only state coverage is mandatory.  Every arc tried
    takes one step; the step past the budget raises EnumerationBudgetExceeded.

    With ``prune``, a path from v0 to the current vertex is extended only
    while a matching can still close it and cover the remaining states with
    unused colors (colors may repeat in the matching, so this is a necessary
    condition).  A pruned branch holds no subgraph, so the order is unchanged.
    """
    arcs_from = g.arcs_from()
    vertices = set(range(g.vertex_count))
    used_vertices: set[int] = set()
    used_colors: set[int] = set()
    cycles: list[tuple[Arc, ...]] = []  # closed cycles, in the order closed
    frames: list[Iterator[Arc]] = []  # untried arcs out of each open path vertex
    # the open cycle starts at v0 and runs along path; levels keeps the open
    # cycle each closed cycle interrupted, to resume it when that one reopens
    levels: list[tuple[int, list[Arc], set[int], set[int]]] = []

    def first_uncovered() -> int | None:
        return next((v for v in range(g.n) if v not in used_vertices), None)

    def arcs_out(
        current: int, v0: int, on_path: set[int], path_colors: set[int]
    ) -> Iterator[Arc]:
        if prune:
            free = vertices - used_vertices - on_path
            tails = [current, *sorted(free)]
            banned = used_colors | path_colors
            if _matching(g, arcs_from, tails, free | {v0}, banned, steps) is None:
                return iter(())
        return iter(arcs_from.get(current, ()))

    v0 = first_uncovered()
    if v0 is None:
        yield CycleSubgraph(cycles=())
        return
    path: list[Arc] = []
    on_path: set[int] = {v0}
    path_colors: set[int] = set()
    frames.append(arcs_out(v0, v0, on_path, path_colors))
    while frames:
        for arc in frames[-1]:
            steps.take()
            if arc.color in used_colors or arc.color in path_colors:
                continue
            if arc.dst == v0:
                cycle = (*path, arc)
                cycles.append(cycle)
                used_vertices.update(on_path)
                used_colors.update(path_colors)
                used_colors.add(arc.color)
                nxt = first_uncovered()
                if nxt is None:
                    yield CycleSubgraph(cycles=tuple(cycles))
                    cycles.pop()
                    used_vertices.difference_update(on_path)
                    used_colors.difference_update(a.color for a in cycle)
                    continue
                levels.append((v0, path, on_path, path_colors))
                v0, path, on_path, path_colors = nxt, [], {nxt}, set()
                frames.append(arcs_out(v0, v0, on_path, path_colors))
                break
            if arc.dst not in used_vertices and arc.dst not in on_path:
                path.append(arc)
                on_path.add(arc.dst)
                path_colors.add(arc.color)
                frames.append(arcs_out(arc.dst, v0, on_path, path_colors))
                break
        else:  # every arc out of the path's last vertex is tried: step back
            frames.pop()
            if path:
                last = path.pop()
                on_path.discard(last.dst)
                path_colors.discard(last.color)
            elif levels:  # back at v0: reopen the cycle closed below this one
                v0, path, on_path, path_colors = levels.pop()
                cycle = cycles.pop()
                used_vertices.difference_update(on_path)
                used_colors.difference_update(a.color for a in cycle)


def enumerate_cycle_subgraphs(
    g: SystemGraph, budget: int = DEFAULT_BUDGET, *, _steps: _Steps | None = None
) -> list[CycleSubgraph]:
    """Exact backtracking enumeration of all multi-colored cycle subgraphs.

    Each subgraph appears once, in canonical form (see ``_cycle_subgraphs``);
    the list is sorted by cycles.  Raises EnumerationBudgetExceeded rather
    than returning a partial answer.  ``_steps``, the graphical decision's
    shared counter, replaces ``budget``.
    """
    if _steps is None:
        _steps = _Steps(budget)
    # list() holds the partial answer in no frame the traceback keeps alive
    subs = list(_cycle_subgraphs(g, _steps))
    return sorted(subs, key=lambda sub: sub.cycles)


@dataclass(frozen=True)
class SimilarityClass:
    """Subgraphs sharing one color set, tallied by cycle-count parity."""

    color_set: frozenset[int]
    odd_count: int
    even_count: int

    @property
    def balanced(self) -> bool:
        return self.odd_count == self.even_count


def similarity_classes(subs: list[CycleSubgraph]) -> list[SimilarityClass]:
    """Group subgraphs by color set and tally odd/even cycle counts."""
    tallies: dict[frozenset[int], list[int]] = {}
    for sub in subs:
        odd_even = tallies.setdefault(sub.color_set, [0, 0])
        odd_even[sub.cycle_count % 2 == 0] += 1
    classes = [
        SimilarityClass(color_set=colors, odd_count=t[0], even_count=t[1])
        for colors, t in tallies.items()
    ]
    return sorted(classes, key=lambda c: (len(c.color_set), sorted(c.color_set)))


# -- the graphical decision -----------------------------------------------------


def _decoupling_witness(g: SystemGraph) -> tuple[ChannelSubset, dict] | None:
    """Channel subset and state partition certified by a state-only component.

    States downstream of the first such component receive the subset's
    inputs, states upstream feed the complement's outputs; the component
    itself sits in the middle block of the block-triangular form.  None when
    no strongly connected component holds only state vertices.
    """
    n = g.n
    reach, rows = _components(g)
    comp = next((row for row in rows if not row[n:].any()), None)
    if comp is None:
        return None
    down = reach[comp.argmax()]  # every vertex reachable from the component
    in_cols = channel_spans(g.channels)[0]
    witness = ChannelSubset(
        tuple(i for i, cols in enumerate(in_cols) if down[n + cols.start : n + cols.stop].all())
    )
    partition = {
        "upstream_states": (np.flatnonzero(~down[:n]) + 1).tolist(),
        "middle_states": (np.flatnonzero(comp[:n]) + 1).tolist(),
        "downstream_states": (np.flatnonzero(down[:n] & ~comp[:n]) + 1).tolist(),
    }
    return witness, partition


def _cycle_cover(g: SystemGraph) -> tuple[Arc, ...] | None:
    """Arcs of a cycle cover of the state vertices, or None if none exists.

    A perfect matching of arc tails to arc heads over all vertices; the
    matched arcs form vertex-disjoint cycles through every state vertex.
    Arc colors may repeat, so a cover is a multi-colored cycle subgraph only
    when every arc has its own color.
    """
    vertices = list(range(g.vertex_count))
    owner = _matching(g, g.arcs_from(), vertices, set(vertices), set())
    if owner is None:
        return None
    return tuple(sorted(arc for _, arc in owner.values() if arc is not None))


def _first_unbalanced_class(
    g: SystemGraph, steps: _Steps
) -> tuple[SimilarityClass | None, int | None, int | None]:
    """Search the similarity classes lazily; stop at the first unbalanced one.

    The outer search is pruned (see ``_cycle_subgraphs``).  For each
    subgraph whose color set C lies in no color set handled before,
    enumerate the graph restricted to C's colors: that tallies every class
    C' of C completely.  Returns (unbalanced class, None, None) on a find,
    else (None, subgraph count, class count) after the outer search has seen
    every subgraph and every class proved balanced.
    """
    handled: list[frozenset[int]] = []
    count = 0
    color_sets: set[frozenset[int]] = set()
    for sub in _cycle_subgraphs(g, steps, prune=True):
        count += 1
        colors = sub.color_set
        color_sets.add(colors)
        if any(colors <= done for done in handled):
            continue
        handled.append(colors)
        restricted = replace(g, arcs=tuple(a for a in g.arcs if a.color in colors))
        classes = similarity_classes(enumerate_cycle_subgraphs(restricted, _steps=steps))
        found = next((c for c in classes if not c.balanced), None)
        if found is not None:
            return found, None, None
    return None, count, len(color_sets)


def decide_graphical(
    sys: MultiChannelSystem,
    decomp: LinearParamDecomposition | None = None,
    budget: int = DEFAULT_BUDGET,
) -> StructuralVerdict:
    """Graphical decision for binary linearly parameterized systems.

    The system has a structurally fixed spectrum iff the graph has no
    unbalanced similarity class of multi-colored cycle subgraphs (the
    closed-loop generic rank falls short of n) or has a strongly connected
    component of state vertices only (a block-triangular decoupling exists,
    reconstructed and reported as witness).

    A bipartite matching decides first: without a cycle cover there is no
    cycle subgraph at all, and in a unitary system every arc has its own
    color, so each class has one member and a cover is an unbalanced class.
    Other binary systems search the classes lazily and stop at the first
    unbalanced one; ``budget`` bounds the steps of all their searches.
    """
    decomp = _own_decomposition(sys, decomp)
    g = build_graph(sys, decomp)
    steps = _Steps(budget)
    subgraph_count = class_count = None
    cover = _cycle_cover(g)
    if cover is None:
        method, unbalanced = "matching", []
    elif decomp.is_unitary:
        method, unbalanced = "matching", [sorted({arc.color for arc in cover})]
    else:
        method = "enumeration"
        found, subgraph_count, class_count = _first_unbalanced_class(g, steps)
        unbalanced = [] if found is None else [sorted(found.color_set)]
    diagnostics: dict = {
        "method": method,
        "steps": steps.used,
        "subgraph_count": subgraph_count,
        "class_count": class_count,
        "unbalanced_classes": unbalanced,
        "budget": budget,
    }
    if not unbalanced:
        return StructuralVerdict(
            has_sfs=True,
            route="graphical",
            reason=REASON_GENERIC_RANK,
            diagnostics=diagnostics,
        )
    decoupling = _decoupling_witness(g)
    if decoupling is None:
        return StructuralVerdict(has_sfs=False, route="graphical", diagnostics=diagnostics)
    witness, diagnostics["partition"] = decoupling
    return StructuralVerdict(
        has_sfs=True,
        route="graphical",
        witness=witness,
        reason=REASON_PROPER_SUBSPACE,
        diagnostics=diagnostics,
    )


def export_dot(g: SystemGraph) -> str:
    """Deterministic DOT rendering; vertex shape encodes the vertex class."""
    lines = ["digraph system_graph {", "  rankdir=LR;"]
    shape = {"x": "circle", "u": "box", "y": "diamond"}
    for v in range(g.vertex_count):
        name = g.vertex_name(v)
        lines.append(f'  {name} [shape={shape[name[0]]}];')
    for arc in sorted(g.arcs):
        style = ", style=dashed" if arc.kind == "F" else ""
        lines.append(
            f'  {g.vertex_name(arc.src)} -> {g.vertex_name(arc.dst)} '
            f'[label="{arc.color}"{style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
