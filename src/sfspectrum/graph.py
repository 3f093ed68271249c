"""Colored directed multigraph of a binary linearly parameterized system.

Vertices are the states, stacked inputs, and stacked outputs; every
(entry, parameter) incidence of A, B, C contributes one arc colored by its
parameter, and the feedback pattern contributes output-to-input arcs in
fresh colors.  The graphical decision rests on two computations: exact
enumeration of the multi-colored cycle subgraphs (vertex-disjoint cycle
unions covering every state vertex with pairwise distinct arc colors),
whose per-color-set parity balance mirrors the closed-loop generic rank,
and a strongly-connected-component check for a component made of state
vertices only, which certifies the block-triangular decoupling witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .structural import (
    REASON_GENERIC_RANK,
    REASON_PROPER_SUBSPACE,
    StructuralVerdict,
)
from .system import (
    ChannelSubset,
    FeedbackPattern,
    LinearParamDecomposition,
    MultiChannelSystem,
    detect_linear_parameterization,
    feedback_pattern,
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
        return {src: tuple(sorted(arcs)) for src, arcs in out.items()}


def _validate(g: SystemGraph) -> None:
    """Check the four structural properties of the colored graph."""
    b_colors, c_colors = set(), set()
    for arc in g.arcs:
        classes = {
            "A": (g.is_state, g.is_state),
            "B": (g.is_input, g.is_state),
            "C": (g.is_state, g.is_output),
            "F": (g.is_output, g.is_input),
        }[arc.kind]
        if not (classes[0](arc.src) and classes[1](arc.dst)):
            raise ValueError(f"arc {arc} violates vertex-class transitions")
        if arc.kind == "F":
            if not (g.q < arc.color <= g.q + g.feedback_colors):
                raise ValueError(f"feedback arc {arc} outside the fresh color range")
        else:
            if not (1 <= arc.color <= g.q):
                raise ValueError(f"arc {arc} outside the system color range")
            (b_colors if arc.kind == "B" else c_colors if arc.kind == "C" else set()).add(
                arc.color
            )
    shared = b_colors & c_colors
    if shared:
        raise ValueError(f"colors {sorted(shared)} appear in both input and output arcs")
    if len(set(g.arcs)) != len(g.arcs):
        raise ValueError("duplicate (src, dst, color) arcs")
    f_pairs = [(a.src, a.dst) for a in g.arcs if a.kind == "F"]
    if len(set(f_pairs)) != len(f_pairs):
        raise ValueError("parallel feedback arcs")
    # rank-one completion: per color, the A+B (resp. A+C) arcs form a rectangle
    for kinds in (("A", "B"), ("A", "C")):
        by_color: dict[int, list[Arc]] = {}
        for arc in g.arcs:
            if arc.kind in kinds:
                by_color.setdefault(arc.color, []).append(arc)
        for color, arcs in by_color.items():
            srcs = {a.src for a in arcs}
            dsts = {a.dst for a in arcs}
            have = {(a.src, a.dst) for a in arcs}
            missing = {(s, d) for s in srcs for d in dsts} - have
            if missing:
                raise ValueError(
                    f"color {color} arcs do not complete their rectangle: missing {sorted(missing)}"
                )


def build_graph(
    sys: MultiChannelSystem,
    decomp: LinearParamDecomposition | None = None,
    fp: FeedbackPattern | None = None,
) -> SystemGraph:
    """Build the colored multigraph including the feedback-pattern arcs.

    Rejects parameterizations that are not binary linear: an unweighted graph
    cannot represent coefficients other than 0/1.
    """
    if decomp is None:
        decomp = detect_linear_parameterization(sys)
    if not decomp.is_binary:
        raise NonBinaryParameterization(
            "graph construction requires a binary linear parameterization"
        )
    if fp is None:
        fp = feedback_pattern(sys)
    n, m, l, q = sys.n, sys.m, sys.l, sys.q
    arcs: list[Arc] = []
    for term in decomp.terms:
        rows = [i for i, x in enumerate(term.g) if x != 0]
        cols = [j for j, x in enumerate(term.h) if x != 0]
        color = term.param_index + 1
        for i in rows:
            for j in cols:
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
    for (i, j), r in sorted(fp.entry_params.items()):
        arcs.append(Arc(src=n + m + j, dst=n + i, color=q + r + 1, kind="F"))
    g = SystemGraph(
        n=n,
        m=m,
        l=l,
        q=q,
        feedback_colors=fp.param_count,
        channels=sys.channels,
        arcs=tuple(sorted(arcs)),
    )
    _validate(g)
    return g


# -- strongly connected components ---------------------------------------------


def strongly_connected_components(g: SystemGraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components sorted by smallest vertex."""
    succ: dict[int, list[int]] = {}
    for arc in g.arcs:
        succ.setdefault(arc.src, []).append(arc.dst)
    succ = {v: sorted(set(ws)) for v, ws in succ.items()}
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(g.vertex_count):
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
    return sorted(components)


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

    def vertices(self) -> frozenset[int]:
        return frozenset(arc.src for cycle in self.cycles for arc in cycle)


def enumerate_cycle_subgraphs(
    g: SystemGraph, budget: int = DEFAULT_BUDGET
) -> list[CycleSubgraph]:
    """Exact backtracking enumeration of all multi-colored cycle subgraphs.

    State vertices are covered in increasing order, so every subgraph is
    produced exactly once in canonical form.  Cycles may route through input
    and output vertices; only state coverage is mandatory.  Raises
    EnumerationBudgetExceeded rather than returning a partial answer.
    """
    arcs_from = g.arcs_from()
    results: list[CycleSubgraph] = []
    used_vertices: set[int] = set()
    used_colors: set[int] = set()
    cycles: list[tuple[Arc, ...]] = []
    steps = 0

    def search() -> None:
        v0 = next((v for v in range(g.n) if v not in used_vertices), None)
        if v0 is None:
            results.append(CycleSubgraph(cycles=tuple(cycles)))
            return
        path: list[Arc] = []
        on_path: set[int] = {v0}
        path_colors: set[int] = set()

        def extend(current: int) -> None:
            nonlocal steps
            for arc in arcs_from.get(current, ()):
                steps += 1
                if steps > budget:
                    raise EnumerationBudgetExceeded(budget)
                if arc.color in used_colors or arc.color in path_colors:
                    continue
                if arc.dst == v0:
                    cycle = tuple(path) + (arc,)
                    verts = frozenset(on_path)
                    colors = path_colors | {arc.color}
                    used_vertices.update(verts)
                    used_colors.update(colors)
                    cycles.append(cycle)
                    search()
                    cycles.pop()
                    used_colors.difference_update(colors)
                    used_vertices.difference_update(verts)
                elif arc.dst not in used_vertices and arc.dst not in on_path:
                    path.append(arc)
                    on_path.add(arc.dst)
                    path_colors.add(arc.color)
                    extend(arc.dst)
                    path_colors.discard(arc.color)
                    on_path.discard(arc.dst)
                    path.pop()

        extend(v0)

    try:
        search()
    except EnumerationBudgetExceeded:
        # the traceback keeps these frames alive; drop the partial answer
        results.clear()
        raise
    return sorted(results, key=lambda sub: sub.cycles)


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


def _reachable_from(g: SystemGraph, sources: set[int]) -> set[int]:
    succ: dict[int, set[int]] = {}
    for arc in g.arcs:
        succ.setdefault(arc.src, set()).add(arc.dst)
    seen = set(sources)
    frontier = list(sources)
    while frontier:
        v = frontier.pop()
        for w in succ.get(v, ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def _decoupling_witness(g: SystemGraph) -> tuple[ChannelSubset, dict]:
    """Channel subset and state partition certified by a state-only component.

    States downstream of the component receive the subset's inputs, states
    upstream feed the complement's outputs; the component itself sits in the
    middle block of the block-triangular form.
    """
    comp = next(
        comp
        for comp in strongly_connected_components(g)
        if all(g.is_state(v) for v in comp)
    )
    reach = _reachable_from(g, set(comp))
    middle = sorted(comp)
    downstream = sorted(v for v in reach if g.is_state(v) and v not in comp)
    upstream = sorted(v for v in range(g.n) if v not in reach)
    members = []
    at = g.n
    for i, (m_i, _) in enumerate(g.channels):
        inputs = range(at, at + m_i)
        if all(u in reach for u in inputs):
            members.append(i)
        at += m_i
    witness = ChannelSubset(tuple(members))
    partition = {
        "upstream_states": [v + 1 for v in upstream],
        "middle_states": [v + 1 for v in middle],
        "downstream_states": [v + 1 for v in downstream],
    }
    return witness, partition


def decide_graphical(
    sys: MultiChannelSystem,
    decomp: LinearParamDecomposition | None = None,
    fp: FeedbackPattern | None = None,
    budget: int = DEFAULT_BUDGET,
) -> StructuralVerdict:
    """Graphical decision for binary linearly parameterized systems.

    The system has a structurally fixed spectrum iff the graph has no
    unbalanced similarity class of multi-colored cycle subgraphs (the
    closed-loop generic rank falls short of n) or has a strongly connected
    component of state vertices only (a block-triangular decoupling exists,
    reconstructed and reported as witness).
    """
    g = build_graph(sys, decomp, fp)
    subs = enumerate_cycle_subgraphs(g, budget=budget)
    classes = similarity_classes(subs)
    unbalanced = [sorted(c.color_set) for c in classes if not c.balanced]
    diagnostics: dict = {
        "subgraph_count": len(subs),
        "class_count": len(classes),
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
    if state_only_scc_exists(g):
        witness, partition = _decoupling_witness(g)
        diagnostics["partition"] = partition
        return StructuralVerdict(
            has_sfs=True,
            route="graphical",
            witness=witness,
            reason=REASON_PROPER_SUBSPACE,
            diagnostics=diagnostics,
        )
    return StructuralVerdict(has_sfs=False, route="graphical", diagnostics=diagnostics)


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
