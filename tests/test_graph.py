"""Colored graph construction, SCCs, cycle subgraphs, and the graphical route."""

import itertools
import random
from dataclasses import replace

import pytest

from sfspectrum import (
    EnumerationBudgetExceeded,
    MultiChannelSystem,
    NonBinaryParameterization,
    ParamMatrix,
    ParamPoly,
    build_graph,
    closed_loop_generic_rank,
    decide_graphical,
    decide_linear,
    enumerate_cycle_subgraphs,
    export_dot,
    similarity_classes,
    state_only_scc_exists,
)
from sfspectrum.graph import (
    CycleSubgraph,
    SystemGraph,
    _cycle_cover,
    _cycle_subgraphs,
    _decoupling_witness,
    _first_unbalanced_class,
    _Steps,
    strongly_connected_components,
)
from sfspectrum.cli import parse_system, parse_system_dict
from sfspectrum.system import (
    ChannelSubset,
    all_subsets,
    channel_spans,
    classify,
    detect_linear_parameterization,
    split,
)
from sfspectrum.structural import (
    REASON_GENERIC_RANK,
    REASON_PROPER_SUBSPACE,
    StructuralVerdict,
)
from sfspectrum.ensembles import random_binary_system
from conftest import perfbench_module, two_channel_shared_params
from test_golden_reports import CASES, DEMOS

p = ParamPoly.param


def diagonal_states_only(n: int) -> MultiChannelSystem:
    """A = diag of distinct parameters, no inputs or outputs."""
    A = ParamMatrix(n, n, {(i, i): p(i) for i in range(n)}, n)
    return MultiChannelSystem(
        n=n,
        channels=((0, 0),),
        A=A,
        B_blocks=(ParamMatrix.zeros(n, 0, n),),
        C_blocks=(ParamMatrix.zeros(0, n, n),),
        q=n,
    )


def random_unitary_system(
    seed: int, n: int, k: int, density: float, plant: str | None = None
) -> MultiChannelSystem:
    """Each nonzero entry of A, B, C is its own parameter; channels 1-2 wide.

    ``plant="isolated"`` leaves the last state only its self-loop (a
    state-only component); ``plant="sourceless"`` gives it no incoming arc
    (no cycle cover).
    """
    rng = random.Random(seed)
    channels = tuple((rng.randint(1, 2), rng.randint(1, 2)) for _ in range(k))
    last = n - 1
    q = 0

    def pattern(rows: int, cols: int, keep) -> dict:
        nonlocal q
        cells = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < density and keep(i, j):
                    cells[(i, j)] = q
                    q += 1
        return cells

    to_last = plant is None  # arcs into the last state
    from_last = plant != "isolated"
    a = pattern(n, n, lambda i, j: (i != last or to_last) and (j != last or from_last))
    if plant == "isolated":
        a[(last, last)] = q
        q += 1
    bs = [pattern(n, m_i, lambda i, j: i != last or to_last) for m_i, _ in channels]
    cs = [pattern(l_i, n, lambda i, j: j != last or from_last) for _, l_i in channels]

    def matrix(rows: int, cols: int, cells: dict) -> ParamMatrix:
        return ParamMatrix(rows, cols, {ij: p(r) for ij, r in cells.items()}, q)

    return MultiChannelSystem(
        n=n,
        channels=channels,
        A=matrix(n, n, a),
        B_blocks=tuple(matrix(n, m_i, b) for (m_i, _), b in zip(channels, bs)),
        C_blocks=tuple(matrix(l_i, n, c) for (_, l_i), c in zip(channels, cs)),
        q=q,
    )


def recursive_enumeration(g: SystemGraph, budget: int) -> tuple[list[CycleSubgraph], int]:
    """The recursive backtracking enumeration the graph route used to run.

    Returns the subgraphs in depth-first order and the steps (arcs tried).
    """
    arcs_from = g.arcs_from()
    results: list[CycleSubgraph] = []
    used_vertices: set[int] = set()
    used_colors: set[int] = set()
    cycles: list = []
    steps = 0

    def search() -> None:
        v0 = next((v for v in range(g.n) if v not in used_vertices), None)
        if v0 is None:
            results.append(CycleSubgraph(cycles=tuple(cycles)))
            return
        path: list = []
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
                    verts = frozenset(on_path)
                    colors = path_colors | {arc.color}
                    used_vertices.update(verts)
                    used_colors.update(colors)
                    cycles.append(tuple(path) + (arc,))
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

    search()
    return results, steps


def exhaustive_decide_graphical(sys_, budget: int) -> StructuralVerdict:
    """The graphical route as it was before the matching and the lazy search.

    Lists every cycle subgraph, tallies every class, then runs the SCC test.
    """
    g = build_graph(sys_)
    subs, _ = recursive_enumeration(g, budget)
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
            has_sfs=True, route="graphical", reason=REASON_GENERIC_RANK,
            diagnostics=diagnostics,
        )
    if state_only_scc_exists(g):
        witness, partition = _decoupling_witness(g)
        diagnostics["partition"] = partition
        return StructuralVerdict(
            has_sfs=True, route="graphical", witness=witness,
            reason=REASON_PROPER_SUBSPACE, diagnostics=diagnostics,
        )
    return StructuralVerdict(has_sfs=False, route="graphical", diagnostics=diagnostics)


def single_loop_system() -> MultiChannelSystem:
    """A = 0, scalar input and output: the cycle u1 -> x1 -> y1 -> u1."""
    return MultiChannelSystem(
        n=1,
        channels=((1, 1),),
        A=ParamMatrix.zeros(1, 1, 2),
        B_blocks=(ParamMatrix.from_rows([[p(0)]], 2),),
        C_blocks=(ParamMatrix.from_rows([[p(1)]], 2),),
        q=2,
    )


def golden_binary_systems() -> list[MultiChannelSystem]:
    """The binary systems among the golden ``analyze`` cases."""
    systems = [
        parse_system(DEMOS / source)[0] if isinstance(source, str) else source()
        for source, _, _ in CASES.values()
    ]
    return [sys_ for sys_ in systems if classify(sys_).binary]


def graph_corpus(seed: int) -> list[MultiChannelSystem]:
    """The systems of the benchmark's ``graph`` corpus of ``seed``."""
    workloads = perfbench_module("workloads")
    w = workloads.Graph()
    walk = workloads.generate(w.name, seed, w.cells, w.variants, w.density)
    return [parse_system_dict(doc)[0] for _, doc, _ in walk]


def assert_well_formed(g: SystemGraph) -> None:
    """Every property the colored graph has by construction."""
    ends = {
        "A": (g.is_state, g.is_state),
        "B": (g.is_input, g.is_state),
        "C": (g.is_state, g.is_output),
        "F": (g.is_output, g.is_input),
    }
    for a in g.arcs:
        assert ends[a.kind][0](a.src) and ends[a.kind][1](a.dst), a
        fresh = a.kind == "F"
        assert (g.q < a.color <= g.q + g.feedback_colors) if fresh else (1 <= a.color <= g.q), a
    colors = {kind: {a.color for a in g.arcs if a.kind == kind} for kind in "ABCF"}
    assert not colors["B"] & colors["C"]
    assert len(set(g.arcs)) == len(g.arcs)
    feedback = [(a.src, a.dst) for a in g.arcs if a.kind == "F"]
    assert len(set(feedback)) == len(feedback) == len(colors["F"]) == g.feedback_colors
    # a color's state-and-input arcs, and its state-and-output arcs, fill a rectangle
    for kinds in ("AB", "AC"):
        for color in colors[kinds[0]] | colors[kinds[1]]:
            pairs = {(a.src, a.dst) for a in g.arcs if a.kind in kinds and a.color == color}
            srcs, dsts = {src for src, _ in pairs}, {dst for _, dst in pairs}
            assert pairs == set(itertools.product(srcs, dsts)), (color, kinds)


class TestBuildGraph:
    def test_worked_example_arcs(self, worked_system):
        g = build_graph(worked_system)
        names = {
            (g.vertex_name(a.src), g.vertex_name(a.dst), a.color) for a in g.arcs
        }
        assert names == {
            ("x1", "x1", 1),
            ("x2", "x1", 1),
            ("x2", "x2", 2),
            ("u1", "x2", 2),
            ("u2", "x1", 3),
            ("x1", "y1", 4),
            ("x1", "y2", 1),
            ("x2", "y2", 1),
            ("y1", "u1", 5),
            ("y2", "u2", 6),
        }
        assert len(g.arcs) == 10

    def test_diagonal_self_loops(self):
        g = build_graph(diagonal_states_only(3))
        assert all(a.src == a.dst and a.kind == "A" for a in g.arcs)
        assert len(g.arcs) == 3

    def test_single_loop_arcs(self):
        g = build_graph(single_loop_system())
        triples = {(g.vertex_name(a.src), g.vertex_name(a.dst), a.color) for a in g.arcs}
        assert triples == {("u1", "x1", 1), ("x1", "y1", 2), ("y1", "u1", 3)}

    def test_rejects_non_binary(self):
        sys_ = MultiChannelSystem(
            n=1,
            channels=((0, 0),),
            A=ParamMatrix.from_rows([[2 * p(0)]], 1),
            B_blocks=(ParamMatrix.zeros(1, 0, 1),),
            C_blocks=(ParamMatrix.zeros(0, 1, 1),),
            q=1,
        )
        with pytest.raises(NonBinaryParameterization):
            build_graph(sys_)

    def test_feedback_colors_disjoint(self, worked_system):
        g = build_graph(worked_system)
        system_colors = {a.color for a in g.arcs if a.kind != "F"}
        feedback_colors = {a.color for a in g.arcs if a.kind == "F"}
        assert system_colors <= set(range(1, g.q + 1))
        assert feedback_colors == {g.q + 1, g.q + 2}

    def test_vertex_class_transitions(self):
        systems = [random_binary_system(seed=seed + 100) for seed in range(40)]
        systems += [random_binary_system(seed, max_n=6, max_k=3) for seed in range(40)]
        systems += golden_binary_systems()
        assert len(systems) > 80
        for sys_ in systems:
            assert_well_formed(build_graph(sys_))

    def test_a_decomposition_of_another_system_is_refused(self):
        systems = [random_binary_system(seed=seed) for seed in range(40)]
        decomps = [detect_linear_parameterization(sys_) for sys_ in systems]
        refused = same_shape = 0
        for (i, sys_), (j, decomp) in itertools.product(enumerate(systems), enumerate(decomps)):
            if i == j:
                build_graph(sys_, decomp)
                continue
            with pytest.raises(ValueError, match="does not belong to this system"):
                build_graph(sys_, decomp)
            if (sys_.n, sys_.m, sys_.l) != (systems[j].n, systems[j].m, systems[j].l):
                refused += 1
            else:  # the same shape does not make the decomposition this system's
                same_shape += 1
                with pytest.raises(ValueError, match="does not belong to this system"):
                    decide_graphical(sys_, decomp)
        assert refused == 1546 and same_shape == 14
        # an equal system, built apart, owns the decomposition
        assert build_graph(random_binary_system(seed=3), decomps[3]) == build_graph(systems[3])
        # the same shape over fewer parameters: the worked example's p4 is past q
        fewer = MultiChannelSystem(
            n=2,
            channels=((1, 1), (1, 1)),
            A=ParamMatrix.from_rows([[p(0), 0], [0, p(1)]], 3),
            B_blocks=(ParamMatrix.from_rows([[p(2)], [0]], 3), ParamMatrix.zeros(2, 1, 3)),
            C_blocks=(ParamMatrix.zeros(1, 2, 3), ParamMatrix.zeros(1, 2, 3)),
            q=3,
        )
        decomp = detect_linear_parameterization(two_channel_shared_params())
        with pytest.raises(ValueError, match="does not belong to this system"):
            build_graph(fewer, decomp)


class TestStateOnlyScc:
    def test_worked_example_false(self, worked_system):
        assert not state_only_scc_exists(build_graph(worked_system))

    def test_single_loop_false(self):
        assert not state_only_scc_exists(build_graph(single_loop_system()))

    def test_isolated_state_true(self):
        sys_ = MultiChannelSystem(
            n=2,
            channels=((1, 1),),
            A=ParamMatrix.from_rows([[0, 0], [0, p(0)]], 3),
            B_blocks=(ParamMatrix.from_rows([[0], [p(1)]], 3),),
            C_blocks=(ParamMatrix.from_rows([[0, p(2)]], 3),),
            q=3,
        )
        assert state_only_scc_exists(build_graph(sys_))

    def test_components_partition_vertices(self, worked_system):
        g = build_graph(worked_system)
        comps = strongly_connected_components(g)
        seen = sorted(v for comp in comps for v in comp)
        assert seen == list(range(g.vertex_count))


def tarjan_components(g: SystemGraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative: the components the graph route used to compute."""
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


def search_decoupling_witness(g: SystemGraph):
    """The decoupling witness as the graph route used to find it: Tarjan, then a search."""
    comp = next((c for c in tarjan_components(g) if all(g.is_state(v) for v in c)), None)
    if comp is None:
        return None
    succ: dict[int, list[int]] = {}
    for arc in g.arcs:
        succ.setdefault(arc.src, []).append(arc.dst)
    reach, todo = set(comp), list(comp)
    while todo:
        for w in succ.get(todo.pop(), ()):
            if w not in reach:
                reach.add(w)
                todo.append(w)
    in_cols = channel_spans(g.channels)[0]
    witness = ChannelSubset(
        tuple(i for i, cols in enumerate(in_cols) if all(g.n + c in reach for c in cols))
    )
    partition = {
        "upstream_states": [v + 1 for v in range(g.n) if v not in reach],
        "middle_states": [v + 1 for v in sorted(comp)],
        "downstream_states": sorted(v + 1 for v in reach if g.is_state(v) and v not in comp),
    }
    return witness, partition


def reachability_graphs() -> list[SystemGraph]:
    """The binary ensembles, unitary systems with a planted component, an arcless
    graph and the benchmark's ``graph`` corpus of seed 7."""
    systems = [random_binary_system(seed + 4242, max_n=5) for seed in range(40)]
    systems += [random_binary_system(seed, max_n=8, max_k=3) for seed in range(40)]
    systems += [
        random_unitary_system(seed, n=6, k=2, density=0.3, plant=plant)
        for seed in range(10)
        for plant in (None, "isolated", "sourceless")
    ]
    systems += graph_corpus(7)
    arcless = SystemGraph(n=3, m=1, l=2, q=0, feedback_colors=0, channels=((1, 2),), arcs=())
    return [arcless] + [build_graph(sys_) for sys_ in systems]


class TestReachability:
    def test_components_equal_tarjans(self):
        graphs = reachability_graphs()
        for g in graphs:
            comps = strongly_connected_components(g)
            assert comps == tarjan_components(g)
            assert all(type(v) is int for comp in comps for v in comp)
        assert strongly_connected_components(graphs[0]) == [[v] for v in range(6)]

    def test_decoupling_witness_equals_the_search(self):
        found = 0
        for g in reachability_graphs():
            got = _decoupling_witness(g)
            assert got == search_decoupling_witness(g)
            found += got is not None
        assert found >= 20


class TestEnumerate:
    def test_diagonal_single_cover(self):
        g = build_graph(diagonal_states_only(3))
        subs = enumerate_cycle_subgraphs(g)
        assert len(subs) == 1
        assert subs[0].cycle_count == 3
        assert subs[0].color_set == frozenset({1, 2, 3})

    def test_worked_example_contains_double_loop(self, worked_system):
        g = build_graph(worked_system)
        subs = enumerate_cycle_subgraphs(g)
        covers = {
            tuple(sorted((a.src, a.dst, a.color) for cycle in sub.cycles for a in cycle))
            for sub in subs
        }
        assert tuple(sorted([(0, 0, 1), (1, 1, 2)])) in covers
        assert len(subs) == 4

    def test_uncoverable_state_gives_empty(self):
        # state 2 has no incoming arc: no cycle cover exists
        sys_ = MultiChannelSystem(
            n=2,
            channels=((0, 0),),
            A=ParamMatrix.from_rows([[p(0), 0], [p(1), 0]], 2),
            B_blocks=(ParamMatrix.zeros(2, 0, 2),),
            C_blocks=(ParamMatrix.zeros(0, 2, 2),),
            q=2,
        )
        assert enumerate_cycle_subgraphs(build_graph(sys_)) == []

    def test_subgraphs_satisfy_their_invariants(self):
        for seed in range(20):
            g = build_graph(random_binary_system(seed=seed + 1234))
            subs = enumerate_cycle_subgraphs(g)
            seen = set()
            for sub in subs:
                key = tuple(sub.cycles)
                assert key not in seen  # canonical, no duplicates
                seen.add(key)
                covered = set()
                colors = []
                for cycle in sub.cycles:
                    verts = [a.src for a in cycle]
                    assert len(set(verts)) == len(verts)
                    for arc, nxt in zip(cycle, cycle[1:] + cycle[:1]):
                        assert arc.dst == nxt.src  # consecutive arcs chain up
                    assert cycle[0].src == min(verts)
                    assert not (covered & set(verts))  # vertex-disjoint
                    covered |= set(verts)
                    colors.extend(a.color for a in cycle)
                assert len(set(colors)) == len(colors)  # all colors distinct
                assert {v for v in covered if g.is_state(v)} == set(range(g.n))

    def test_matches_the_recursive_enumeration_step_for_step(self):
        compared = 0
        for seed in range(200):
            g = build_graph(random_binary_system(seed + 5100, max_n=7, max_k=3))
            try:
                expected, steps = recursive_enumeration(g, 20_000)
            except EnumerationBudgetExceeded:
                continue
            compared += bool(expected)
            assert list(_cycle_subgraphs(g, _Steps(steps))) == expected, f"seed {seed + 5100}"
            assert enumerate_cycle_subgraphs(g, budget=steps) == sorted(
                expected, key=lambda sub: sub.cycles
            )
            if steps:
                with pytest.raises(EnumerationBudgetExceeded):
                    enumerate_cycle_subgraphs(g, budget=steps - 1)
        assert compared >= 90

    def test_budget_exhaustion_raises(self, worked_system):
        g = build_graph(worked_system)
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_cycle_subgraphs(g, budget=3)

    def test_budget_exhaustion_drops_partial_enumeration(self):
        # full 5 x 5 A, one parameter per entry: 120 cycle subgraphs, one per
        # permutation; the budget runs out after some of them are found
        n = 5
        A = ParamMatrix(n, n, {(i, j): p(n * i + j) for i in range(n) for j in range(n)}, n * n)
        full = MultiChannelSystem(
            n=n,
            channels=((0, 0),),
            A=A,
            B_blocks=(ParamMatrix.zeros(n, 0, n * n),),
            C_blocks=(ParamMatrix.zeros(0, n, n * n),),
            q=n * n,
        )
        g = build_graph(full)
        assert len(enumerate_cycle_subgraphs(g)) == 120
        with pytest.raises(EnumerationBudgetExceeded) as info:
            enumerate_cycle_subgraphs(g, budget=400)
        frames = []
        tb = info.value.__traceback__
        while tb is not None:
            frames.append(tb.tb_frame)
            tb = tb.tb_next
        assert any(f.f_code.co_name == "enumerate_cycle_subgraphs" for f in frames)
        for frame in frames:
            for value in frame.f_locals.values():
                assert not (
                    isinstance(value, list) and value and isinstance(value[0], CycleSubgraph)
                ), f"frame {frame.f_code.co_name} still holds {len(value)} subgraphs"


class TestSimilarityClasses:
    def test_single_even_subgraph_unbalanced(self):
        g = build_graph(diagonal_states_only(2))
        classes = similarity_classes(enumerate_cycle_subgraphs(g))
        assert len(classes) == 1
        assert classes[0].even_count == 1 and classes[0].odd_count == 0
        assert not classes[0].balanced

    def test_balanced_pair(self):
        # two states, distinct self-loop colors plus a 2-cycle on the same colors:
        # A = [[p1, p2], [p3, p4]] gives class {1, 4} (loops) etc.; craft the
        # balanced case directly: subgraphs {loop1, loop4} and the 2-cycle {2, 3}
        sys_ = MultiChannelSystem(
            n=2,
            channels=((0, 0),),
            A=ParamMatrix.from_rows([[p(0), p(1)], [p(2), p(3)]], 4),
            B_blocks=(ParamMatrix.zeros(2, 0, 4),),
            C_blocks=(ParamMatrix.zeros(0, 2, 4),),
            q=4,
        )
        classes = similarity_classes(enumerate_cycle_subgraphs(build_graph(sys_)))
        by_colors = {tuple(sorted(c.color_set)): c for c in classes}
        assert by_colors[(1, 4)].even_count == 1 and by_colors[(1, 4)].odd_count == 0
        assert by_colors[(2, 3)].odd_count == 1 and by_colors[(2, 3)].even_count == 0

    def test_balanced_class_from_column_rectangles(self):
        # p1 fills column 1, p2 fills column 2: the color set {1, 2} appears
        # both as two self-loops (even) and as the 2-cycle (odd), so the
        # class balances and det(A) = p1 p2 - p2 p1 vanishes identically
        sys_ = MultiChannelSystem(
            n=2,
            channels=((0, 0),),
            A=ParamMatrix.from_rows([[p(0), p(1)], [p(0), p(1)]], 2),
            B_blocks=(ParamMatrix.zeros(2, 0, 2),),
            C_blocks=(ParamMatrix.zeros(0, 2, 2),),
            q=2,
        )
        subs = enumerate_cycle_subgraphs(build_graph(sys_))
        classes = similarity_classes(subs)
        assert len(classes) == 1
        assert classes[0].color_set == frozenset({1, 2})
        assert classes[0].odd_count == 1 and classes[0].even_count == 1
        assert classes[0].balanced
        assert closed_loop_generic_rank(sys_) < 2
        # a cover exists but its class balances: the lazy search must list
        # everything instead of stopping at the matching
        verdict = decide_graphical(sys_)
        assert verdict.has_sfs and verdict.reason == REASON_GENERIC_RANK
        assert verdict.witness is None
        assert verdict.diagnostics["method"] == "enumeration"
        assert verdict.diagnostics["unbalanced_classes"] == []
        assert verdict.diagnostics["subgraph_count"] == 2
        assert verdict.diagnostics["class_count"] == 1

    def test_empty_input(self):
        assert similarity_classes([]) == []


class TestDecideGraphical:
    def test_worked_example_no_sfs(self, worked_system):
        verdict = decide_graphical(worked_system)
        assert not verdict.has_sfs
        assert verdict.route == "graphical"
        assert verdict.diagnostics["unbalanced_classes"]

    def test_shared_color_everywhere(self):
        # one parameter fills a rank-one rectangle: every arc has color 1, so
        # no multi-colored cover exists; det(A) = 0 identically, matching the
        # closed-loop generic rank drop
        sys_ = MultiChannelSystem(
            n=2,
            channels=((0, 0),),
            A=ParamMatrix.from_rows([[p(0), p(0)], [p(0), p(0)]], 1),
            B_blocks=(ParamMatrix.zeros(2, 0, 1),),
            C_blocks=(ParamMatrix.zeros(0, 2, 1),),
            q=1,
        )
        assert enumerate_cycle_subgraphs(build_graph(sys_)) == []
        verdict = decide_graphical(sys_)
        assert verdict.has_sfs and verdict.reason == REASON_GENERIC_RANK
        assert closed_loop_generic_rank(sys_) < 2

    def test_repeated_diagonal_is_not_graphable(self):
        # two disjoint self-loops of one color need a rank-two derivative,
        # which the graph machinery must refuse
        sys_ = MultiChannelSystem(
            n=2,
            channels=((0, 0),),
            A=ParamMatrix.from_rows([[p(0), 0], [0, p(0)]], 1),
            B_blocks=(ParamMatrix.zeros(2, 0, 1),),
            C_blocks=(ParamMatrix.zeros(0, 2, 1),),
            q=1,
        )
        from sfspectrum import NotLinearlyParameterized

        with pytest.raises(NotLinearlyParameterized):
            build_graph(sys_)

    def test_states_only_diagonal(self):
        verdict = decide_graphical(diagonal_states_only(2))
        assert verdict.has_sfs
        # unbalanced class exists, so the component disjunct must have fired
        assert verdict.witness is not None

    def test_witness_matches_block_form(self):
        # decoupled state x2 with channel 1 driving x1 only
        sys_ = MultiChannelSystem(
            n=2,
            channels=((1, 1),),
            A=ParamMatrix.from_rows([[p(0), 0], [0, p(1)]], 4),
            B_blocks=(ParamMatrix.from_rows([[p(2)], [0]], 4),),
            C_blocks=(ParamMatrix.from_rows([[p(3), 0]], 4),),
            q=4,
        )
        verdict = decide_graphical(sys_)
        assert verdict.has_sfs
        if verdict.witness is not None:
            assert verify_block_form(sys_, verdict.witness, verdict.diagnostics["partition"])


def verify_block_form(sys_, witness, partition):
    """Check the reported partition actually exhibits the zero pattern."""
    b1 = [v - 1 for v in partition["upstream_states"]]
    b2 = [v - 1 for v in partition["middle_states"]]
    b3 = [v - 1 for v in partition["downstream_states"]]
    assert sorted(b1 + b2 + b3) == list(range(sys_.n)) and b2
    B_S, C_compl = split(sys_, witness)
    for i in b1:
        for j in b2 + b3:
            assert sys_.A.entry(i, j).is_zero
    for i in b2:
        for j in b3:
            assert sys_.A.entry(i, j).is_zero
    for i in b1 + b2:
        for j in range(B_S.cols):
            assert B_S.entry(i, j).is_zero
    for i in range(C_compl.rows):
        for j in b2 + b3:
            assert C_compl.entry(i, j).is_zero
    return True


def block_form_exists_brute_force(sys_) -> bool:
    """Exhaustive search over subsets and ordered state partitions."""
    n = sys_.n
    for assign in itertools.product((0, 1, 2), repeat=n):
        blocks = [[i for i in range(n) if assign[i] == b] for b in range(3)]
        if not blocks[1]:
            continue
        if any(
            not sys_.A.entry(i, j).is_zero
            for i in blocks[0]
            for j in blocks[1] + blocks[2]
        ):
            continue
        if any(not sys_.A.entry(i, j).is_zero for i in blocks[1] for j in blocks[2]):
            continue
        for s in all_subsets(sys_.k):
            B_S, C_compl = split(sys_, s)
            if any(
                not B_S.entry(i, j).is_zero
                for i in blocks[0] + blocks[1]
                for j in range(B_S.cols)
            ):
                continue
            if any(
                not C_compl.entry(i, j).is_zero
                for i in range(C_compl.rows)
                for j in blocks[1] + blocks[2]
            ):
                continue
            return True
    return False


class TestBlockFormEquivalence:
    def test_scc_matches_brute_force(self):
        for seed in range(40):
            sys_ = random_binary_system(seed=seed + 4242, max_n=5)
            g = build_graph(sys_)
            assert state_only_scc_exists(g) == block_form_exists_brute_force(sys_), (
                f"seed {seed + 4242}"
            )

    def test_reported_witness_is_valid(self):
        checked = 0
        for seed in range(60):
            sys_ = random_binary_system(seed=seed + 9000, max_n=5)
            verdict = decide_graphical(sys_)
            if verdict.witness is None:
                continue
            checked += 1
            assert verify_block_form(
                sys_, verdict.witness, verdict.diagnostics["partition"]
            )
        assert checked >= 10


class TestRankBalanceEquivalence:
    def test_on_random_ensemble(self):
        for seed in range(60):
            sys_ = random_binary_system(seed=seed + 2024)
            deficient = closed_loop_generic_rank(sys_, seed=seed) < sys_.n
            classes = similarity_classes(enumerate_cycle_subgraphs(build_graph(sys_)))
            no_unbalanced = all(c.balanced for c in classes)
            assert deficient == no_unbalanced, f"seed {seed + 2024}"


ORACLE_STEP_CAP = 20_000  # the exhaustive oracle skips a system beyond this many steps


def is_valid_cover(g: SystemGraph, cover) -> bool:
    """Each state has one cover arc in and one out; every other vertex as many in as out."""
    outs = [a.src for a in cover]
    ins = [a.dst for a in cover]
    if len(set(outs)) != len(outs) or len(set(ins)) != len(ins) or set(outs) != set(ins):
        return False
    return set(range(g.n)) <= set(outs) and set(cover) <= set(g.arcs)


class TestCycleCover:
    def test_matches_enumeration_on_small_unitary_graphs(self):
        covered = uncovered = 0
        for seed in range(150):
            rng = random.Random(seed)
            sys_ = random_unitary_system(
                seed, n=rng.randint(1, 5), k=rng.randint(1, 3), density=rng.uniform(0.1, 0.5)
            )
            g = build_graph(sys_)
            cover = _cycle_cover(g)
            subs = enumerate_cycle_subgraphs(g)
            assert (cover is not None) == bool(subs), f"seed {seed}"
            if cover is None:
                uncovered += 1
                continue
            covered += 1
            assert is_valid_cover(g, cover), f"seed {seed}"
            # unitary: the cover's color set is one of the (unbalanced) classes
            classes = {c.color_set: c for c in similarity_classes(subs)}
            assert not classes[frozenset(a.color for a in cover)].balanced
        assert covered >= 30 and uncovered >= 30

    def test_no_cover_means_no_subgraph_on_binary_graphs(self):
        uncovered = 0
        for seed in range(200):
            g = build_graph(random_binary_system(seed + 700, max_n=6, max_k=3))
            cover = _cycle_cover(g)
            if cover is None:
                uncovered += 1
                assert enumerate_cycle_subgraphs(g) == [], f"seed {seed + 700}"
            else:
                assert is_valid_cover(g, cover), f"seed {seed + 700}"
        assert uncovered >= 20

    def test_inputs_and_outputs_may_stay_off_the_cover(self):
        # x1 has a self-loop; the input and output of its channel lie on no cycle
        sys_ = MultiChannelSystem(
            n=1,
            channels=((1, 1),),
            A=ParamMatrix.from_rows([[p(0)]], 1),
            B_blocks=(ParamMatrix.zeros(1, 1, 1),),
            C_blocks=(ParamMatrix.zeros(1, 1, 1),),
            q=1,
        )
        g = build_graph(sys_)
        assert g.m == g.l == 1
        assert [(a.src, a.dst) for a in _cycle_cover(g)] == [(0, 0)]


class TestLazyGraphicalSearch:
    @pytest.mark.parametrize("max_n", [6, 8])
    def test_matches_exhaustive_route_on_ensembles(self, max_n):
        compared = 0
        methods = set()
        for seed in range(300):
            sys_ = random_binary_system(seed + 50_000 * max_n, max_n=max_n, max_k=3)
            try:
                old = exhaustive_decide_graphical(sys_, budget=ORACLE_STEP_CAP)
            except EnumerationBudgetExceeded:
                continue
            compared += 1
            new = decide_graphical(sys_)
            where = f"max_n {max_n}, seed {seed}"
            assert (new.has_sfs, new.reason, new.witness) == (
                old.has_sfs, old.reason, old.witness
            ), where
            assert new.diagnostics.get("partition") == old.diagnostics.get("partition"), where
            diag = new.diagnostics
            methods.add(diag["method"])
            assert len(diag["unbalanced_classes"]) <= 1, where
            for colors in diag["unbalanced_classes"]:
                assert colors in old.diagnostics["unbalanced_classes"], where
            if diag["subgraph_count"] is not None:  # enumerated to the end
                assert diag["method"] == "enumeration" and not diag["unbalanced_classes"]
                assert diag["subgraph_count"] == old.diagnostics["subgraph_count"], where
                assert diag["class_count"] == old.diagnostics["class_count"], where
            else:
                assert diag["class_count"] is None, where
        assert compared >= 250
        assert methods == {"matching", "enumeration"}

    def test_pruned_search_yields_the_same_subgraphs_in_the_same_order(self):
        compared = 0
        for seed in range(200):
            g = build_graph(random_binary_system(seed + 8100, max_n=7, max_k=3))
            try:
                expected, _ = recursive_enumeration(g, ORACLE_STEP_CAP)
            except EnumerationBudgetExceeded:
                continue
            compared += bool(expected)
            pruned = list(_cycle_subgraphs(g, _Steps(10**7), prune=True))
            assert pruned == expected, f"seed {seed + 8100}"
        assert compared >= 90

    def test_pruning_reaches_a_late_first_subgraph(self):
        # without pruning, the search tries about 221k arcs before the first subgraph
        sys_ = random_binary_system(77039, max_n=12, max_k=3)
        with pytest.raises(EnumerationBudgetExceeded):
            next(_cycle_subgraphs(build_graph(sys_), _Steps(100_000)))
        verdict = decide_graphical(sys_, budget=5_000)
        assert verdict.diagnostics["method"] == "enumeration"
        assert verdict.has_sfs == decide_linear(sys_).has_sfs

    def test_reported_class_has_the_exhaustive_tally(self):
        found_count = 0
        for seed in range(200):
            g = build_graph(random_binary_system(seed + 300, max_n=6, max_k=3))
            try:
                exhaustive = similarity_classes(
                    enumerate_cycle_subgraphs(g, budget=ORACLE_STEP_CAP)
                )
            except EnumerationBudgetExceeded:
                continue
            found, subgraph_count, class_count = _first_unbalanced_class(g, _Steps(10**7))
            if found is None:
                assert all(c.balanced for c in exhaustive)
                assert class_count == len(exhaustive)
                continue
            found_count += 1
            assert (subgraph_count, class_count) == (None, None)
            assert found in exhaustive, f"seed {seed + 300}"
        assert found_count >= 50

    @pytest.mark.parametrize("n", [16, 18, 20])
    def test_large_unitary_systems_decided_by_matching(self, n):
        # the exhaustive route runs past 10^6 steps on the unplanted ones
        reasons = set()
        for seed, plant in itertools.product(range(3), (None, "isolated", "sourceless")):
            sys_ = random_unitary_system(1000 * n + seed, n=n, k=3, density=0.25, plant=plant)
            verdict = decide_graphical(sys_)
            diag = verdict.diagnostics
            assert diag["method"] == "matching" and diag["steps"] == 0
            assert diag["subgraph_count"] is None and diag["class_count"] is None
            assert verdict.has_sfs == decide_linear(sys_, seed=seed).has_sfs, f"seed {seed}"
            reasons.add(verdict.reason)
            for colors in diag["unbalanced_classes"]:  # one arc per color: a cover
                g = build_graph(sys_)
                assert is_valid_cover(g, [a for a in g.arcs if a.color in colors])
        assert reasons == {None, REASON_GENERIC_RANK, REASON_PROPER_SUBSPACE}

    def test_steps_count_every_search_against_one_budget(self):
        checked = replayed = 0
        for seed in range(150):
            sys_ = random_binary_system(seed + 6000, max_n=6, max_k=3)
            try:
                verdict = decide_graphical(sys_, budget=ORACLE_STEP_CAP)
            except EnumerationBudgetExceeded:
                continue
            steps = verdict.diagnostics["steps"]
            if verdict.diagnostics["method"] != "enumeration":
                assert steps == 0
                continue
            checked += 1
            assert decide_graphical(sys_, budget=steps).diagnostics["steps"] == steps
            with pytest.raises(EnumerationBudgetExceeded):
                decide_graphical(sys_, budget=steps - 1)
            # replay: outer search up to its first subgraph, then the full
            # enumeration restricted to that subgraph's colors
            g = build_graph(sys_)
            outer, inner = _Steps(ORACLE_STEP_CAP), _Steps(ORACLE_STEP_CAP)
            first = next(_cycle_subgraphs(g, outer, prune=True), None)
            if first is None:  # a cover with a repeated color, no subgraph
                assert steps == outer.used, f"seed {seed + 6000}"
                continue
            colors = first.color_set
            restricted = replace(g, arcs=tuple(a for a in g.arcs if a.color in colors))
            classes = similarity_classes(enumerate_cycle_subgraphs(restricted, _steps=inner))
            if not all(c.balanced for c in classes):
                replayed += 1
                assert steps == outer.used + inner.used, f"seed {seed + 6000}"
        assert checked >= 30 and replayed >= 30

    def test_tiny_budget_raises(self, worked_system):
        assert decide_graphical(worked_system).diagnostics["method"] == "enumeration"
        with pytest.raises(EnumerationBudgetExceeded):
            decide_graphical(worked_system, budget=1)


class TestExportDot:
    def test_empty_graph(self):
        g = SystemGraph(
            n=0, m=0, l=0, q=0, feedback_colors=0, channels=(), arcs=()
        )
        dot = export_dot(g)
        assert dot == "digraph system_graph {\n  rankdir=LR;\n}\n"

    def test_single_self_loop(self):
        g = build_graph(diagonal_states_only(1))
        dot = export_dot(g)
        assert 'x1 [shape=circle];' in dot
        assert 'x1 -> x1 [label="1"];' in dot

    def test_worked_example_counts(self, worked_system):
        dot = export_dot(build_graph(worked_system))
        lines = dot.strip().splitlines()
        node_lines = [ln for ln in lines if "shape=" in ln]
        edge_lines = [ln for ln in lines if "->" in ln]
        assert len(node_lines) == 6
        assert len(edge_lines) == 10
        assert dot.endswith("}\n")

    def test_deterministic(self, worked_system):
        g = build_graph(worked_system)
        assert export_dot(g) == export_dot(g)
