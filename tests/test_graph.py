"""Colored graph construction, SCCs, cycle subgraphs, and the graphical route."""

import itertools

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
    enumerate_cycle_subgraphs,
    export_dot,
    similarity_classes,
    state_only_scc_exists,
)
from sfspectrum.graph import CycleSubgraph, SystemGraph, strongly_connected_components
from sfspectrum.system import all_subsets, split
from sfspectrum.structural import REASON_GENERIC_RANK
from sfspectrum.ensembles import random_binary_system

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
        for seed in range(15):
            g = build_graph(random_binary_system(seed=seed + 100))
            for a in g.arcs:
                if a.kind == "A":
                    assert g.is_state(a.src) and g.is_state(a.dst)
                elif a.kind == "B":
                    assert g.is_input(a.src) and g.is_state(a.dst)
                elif a.kind == "C":
                    assert g.is_state(a.src) and g.is_output(a.dst)
                else:
                    assert g.is_output(a.src) and g.is_input(a.dst)


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
        assert decide_graphical(sys_).has_sfs

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
