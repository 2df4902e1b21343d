"""Generators: orderly augmentation, structural one/two-cycle classes, trees."""

import itertools

import networkx as nx
import pytest

from spectramin.enumeration import (
    _attach_forest,
    _augment,
    _bicyclic_classes,
    _forest_assignments,
    _ROOT_ROWS,
    _root_form,
    bicyclic_graphs,
    branch_states,
    enumerate_all_graphs,
    enumerate_connected,
    enumerate_connected_from_branch,
    enumerate_with_edge_count,
    rooted_tree_sequences,
    unicyclic_graphs,
)
from spectramin.graphs import (
    Graph,
    InvalidParameterError,
    canonical_form,
    independence_number,
    is_connected,
    spec_C,
    spec_P,
)

ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


class TestOrderlyGeneration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_graph_counts(self, n):
        assert sum(1 for _ in enumerate_all_graphs(n)) == ALL_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_connected_counts(self, n):
        assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]

    def test_one_per_class_against_brute_force(self):
        # brute force: all labeled graphs on 5 vertices deduplicated by form
        forms_brute = set()
        pairs = list(itertools.combinations(range(5), 2))
        for bits in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
            g = Graph(5, edges)
            if is_connected(g):
                forms_brute.add(canonical_form(g))
        forms_gen = {canonical_form(g) for g in enumerate_connected(5)}
        assert forms_gen == forms_brute

    def test_no_duplicates_at_6(self):
        forms = [canonical_form(g) for g in enumerate_all_graphs(6)]
        assert len(forms) == len(set(forms))

    def test_cap(self):
        with pytest.raises(InvalidParameterError):
            next(enumerate_connected(10))
        with pytest.raises(InvalidParameterError):
            next(enumerate_connected(11, extended=True))

    def test_extended_path_streams(self):
        # the full n=10 run is an hour-scale job; check the extended mode
        # streams valid, distinct 10-vertex graphs without exhausting it
        import itertools

        sample = list(itertools.islice(enumerate_connected(10, extended=True), 500))
        assert len(sample) == 500
        assert all(g.n == 10 and is_connected(g) for g in sample)
        forms = {canonical_form(g) for g in sample}
        assert len(forms) == 500

    def test_deterministic_order(self):
        a = [canonical_form(g) for g in enumerate_connected(6)]
        b = [canonical_form(g) for g in enumerate_connected(6)]
        assert a == b

    def test_branches_partition_the_space(self):
        states = branch_states()
        assert len(states) == ALL_COUNTS[5]
        forms = []
        for st in states:
            forms.extend(canonical_form(g) for g in enumerate_connected_from_branch(7, st))
        assert len(forms) == CONNECTED_COUNTS[7]
        assert len(set(forms)) == CONNECTED_COUNTS[7]


class TestEdgeCountMode:
    def test_trees_on_seven(self):
        trees = list(enumerate_with_edge_count(7, 6))
        assert len(trees) == 11
        assert all(g.edge_count == 6 and is_connected(g) for g in trees)

    def test_trees_match_prufer_dedup(self):
        # oracle: all labeled trees on 7 vertices from Prufer sequences
        n = 7
        forms = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            degree = [1] * n
            for v in seq:
                degree[v] += 1
            seq_list = list(seq)
            edges = []
            leaves = sorted(v for v in range(n) if degree[v] == 1)
            import heapq

            heapq.heapify(leaves)
            for v in seq_list:
                leaf = heapq.heappop(leaves)
                edges.append((leaf, v))
                degree[v] -= 1
                if degree[v] == 1:
                    heapq.heappush(leaves, v)
            u, w = heapq.heappop(leaves), heapq.heappop(leaves)
            edges.append((u, w))
            forms.add(canonical_form(Graph(n, edges)))
        assert len(forms) == 11
        gen = {canonical_form(g) for g in enumerate_with_edge_count(7, 6)}
        assert gen == forms

    def test_stars_and_paths_at_four(self):
        got = list(enumerate_with_edge_count(4, 3))
        assert len(got) == 2

    def test_infeasible_empty(self):
        assert list(enumerate_with_edge_count(5, 3)) == []

    def test_bicyclic_five(self):
        graphs = list(enumerate_with_edge_count(5, 6))
        assert len(graphs) == 5
        forms = {canonical_form(g) for g in graphs}
        from spectramin.graphs import build_bicyclic

        assert canonical_form(build_bicyclic(spec_C(3, 3))[0]) in forms
        assert canonical_form(build_bicyclic(spec_P(2, 2, 2))[0]) in forms


class TestStructuralGenerators:
    @pytest.mark.parametrize("n,count", [(4, 1), (5, 5), (6, 19), (7, 67), (8, 236)])
    def test_bicyclic_counts(self, n, count):
        graphs = list(bicyclic_graphs(n))
        assert len(graphs) == count
        assert all(g.n == n and g.edge_count == n + 1 for g in graphs)
        forms = {canonical_form(g) for g in graphs}
        assert len(forms) == count

    @pytest.mark.parametrize("n,count", [(3, 1), (4, 2), (5, 5), (6, 13), (7, 33), (8, 89)])
    def test_unicyclic_counts(self, n, count):
        graphs = list(unicyclic_graphs(n))
        assert len(graphs) == count
        assert all(g.edge_count == n for g in graphs)
        assert len({canonical_form(g) for g in graphs}) == count

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_structural_equals_orderly(self, n):
        structural = {canonical_form(g) for g in bicyclic_graphs(n)}
        orderly = set()
        for rows, e in _augment(n, 1, _ROOT_ROWS, _root_form(), 0, n + 1):
            if e != n + 1:
                continue
            g = Graph.from_rows(n, rows)
            if is_connected(g):
                orderly.add(canonical_form(g))
        assert structural == orderly

    def test_streamed_alpha_matches_independence_number(self):
        # the composition law against the general solver, class by class
        bicyclic = [(n, _bicyclic_classes(n)) for n in range(4, 13)]
        unicyclic = [
            (n, _forest_assignments(Graph(k, [(i, (i + 1) % k) for i in range(k)]), n - k))
            for n in range(3, 13)
            for k in range(3, n + 1)
        ]
        checked = 0
        for n, stream in bicyclic + unicyclic:
            for rows, assignment, alpha in stream:
                g = Graph.from_rows(n, _attach_forest(rows, assignment))
                assert alpha == independence_number(g), (n, rows, assignment)
                checked += 1
        assert checked == 41_544 + 7_872  # bicyclic + unicyclic classes

    def test_unicyclic_alpha_floor(self):
        # every connected one-cycle graph on even order has alpha >= n/2
        for n in (4, 6, 8, 10):
            for g in unicyclic_graphs(n):
                assert independence_number(g) >= n // 2


class TestRootedTrees:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 4), (5, 9), (6, 20), (7, 48)])
    def test_counts(self, n, count):
        assert len(rooted_tree_sequences(n)) == count

    def test_sequences_are_valid(self):
        for seq in rooted_tree_sequences(6):
            assert seq[0] == 0
            for a, b in zip(seq, seq[1:]):
                assert b <= a + 1


class TestAgainstNetworkxAtlas:
    def test_connected_graph_atlas_counts(self):
        # independent cross-check of class counts via the graph atlas
        from networkx.generators.atlas import graph_atlas_g

        atlas = graph_atlas_g()
        for n in range(1, 8):
            atlas_count = sum(
                1
                for G in atlas
                if G.number_of_nodes() == n and nx.is_connected(G)
            )
            assert sum(1 for _ in enumerate_connected(n)) == atlas_count
