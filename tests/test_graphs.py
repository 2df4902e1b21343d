"""Graph core: constructors, predicates, independence, canonical forms."""

import hashlib
import random

import networkx as nx
import numpy as np
import pytest

from spectramin.graphs import (
    Graph,
    InvalidInputError,
    InvalidParameterError,
    _canon,
    _mis,
    adjacency_matrices,
    automorphisms,
    build_bicyclic,
    build_complete,
    build_cycle,
    build_join_extremal,
    canonical_form,
    canonical_labeling,
    cut_edges,
    cycles_mutually_disjoint,
    double_fork_tree,
    independence_number,
    internal_paths,
    is_connected,
    predicted_independence,
    spec_B,
    spec_C,
    spec_P,
)

# rows and VertexLabeling of build_bicyclic over the lemma grids, every
# two-cycle core up to order 16, and the unit-length corners P(1,p,q), B(m,1,q)
BICYCLIC_SHA256 = "949e79dd1c98b7502e547e81f75f5ff5d1e094fa1847c7dd397a12bb0159dd50"


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def random_graph(rng, n, p=0.4) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


class TestGraphType:
    def test_symmetry_and_counts(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.edge_count == 3
        assert g.neighbors(1) == (0, 2)
        assert g.degrees() == (1, 2, 2, 1)

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameterError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            Graph(3, [(0, 3)])

    def test_edit_operations(self):
        g = build_cycle(4)
        assert g.with_edge(0, 2).edge_count == 5
        assert g.without_edge(0, 1).edge_count == 3
        assert g.with_vertex([0, 2]).n == 5
        h = g.without_vertex(0)
        assert h.n == 3 and h.edge_count == 2

    def test_relabel_preserves_structure(self):
        g = build_cycle(5)
        h = g.relabel([2, 3, 4, 0, 1])
        assert sorted(h.degrees()) == sorted(g.degrees())
        assert canonical_form(g) == canonical_form(h)

    def test_subgraph_and_relabel_reject_bad_vertices(self):
        # unchecked, vertex -1 indexes rows from the end, a repeated image
        # makes a self-loop and a short perm raises a bare IndexError
        g = build_cycle(5)
        with pytest.raises(InvalidParameterError):
            g.subgraph([-1, 0])
        with pytest.raises(InvalidParameterError):
            g.subgraph([0, 5])
        for perm in ([0, 0, 1, 2, 3], [0, 1], [1, 2, 3, 4, 5]):
            with pytest.raises(InvalidParameterError):
                g.relabel(perm)


class TestAdjacencyMatrices:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65, 200])
    def test_entries_are_the_edge_set(self, n):
        # orders on both sides of the byte and int64 row boundaries
        rng = random.Random(n)
        graphs = [random_graph(rng, n, p) for p in (0.0, 0.3, 0.7, 1.0)]
        stacked = adjacency_matrices(graphs)
        assert stacked.shape == (len(graphs), n, n) and stacked.dtype == np.float64
        for g, batched in zip(graphs, stacked):
            want = np.zeros((n, n))
            for u, v in g.edges():
                want[u, v] = want[v, u] = 1.0
            assert np.array_equal(batched, want)
            assert np.array_equal(g.adjacency_matrix(), want)

    def test_one_order_only(self):
        with pytest.raises(InvalidParameterError):
            adjacency_matrices([build_cycle(3), build_cycle(4)])


class TestConstructors:
    def test_cycle(self):
        g = build_cycle(3)
        assert g.edge_count == 3
        assert build_cycle(4).edge_count == 4
        with pytest.raises(InvalidParameterError):
            build_cycle(2)

    def test_cycle_independence(self):
        assert independence_number(build_cycle(7)) == 3
        assert independence_number(build_cycle(4)) == 2

    def test_join_extremal(self):
        assert canonical_form(build_join_extremal(4, 1)) == canonical_form(build_complete(4))
        assert build_join_extremal(5, 2).edge_count == 9
        assert canonical_form(build_join_extremal(3, 1)) == canonical_form(build_complete(3))
        with pytest.raises(InvalidParameterError):
            build_join_extremal(4, 4)

    def test_double_fork(self):
        g = double_fork_tree(6)
        assert sorted(g.degrees()) == [1, 1, 1, 1, 3, 3]
        g7 = double_fork_tree(7)
        assert sorted(g7.degrees()) == [1, 1, 1, 1, 2, 3, 3]
        for n in range(6, 15):
            degs = sorted(double_fork_tree(n).degrees())
            assert degs == [1, 1, 1, 1] + [2] * (n - 6) + [3, 3]
        with pytest.raises(InvalidParameterError):
            double_fork_tree(5)


class TestBicyclicFamilies:
    def test_b313(self):
        g, lab = build_bicyclic(spec_B(3, 1, 3))
        assert g.n == 6 and g.edge_count == 7
        deg3 = [v for v in range(6) if g.degree(v) == 3]
        assert len(deg3) == 2 and g.has_edge(*deg3)

    def test_c33(self):
        g, _ = build_bicyclic(spec_C(3, 3))
        assert g.n == 5 and g.edge_count == 6
        assert sorted(g.degrees()) == [2, 2, 2, 2, 4]

    def test_p222(self):
        g, _ = build_bicyclic(spec_P(2, 2, 2))
        assert g.n == 5 and g.edge_count == 6
        # three length-2 paths between two hubs: the complete bipartite K_{2,3}
        assert canonical_form(g) == canonical_form(
            Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        )

    @pytest.mark.parametrize("m,p,q", [(3, 1, 3), (4, 2, 5), (3, 9, 9), (9, 1, 3)])
    def test_b_shape(self, m, p, q):
        g, lab = build_bicyclic(spec_B(m, p, q))
        assert g.n == m + p + q - 1
        assert g.edge_count == g.n + 1
        assert sorted(g.degrees()) == [2] * (g.n - 2) + [3, 3]
        assert sorted(lab.all_vertices()) == list(range(g.n))

    @pytest.mark.parametrize("m,p,q", [(2, 2, 2), (1, 2, 2), (3, 3, 3), (2, 5, 9)])
    def test_p_shape(self, m, p, q):
        g, lab = build_bicyclic(spec_P(m, p, q))
        assert g.n == m + p + q - 1
        assert g.edge_count == g.n + 1
        assert sorted(g.degrees()) == [2] * (g.n - 2) + [3, 3]

    @pytest.mark.parametrize("m,q", [(3, 3), (3, 7), (5, 9)])
    def test_c_shape(self, m, q):
        g, _ = build_bicyclic(spec_C(m, q))
        assert g.n == m + q - 1
        assert g.edge_count == g.n + 1
        assert sorted(g.degrees()) == [2] * (g.n - 1) + [4]

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            spec_B(2, 1, 3)
        with pytest.raises(InvalidParameterError):
            spec_B(3, 0, 3)
        with pytest.raises(InvalidParameterError):
            spec_C(3, 2)
        with pytest.raises(InvalidParameterError):
            spec_P(1, 1, 3)

    def test_labeling_walks_are_paths(self):
        g, lab = build_bicyclic(spec_B(5, 3, 4))
        walk = (lab.hub_a,) + lab.seg_m + (lab.hub_a,)
        for a, b in zip(walk, walk[1:]):
            assert g.has_edge(a, b)
        path = (lab.hub_a,) + lab.seg_p + (lab.hub_b,)
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
        walk = (lab.hub_b,) + lab.seg_q + (lab.hub_b,)
        for a, b in zip(walk, walk[1:]):
            assert g.has_edge(a, b)

    def test_rows_and_labeling_pinned(self):
        # analytic.perron_closed_form and the symmetric-class tables read
        # vertices by this indexing, so it must not move
        from spectramin.enumeration import _core_specs_bicyclic
        from spectramin.verify import _grid_specs

        specs = _grid_specs(9) + _core_specs_bicyclic(16)
        specs += [spec_P(1, p, q) for p in range(2, 8) for q in range(p, 10)]
        specs += [spec_B(m, 1, q) for m in range(3, 8) for q in range(3, 9)]
        digest = hashlib.sha256()
        for s in specs:
            g, lab = build_bicyclic(s)
            row = (s.family, s.m, s.p, s.q, g.n, g.rows,
                   lab.hub_a, lab.hub_b, lab.seg_m, lab.seg_p, lab.seg_q)
            digest.update(repr(row).encode() + b"\n")
        assert len(specs) == 1592
        assert digest.hexdigest() == BICYCLIC_SHA256


class TestPredictedIndependence:
    def test_examples(self):
        assert predicted_independence(spec_B(3, 1, 3)) == 2
        assert predicted_independence(spec_P(4, 4, 4)) == 6
        assert predicted_independence(spec_C(3, 4)) == 3
        assert predicted_independence(spec_B(3, 3, 3)) == 3

    def test_full_grid_against_search(self):
        # every family member with parameters <= 7 in the unit suite;
        # the acceptance suite stretches this to 9
        for m in range(3, 8):
            for q in range(3, 8):
                spec = spec_C(m, q)
                assert independence_number(build_bicyclic(spec)[0]) == (
                    predicted_independence(spec)
                ), spec
                for p in range(1, 8):
                    spec = spec_B(m, p, q)
                    assert independence_number(build_bicyclic(spec)[0]) == (
                        predicted_independence(spec)
                    ), spec
        for m in range(1, 8):
            for p in range(1, 8):
                for q in range(1, 8):
                    if (m, p, q).count(1) > 1:
                        continue
                    spec = spec_P(m, p, q)
                    assert independence_number(build_bicyclic(spec)[0]) == (
                        predicted_independence(spec)
                    ), spec


class TestIndependenceNumber:
    def test_small_known(self):
        assert independence_number(build_complete(4)) == 1
        assert independence_number(build_cycle(7)) == 3
        assert independence_number(build_bicyclic(spec_B(3, 3, 3))[0]) == 3
        assert independence_number(Graph(1)) == 1

    def test_against_networkx_complement_clique(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(2, 10)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            expected = max(len(c) for c in nx.find_cliques(nx.complement(to_nx(g))))
            assert independence_number(g) == expected

    def test_mis_on_masks_against_networkx(self):
        # fresh memo per mask, and one memo shared by every mask of a graph
        # as the forest composition law shares it per core
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.8]))
            shared: dict[int, int] = {}
            for _ in range(8):
                mask = rng.getrandbits(n)
                h = to_nx(g).subgraph(v for v in range(n) if mask >> v & 1)
                want = max(len(c) for c in nx.find_cliques(nx.complement(h))) if mask else 0
                assert _mis(g.rows, mask, {}) == want
                assert _mis(g.rows, mask, shared) == want

    @pytest.mark.parametrize("k", [1, 4, 12])
    def test_disjoint_petersens_split_into_components(self, k):
        # without the component split the memo grows with the product of
        # the copies' branch trees; with it, 5k + 1 masks
        h = nx.disjoint_union_all([nx.petersen_graph()] * k)
        g = Graph(10 * k, list(h.edges()))
        memo: dict[int, int] = {}
        assert _mis(g.rows, (1 << g.n) - 1, memo) == 4 * k
        assert len(memo) <= 6 * k

    def test_long_path_and_cycle_need_no_recursion(self):
        # the leaf rule runs as a loop and a cycle is closed form
        assert independence_number(Graph(3000, [(i, i + 1) for i in range(2999)])) == 1500
        assert independence_number(build_cycle(2000)) == 1000

    def test_trees_floor(self):
        # every tree on n <= 10 vertices has independence number >= ceil(n/2)
        for n in range(2, 11):
            for T in nx.nonisomorphic_trees(n):
                g = Graph(n, list(T.edges()))
                assert independence_number(g) >= (n + 1) // 2


class TestConnectivityAndPaths:
    def test_connected(self):
        assert is_connected(build_complete(4))
        assert is_connected(Graph(1))
        assert not is_connected(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]))

    def test_cut_edges(self):
        assert cut_edges(build_cycle(5)) == []
        b333, _ = build_bicyclic(spec_B(3, 3, 3))
        assert len(cut_edges(b333)) == 3
        tree = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert len(cut_edges(tree)) == 4
        with pytest.raises(InvalidInputError):
            cut_edges(Graph(3, [(0, 1)]))

    def test_cut_edges_match_networkx(self):
        from spectramin.enumeration import enumerate_connected

        rng = random.Random(5)
        graphs = [random_graph(rng, rng.randint(2, 10), 0.35) for _ in range(100)]
        graphs += [g for n in range(1, 8) for g in enumerate_connected(n)]
        for g in graphs:
            if not is_connected(g):
                continue
            assert cut_edges(g) == sorted(
                (min(e), max(e)) for e in nx.bridges(to_nx(g))
            )

    def test_internal_paths_families(self):
        b323, _ = build_bicyclic(spec_B(3, 2, 3))
        paths = internal_paths(b323)
        # the open hub-to-hub path (2 edges, 3 vertices) plus two closed cycles
        assert any(len(p) == 3 and p[0] != p[-1] for p in paths)
        assert internal_paths(build_cycle(9)) == []
        c33, _ = build_bicyclic(spec_C(3, 3))
        closed = [p for p in internal_paths(c33) if p[0] == p[-1]]
        assert len(closed) == 2

    def test_internal_path_degenerate_pair(self):
        b313, _ = build_bicyclic(spec_B(3, 1, 3))
        assert any(len(p) == 2 for p in internal_paths(b313))

    def test_pendant_not_internal(self):
        g = build_cycle(4).with_vertex([0]).with_vertex([0])
        # vertex 0 has degree 4; walks toward the leaves end at degree 1
        for p in internal_paths(g):
            assert g.degree(p[0]) >= 3 and g.degree(p[-1]) >= 3


class TestCyclesMutuallyDisjoint:
    def test_families(self):
        assert cycles_mutually_disjoint(build_bicyclic(spec_B(3, 5, 3))[0])
        assert cycles_mutually_disjoint(build_bicyclic(spec_B(3, 1, 3))[0])
        assert not cycles_mutually_disjoint(build_bicyclic(spec_C(3, 3))[0])
        assert not cycles_mutually_disjoint(build_bicyclic(spec_P(2, 2, 2))[0])
        assert cycles_mutually_disjoint(build_cycle(6))

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidInputError, match="cycles_mutually_disjoint requires"):
            cycles_mutually_disjoint(Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))

    @staticmethod
    def _cycle_oracle(g: Graph) -> bool:
        # enumerate simple cycles; stop at the first vertex on two of them
        seen = {}
        for i, cyc in enumerate(nx.simple_cycles(to_nx(g))):
            for v in cyc:
                if seen.setdefault(v, i) != i:
                    return False
        return True

    def test_against_cycle_enumeration_oracle(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(400):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, 0.3)
            if not is_connected(g):
                continue
            checked += 1
            assert cycles_mutually_disjoint(g) == self._cycle_oracle(g), g.edges()
        assert checked > 100

    def test_oracle_sweep_all_connected_up_to_7(self):
        from spectramin.enumeration import enumerate_connected

        for n in range(3, 8):
            for g in enumerate_connected(n):
                assert cycles_mutually_disjoint(g) == self._cycle_oracle(g), g.edges()


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        rng = random.Random(42)
        for _ in range(1000):
            n = rng.randint(2, 10)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(g.relabel(perm))

    def test_agrees_with_vf2(self):
        rng = random.Random(99)
        non_iso = 0
        for _ in range(1000):
            n = rng.randint(3, 8)
            g1 = random_graph(rng, n, 0.4)
            g2 = random_graph(rng, n, 0.4)
            same = canonical_form(g1) == canonical_form(g2)
            iso = nx.is_isomorphic(to_nx(g1), to_nx(g2))
            assert same == iso
            non_iso += not iso
        assert non_iso > 500

    def test_family_forms(self):
        assert canonical_form(build_cycle(5)) == canonical_form(
            build_cycle(5).relabel([3, 0, 2, 4, 1])
        )
        assert canonical_form(build_complete(4)) != canonical_form(build_cycle(4))
        b313 = build_bicyclic(spec_B(3, 1, 3))[0]
        p313 = build_bicyclic(spec_P(3, 1, 3))[0]
        assert canonical_form(b313) != canonical_form(p313)

    def test_more_than_512_vertices(self):
        # a fan: apex 0 joined to every vertex of a 520-vertex path.  The apex
        # is placed last, adjacent to all 520 vertices placed before it, so its
        # row at that position is wider than 512 bits
        n = 521
        g = Graph(n, [(0, v) for v in range(1, n)] + [(v, v + 1) for v in range(1, n - 1)])
        perm = canonical_labeling(g)
        assert sorted(perm) == list(range(n))
        assert perm[-1] == 0
        shuffled = list(range(n))
        random.Random(521).shuffle(shuffled)
        assert canonical_form(g.relabel(shuffled)) == canonical_form(g)

    def test_labeling_achieves_form(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            perm = canonical_labeling(g)
            inv = [0] * g.n
            for i, v in enumerate(perm):
                inv[v] = i
            assert canonical_form(g.relabel(inv)) == canonical_form(g)


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "build,count",
        [
            (lambda: build_cycle(6), 12),
            (lambda: build_cycle(5), 10),
            (lambda: build_complete(4), 24),
            (lambda: build_bicyclic(spec_B(3, 1, 3))[0], 8),
            (lambda: build_bicyclic(spec_B(3, 2, 5))[0], 4),
            (lambda: build_bicyclic(spec_C(3, 3))[0], 8),
            (lambda: build_bicyclic(spec_P(2, 2, 2))[0], 12),
            (lambda: double_fork_tree(8), 8),
        ],
    )
    def test_group_orders(self, build, count):
        assert len(automorphisms(build())) == count

    def test_all_are_automorphisms(self):
        g = build_bicyclic(spec_B(4, 2, 4))[0]
        for sigma in automorphisms(g):
            assert g.relabel(list(sigma)) == g

    def test_generators_against_atlas(self):
        # every graph on at most 7 vertices: the generators are automorphisms,
        # their closure is the whole group, and the orbits are the group's
        for G in nx.graph_atlas_g()[1:]:
            g = Graph(G.number_of_nodes(), G.edges())
            _, orbits, gens = _canon(g.n, g.rows)
            assert all(g.relabel(list(sigma)) == g for sigma in gens), g.edges()
            isos = list(nx.algorithms.isomorphism.GraphMatcher(G, G).isomorphisms_iter())
            assert len(automorphisms(g)) == len(isos), g.edges()
            assert orbits == tuple(min(iso[v] for iso in isos) for v in range(g.n)), g.edges()

    def test_orbits_merge_across_components(self):
        # two disjoint edges: one orbit {0, 2, 3, 4} around the isolated vertex 1
        _, orbits, _ = _canon(5, Graph(5, [(0, 2), (3, 4)]).rows)
        assert orbits == (0, 1, 0, 0, 0)
