"""Generators: orderly augmentation, structural one/two-cycle classes, trees."""

import hashlib
import itertools
import random

import networkx as nx
import numpy as np
import pytest

from spectramin import enumeration
from spectramin.enumeration import (
    _ROOT,
    _alpha_tables,
    _bicyclic_blocks,
    _class_alphas,
    _core_specs_bicyclic,
    _forest_blocks,
    _individualized,
    _last_cell_in_orbit,
    _leaf_block,
    _leaf_blocks,
    _level,
    _maps_k_onto,
    _matching_maps,
    _tree_catalog,
    _tree_rows,
    _trees_of_size,
    _walk,
    bicyclic_graphs,
    branch_states,
    enumerate_all_graphs,
    enumerate_connected,
    enumerate_connected_from_branch,
    enumerate_with_edge_count,
    rooted_tree_sequences,
    unicyclic_graphs,
)
from spectramin.verify import minimizer
from spectramin.graphs import (
    Graph,
    InvalidParameterError,
    _bits,
    _canon,
    _mis,
    _permute_mask,
    _refined_colors,
    _refined_colors_batch,
    automorphisms,
    build_bicyclic,
    build_cycle,
    canonical_form,
    double_fork_tree,
    independence_number,
    is_connected,
    spec_B,
    spec_C,
    spec_P,
)

ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
BRANCH_ROWS_SHA256 = "e94338128edbbc91a05b1d1763fe9b5a9adea3fe162346b23bcf6610e8d3caf6"
# SHA-256 of repr of every generation state (rows, generators, edge count)
# in walk order, computed when every least subset was searched: rejecting
# children before the search must not change a state
WALK7_SHA256 = "d99c6dff3561e0b2cd882310ab6fabda4746aa2d1d96566ebe2ad92f317fe01e"
WALK8_SHA256 = "fec40eacca7d12838fdb2359e6bb715ef977ab257c6e5bdb45e5d8fca277e1bc"
WALK8_CANON_CALLS = 13_624  # 85,022 when every least subset was searched
# the same walk when leaves need no generators and a leaf whose last cell
# an explicit automorphism puts in the new vertex's orbit needs no search
# (3,992 with only a last cell of one vertex accepted unsearched)
WALK8_BARE_CANON_CALLS = 1_298
# SHA-256 of repr of minimizer(n, alpha) for n = 1..6 and alpha None, 1..n
SMALL_MINIMIZERS_SHA256 = "17817a5e9b1032895e41d693c1e83c14a8f8931a62abe415515e1f5cc51fb9e8"
# SHA-256 of repr of each general edge-count class's rows for n <= 7
EDGE_MODE_ROWS_SHA256 = "27143003bd4a472a82df4ffd04b1d42ad11e37f0a7554a5c80f18c766f88c360"
# SHA-256 of repr of each order's list of labelled rows, in stream order
BICYCLIC_ROWS_4_10_SHA256 = "ef294d10858030d790a3bb2e71294432db9a223eed769b3115640db140959d4a"
UNICYCLIC_ROWS_3_10_SHA256 = "2806b64dde3b15a23fcd2809339a4dd44bfd24dd027ba68853df59b194289133"
# rooted trees on 1, 2, 3, ... nodes (OEIS A000081)
ROOTED_TREE_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766)


def _attach_forest(core_rows, assignment):
    """Core rows plus one rooted tree hung from each core vertex: the root
    is the core vertex and the other nodes are appended in tree order.  The
    oracle of the matrix scatter ``ClassBlock.fill`` builds graphs by."""
    rows = list(core_rows)
    for root, tree in enumerate(assignment):
        if len(tree) == 1:
            continue
        shift = len(rows) - 1  # tree node i >= 1 becomes vertex shift + i
        tree_rows = _tree_rows(tree)
        rows[root] |= tree_rows[0] << shift
        rows.extend((r & ~1) << shift | (r & 1) << root for r in tree_rows[1:])
    return tuple(rows)


def _classes(blocks):
    """The classes of a ``ClassBlock`` stream one at a time, as (core rows,
    forest assignment, alpha): each rank row read as its trees, with alpha
    by ``_class_alphas``.  Returns what the block stream returns."""
    while True:
        try:
            block = next(blocks)
        except StopIteration as stop:
            return stop.value
        _, _, _, trees, a_out, gain = _tree_catalog(block.n - block.core.n + 1)
        rows = block.core.rows
        alphas = _class_alphas(rows, block.ranks, a_out, gain, {})
        for assignment, alpha in zip(trees[block.ranks].tolist(), alphas.tolist()):
            yield rows, tuple(assignment), alpha


def _leaf_only_forest_assignments(core, extra):
    """The forest stream with the whole lex-min orbit test at every leaf:
    the oracle of the prefix cut in ``_forest_blocks``."""
    c = core.n
    rows = core.rows
    auts = automorphisms(core)[1:]  # sorted: the identity comes first
    trees = [_trees_of_size(s) for s in range(extra + 2)]
    memo = {}
    everyone = (1 << c) - 1
    current = [(0,)] * c

    def rec(v, budget, out_sum, w):
        if budget == 0:
            t = tuple(current)
            for a in auts:
                if tuple(map(current.__getitem__, a)) < t:
                    return
            yield rows, t, out_sum + _mis(rows, w | everyone >> v << v, memo)
            return
        sizes = (budget + 1,) if v == c - 1 else range(1, budget + 2)
        for size in sizes:
            for tree, a_out, gain in trees[size]:
                current[v] = tree
                yield from rec(v + 1, budget - (size - 1), out_sum + a_out, w | gain << v)
        current[v] = (0,)

    yield from rec(0, extra, 0, 0)


def _drain(classes):
    """(returned class count, yielded classes) of a forest class generator."""
    kept = []
    while True:
        try:
            kept.append(next(classes))
        except StopIteration as stop:
            return stop.value, kept


def _tree_alpha(tree):
    """(a_out, gain) of the rooted tree with level sequence ``tree``, by a
    tree DP over (root taken, root left out): the oracle of the table that
    ``_trees_of_size`` fills with ``_mis``."""
    parent = [0] * len(tree)
    path = []
    for i, level in enumerate(tree):
        del path[level:]
        if path:
            parent[i] = path[-1]
        path.append(i)
    take = [1] * len(tree)
    skip = [0] * len(tree)
    for i in range(len(tree) - 1, 0, -1):
        p = parent[i]
        take[p] += skip[i]
        skip[p] += max(take[i], skip[i])
    return skip[0], int(take[0] > skip[0])


def _burnside_counts(core, top):
    """Forest classes on ``core`` with 0..``top`` extra nodes, by Burnside's
    lemma: (1/|G|) sum_g fix(g).

    G comes from networkx's matcher.  fix(g) counts the assignments that are
    constant on the cycles of the permutation g: a cycle of length L whose
    vertices all carry one tree on s nodes uses L(s - 1) extra nodes, in
    ROOTED_TREE_COUNTS[s - 1] ways, and a DP over the cycles adds that up.
    """
    h = nx.Graph(core.edges())
    group = list(nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
    totals = [0] * (top + 1)
    for g in group:
        ways = [1] + [0] * top  # ways[e]: fixed assignments so far using e nodes
        seen = set()
        for v in range(core.n):
            length = 0
            while v not in seen:
                seen.add(v)
                v = g[v]
                length += 1
            if not length:
                continue
            grown = [0] * (top + 1)
            for e, count in enumerate(ways):
                for s in range(1, (top - e) // length + 2):
                    grown[e + length * (s - 1)] += count * ROOTED_TREE_COUNTS[s - 1]
            ways = grown
        totals = [t + w for t, w in zip(totals, ways)]
    assert all(t % len(group) == 0 for t in totals)
    return [t // len(group) for t in totals]


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

    def test_no_duplicates_at_8(self):
        # acceptance is by orbit alone, with no seen-set behind it
        forms = [canonical_form(g) for g in enumerate_all_graphs(8)]
        assert len(forms) == len(set(forms)) == ALL_COUNTS[8]

    def test_cap(self):
        with pytest.raises(InvalidParameterError):
            next(enumerate_connected(10))
        with pytest.raises(InvalidParameterError):
            next(enumerate_connected(11, extended=True))

    @pytest.mark.parametrize("extended", [False, True])
    def test_refusal_names_the_accepted_range(self, extended):
        cap = 10 if extended else 9
        for n in (0, -1, cap + 1):
            with pytest.raises(InvalidParameterError,
                               match=fr"supports 1 <= n <= {cap} \(extended={extended}\), got {n}$"):
                next(enumerate_connected(n, extended))

    def test_extended_path_streams(self):
        # the full n=10 stream (11,716,571 graphs) takes well under a
        # minute on two workers; check the extended mode streams valid,
        # distinct 10-vertex graphs without exhausting it
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
        # a checkpoint names its resume point by unit index alone, so the
        # rows of the level-5 units and their order are pinned
        rows = repr([rows for rows, _, _ in states]).encode()
        assert hashlib.sha256(rows).hexdigest() == BRANCH_ROWS_SHA256
        forms = []
        for st in states:
            forms.extend(canonical_form(g) for block in enumerate_connected_from_branch(7, st)
                         for g in block.graphs())
        assert len(forms) == CONNECTED_COUNTS[7]
        assert len(set(forms)) == CONNECTED_COUNTS[7]


def _accepted_children(k, rows, gens, edge_count, max_edges):
    """Children of a parent on ``k`` vertices, one per isomorphism class:
    the scalar reference of the batched child tests of ``_children``.

    A child is the parent plus vertex ``k`` joined to a neighbor subset
    ``S``.  One ascending pass marks each subset's orbit under ``gens``, the
    parent's group generators, so only the least ``S`` of an orbit is tried.
    The child is accepted exactly when vertex ``k`` lies in the orbit of the
    vertex at its last canonical position (McKay's canonical augmentation).
    The degree test and the refinement test reject a child before its
    ``_canon`` search, and every child that passes both is searched.
    """
    bit_k = 1 << k
    degrees = [r.bit_count() for r in rows]
    top = max(degrees)
    top_mask = sum(1 << i for i, d in enumerate(degrees) if d == top)
    marked = bytearray(bit_k)
    for S in range(bit_k):
        add = S.bit_count()
        if marked[S] or max_edges is not None and edge_count + add > max_edges:
            continue
        if top + (1 if S & top_mask else 0) > add:
            continue  # degree test
        orbit = [S]
        for T in orbit:
            for g in gens:
                U = _permute_mask(g, T)
                if not marked[U]:
                    marked[U] = 1
                    orbit.append(U)
        child = tuple(r | bit_k if S >> i & 1 else r for i, r in enumerate(rows)) + (S,)
        colors = _refined_colors(k + 1, child)
        if colors[k] != max(colors):
            continue  # refinement test
        perm, orbits, child_gens = _canon(k + 1, child, colors)
        if orbits[k] == orbits[perm[k]]:
            yield child, child_gens, edge_count + add


def _oracle_walk(n, state, max_edges=None):
    """The states on ``n`` vertices below ``state``, by a depth-first
    recursion over ``_accepted_children``: a child is cut when even joining
    each later vertex up to the ``n``-th to all before it cannot reach
    ``max_edges`` (the exact-count floor)."""
    rows, gens, edge_count = state
    k = len(rows)
    if k == n:
        yield state
        return
    floor = 0 if max_edges is None else max_edges - sum(range(k + 1, n))
    for child in _accepted_children(k, rows, gens, edge_count, max_edges):
        if child[2] >= floor:
            yield from _oracle_walk(n, child, max_edges)


def _walk_sha256(n):
    h = hashlib.sha256()
    for state in _walk(n, _ROOT):
        h.update(repr(state).encode())
    return h.hexdigest()


def _leaf_rows(n, state, max_edges=None, connected=False):
    """The rows of every leaf of ``_leaf_blocks``, as tuples in stream order."""
    return [tuple(rows) for block in _leaf_blocks(n, state, max_edges, connected)
            for rows in block.rows.tolist()]


def _oracle_refined_colors(n, rows, start=None):
    """Refinement with explicit (color, sorted neighbor colors) keys, from
    the ranks of ``start`` or else of the degrees: the oracle of the integer
    keys of ``_refined_colors`` and ``_refined_colors_batch``."""
    nbrs = [_bits(rows[i]) for i in range(n)]
    keys = [len(nb) for nb in nbrs] if start is None else list(start)
    uniq = sorted(set(keys))
    rank = {k: r for r, k in enumerate(uniq)}
    colors = [rank[k] for k in keys]
    nclasses = len(uniq)
    while nclasses < n:
        keys = [(colors[i], tuple(sorted(colors[j] for j in nbrs[i]))) for i in range(n)]
        uniq = sorted(set(keys))
        if len(uniq) == nclasses:
            break
        rank = {k: r for r, k in enumerate(uniq)}
        colors = [rank[k] for k in keys]
        nclasses = len(uniq)
    return colors


def _compared_refinement(seen, checked):
    """A stand-in for ``_refined_colors_batch`` that records ``(n, start is
    None)`` per row it refines in ``seen`` and checks each row against the
    oracle and the scalar refinement, unless its (row, start) is already in
    the set ``checked``."""

    def compared(n, rows, start=None):
        colors, classes = _refined_colors_batch(n, rows, start)
        starts = [None] * len(rows) if start is None else map(tuple, start.tolist())
        for r, s, c, k in zip(rows.tolist(), starts, colors.tolist(), classes.tolist()):
            seen.append((n, s is None))
            if (tuple(r), s) in checked:
                continue
            checked.add((tuple(r), s))
            assert c == _oracle_refined_colors(n, r, s), (r, s)
            assert s is not None or c == _refined_colors(n, r), r
            assert k == len(set(c))
        return colors, classes

    return compared


@pytest.fixture(scope="module")
def checked_walks():
    """The walk to 8 and the leaf walks to n = 2..8 under
    ``_compared_refinement``, sharing one set so that a row the two repeat
    is checked once: (the walk's states, its ``seen``, the leaves per n,
    the leaf walks' ``seen``)."""
    checked, walk_seen, leaf_seen = set(), [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_refined_colors_batch", _compared_refinement(walk_seen, checked))
        states = sum(1 for _ in _walk(8, _ROOT))
        mp.setattr(enumeration, "_refined_colors_batch", _compared_refinement(leaf_seen, checked))
        leaves = {n: len(_leaf_rows(n, _ROOT)) for n in range(2, 9)}
    return states, walk_seen, leaves, leaf_seen


class TestRefinedColors:
    """The integer-key refinement gives exactly the oracle's colors."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_graph_up_to_seven(self, n):
        for g in enumerate_all_graphs(n):
            assert _refined_colors(n, g.rows) == _oracle_refined_colors(n, g.rows), g

    def test_every_child_refined_in_the_walk_to_eight(self, checked_walks):
        # every level refines its candidate children as one batch
        states, seen, _, _ = checked_walks
        assert states == ALL_COUNTS[8]
        assert seen.count((8, True)) > 10_000

    def test_random_graphs(self):
        rng = random.Random(2121)
        for _ in range(2000):
            n = rng.randint(2, 40)
            p = rng.random()
            g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
            assert _refined_colors(n, g.rows) == _oracle_refined_colors(n, g.rows), g

    @pytest.mark.parametrize("build", [
        lambda: Graph(200, [(i, i + 1) for i in range(199)]),
        lambda: double_fork_tree(200),
        lambda: build_bicyclic(spec_B(3, 195, 3))[0],
    ])
    def test_long_sparse_graphs(self, build):
        # many rounds with many classes: the keys are integers of hundreds of digits
        g = build()
        assert g.n == 200
        assert _refined_colors(g.n, g.rows) == _oracle_refined_colors(g.n, g.rows)


class TestPreSearchRejection:
    """The degree and refinement tests that reject a child before its search."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_rejects_only_what_the_orbit_test_rejects(self, k):
        for rows, _, _ in _walk(k, _ROOT):
            degrees = [r.bit_count() for r in rows]
            top = max(degrees)
            top_mask = sum(1 << i for i, d in enumerate(degrees) if d == top)
            for S in range(1 << k):
                child = tuple(r | 1 << k if S >> i & 1 else r for i, r in enumerate(rows))
                child += (S,)
                child_degrees = [r.bit_count() for r in child]
                old_top = max(child_degrees[:k])
                assert old_top == top + (1 if S & top_mask else 0)
                colors = _refined_colors(k + 1, child)
                last_cell = [v for v in range(k + 1) if colors[v] == max(colors)]
                assert all(child_degrees[v] == max(child_degrees) for v in last_cell)
                perm, orbits, _ = _canon(k + 1, child)
                assert perm[k] in last_cell
                accepted = orbits[k] == orbits[perm[k]]
                if old_top > S.bit_count() or colors[k] != max(colors):
                    assert not accepted, (rows, S)
                if last_cell == [k]:
                    # the leaf shortcut accepts these children with no search
                    assert perm[k] == k and accepted, (rows, S)

    def test_walk7_states_pinned(self):
        assert _walk_sha256(7) == WALK7_SHA256

    def test_walk8_states_and_search_count_pinned(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return _canon(*args)

        monkeypatch.setattr(enumeration, "_canon", counting)
        assert _walk_sha256(8) == WALK8_SHA256
        assert len(calls) == WALK8_CANON_CALLS

    def test_bare_leaves_walk8_same_leaves_and_search_count_pinned(self, monkeypatch):
        # the last level built in blocks, with no generators for the leaves
        full = [(rows, e) for rows, _, e in _walk(8, _ROOT)]
        calls = []

        def counting(*args):
            calls.append(args[0])
            return _canon(*args)

        monkeypatch.setattr(enumeration, "_canon", counting)
        bare = [(rows, sum(r.bit_count() for r in rows) // 2) for rows in _leaf_rows(8, _ROOT)]
        assert bare == full
        assert len(calls) == WALK8_BARE_CANON_CALLS
        assert calls.count(8) == 45  # 2,739 with no orbit certificate


def _canon_accepts(rows):
    """McKay's orbit test for the last vertex, decided by ``_canon``."""
    k = len(rows) - 1
    perm, orbits, _ = _canon(k + 1, rows)
    return orbits[k] == orbits[perm[k]]


def _is_automorphism(rows, sigma):
    """Scalar oracle of ``_maps_k_onto`` without its ``sigma(k)`` test."""
    n = len(rows)
    return sorted(sigma) == list(range(n)) and all(
        _permute_mask(sigma, rows[v]) == rows[sigma[v]] for v in range(n))


def _in_last_cell(rows, v):
    """``rows`` relabeled by the swap of ``v`` and the last vertex."""
    k = len(rows) - 1
    perm = list(range(k + 1))
    perm[v], perm[k] = k, v
    return Graph.from_rows(k + 1, rows).relabel(perm).rows


def _random_rows(rng, n):
    p = rng.random()
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]).rows


def _random_regular_rows(rng, n):
    d = rng.choice([d for d in range(n - 1) if n * d % 2 == 0])
    return Graph(n, nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30)).edges()).rows


VERTEX_TRANSITIVE = {
    "C_7": build_cycle(7),
    "K_3,3": Graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "cube": Graph(8, [(i, i ^ 1 << b) for i in range(8) for b in range(3) if i < i ^ 1 << b]),
    "Petersen": Graph(10, nx.petersen_graph().edges()),
}


class TestLeafCertificates:
    """The explicit automorphisms that accept a leaf with no search."""

    def test_every_certified_leaf_to_eight_is_accepted_by_canon(self, monkeypatch):
        certified = []

        def checked(rows, colors):
            proved = _last_cell_in_orbit(rows, colors)
            for r, c, p in zip(rows.tolist(), colors.tolist(), proved.tolist()):
                if p and c.count(c[-1]) > 1:
                    assert _canon_accepts(r), r
                    certified.append(len(r))
            return proved

        monkeypatch.setattr(enumeration, "_last_cell_in_orbit", checked)
        for n in range(2, 9):
            assert len(_leaf_rows(n, _ROOT)) == ALL_COUNTS[n]
        assert certified.count(8) == 2_694  # of 2,739 leaf searches

    @pytest.mark.parametrize("n", range(2, 11))
    def test_random_stacks_accept_as_canon(self, n):
        # the last vertex moved into the last cell, so each graph is a leaf
        # that passes the refinement test; a certificate may only accept
        # what _canon accepts, and whatever it leaves goes to _canon.  Half
        # the graphs are regular, where refinement splits nothing and
        # _canon rejects some
        rng = random.Random(2700 + n)
        stack = []
        for i in range(220):
            rows = _random_regular_rows(rng, n) if i % 2 else _random_rows(rng, n)
            colors = _refined_colors(n, rows)
            last = [v for v in range(n) if colors[v] == max(colors)]
            stack.append(_in_last_cell(rows, rng.choice(last)))
        rows = np.array(stack, np.int64)
        proved = _last_cell_in_orbit(rows, _refined_colors_batch(n, rows)[0]).tolist()
        canon = [_canon_accepts(r) for r in stack]
        assert [p or c for p, c in zip(proved, canon)] == canon
        assert sum(proved) > len(stack) // 2
        assert n < 7 or not all(canon)

    @pytest.mark.parametrize("name", VERTEX_TRANSITIVE)
    def test_vertex_transitive_graphs_certified(self, name):
        g = VERTEX_TRANSITIVE[name]
        rows = np.array([g.rows], np.int64)
        assert _canon_accepts(g.rows)
        assert _last_cell_in_orbit(rows, _refined_colors_batch(g.n, rows)[0]).tolist() == [True]

    @pytest.mark.parametrize("name", VERTEX_TRANSITIVE)
    def test_broken_maps_do_not_certify(self, name):
        g = VERTEX_TRANSITIVE[name]
        n, k = g.n, g.n - 1
        rows = np.array([g.rows] * k, np.int64)
        w = np.arange(k)
        sigma = _matching_maps(rows, _refined_colors_batch(n, rows)[0], w)
        assert _maps_k_onto(rows, sigma, w).all()
        broken = []
        for s in sigma.tolist():
            assert _is_automorphism(g.rows, s)
            for u, x in itertools.combinations(range(k), 2):
                t = s[:]
                t[u], t[x] = t[x], t[u]
                if not _is_automorphism(g.rows, t):  # an edge onto a non-edge
                    broken.append(t)
                    break
        assert len(broken) == k
        assert not _maps_k_onto(rows, np.array(broken), w).any()
        # automorphisms, asked for the wrong image of k
        assert not _maps_k_onto(rows, sigma, (w + 1) % k).any()
        assert not _maps_k_onto(rows, np.tile(np.arange(n), (k, 1)), w).any()

    def test_a_map_that_is_not_a_permutation_does_not_certify(self):
        # every row of an edgeless graph maps onto its image's row
        rows = np.zeros((1, 3), np.int64)
        assert not _maps_k_onto(rows, np.array([[0, 0, 0]]), np.array([0]))
        assert _maps_k_onto(rows, np.array([[2, 1, 0]]), np.array([0]))


class TestLeafBlocks:
    """The last level of a walk built in blocks, against the scalar walk and
    the scalar routines it replaces."""

    def test_batched_refinement_on_every_leaf_child_to_eight(self, checked_walks):
        # the leaf walks refine their children as batches, and the leaf
        # certificates refine from individualized starting colorings
        _, _, leaves, seen = checked_walks
        assert leaves == {n: ALL_COUNTS[n] for n in range(2, 9)}
        assert sum(1 for _, bare in seen if bare) > 18_000
        assert seen.count((8, False)) > 1_000

    @pytest.mark.parametrize("n", range(2, 11))
    def test_batched_refinement_on_random_stacks(self, n):
        rng = random.Random(3300 + n)
        graphs = []
        for _ in range(400):
            p = rng.random()
            graphs.append(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                    if rng.random() < p]).rows)
        graphs += [build_cycle(n).rows] if n > 2 else []
        colors, classes = _refined_colors_batch(n, np.array(graphs, np.int64))
        for rows, c, k in zip(graphs, colors.tolist(), classes.tolist()):
            assert c == _refined_colors(n, rows) == _oracle_refined_colors(n, rows), rows
            assert k == len(set(c))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_refinement_from_individualized_colorings(self, n):
        # the certificates' starting colorings: refined colors with one
        # vertex split off its cell
        rng = random.Random(3400 + n)
        graphs = [_random_rows(rng, n) for _ in range(400)]
        rows = np.array(graphs, np.int64)
        v = np.array([rng.randrange(n) for _ in graphs])
        start = _individualized(_refined_colors_batch(n, rows)[0], v)
        colors, classes = _refined_colors_batch(n, rows, start)
        for r, s, c, k in zip(graphs, start.tolist(), colors.tolist(), classes.tolist()):
            assert c == _oracle_refined_colors(n, r, s), (r, s)
            assert k == len(set(c))

    def test_refinement_keys_capped_at_fifteen(self):
        with pytest.raises(InvalidParameterError):
            _refined_colors_batch(16, np.zeros((1, 16), np.int64))

    def test_alpha_tables_equal_mis_on_every_mask(self):
        for n in range(1, 8):
            graphs = [g.rows for g in enumerate_all_graphs(n)]
            tables = _alpha_tables(np.array(graphs, np.int64))
            for rows, table in zip(graphs, tables.tolist()):
                memo = {}
                assert table == [_mis(rows, mask, memo) for mask in range(1 << n)], rows

    def test_connectivity_and_alpha_on_every_leaf_to_eight(self):
        for n in range(1, 9):
            every = [Graph.from_rows(n, rows) for rows in _leaf_rows(n, _ROOT)]
            blocks = list(_leaf_blocks(n, _ROOT))
            want = [g for g in every if is_connected(g)]
            assert [g for b in blocks for g in b.graphs()] == want
            assert len(want) == CONNECTED_COUNTS[n]
            alphas = [a for b in blocks for a in b.alpha.tolist()]
            assert alphas == [independence_number(g) for g in want]

    def test_three_branches_at_nine_equal_the_walk(self):
        states = branch_states()
        for state in (states[0], states[17], states[-1]):
            walk = [rows for rows, _, _ in _walk(9, state)]
            assert _leaf_rows(9, state) == walk
            connected = [rows for rows in walk if is_connected(Graph.from_rows(9, rows))]
            assert _leaf_rows(9, state, connected=True) == connected

    def test_branch_state_is_its_own_leaf_at_five(self):
        for state in branch_states():
            rows = state[0]
            g = Graph.from_rows(5, rows)
            blocks = list(enumerate_connected_from_branch(5, state))
            if is_connected(g):
                [block] = blocks
                assert block.rows.tolist() == [list(rows)]
                assert block.alpha.tolist() == [independence_number(g)]
            else:
                assert blocks == []

    def test_small_minimizers_pinned(self):
        # n = 1..4 walk from _ROOT, n = 5 scans each branch state as a leaf
        h = hashlib.sha256()
        for n in range(1, 7):
            for alpha in (None, *range(1, n + 1)):
                h.update(repr(minimizer(n, alpha)).encode())
        assert h.hexdigest() == SMALL_MINIMIZERS_SHA256

    def test_parents_without_generators(self):
        # every parent on 1..7 vertices, one group each, against its scalar
        # children: whole states from a level, rows from a leaf block;
        # asymmetric parents carry no generators
        bare = 0
        for k in range(1, 8):
            for parent in _walk(k, _ROOT):
                rows, gens, edges = parent
                want = list(_accepted_children(k, rows, gens, edges, None))
                assert list(_level(k + 1, [parent], None)) == want, rows
                block = _leaf_block(k + 1, [parent], None, False)
                assert [tuple(r) for r in block.rows.tolist()] == [c[0] for c in want], rows
                bare += gens == ()
        assert bare > 0

    def test_edge_bounded_walk_equals_the_scalar_walk(self):
        # the floor cuts candidates before their search; the states are the oracle's
        for m in range(22):
            assert list(_walk(7, _ROOT, m)) == list(_oracle_walk(7, _ROOT, m)), m
        assert list(_walk(7, _ROOT)) == list(_oracle_walk(7, _ROOT))

    @pytest.mark.parametrize("size", [1, 7, 100])
    def test_block_boundaries_between_parents(self, size, monkeypatch):
        want = _leaf_rows(7, _ROOT, connected=True)
        want_alpha = [a for b in _leaf_blocks(7, _ROOT) for a in b.alpha.tolist()]
        calls = []

        def counting(*args):
            calls.append(args[0])
            return _canon(*args)

        monkeypatch.setattr(enumeration, "_canon", counting)
        monkeypatch.setattr(enumeration, "_CHILD_BLOCK", size)
        blocks = list(_leaf_blocks(7, _ROOT))
        assert [tuple(r) for b in blocks for r in b.rows.tolist()] == want
        assert [a for b in blocks for a in b.alpha.tolist()] == want_alpha
        assert calls.count(7) == 4  # 358 with no orbit certificate
        if size == 1:  # one block per parent: each has a connected child (S = all)
            assert len(blocks) == ALL_COUNTS[6]

    def test_edge_count_mode_pinned(self):
        # every general edge-count class to n = 7: rows and order unchanged
        h = hashlib.sha256()
        total = 0
        for n in range(1, 8):
            for m in range(n * (n - 1) // 2 + 2):
                if m in (n, n + 1) and n >= 3:
                    continue
                rows = [g.rows for g in enumerate_with_edge_count(n, m)]
                total += len(rows)
                h.update(repr(rows).encode())
        assert (h.hexdigest(), total) == (EDGE_MODE_ROWS_SHA256, 850)


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

    @pytest.mark.parametrize("n, m", [(0, 0), (-1, -2), (0, 5)])
    def test_rejects_orders_below_one(self, n, m):
        with pytest.raises(InvalidParameterError):
            list(enumerate_with_edge_count(n, m))

    def test_single_vertex(self):
        assert [g.rows for g in enumerate_with_edge_count(1, 0)] == [(0,)]

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

    @pytest.mark.parametrize("generator, orders, pin", [
        (bicyclic_graphs, range(4, 11), BICYCLIC_ROWS_4_10_SHA256),
        (unicyclic_graphs, range(3, 11), UNICYCLIC_ROWS_3_10_SHA256),
    ])
    def test_labelled_rows_pinned(self, generator, orders, pin):
        # witness graph6 strings in the reports are these labellings
        h = hashlib.sha256()
        for n in orders:
            h.update(repr([g.rows for g in generator(n)]).encode())
        assert h.hexdigest() == pin

    @pytest.mark.parametrize("n", [11, 12])
    def test_rows_equal_attached_forests(self, n):
        # past the pinned orders: the public generators, and each block's
        # graph(i), give in stream order the rows that the test-side
        # _attach_forest builds for the same classes
        blocks = list(_bicyclic_blocks(n))
        want = [_attach_forest(rows, assignment) for rows, assignment, _ in _classes(iter(blocks))]
        assert [g.rows for g in bicyclic_graphs(n)] == want
        assert [b.graph(i).rows for b in blocks for i in range(len(b))] == want
        want = [_attach_forest(rows, assignment) for k in range(3, n + 1)
                for rows, assignment, _ in _classes(_forest_blocks(build_cycle(k), n - k))]
        assert [g.rows for g in unicyclic_graphs(n)] == want

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_structural_equals_orderly(self, n):
        structural = {canonical_form(g) for g in bicyclic_graphs(n)}
        orderly = set()
        for rows, _, e in _walk(n, _ROOT, n + 1):
            if e != n + 1:
                continue
            g = Graph.from_rows(n, rows)
            if is_connected(g):
                orderly.add(canonical_form(g))
        assert structural == orderly

    def test_streamed_alpha_matches_independence_number(self):
        # the composition law against the general solver, class by class
        bicyclic = [(n, _classes(_bicyclic_blocks(n))) for n in range(4, 13)]
        unicyclic = [
            (n, _classes(_forest_blocks(build_cycle(k), n - k)))
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

    def test_unicyclic_alpha_floor_to_14(self):
        # the same law over every class up to n = 14, by the streamed alpha
        # (checked against independence_number above up to n = 12)
        counts = {4: 2, 6: 13, 8: 89, 10: 657, 12: 5_026, 14: 39_260}
        for n, count in counts.items():
            alphas = [alpha for k in range(3, n + 1) for _, _, alpha in
                      _classes(_forest_blocks(build_cycle(k), n - k))]
            assert len(alphas) == count
            assert min(alphas) == n // 2


class TestForestPrefixCut:
    """The lex-min orbit test decided on the assigned prefix, against the
    whole test at every leaf and against an independent Burnside count."""

    @pytest.mark.parametrize("n", range(4, 13))
    def test_bicyclic_stream_equals_leaf_only_oracle(self, n):
        oracle = []
        for spec in _core_specs_bicyclic(n):
            core = build_bicyclic(spec)[0]
            oracle.extend(_leaf_only_forest_assignments(core, n - core.n))
        assert list(_classes(_bicyclic_blocks(n))) == oracle

    @pytest.mark.parametrize("k", range(3, 13))
    def test_unicyclic_stream_equals_leaf_only_oracle(self, k):
        core = build_cycle(k)
        for n in range(k, 13):
            oracle = list(_leaf_only_forest_assignments(core, n - k))
            assert list(_classes(_forest_blocks(core, n - k))) == oracle, n

    @pytest.mark.parametrize("n", range(4, 13))
    def test_alpha_filter_equals_oracle(self, n):
        # every core of order n and every alpha that occurs: the filtered
        # pass counts every class and keeps exactly the oracle's with that alpha
        cores = [build_bicyclic(spec)[0] for spec in _core_specs_bicyclic(n)]
        cores += [build_cycle(k) for k in range(3, n + 1)]
        for core in cores:
            stream = list(_leaf_only_forest_assignments(core, n - core.n))
            for alpha in sorted({cls[2] for cls in stream}):
                got = _drain(_classes(_forest_blocks(core, n - core.n, alpha)))
                assert got == (len(stream), [cls for cls in stream if cls[2] == alpha]), (
                    core.rows, alpha)
            assert _drain(_classes(_forest_blocks(core, n - core.n))) == (len(stream), stream)

    @pytest.mark.parametrize("n, searched, kept", [
        (10, 2_678, 30), (12, 28_908, 171), (14, 300_748, 990)])
    def test_alpha_class_totals(self, n, searched, kept):
        # classes generated and classes in the theorem's alpha class
        count, classes = _drain(_classes(_bicyclic_blocks(n, alpha=n // 2 - 1)))
        assert (count, len(classes)) == (searched, kept)
        assert {cls[2] for cls in classes} == {n // 2 - 1}

    def test_burnside_counts_per_core(self):
        # every core up to n = 14, and the pinned totals at 10, 12 and 14
        bicyclic = {n: 0 for n in range(4, 15)}
        unicyclic = {n: 0 for n in range(3, 15)}
        cores = [(bicyclic, build_bicyclic(spec)[0]) for spec in _core_specs_bicyclic(14)]
        cores += [(unicyclic, build_cycle(k)) for k in range(3, 15)]
        for totals, core in cores:
            expected = _burnside_counts(core, 14 - core.n)
            for extra, burnside in enumerate(expected):
                count = sum(map(len, _forest_blocks(core, extra)))
                assert count == burnside, (core.rows, extra)
                totals[core.n + extra] += count
        assert (bicyclic[10], bicyclic[12], bicyclic[14]) == (2_678, 28_908, 300_748)
        assert (unicyclic[10], unicyclic[12], unicyclic[14]) == (657, 5_026, 39_260)


class TestRootedTrees:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 4), (5, 9), (6, 20), (7, 48)])
    def test_counts(self, n, count):
        assert len(rooted_tree_sequences(n)) == count

    def test_sequences_are_valid(self):
        for seq in rooted_tree_sequences(6):
            assert seq[0] == 0
            for a, b in zip(seq, seq[1:]):
                assert b <= a + 1

    def test_tree_table_against_tree_dp(self):
        # every rooted tree up to 12 nodes (A000081: 7,813 shapes)
        for s, count in enumerate(ROOTED_TREE_COUNTS, start=1):
            table = _trees_of_size(s)
            assert len(table) == count
            for tree, a_out, gain in table:
                assert (a_out, gain) == _tree_alpha(tree), tree


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
