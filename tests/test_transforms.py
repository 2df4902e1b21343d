"""Radius-law rewrites: deletion, subdivision, relocation, shift, split, replay."""

import hashlib
import random

import pytest

from spectramin.enumeration import bicyclic_graphs, enumerate_connected
from spectramin.graphs import (
    Graph,
    InvalidInputError,
    InvalidParameterError,
    build_bicyclic,
    build_complete,
    build_cycle,
    canonical_form,
    cycles_mutually_disjoint,
    double_fork_tree,
    independence_number,
    internal_paths,
    is_connected,
    spec_B,
    spec_C,
    spec_P,
)
from spectramin import spectral, transforms
from spectramin.spectral import perron_pair, rho_numeric
from spectramin.transforms import (
    ExemptionError,
    delete_edge,
    find_minimal_bicyclic_core,
    proof_replay,
    relocate_vertex,
    serialize_trace,
    shift_neighbors,
    split_vertex,
    subdivide_internal,
)

# SHA-256 over every connected graph with 4..7 vertices and at least n + 1
# edges (917 graphs) of the minimal core (family, params, sorted vertices,
# sorted edges), and of the serialized replay of the 562 with alpha =
# ceil(n/2) - 1, computed before the replay's searches were merged into one
CORES7_SHA256 = "aa4d8b2687788fc1c54f26c22c6a32918d9097f3d07d6b069b7441f2f0b7826d"
REPLAYS7_SHA256 = "cfc740561a112e09544fc9d460b38c11aac79be12524399d236112170ba0093f"


def random_connected(rng, n, p=0.4) -> Graph:
    while True:
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        if is_connected(g):
            return g


class TestDeleteEdge:
    def test_k4(self):
        g = delete_edge(build_complete(4), (0, 1))
        assert rho_numeric(g) < 3 - 1e-9

    def test_cycle_to_path(self):
        g = delete_edge(build_cycle(8), (0, 1))
        assert rho_numeric(g) < 2 - 1e-9

    def test_missing_edge(self):
        with pytest.raises(InvalidParameterError):
            delete_edge(build_cycle(4), (0, 2))

    def test_random_sweep_strict_decrease(self):
        rng = random.Random(10)
        for _ in range(100):
            g = random_connected(rng, rng.randint(3, 8))
            u, v = rng.choice(g.edges())
            h = delete_edge(g, (u, v))
            if is_connected(h):
                assert rho_numeric(h) < rho_numeric(g) - 1e-12


class TestSubdivide:
    def test_b313_to_b323(self):
        b313, lab = build_bicyclic(spec_B(3, 1, 3))
        out = subdivide_internal(b313, (lab.hub_a, lab.hub_b))
        b323, _ = build_bicyclic(spec_B(3, 2, 3))
        assert canonical_form(out) == canonical_form(b323)
        assert rho_numeric(out) < rho_numeric(b313) - 1e-9

    def test_closed_path_c33_to_c43(self):
        c33, _ = build_bicyclic(spec_C(3, 3))
        out = subdivide_internal(c33, (0, 1))
        c43, _ = build_bicyclic(spec_C(3, 4))
        assert canonical_form(out) == canonical_form(c43)
        assert rho_numeric(out) < rho_numeric(c33) - 1e-9

    def test_double_fork_refused(self):
        g = double_fork_tree(8)
        e = next(
            (a, b)
            for p in internal_paths(g)
            for a, b in zip(p, p[1:])
        )
        with pytest.raises(ExemptionError):
            subdivide_internal(g, e)

    def test_non_internal_edge_rejected(self):
        g = build_cycle(5).with_vertex([0])
        with pytest.raises(InvalidParameterError):
            subdivide_internal(g, (5, 0))  # pendant edge

    def test_double_fork_radius_stays_two(self):
        # the exempt family: subdividing its spine leaves the radius at 2
        for n in range(6, 12):
            assert abs(rho_numeric(double_fork_tree(n)) - 2.0) < 1e-10


class TestRelocate:
    def test_pendant_into_path(self):
        b313, lab = build_bicyclic(spec_B(3, 1, 3))
        g = b313.with_vertex([1])
        out = relocate_vertex(g, 6, (lab.hub_a, lab.hub_b))
        b323, _ = build_bicyclic(spec_B(3, 2, 3))
        assert canonical_form(out) == canonical_form(b323)
        assert out.n == g.n
        assert rho_numeric(out) < rho_numeric(g) - 1e-9

    def test_disconnecting_removal_rejected(self):
        g = build_cycle(4).with_vertex([0]).with_vertex([4])
        with pytest.raises(InvalidParameterError):
            relocate_vertex(g, 4, (1, 2))  # vertex 4 carries vertex 5


class TestShiftNeighbors:
    def test_family_move_increases(self):
        g, lab = build_bicyclic(spec_B(5, 2, 5))
        x = perron_pair(g).perron
        u, v = lab.hub_b, lab.hub_a
        assert x[u] >= x[v] - 1e-12
        out = shift_neighbors(g, u, v, [1])
        assert rho_numeric(out) > rho_numeric(g) + 1e-9

    def test_star_absorption(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        x = perron_pair(g).perron
        assert x[0] >= x[3]
        out = shift_neighbors(g, 0, 3, [4])
        assert rho_numeric(out) > rho_numeric(g) + 1e-9

    def test_validation(self):
        g = build_cycle(5)
        with pytest.raises(InvalidParameterError):
            shift_neighbors(g, 0, 2, [])
        with pytest.raises(InvalidParameterError):
            shift_neighbors(g, 0, 2, [4])  # 4 already adjacent to 0

    def test_randomized_certified_preconditions(self):
        rng = random.Random(12)
        done = 0
        while done < 120:
            g = random_connected(rng, rng.randint(4, 9))
            x = perron_pair(g).perron
            u, v = rng.sample(range(g.n), 2)
            if x[u] < x[v] + 1e-9:
                continue
            pool = [w for w in g.neighbors(v) if w != u and not g.has_edge(u, w)]
            if not pool:
                continue
            subset = rng.sample(pool, rng.randint(1, len(pool)))
            out = shift_neighbors(g, u, v, subset)
            comps_rho = max(
                rho_numeric(out.subgraph(sorted_bits(c))) for c in _components(out)
            )
            assert comps_rho > rho_numeric(g) + 1e-12
            done += 1


def _components(g):
    from spectramin.graphs import connected_components

    return connected_components(g)


def sorted_bits(mask):
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


class TestSplitVertex:
    def _split_family(self, m, p, q):
        g, lab = build_bicyclic(spec_B(m, p, q))
        v = lab.hub_b
        nbrs = list(g.neighbors(v))
        path_nb = [w for w in nbrs if w in lab.seg_p or w == lab.hub_a][0]
        cyc = [w for w in nbrs if w != path_nb]
        return g, split_vertex(g, v, [path_nb, cyc[0]])

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_balanced_equality(self, k):
        g, out = self._split_family(k, k, k)
        target, _ = build_bicyclic(spec_B(k, k - 1, k + 2))
        assert canonical_form(out) == canonical_form(target)
        assert abs(rho_numeric(out) - rho_numeric(g)) < 1e-10

    def test_strict_case(self):
        g, out = self._split_family(5, 5, 3)
        target, _ = build_bicyclic(spec_B(5, 4, 5))
        assert canonical_form(out) == canonical_form(target)
        assert rho_numeric(out) < rho_numeric(g) - 1e-9

    def test_order_grows_by_one(self):
        g, out = self._split_family(4, 3, 3)
        assert out.n == g.n + 1

    def test_hypothesis_validation(self):
        g, lab = build_bicyclic(spec_B(4, 3, 3))
        v = lab.hub_b
        nbrs = list(g.neighbors(v))
        path_nb = [w for w in nbrs if w in lab.seg_p][0]
        cyc = [w for w in nbrs if w != path_nb]
        with pytest.raises(InvalidParameterError):
            split_vertex(g, v, cyc)  # first side misses the anchor
        with pytest.raises(InvalidParameterError):
            split_vertex(g, v, [path_nb])  # side too small
        with pytest.raises(InvalidParameterError):
            split_vertex(g, lab.seg_p[0], [lab.hub_a, lab.hub_b])  # degree 2

    def test_randomized_certified_preconditions(self):
        rng = random.Random(13)
        done = 0
        while done < 120:
            g = random_connected(rng, rng.randint(5, 9), 0.3)
            x = perron_pair(g).perron
            from spectramin.graphs import cut_edges

            bridges = cut_edges(g)
            cands = []
            for a, b in bridges:
                for v, w1 in ((a, b), (b, a)):
                    nv = list(g.neighbors(v))
                    if len(nv) >= 3 and all(x[w1] <= x[w] + 1e-9 for w in nv):
                        cands.append((v, w1))
            if not cands:
                continue
            v, w1 = rng.choice(cands)
            others = [w for w in g.neighbors(v) if w != w1]
            rng.shuffle(others)
            s = rng.randint(1, len(others) - 1)
            side = [w1] + others[:s]
            try:
                out = split_vertex(g, v, side)
            except InvalidParameterError:
                continue
            assert rho_numeric(out) <= rho_numeric(g) + 1e-10
            done += 1


class TestCoreFinding:
    def test_families_are_their_own_cores(self):
        fam, params, verts, edges = find_minimal_bicyclic_core(
            build_bicyclic(spec_B(3, 3, 5))[0]
        )
        assert fam == "B" and params == (3, 3, 5)
        fam, params, *_ = find_minimal_bicyclic_core(build_bicyclic(spec_C(3, 4))[0])
        assert fam == "C" and params == (3, 0, 4)
        fam, params, *_ = find_minimal_bicyclic_core(build_bicyclic(spec_P(2, 2, 2))[0])
        assert fam == "P" and params == (2, 2, 2)

    def test_dense_graph_diamond(self):
        fam, params, *_ = find_minimal_bicyclic_core(build_complete(5))
        assert fam == "P" and params == (1, 2, 2)

    def test_needs_enough_edges(self):
        with pytest.raises(InvalidInputError):
            find_minimal_bicyclic_core(build_cycle(5))


def _c_core_test_graph():
    """A 12-vertex graph with alpha 5 whose minimal core is a figure-eight."""
    base, _ = build_bicyclic(spec_C(3, 3))
    g = base
    while g.n < 12:
        g = g.with_vertex([g.n - 1])
    for u in range(12):
        for v in range(u + 1, 12):
            if g.has_edge(u, v):
                continue
            h = g.with_edge(u, v)
            if not is_connected(h) or independence_number(h) != 5:
                continue
            fam, *_ = find_minimal_bicyclic_core(h)
            if fam == "C" or not cycles_mutually_disjoint(h):
                return h
    raise AssertionError("construction failed")


class TestProofReplay:
    def test_family_members_are_fixed_points(self):
        b335 = build_bicyclic(spec_B(3, 3, 5))[0]
        assert proof_replay(b335) == []
        assert proof_replay(build_bicyclic(spec_B(5, 3, 5))[0]) == []
        # the n=10 fixed point still sits above the class minimizer
        b353 = build_bicyclic(spec_B(3, 5, 3))[0]
        assert rho_numeric(b335) >= rho_numeric(b353) - 1e-12

    def test_tree_rejected(self):
        with pytest.raises(InvalidInputError):
            proof_replay(double_fork_tree(8))

    def test_alpha_mismatch_rejected(self):
        g, _ = build_bicyclic(spec_P(3, 3, 3))  # alpha = ceil(n/2), not -1
        with pytest.raises(InvalidInputError):
            proof_replay(g)

    def test_shared_cycle_descent_stays_above_minimizer(self):
        g = _c_core_test_graph()
        steps = proof_replay(g)
        assert steps
        b535 = build_bicyclic(spec_B(5, 3, 5))[0]
        floor = rho_numeric(b535)
        for s in steps:
            assert s.rho_after <= s.rho_before + 1e-10
            assert min(s.rho_before, s.rho_after) > floor - 1e-10
        final = steps[-1].after
        assert final.n == g.n and final.edge_count == final.n + 1

    def test_pendant_dumbbell_descent(self):
        found = None
        for g in bicyclic_graphs(10):
            if (
                cycles_mutually_disjoint(g)
                and independence_number(g) == 4
                and min(g.degrees()) == 1
            ):
                found = g
                break
        assert found is not None
        steps = proof_replay(found)
        final = steps[-1].after
        assert sorted(final.degrees()) == [2] * 8 + [3, 3]
        b353 = build_bicyclic(spec_B(3, 5, 3))[0]
        assert rho_numeric(final) >= rho_numeric(b353) - 1e-10

    def test_high_reading_settled_by_certificate(self, monkeypatch):
        # a real descent step whose after-reading comes out 1e-6 above its
        # before-reading still passes: the certified comparison says "less"
        g = _c_core_test_graph()
        step = proof_replay(g)[0]
        real = transforms.rho_numeric
        high = real(step.before) + 1e-6
        monkeypatch.setattr(
            transforms, "rho_numeric", lambda h: high if h == step.after else real(h)
        )
        steps = proof_replay(g)
        assert steps[0].rho_after == high > steps[0].rho_before
        # the same reading fails once the certificate does not say less or equal
        monkeypatch.setattr(transforms, "compare_rho_certified",
                            lambda a, b, certs=None: "unresolved")
        with pytest.raises(InvalidInputError, match="non-monotone"):
            proof_replay(g)

    def test_clear_drop_still_certified(self, monkeypatch):
        # a reading that drops clearly clears nothing: the step fails when
        # its certified verdict is neither less nor equal
        g = _c_core_test_graph()
        step = proof_replay(g)[0]
        assert step.rho_after < step.rho_before - 0.1
        monkeypatch.setattr(transforms, "compare_rho_certified",
                            lambda a, b, certs=None: "greater")
        with pytest.raises(InvalidInputError, match="non-monotone.*certified: greater"):
            proof_replay(g)

    def test_walk_graphs_certified_once(self, monkeypatch):
        # every step goes to the certificate; the call's one pool certifies
        # each walk graph once, though every inner graph is one step's after
        # and the next step's before
        made = []
        init = spectral._CertifiedRho.__init__

        def counted(cert, h):
            made.append(h)
            init(cert, h)

        monkeypatch.setattr(spectral._CertifiedRho, "__init__", counted)
        steps = proof_replay(_c_core_test_graph())
        assert len(steps) == 8
        assert len(made) == len(set(made)) == len(steps) + 1

    def test_cores_and_replays_to_7_pinned(self):
        cores, replays = hashlib.sha256(), hashlib.sha256()
        counts = [0, 0]
        for n in range(4, 8):
            for g in enumerate_connected(n):
                if g.edge_count < n + 1:
                    continue
                fam, params, verts, edges = find_minimal_bicyclic_core(g)
                core = (fam, params, sorted(verts), sorted(sorted(e) for e in edges))
                cores.update(repr(core).encode())
                counts[0] += 1
                if independence_number(g) == (n + 1) // 2 - 1:
                    replays.update(serialize_trace(proof_replay(g)).encode() + b"\n")
                    counts[1] += 1
        assert counts == [917, 562]
        assert cores.hexdigest() == CORES7_SHA256
        assert replays.hexdigest() == REPLAYS7_SHA256

    def test_trace_serialization(self):
        g = _c_core_test_graph()
        steps = proof_replay(g)
        text = serialize_trace(steps)
        lines = text.splitlines()
        assert len(lines) == len(steps)
        for line in lines:
            kind, rule, rb, ra, g6 = line.split("\t")
            assert float(ra) <= float(rb) + 1e-10
            from spectramin.formats import from_graph6

            from_graph6(g6)


class TestSubdivisionSweep:
    def test_small_exhaustive(self):
        # every internal-path edge of every connected graph on up to 7
        # vertices: subdivision strictly lowers the radius, double fork apart
        for n in range(4, 8):
            for g in enumerate_connected(n):
                paths = internal_paths(g)
                edges = {
                    (min(a, b), max(a, b))
                    for p in paths
                    for a, b in zip(p, p[1:])
                }
                if not edges:
                    continue
                if sorted(g.degrees()) == [1, 1, 1, 1] + [2] * (n - 6) + [3, 3]:
                    continue  # double-fork candidates handled separately
                r = rho_numeric(g)
                for e in edges:
                    out = subdivide_internal(g, e)
                    assert rho_numeric(out) < r + 1e-12, (g.edges(), e)
