"""Exhaustive graph generation up to isomorphism.

Two engines:

* canonical augmentation ("orderly" generation, McKay 1998): grow graphs one
  vertex at a time over one neighbor subset per orbit of the parent's group,
  and keep a child exactly when the new vertex lies in the orbit of the
  vertex at its last canonical position.  The child's one ``_canon`` call
  gives that orbit and the generators its own children use.  Most children
  are rejected before that call: the last canonical position lies in the
  last refined color cell, which lies inside the top-degree class, and an
  orbit lies inside one cell, so a new vertex of less than the largest
  degree, or outside the last cell, cannot be in the orbit.  One routine,
  ``_children``, builds every level of a walk as numpy groups of parents,
  each about ``_CHILD_BLOCK`` candidate children, refined together with
  one int64 key per vertex (exact while (n - 1)·n^n < 2^63, so for
  n <= 15).  At the last level, where no child reads a leaf's generators,
  a leaf is accepted with no call at all when an explicit automorphism
  maps the new vertex k onto every vertex of its last refined cell: a twin
  swap (k w), or a map found by individualizing k and w in two copies and
  refining both in lockstep, each checked edge by edge.  The last
  canonical position lies in that cell, so a cell inside k's orbit gives
  orbits[k] == orbits[perm[k]].  This leaves 45 of the 2,739 leaf
  searches at n = 8 and 226 of 30,682 at n = 9.  A leaf's
  independence number and connectivity come from its parent P and
  neighbor subset S: alpha(P + k) = max(alpha(P), 1 + alpha(P - S)), from
  one table per parent over all vertex masks, and the leaf is connected
  exactly when every component of P meets S.  A search takes the leaves
  as blocks of int64 rows with their alphas (``LeafBlock``);
* structural generation for connected graphs with exactly ``n`` or ``n + 1``
  edges: such graphs are a cycle / two-cycle core with rooted forests hanging
  off it, so they are produced directly from (core, forest assignment) pairs
  deduplicated by core automorphisms.  Each core's assignments are built in
  one numpy pass, as rows of tree ranks grown one column (core vertex) at a
  time.  Only the lexicographic orbit minimum of an assignment is kept, and
  that test is decided on the assigned prefix: two tuples compare as their
  first differing position does, so a row is dropped after the first column
  that shows a core automorphism maps it, and every row it would grow into,
  to a smaller one.  A search takes the classes as those blocks of rank
  rows (``ClassBlock``) and fills its matrix stacks from them with one
  scatter per block, so no per-class tuple or graph is made; the public
  generators pack the same scatter's stacks into bitmask rows.  This is
  what makes the n <= 16 fixed-edge-count sweeps affordable.

The structural generator also yields the independence number of every class,
computed while the forest is chosen rather than on the built graph.  For a
rooted tree T with root r let a_out(T) = alpha(T - r) and
a_in(T) = 1 + alpha(T - N[r]); then a_in <= a_out + 1, and the gain g(T) is 1
when a_in > a_out and 0 otherwise.  With tree T_v hung at each core vertex v,

    alpha = sum_v a_out(T_v) + alpha(core[W]),   W = {v : g(T_v) = 1},

because an independent set gets at most a_out(T_v) from a tree whose root
it leaves out and at most a_in(T_v) <= a_out(T_v) + g(T_v) from one whose
root it takes, with equality in both for a best choice; so taking a root
pays exactly when its gain is 1, and the roots taken must be independent in
the core.  Since alpha(T) = max(a_out, a_in) and a_in <= a_out + 1, the gain
is exactly alpha(T) - a_out; both alphas come from ``graphs._mis`` on the
tree's bitmask rows, once per tree shape, and alpha(core[W]) is memoized per
core, so a search by independence number drops a class before its graph is
built.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Generator, Iterable, Iterator, Sequence

import numpy as np

from .graphs import (
    BicyclicSpec,
    Graph,
    InvalidParameterError,
    _canon,
    _mask_components,
    _mis,
    _refined_colors_batch,
    automorphisms,
    build_bicyclic,
    build_cycle,
    spec_B,
    spec_C,
    spec_P,
)

FULL_SPACE_CAP = 9
EXTENDED_CAP = 10
EDGE_MODE_CAP = 16
BRANCH_LEVEL = 5

Generators = tuple[tuple[int, ...], ...]  # automorphism group generators, as image tuples
State = tuple[tuple[int, ...], Generators, int]  # (rows, group generators, edge count)


# ---------------------------------------------------------------------------
# canonical augmentation


_ROOT: State = ((0,), (), 0)  # the one-vertex graph, where every walk starts

# Candidate children per group of parents: a group takes whole parents until
# the children that pass their degree test reach this many.  It sizes the
# stacks of every level of a walk.
_CHILD_BLOCK = 1 << 12


@cache
def _subsets(k: int) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """Tables of the subsets ``S`` of ``k`` vertices, indexed by ``S``:
    (bits, sizes, passes), where ``bits[S, i]`` is bit ``i`` of ``S``
    (int64), ``sizes[S] = |S|``, and ``passes[d][t]`` is the number of ``S``
    that pass the degree test of a parent whose largest degree ``d`` is
    held by ``t`` vertices: every ``S`` above size ``d``, and those of size
    ``d`` that miss those ``t`` vertices."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    passes = [[sum(comb(k, s) for s in range(d + 1, k + 1)) + comb(k - t, d)
               for t in range(k + 1)] for d in range(k + 1)]
    return bits, bits.sum(1), passes


def _orbit_least(k: int, gens: list[Generators]) -> np.ndarray:
    """``least[p, S]``: whether ``S`` is the least subset of its orbit under
    the group that ``gens[p]`` generates, for every subset ``S`` of ``k``
    vertices and every parent ``p``.

    Each subset carries a label, a member of its orbit, at first itself.  A
    round lowers every label to the least label among its generator images
    and then to its own label's label, until nothing moves.  Then no label
    exceeds the label of a generator image, and the generators join an orbit
    into one cycle-connected piece (each has finite order), so an orbit
    shares one label; its least member never moves, so that label is the
    least member, and ``S`` is least exactly when its label is ``S``.
    """
    label = np.tile(np.arange(1 << k), (len(gens), 1))
    owner = np.array([p for p, g in enumerate(gens) for _ in g], np.intp)
    if owner.size:
        weights = 1 << np.array([a for g in gens for a in g], np.int64)
        images = weights @ _subsets(k)[0].T  # the image of every S, per generator
        moving, starts = np.unique(owner, return_index=True)
        while True:
            lowest = np.minimum.reduceat(np.take_along_axis(label[owner], images, 1), starts)
            moved = np.minimum(label[moving], lowest)
            moved = np.take_along_axis(moved, moved, 1)
            if np.array_equal(moved, label[moving]):
                break
            label[moving] = moved
    return label == np.arange(1 << k)


def _maps_k_onto(rows: np.ndarray, sigma: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Whether ``sigma[i]`` is an automorphism of graph ``i`` of a stack of
    bitmask rows (int64, shape (B, n)) that maps vertex k = n - 1 onto
    ``w[i]``: a permutation with ``sigma(k) = w`` under which every row maps
    onto the row of its image, ``sigma(N(v)) = N(sigma(v))``."""
    n = rows.shape[1]
    image = np.zeros_like(rows)
    for u in range(n):
        image |= (rows >> u & 1) << sigma[:, u, None]
    onto = np.bitwise_or.reduce(1 << sigma, 1) == (1 << n) - 1
    return onto & (sigma[:, -1] == w) & (image == np.take_along_axis(rows, sigma, 1)).all(1)


def _individualized(colors: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``colors`` with vertex ``v[i]`` of row ``i`` split off its cell, just
    after the rest of it, as a starting coloring for refinement."""
    start = 2 * colors
    start[np.arange(len(v)), v] += 1
    return start


def _matching_maps(rows: np.ndarray, colors: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A candidate automorphism of each graph of a stack that maps vertex
    k = n - 1 onto ``w[i]``, by individualization–refinement in lockstep.

    Graph ``i`` with its refined ``colors[i]`` is copied twice: k is
    individualized in copy A and ``w[i]`` in copy B, and both are refined
    from there (one ``_refined_colors_batch`` stack for every copy).  While
    their cell sizes agree and they are not discrete, the least vertex of
    the first cell of more than one vertex is individualized in both.  Once
    both are discrete, the map takes the vertex of each color in A onto the
    vertex of that color in B.  Where the cell sizes come to differ the
    map stays the identity.  Nothing here proves a map: ``_maps_k_onto``
    checks it.
    """
    p, n = rows.shape
    sigma = np.tile(np.arange(n), (p, 1))
    start = np.concatenate([_individualized(colors, np.full(p, n - 1)), _individualized(colors, w)])
    live = np.arange(p)
    while live.size:
        m = live.size
        both, classes = _refined_colors_batch(n, np.concatenate([rows[live]] * 2), start)
        sizes = (both[:, :, None] == np.arange(n)).sum(1)
        a, b = both[:m], both[m:]
        same = (sizes[:m] == sizes[m:]).all(1)
        done = same & (classes[:m] == n)
        sigma[live[done]] = np.take_along_axis(np.argsort(b[done], 1), a[done], 1)
        go = same & (classes[:m] < n)
        cell = np.argmax(sizes[:m][go] > 1, 1)[:, None]
        a, b = a[go], b[go]
        start = np.concatenate([_individualized(a, np.argmax(a == cell, 1)),
                                _individualized(b, np.argmax(b == cell, 1))])
        live = live[go]
    return sigma


def _last_cell_in_orbit(rows: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Whether an explicit automorphism proves every vertex ``w`` of the last
    refined cell to lie in the orbit of vertex k = n - 1, for each graph of
    a stack whose refined ``colors`` put k in the last cell.

    Each ``w`` is tried first as a twin of k, by the transposition (k w),
    an automorphism exactly when ``rows[w] & ~(1 << k) == rows[k] & ~(1 <<
    w)``, then by ``_matching_maps``; ``_maps_k_onto`` checks every map.  A
    ``False`` proves nothing: the orbit test is then left to ``_canon``.
    """
    n = rows.shape[1]
    k = n - 1
    graph, w = np.nonzero(colors == colors[:, k:])
    graph, w = graph[w != k], w[w != k]
    sigma = np.tile(np.arange(n), (len(w), 1))
    sigma[np.arange(len(w)), w] = k
    sigma[:, k] = w
    proved = _maps_k_onto(rows[graph], sigma, w)
    rest = np.flatnonzero(~proved)
    sub = rows[graph[rest]]
    proved[rest] = _maps_k_onto(sub, _matching_maps(sub, colors[graph[rest]], w[rest]), w[rest])
    certified = np.ones(len(rows), bool)
    certified[graph[~proved]] = False
    return certified


def _children(
    n: int, parents: list[State], max_edges: int | None, leaves: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Generators]]:
    """The accepted children of ``parents``, states on ``k`` vertices of a
    walk to ``n``, one per isomorphism class, in (parent, ``S``) order:
    (parent index, ``S``, the children's rows as an int64 stack of shape
    (B, k + 1), the children's generators).

    A child is a parent plus vertex ``k`` joined to a neighbor subset ``S``.
    It is accepted exactly when vertex ``k`` lies in the orbit of the vertex
    at its last canonical position (McKay's canonical augmentation).  That
    orbit is an isomorphism invariant, so a class is accepted from one
    parent only, and from one orbit of ``S`` only: only the ``S`` least in
    its orbit under the parent's group is a candidate (``_orbit_least``).

    Two exact tests reject most candidates before ``_canon`` searches.
    ``_canon`` places the vertices cell by cell, so the vertex ``perm[k]``
    at the last position lies in the last refined cell; refinement starts
    from degree and sorts by (previous color, ...), so that cell lies inside
    the class of the largest degree; and every orbit lies inside one cell.
    So vertex ``k`` fails the orbit test when its degree ``|S|`` is below
    the child's largest degree (the degree test: an old vertex reaches
    ``top + 1`` only if it had the parent's largest degree ``top`` and lies
    in ``S``), or when its refined color is not the largest (the refinement
    test, one batched refinement of the whole stack, whose colors
    ``_canon`` then reuses).  Both tests are invariant under the parent's
    group, so a rejected orbit is rejected member by member and the same
    least ``S`` survive.  With ``max_edges`` a candidate also needs
    ``floor <= edges <= max_edges``, where floor = max_edges − Σ range(k +
    1, n): below it, even joining each later vertex up to the ``n``-th to
    all before it cannot reach ``max_edges`` (at the last level, the exact
    count).

    A child that passes every test is searched by ``_canon``, which decides
    the orbit test and gives the generators its own children use.  With
    ``leaves`` (the last level) a child is accepted with no search when
    ``_last_cell_in_orbit`` proves every vertex of its last refined cell to
    lie in the orbit of ``k`` (a last cell ``{k}`` needs no proof).  The law:
    ``perm[k]`` lies in the last cell, so a last cell inside k's orbit gives
    ``orbits[k] == orbits[perm[k]]``.  Every other child goes to ``_canon``.
    A leaf's generators read ``()``, since no walk reads a leaf's.
    """
    k = len(parents[0][0])
    bits, sizes, _ = _subsets(k)
    rows = np.array([p[0] for p in parents], np.int64)
    degrees = sizes[rows]
    top = degrees.max(1, keepdims=True)
    top_mask = (degrees == top) @ (1 << np.arange(k))
    ok = top + ((np.arange(1 << k) & top_mask[:, None]) != 0) <= sizes  # degree test
    if max_edges is not None:
        edges = np.array([p[2] for p in parents])[:, None] + sizes
        ok &= (max_edges - sum(range(k + 1, n)) <= edges) & (edges <= max_edges)
    ok &= _orbit_least(k, [p[1] for p in parents])
    parent, S = np.nonzero(ok)
    child = np.empty((len(S), k + 1), np.int64)
    child[:, :k] = rows[parent] | bits[S] << k
    child[:, k] = S
    colors, classes = _refined_colors_batch(k + 1, child)
    last = classes - 1
    keep = colors[:, k] == last  # refinement test
    search = keep.copy()
    if leaves:
        search[keep] = ~_last_cell_in_orbit(child[keep], colors[keep])
    gens = {}
    for i in np.flatnonzero(search).tolist():
        perm, orbits, gens[i] = _canon(k + 1, tuple(child[i].tolist()), colors[i].tolist())
        keep[i] = orbits[k] == orbits[perm[k]]
    kept = np.flatnonzero(keep)
    return parent[kept], S[kept], child[kept], [gens.get(i, ()) for i in kept.tolist()]


def _groups(states: Iterable[State]) -> Iterator[list[State]]:
    """``states``, all on one number of vertices, in consecutive groups.  A
    group takes whole states until the children that pass their degree test
    (counted without orbits) reach ``_CHILD_BLOCK``, so it holds about that
    many candidates at every order."""
    group: list[State] = []
    pending = 0
    for state in states:
        degrees = [r.bit_count() for r in state[0]]
        top = max(degrees)
        pending += _subsets(len(degrees))[2][top][degrees.count(top)]
        group.append(state)
        if pending >= _CHILD_BLOCK:
            yield group
            group, pending = [], 0
    if group:
        yield group


def _level(n: int, states: Iterable[State], max_edges: int | None) -> Iterator[State]:
    """The accepted children of ``states`` as states of a walk to ``n``, a
    group of parents at a time, in (parent, ``S``) order."""
    for group in _groups(states):
        parent, S, child, gens = _children(n, group, max_edges, False)
        for p, s, rows, g in zip(parent.tolist(), S.tolist(), child.tolist(), gens):
            yield tuple(rows), g, group[p][2] + s.bit_count()


def _walk(
    n: int, state: State, max_edges: int | None = None, stop: int | None = None
) -> Iterator[State]:
    """Every generation state on ``stop`` vertices (``n`` when not given)
    below ``state``, depth first in generation order.

    The walk is a chain of lazy levels (``_level``), each fed by the one
    before it.  Every level keeps its parents' order and puts each parent's
    children in ``S`` order, so the chain yields the depth-first order.
    With ``max_edges``, no state exceeds that many edges, and no state is
    kept that cannot reach ``max_edges`` by vertex ``n`` (the floor of
    ``_children``).
    """
    states: Iterator[State] = iter([state])
    for _ in range(len(state[0]), n if stop is None else stop):
        states = _level(n, states, max_edges)
    return states


def _alpha_tables(rows: np.ndarray) -> np.ndarray:
    """``alpha[p, mask]``, the independence number of graph ``p`` of a stack
    of bitmask rows (int64, shape (P, k)) induced on ``mask``, for every
    vertex mask.

    The masks with top bit ``h`` are filled together: an independent set of
    such a mask leaves ``h`` out or takes it and none of its neighbors, so
    alpha(mask) = max(alpha(mask − h), 1 + alpha(mask ∖ N[h])), and both
    smaller masks lie below 2^h.
    """
    p, k = rows.shape
    alpha = np.zeros((p, 1 << k), np.int8)
    for h in range(k):
        below = np.arange(1 << h)
        take = np.take_along_axis(alpha, below & ~rows[:, h, None], 1)
        alpha[:, 1 << h:2 << h] = np.maximum(alpha[:, :1 << h], take + 1)
    return alpha


class LeafBlock:
    """Consecutive leaves of an orderly walk, as int64 rows: ``rows[i]``
    holds the bitmask rows of leaf ``i`` on ``n`` vertices and ``alpha[i]``
    its independence number."""

    __slots__ = ("n", "rows", "alpha")

    def __init__(self, n: int, rows: np.ndarray, alpha: np.ndarray):
        self.n, self.rows, self.alpha = n, rows, alpha

    def __len__(self) -> int:
        return len(self.rows)

    def where(self, keep: np.ndarray) -> "LeafBlock":
        """The leaves that the boolean mask ``keep`` selects, in order."""
        return LeafBlock(self.n, self.rows[keep], self.alpha[keep])

    def graph(self, i: int) -> Graph:
        """The graph of leaf ``i``."""
        return Graph.from_rows(self.n, self.rows[i].tolist())

    def graphs(self) -> Iterator[Graph]:
        """The graph of every leaf, in order."""
        return (Graph.from_rows(self.n, rows) for rows in self.rows.tolist())

    def fill(self, out: np.ndarray, lo: int, hi: int) -> None:
        """Write the adjacency matrices of leaves ``lo..hi`` into the
        ``(hi - lo, n, n)`` stack ``out``, in one scatter."""
        out[...] = self.rows[lo:hi, :, None] >> np.arange(self.n) & 1


def _leaf_block(
    n: int, parents: list[State], max_edges: int | None, connected: bool
) -> LeafBlock:
    """The accepted children of ``parents``, states on ``n - 1`` vertices,
    in generation order as one block (``_children`` at the last level); with
    ``connected``, only the connected ones.

    A child's alpha and connectivity come from its parent P and ``S``.  An
    independent set of P + k leaves k out, or takes k and avoids ``S``, so
    alpha(P + k) = max(alpha(P), 1 + alpha(P − S)), both read from the
    parent's table of ``_alpha_tables``.  The new vertex joins exactly the
    components of P that meet ``S``, so the child is connected exactly when
    every component of P meets ``S``.
    """
    parent, S, child, _ = _children(n, parents, max_edges, True)
    rows = np.array([p[0] for p in parents], np.int64)
    full = (1 << (n - 1)) - 1
    if connected:
        comps = np.zeros(rows.shape, np.int64)  # padded with empty components
        for p, (parent_rows, _, _) in enumerate(parents):
            found = _mask_components(parent_rows, full)
            comps[p, :len(found)] = found
        comps = comps[parent]
        keep = (((comps & S[:, None]) != 0) | (comps == 0)).all(1)
        parent, S, child = parent[keep], S[keep], child[keep]
    alpha = _alpha_tables(rows)
    return LeafBlock(n, child, np.maximum(alpha[parent, full], alpha[parent, full & ~S] + 1))


def _leaf_blocks(
    n: int, state: State, max_edges: int | None = None, connected: bool = True
) -> Iterator[LeafBlock]:
    """The leaves on ``n`` vertices below ``state`` in walk order, as
    ``LeafBlock``s; with ``connected``, only the connected ones.
    With ``max_edges``, only the leaves with exactly that many edges.

    The walk goes to the parents on ``n - 1`` vertices, and ``_leaf_block``
    builds their children a group of parents (``_groups``) at a time.  A
    state already on ``n`` vertices is its own leaf.
    """
    rows, _, edge_count = state
    if len(rows) == n:
        full = (1 << n) - 1
        if (max_edges is None or edge_count == max_edges) and (
                not connected or _mask_components(rows, full) == [full]):
            yield LeafBlock(n, np.array([rows], np.int64), np.array([_mis(rows, full, {})], np.int8))
        return
    for parents in _groups(_walk(n, state, max_edges, n - 1)):
        yield _leaf_block(n, parents, max_edges, connected)


def _graphs(blocks: Iterable[LeafBlock | ClassBlock]) -> Iterator[Graph]:
    """The graph of every class of a block stream of either engine, in order."""
    for block in blocks:
        yield from block.graphs()


def enumerate_all_graphs(n: int) -> Iterator[Graph]:
    """All simple graphs on ``n`` vertices, one per isomorphism class."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    yield from _graphs(_leaf_blocks(n, _ROOT, connected=False))


def enumerate_connected(n: int, extended: bool = False) -> Iterator[Graph]:
    """Connected graphs on ``n`` vertices up to isomorphism.

    ``n`` is capped at 9 by default; the roughly 12-million-class ``n = 10``
    space runs only with ``extended=True``.  ``EXTENDED_CAP`` = 10 stays
    below the n <= 15 that every level's int64 refinement keys hold.
    """
    cap = EXTENDED_CAP if extended else FULL_SPACE_CAP
    if not 1 <= n <= cap:
        raise InvalidParameterError(
            f"enumerate_connected supports 1 <= n <= {cap} (extended={extended}), got {n}"
        )
    yield from _graphs(_leaf_blocks(n, _ROOT))


def branch_states() -> list[State]:
    """Deterministic level-5 generation states partitioning all larger graphs.

    Every graph on more than 5 vertices descends from exactly one of these
    states, so they are the unit of parallel work and of checkpointing.
    """
    return list(_walk(BRANCH_LEVEL, _ROOT))


def enumerate_connected_from_branch(n: int, state: State) -> Iterator[LeafBlock]:
    """The connected n-vertex descendants of one level-5 branch state, as
    ``LeafBlock``s in walk order: int64 rows plus each leaf's alpha, so a
    search filters and stacks them with no ``Graph`` made.

    Every level is built a group of parents at a time (``_children``), its
    children refined together with int64 keys, exact while (n - 1)·n^n <
    2^63 (n <= 15).  At the last level (``_leaf_blocks``) a child's alpha
    is alpha(P + k) = max(alpha(P), 1 + alpha(P - S)) for its parent P and
    neighbor subset S, and it is connected exactly when every component of
    P meets S.  With n = 5 the state is its own leaf.
    """
    yield from _leaf_blocks(n, state)


def enumerate_with_edge_count(n: int, m_edges: int) -> Iterator[Graph]:
    """Connected graphs with exactly ``m_edges`` edges, up to isomorphism.

    ``m_edges == n`` and ``m_edges == n + 1`` dispatch to the structural
    core-plus-forest generators (good to n = 16); anything else runs the
    orderly engine with edge-count pruning and is capped at n = 10.
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if m_edges < n - 1:
        return
    if m_edges == n + 1:
        if n > EDGE_MODE_CAP:
            raise InvalidParameterError(f"two-cycle mode capped at n = {EDGE_MODE_CAP}")
        yield from bicyclic_graphs(n)
        return
    if m_edges == n and n >= 3:
        if n > EDGE_MODE_CAP:
            raise InvalidParameterError(f"one-cycle mode capped at n = {EDGE_MODE_CAP}")
        yield from unicyclic_graphs(n)
        return
    if n > EXTENDED_CAP:
        raise InvalidParameterError(f"general edge-count mode capped at n = {EXTENDED_CAP}")
    yield from _graphs(_leaf_blocks(n, _ROOT, m_edges))


# ---------------------------------------------------------------------------
# rooted trees (level sequences) for the structural generators


def rooted_tree_sequences(n: int) -> list[tuple[int, ...]]:
    """Canonical level sequences of all rooted trees on ``n`` nodes."""
    if n < 1:
        return []
    if n == 1:
        return [(0,)]
    seq = list(range(n))
    out = [tuple(seq)]
    while True:
        p = None
        for i in range(n - 1, -1, -1):
            if seq[i] > 1:
                p = i
                break
        if p is None:
            return out
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        for i in range(p, n):
            seq[i] = seq[i - (p - q)]
        out.append(tuple(seq))


@cache
def _tree_rows(tree: tuple[int, ...]) -> tuple[int, ...]:
    """Bitmask rows of the rooted tree with level sequence ``tree``: node
    ``i`` is the ``i``-th entry, so the root is node 0."""
    rows = [0] * len(tree)
    path: list[int] = []  # the nodes from the root down to the last one
    for i, level in enumerate(tree):
        del path[level:]
        if path:
            rows[i] |= 1 << path[-1]
            rows[path[-1]] |= 1 << i
        path.append(i)
    return tuple(rows)


@cache
def _trees_of_size(s: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(level sequence, a_out, gain) of every rooted tree on ``s`` nodes,
    with ``a_out = alpha(T - r)`` and ``gain = alpha(T) - a_out``."""
    full = (1 << s) - 1
    table = []
    for tree in rooted_tree_sequences(s):
        rows = _tree_rows(tree)
        a_out = _mis(rows, full ^ 1, {})
        table.append((tree, a_out, _mis(rows, full, {}) - a_out))
    return table


@cache
def _tree_catalog(top: int):
    """Every rooted tree on 1..``top`` nodes in the order the forest pass
    tries them (size ascending, then ``_trees_of_size`` order), as arrays.

    Returns (rank, extra nodes, first, trees by rank as an object array,
    a_out by rank, gain by rank): a tree's rank is its place in
    level-sequence tuple order, so ranks compare as the trees do, and
    ``first[e]`` is the index of the first tree with at least ``e`` extra
    nodes.  Ranks are uint16 up to 14 nodes (53,272 trees), the most a
    class on 16 vertices needs.
    """
    table = [entry for s in range(1, top + 1) for entry in _trees_of_size(s)]
    order = sorted(range(len(table)), key=table.__getitem__)
    rank = np.empty(len(table), np.promote_types(np.uint16, np.min_scalar_type(len(table))))
    rank[order] = np.arange(len(table))
    extra = np.array([len(tree) - 1 for tree, _, _ in table], np.uint8)
    first = np.searchsorted(extra, np.arange(top + 1))
    trees, a_out, gain = zip(*map(table.__getitem__, order))
    return (rank, extra, first, np.fromiter(trees, object),
            np.array(a_out, np.int8), np.array(gain, np.int8))


@cache
def _tree_parents(top: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges of every tree of ``_tree_catalog(top)``, by rank, for the
    matrix scatter: (extra nodes, parents), where tree node ``j + 1`` hangs
    from node ``parents[rank, j]`` for each ``j`` below the tree's extra
    nodes (0 pads the rest).  A level sequence is a preorder: a node's
    parent comes before it and its children after it, so the parent is its
    least neighbor."""
    trees = _tree_catalog(top)[3]
    extra = np.array([len(tree) - 1 for tree in trees], np.uint8)
    parents = np.zeros((len(trees), top - 1), np.uint8)
    parents[np.arange(top - 1) < extra[:, None]] = [
        (row & -row).bit_length() - 1 for tree in trees for row in _tree_rows(tree)[1:]]
    return extra, parents


def _class_alphas(rows: tuple[int, ...], x: np.ndarray, a_out, gain, memo: dict) -> np.ndarray:
    """alpha of each class of the rank rows ``x`` on the core with bitmask
    ``rows``, by the composition law of the module docstring: the sum of
    a_out plus alpha(core[W]), ``W`` the vertices whose tree has gain 1,
    with ``_mis`` once per distinct ``W`` (``memo`` is the core's)."""
    c = len(rows)
    w = (gain[x] << np.arange(c)).sum(1)
    seen = np.zeros(1 << c, bool)
    seen[w] = True
    distinct = np.flatnonzero(seen)
    core_alpha = np.zeros(1 << c, np.int8)
    core_alpha[distinct] = [_mis(rows, u, memo) for u in distinct.tolist()]
    return a_out[x].sum(1) + core_alpha[w]


class ClassBlock:
    """Consecutive classes of one core, as rows of tree ranks: class ``i``
    hangs the tree of rank ``ranks[i, v]`` from core vertex ``v``.  Its
    graph has ``n`` vertices: the core's, then the extra nodes of each
    column's tree, column by column in tree order (``fill``)."""

    __slots__ = ("n", "core", "ranks")

    def __init__(self, n: int, core: Graph, ranks: np.ndarray):
        self.n, self.core, self.ranks = n, core, ranks

    def __len__(self) -> int:
        return len(self.ranks)

    def _rows(self, lo: int, hi: int) -> np.ndarray:
        """The bitmask rows of classes ``lo..hi`` (int64, shape (hi - lo,
        n)), packed from one zeroed ``fill`` stack."""
        out = np.zeros((hi - lo, self.n, self.n), np.int64)
        self.fill(out, lo, hi)
        return out @ (1 << np.arange(self.n))

    def graph(self, i: int) -> Graph:
        """The graph of class ``i``."""
        return Graph.from_rows(self.n, self._rows(i, i + 1)[0].tolist())

    def graphs(self) -> Iterator[Graph]:
        """The graph of every class, in order."""
        return (Graph.from_rows(self.n, rows) for rows in self._rows(0, len(self)).tolist())

    def fill(self, out: np.ndarray, lo: int, hi: int) -> None:
        """Write the adjacency matrices of classes ``lo..hi`` into the zeroed
        ``(hi - lo, n, n)`` stack ``out``, in one scatter.

        Tree node ``i >= 1`` of column ``v`` is vertex ``shift[v] + i``, with
        ``shift`` = c - 1 plus the extra nodes of the trees before ``v``,
        and the root is ``v`` itself.  Every class has n - c tree edges."""
        x = self.ranks[lo:hi]
        c = self.core.n
        extra, parents = _tree_parents(self.n - c + 1)
        size = extra[x]
        shift = np.cumsum(size, 1, dtype=np.intp) - size + (c - 1)
        # one entry per tree edge: node j + 1 of the tree at column v of row
        row, v, j = np.nonzero(np.arange(parents.shape[1]) < size[..., None])
        at = shift[row, v]
        child = at + j + 1
        parent = parents[x[row, v], j]
        parent = np.where(parent == 0, v, at + parent)
        out[:, :c, :c] = self.core.adjacency_matrix()
        out[row, parent, child] = 1
        out[row, child, parent] = 1


# Child rows one expansion step creates at most: it bounds the transient
# arrays of a core's pass (BENCH_forest_arrays.json).
_BLOCK = 1 << 10

# {automorphisms: {core rows: (check_after, alpha memo)}}: the tables of
# every core the forest pass has met, under the one ``automorphisms`` that
# built them
_CORE_TABLES: dict = {}


def _core_tables(core: Graph):
    """The orbit tests and the alpha memo of ``core``, built once per process.

    ``check_after(v)`` is the test after column ``v`` (the whole test for
    ``v = c``): the positions decided so far of each automorphism that
    column ``v`` decides a new position of, a-major with i ascending, with
    decreasing weights so that the earliest difference of a group is its
    largest weighted entry; None when there are none.  The memo maps a
    vertex mask ``W`` to alpha(core[W]) for ``_mis``.

    Both depend only on the core graph (its automorphisms and its rows), not
    on n, the forest budget or the alpha filter, so every order and every
    later search of this process reuses them, keyed by the core's bitmask
    rows.  The structural generators meet only two-cycle cores and cycles of
    order at most ``EDGE_MODE_CAP``, so the cache holds at most that many
    cores (335 two-cycle cores and 14 cycles).  The tables are memos of this
    module's ``automorphisms``, so they are kept under the function that
    built them: when that attribute is replaced (a counting wrapper), the
    cache starts empty and every core's automorphisms are computed again.
    """
    known = _CORE_TABLES.get(automorphisms)
    if known is None:
        _CORE_TABLES.clear()
        known = _CORE_TABLES[automorphisms] = {}
    tables = known.get(core.rows)
    if tables is not None:
        return tables
    c = core.n
    # the positions (a, i, a[i]) that can differ (a[i] != i), keyed by the
    # column after which each is decided: the first one where 0..i and
    # a[0..i] are all assigned.  Sorted: the identity comes first, and its
    # comparison is always equal.
    pairs: list[tuple[int, int, int, int]] = []
    for bit, a in enumerate(automorphisms(core)[1:]):
        col = 0
        for i, j in enumerate(a):
            col = max(col, i, j)
            if j != i:
                pairs.append((col, bit, i, j))

    @cache
    def check_after(v: int):
        new = {bit for col, bit, _, _ in pairs if col == v or v == c}
        if not new:
            return None
        bits, pos, img = zip(*sorted(pair[1:] for pair in pairs if pair[0] <= v and pair[1] in new))
        starts = [k for k, bit in enumerate(bits) if k == 0 or bit != bits[k - 1]]
        return list(pos), list(img), np.arange(2 * len(bits), 0, -2, dtype=np.int16), starts

    tables = known[core.rows] = check_after, {}
    return tables


def _forest_blocks(
    core: Graph, extra: int, alpha: int | None = None
) -> Generator[ClassBlock, None, int]:
    """Every class of ``core`` with ``extra`` forest nodes, as blocks of
    rank rows in stream order, or only the classes whose alpha is ``alpha``
    when it is given.  Returns the number of classes, those filtered out
    included; alpha is computed only to filter.

    A class is a forest assignment: each core vertex gets a canonical
    rooted tree (size 1 = nothing attached).  Two assignments related by a
    core automorphism give isomorphic graphs, so only the lexicographic
    orbit minimum is a class.

    The classes are built column by column as rows of tree ranks, one numpy
    pass per core.  Column ``v`` repeats each row once per tree it may take:
    any size up to its remaining budget plus one, and exactly that size at
    the last vertex, so the rows come out in the order of a depth-first
    recursion over vertices, sizes and trees.  The children are made
    ``_BLOCK`` consecutive rows at a time, each block grown to the end
    before the next, which keeps that order.

    The orbit test is decided on the assigned prefix.  Two tuples compare
    as their first differing position does, and for an automorphism ``a``
    position ``i`` of a row ``x`` and of its image ``(x[a[0]], x[a[1]],
    ...)`` is known once ``0..i`` and ``a[0..i]`` are assigned: the same
    column for every row.  After a column that decides new positions of
    ``a``, each row is compared with its image on every position of ``a``
    decided so far and dropped when the image is smaller, since no
    assignment grown from it is an orbit minimum.  Once every row has spent
    its budget the later vertices stay bare, and the whole test runs at
    once.  The rows left at the end are exactly the orbit minima.  The
    tests and the alpha memo come from ``_core_tables``, once per core and
    process.
    """
    c = core.n
    rows = core.rows
    rank, extra_nodes, first, _, a_out, gain = _tree_catalog(extra + 1)
    upto, exact = first[1:], np.diff(first)  # trees with at most / exactly e extra nodes
    check_after, memo = _core_tables(core)
    classes = 0

    def orbit_minima(state, check):
        """The rows of ``state`` whose image under no automorphism of
        ``check`` is smaller on its decided positions."""
        if check is None:
            return state
        pos, img, weight, starts = check
        own, image = state[:, pos], state[:, img]
        first_diff = np.maximum.reduceat((own != image) * weight + (image < own), starts, axis=1)
        return state[~(first_diff & 1).any(1)]

    def grow(v, state):
        nonlocal classes
        budget = state[:, c]
        if v < c and budget.any():
            last = v == c - 1
            counts = (exact if last else upto)[budget]
            ends = np.cumsum(counts)
            # tree index minus child index, per parent row
            offset = (first[budget] if last else 0) + counts - ends
            for lo in range(0, int(ends[-1]), _BLOCK):
                index = np.arange(lo, min(lo + _BLOCK, ends[-1]))  # the block's child indices
                parent = np.searchsorted(ends, index, "right")
                child = state[parent]
                tree = index + offset[parent]
                child[:, v] = rank[tree]
                child[:, c] -= extra_nodes[tree]
                child = orbit_minima(child, check_after(v))
                del index, parent, tree  # the deeper levels need none of this block's indices
                yield from grow(v + 1, child)
            return
        if v < c:  # every later vertex stays bare: finish the test at once
            state = orbit_minima(state, check_after(c))
        classes += len(state)
        x = state[:, :c]
        if alpha is not None:
            x = x[_class_alphas(rows, x, a_out, gain, memo) == alpha]
        if len(x):
            yield ClassBlock(c + extra, core, x)

    # the state: c tree ranks (0 is the bare tree) and the budget left
    start = np.zeros((1, c + 1), rank.dtype)
    start[0, c] = extra
    yield from grow(0, start)
    return classes


def _core_specs_bicyclic(n: int):
    """Family specs for every two-cycle core of order at most ``n``.

    Parameters are normalized (m <= q for C and B, m <= p <= q for the
    fully symmetric theta family) so each core class appears exactly once.
    """
    specs = []
    for m in range(3, n + 1):
        for q in range(m, n + 2 - m):
            specs.append(spec_C(m, q))
    for m in range(3, n + 1):
        for q in range(m, n + 1):
            for p in range(1, n + 2 - m - q):
                specs.append(spec_B(m, p, q))
    for m in range(1, n + 1):
        for p in range(m, n + 1):
            for q in range(p, n + 2 - m - p):
                if (m, p).count(1) > 1:
                    continue
                specs.append(spec_P(m, p, q))
    return specs


def _bicyclic_blocks(
    n: int, cores: Sequence[BicyclicSpec] | None = None, alpha: int | None = None
) -> Generator[ClassBlock, None, int]:
    """Every (n+1)-edge class as ``ClassBlock``s in stream order, or the
    classes with independence number ``alpha`` when it is given; returns
    the number of classes, those filtered out included.

    ``cores``, a subset of ``_core_specs_bicyclic(n)``, restricts the stream
    to the classes grown from those cores: one parallel unit of a search.
    Each core is built when the stream reaches it.
    """
    classes = 0
    for spec in _core_specs_bicyclic(n) if cores is None else cores:
        core, _ = build_bicyclic(spec)
        classes += yield from _forest_blocks(core, n - core.n, alpha)
    return classes


def bicyclic_graphs(n: int) -> Iterator[Graph]:
    """Connected graphs with exactly ``n + 1`` edges, up to isomorphism.

    Every such graph is a theta, figure-eight, or dumbbell core with rooted
    forests attached; cores are enumerated by normalized parameters and the
    forest placements modulo core automorphisms.
    """
    yield from _graphs(_bicyclic_blocks(n))


def unicyclic_graphs(n: int) -> Iterator[Graph]:
    """Connected graphs with exactly ``n`` edges, up to isomorphism."""
    yield from _graphs(block for k in range(3, n + 1)
                       for block in _forest_blocks(build_cycle(k), n - k))
