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
  degree, or outside the last cell, cannot be in the orbit.  A leaf whose
  last cell is the new vertex alone is accepted with no call at all: the
  orbit test then holds trivially, and no child of a leaf reads its
  generators;
* structural generation for connected graphs with exactly ``n`` or ``n + 1``
  edges: such graphs are a cycle / two-cycle core with rooted forests hanging
  off it, so they are produced directly from (core, forest assignment) pairs
  deduplicated by core automorphisms.  Only the lexicographic orbit minimum
  of an assignment is kept, and that test is decided on the assigned prefix:
  two tuples compare as their first differing position does, so a subtree
  is cut as soon as its prefix shows that a core automorphism maps every
  assignment below it to a smaller one.  This is what makes the n <= 16
  fixed-edge-count sweeps affordable.

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
from typing import Iterator, Sequence

from .graphs import (
    BicyclicSpec,
    Graph,
    InvalidParameterError,
    _canon,
    _mis,
    _permute_mask,
    _refined_colors,
    automorphisms,
    build_bicyclic,
    build_cycle,
    is_connected,
    spec_B,
    spec_C,
    spec_P,
)

FULL_SPACE_CAP = 9
EXTENDED_CAP = 10
EDGE_MODE_CAP = 16
BRANCH_LEVEL = 5

Assignment = tuple[tuple[int, ...], ...]  # one canonical rooted tree per core vertex
Generators = tuple[tuple[int, ...], ...]  # automorphism group generators, as image tuples
State = tuple[tuple[int, ...], Generators, int]  # (rows, group generators, edge count)


# ---------------------------------------------------------------------------
# canonical augmentation


def _accepted_children(
    k: int,
    rows: tuple[int, ...],
    gens: Generators,
    edge_count: int,
    max_edges: int | None,
    bare: bool = False,
) -> Iterator[State]:
    """Children of a parent on ``k`` vertices, one per isomorphism class.

    A child is the parent plus vertex ``k`` joined to a neighbor subset
    ``S``.  One ascending pass marks each subset's orbit under ``gens``, the
    parent's group generators, so only the least ``S`` of an orbit is tried.
    The child is accepted exactly when vertex ``k`` lies in the orbit of the
    vertex at its last canonical position (McKay's canonical augmentation).
    That orbit is an isomorphism invariant, so a class is accepted from one
    parent only, and from one orbit of ``S`` only.

    Two exact tests reject most children before ``_canon`` searches.
    ``_canon`` places the vertices cell by cell, so the vertex ``perm[k]``
    at the last position lies in the last refined cell; refinement starts
    from degree and sorts by (previous color, ...), so that cell lies inside
    the class of the largest degree; and every orbit lies inside one cell.
    So vertex ``k`` fails the orbit test when its degree ``|S|`` is below
    the child's largest degree (the degree test, O(1) per ``S``: an old
    vertex reaches ``top + 1`` only if it had the parent's largest degree
    ``top`` and lies in ``S``), or when its refined color is not the
    largest (the refinement test, whose colors ``_canon`` then reuses).
    Both tests are invariant under the parent's group, so a rejected orbit
    is rejected member by member and the same least ``S`` survive.

    A child that passes both tests gets its full ``_canon`` call, except
    with ``bare``, which a caller sets when the children are leaves whose
    generators nobody reads.  Then a child whose last refined cell is
    ``{k}`` is accepted with no search and no generators: ``_canon`` would
    place ``k`` last, so ``perm[k] = k`` and the orbit test holds.
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
        last = max(colors)
        if colors[k] != last:
            continue  # refinement test
        if bare and colors.count(last) == 1:
            yield child, (), edge_count + add  # last cell {k}: perm[k] = k
            continue
        perm, orbits, child_gens = _canon(k + 1, child, colors)
        if orbits[k] == orbits[perm[k]]:
            yield child, child_gens, edge_count + add


_ROOT: State = ((0,), (), 0)  # the one-vertex graph, where every walk starts


def _walk(
    n: int, state: State, max_edges: int | None = None, bare_leaves: bool = False
) -> Iterator[State]:
    """Every generation state on ``n`` vertices below ``state``, depth first
    in generation order.

    With ``max_edges``, no state exceeds that many edges, and a child is cut
    when even joining each later vertex to all before it cannot reach
    ``max_edges`` (the exact-count floor).  With ``bare_leaves``, for callers
    that read only the rows and edge counts of the leaves, a leaf may carry
    no generators (see ``_accepted_children``); the leaves are the same, in
    the same order.
    """
    rows, gens, edge_count = state
    k = len(rows)
    if k == n:
        yield state
        return
    floor = 0 if max_edges is None else max_edges - sum(range(k + 1, n))
    bare = bare_leaves and k + 1 == n
    for child in _accepted_children(k, rows, gens, edge_count, max_edges, bare):
        if child[2] >= floor:
            yield from _walk(n, child, max_edges, bare_leaves)


def _connected(n: int, state: State, m_edges: int | None = None) -> Iterator[Graph]:
    """Connected n-vertex graphs below ``state``; with ``m_edges``, only those
    with exactly that many edges."""
    for rows, _, edge_count in _walk(n, state, m_edges, bare_leaves=True):
        if m_edges is None or edge_count == m_edges:
            g = Graph.from_rows(n, rows)
            if is_connected(g):
                yield g


def enumerate_all_graphs(n: int) -> Iterator[Graph]:
    """All simple graphs on ``n`` vertices, one per isomorphism class."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    for rows, _, _ in _walk(n, _ROOT, bare_leaves=True):
        yield Graph.from_rows(n, rows)


def enumerate_connected(n: int, extended: bool = False) -> Iterator[Graph]:
    """Connected graphs on ``n`` vertices up to isomorphism.

    ``n`` is capped at 9 by default; the roughly 12-million-class ``n = 10``
    space runs only with ``extended=True``.
    """
    cap = EXTENDED_CAP if extended else FULL_SPACE_CAP
    if not 1 <= n <= cap:
        raise InvalidParameterError(
            f"enumerate_connected supports n <= {cap} (extended={extended}), got {n}"
        )
    yield from _connected(n, _ROOT)


def branch_states() -> list[State]:
    """Deterministic level-5 generation states partitioning all larger graphs.

    Every graph on more than 5 vertices descends from exactly one of these
    states, so they are the unit of parallel work and of checkpointing.
    """
    return list(_walk(BRANCH_LEVEL, _ROOT))


def enumerate_connected_from_branch(n: int, state: State) -> Iterator[Graph]:
    """Connected n-vertex descendants of one level-5 branch state."""
    yield from _connected(n, state)


def enumerate_with_edge_count(n: int, m_edges: int) -> Iterator[Graph]:
    """Connected graphs with exactly ``m_edges`` edges, up to isomorphism.

    ``m_edges == n`` and ``m_edges == n + 1`` dispatch to the structural
    core-plus-forest generators (good to n = 16); anything else runs the
    orderly engine with edge-count pruning and is capped at n = 10.
    """
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
    yield from _connected(n, _ROOT, m_edges)


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


def _attach_forest(
    core_rows: Sequence[int], assignment: Sequence[tuple[int, ...]]
) -> tuple[int, ...]:
    """Core rows plus one rooted tree hung from each core vertex: the root
    is the core vertex and the other nodes are appended in tree order."""
    rows = list(core_rows)
    for root, tree in enumerate(assignment):
        if len(tree) == 1:
            continue
        shift = len(rows) - 1  # tree node i >= 1 becomes vertex shift + i
        tree_rows = _tree_rows(tree)
        rows[root] |= tree_rows[0] << shift
        rows.extend((r & ~1) << shift | (r & 1) << root for r in tree_rows[1:])
    return tuple(rows)


def _forest_assignments(
    core: Graph, extra: int
) -> Iterator[tuple[tuple[int, ...], Assignment, int]]:
    """(core rows, forest assignment, alpha), one per isomorphism class.

    An assignment maps each core vertex to a canonical rooted tree (size 1 =
    nothing attached); two assignments related by a core automorphism give
    isomorphic graphs, so only the lexicographic orbit minimum is emitted.
    alpha of the grown graph comes from the composition law of the module
    docstring, with alpha(core[W]) memoized per core.

    The orbit test is decided on the assigned prefix.  The lexicographic
    order of two tuples is fixed by their first differing position, and
    for an automorphism ``a`` position ``i`` of ``t`` and of its image
    ``(t[a[0]], t[a[1]], ...)`` is fixed below a node once ``i`` and
    ``a[i]`` are both assigned.  So each node carries the automorphisms
    whose comparison is still open, each with its first undecided position.
    After position ``v`` is assigned, each open comparison advances while
    both positions are at most ``v``: a smaller image entry cuts the whole
    subtree, since no assignment below it is an orbit minimum; a larger one
    drops the automorphism for the subtree, and so does equality at every
    position (``a`` fixes the assignment).  A leaf's bare positions finish
    the comparisons left open.  The leaves kept are exactly the orbit
    minima, in the same order as when every leaf ran the whole test.
    """
    c = core.n
    rows = core.rows
    trees = [_trees_of_size(s) for s in range(extra + 2)]
    memo: dict[int, int] = {}
    everyone = (1 << c) - 1
    bare = trees[1][0][0]
    current: list[tuple[int, ...]] = [bare] * c

    def advance(pending: list[tuple[tuple[int, ...], int]], v: int):
        """The comparisons still open once positions ``..v`` are assigned,
        or None when one of them shows ``current`` is not an orbit minimum."""
        still = []
        for a, i in pending:
            while i < c:
                j = a[i]
                if i > v or j > v:
                    still.append((a, i))
                    break
                x, y = current[j], current[i]
                if x is not y:  # one tuple object per tree shape
                    if x < y:
                        return None
                    break
                i += 1
        return still

    def rec(v: int, budget: int, out_sum: int, w: int,
            pending: list[tuple[tuple[int, ...], int]]):
        if budget == 0:
            # vertices v.. stay bare: a_out 0 and gain 1 each, and their
            # trees settle the comparisons still open
            if advance(pending, c - 1) is not None:
                yield rows, tuple(current), out_sum + _mis(rows, w | everyone >> v << v, memo)
            return
        sizes = (budget + 1,) if v == c - 1 else range(1, budget + 2)
        for size in sizes:
            for tree, a_out, gain in trees[size]:
                current[v] = tree
                still = advance(pending, v) if pending else pending
                if still is not None:
                    yield from rec(v + 1, budget - (size - 1), out_sum + a_out,
                                   w | gain << v, still)
        current[v] = bare

    # sorted: the identity comes first, and its comparison is always equal
    yield from rec(0, extra, 0, 0, [(a, 0) for a in automorphisms(core)[1:]])


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


def _bicyclic_classes(
    n: int, cores: Sequence[BicyclicSpec] | None = None
) -> Iterator[tuple[tuple[int, ...], Assignment, int]]:
    """(core rows, forest assignment, alpha) of every (n+1)-edge class.

    ``cores``, a subset of ``_core_specs_bicyclic(n)``, restricts the stream
    to the classes grown from those cores: one parallel unit of a search.
    """
    if n < 4:
        return
    for spec in _core_specs_bicyclic(n) if cores is None else cores:
        core, _ = build_bicyclic(spec)
        yield from _forest_assignments(core, n - core.n)


def _class_graphs(n: int, classes) -> Iterator[Graph]:
    """The graph of each (core rows, forest assignment, alpha) class."""
    for rows, assignment, _ in classes:
        yield Graph.from_rows(n, _attach_forest(rows, assignment))


def bicyclic_graphs(n: int) -> Iterator[Graph]:
    """Connected graphs with exactly ``n + 1`` edges, up to isomorphism.

    Every such graph is a theta, figure-eight, or dumbbell core with rooted
    forests attached; cores are enumerated by normalized parameters and the
    forest placements modulo core automorphisms.
    """
    yield from _class_graphs(n, _bicyclic_classes(n))


def unicyclic_graphs(n: int) -> Iterator[Graph]:
    """Connected graphs with exactly ``n`` edges, up to isomorphism."""
    for k in range(3, n + 1):
        yield from _class_graphs(n, _forest_assignments(build_cycle(k), n - k))
