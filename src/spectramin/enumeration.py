"""Exhaustive graph generation up to isomorphism.

Two engines:

* canonical augmentation ("orderly" generation): grow graphs one vertex at a
  time over all neighbor subsets and keep a child exactly when deleting the
  vertex at the last canonical position reproduces the parent, so each
  isomorphism class appears once without any global seen-set;
* structural generation for connected graphs with exactly ``n`` or ``n + 1``
  edges: such graphs are a cycle / two-cycle core with rooted forests hanging
  off it, so they are produced directly from (core, forest assignment) pairs
  deduplicated by core automorphisms.  This is what makes the n <= 16
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
the core.  (a_out, g) is tabulated once per tree shape and alpha(core[W]) is
memoized per core, so a search by independence number drops a class before
its graph is built.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .graphs import (
    BicyclicSpec,
    Graph,
    InvalidParameterError,
    _canon,
    _delete_vertex_rows,
    _mis,
    automorphisms,
    build_bicyclic,
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


# ---------------------------------------------------------------------------
# canonical augmentation


def _accepted_children(
    k: int,
    rows: tuple[int, ...],
    parent_form: bytes,
    edge_count: int,
    max_edges: int | None,
) -> Iterator[tuple[tuple[int, ...], bytes, int]]:
    """Children of a parent on ``k`` vertices, one per isomorphism class.

    A child is the parent plus vertex ``k`` joined to a neighbor subset
    ``S`` (iterated in increasing bitmask order for determinism).  Subsets
    that are automorphic images of a smaller subset are skipped up front;
    a surviving child is kept iff removing the vertex at its last canonical
    position gives back the parent's class.  Children of one parent are
    deduplicated by canonical form.
    """
    seen: set[bytes] = set()
    bit_k = 1 << k
    auts = [a for a in automorphisms(Graph.from_rows(k, rows)) if a != tuple(range(k))]
    for S in range(1 << k):
        add = S.bit_count()
        if max_edges is not None and edge_count + add > max_edges:
            continue
        if auts and any(_apply_perm_mask(a, S) < S for a in auts):
            continue
        child = list(rows)
        m = S
        while m:
            b = m & -m
            child[b.bit_length() - 1] |= bit_k
            m ^= b
        child.append(S)
        child_t = tuple(child)
        form, perm = _canon(k + 1, child_t)
        if form in seen:
            continue
        w = perm[k]
        if w != k:
            dform, _ = _canon(k, tuple(_delete_vertex_rows(child_t, w)))
            if dform != parent_form:
                continue
        seen.add(form)
        yield child_t, form, edge_count + add


def _apply_perm_mask(perm: Sequence[int], mask: int) -> int:
    out = 0
    while mask:
        b = mask & -mask
        out |= 1 << perm[b.bit_length() - 1]
        mask ^= b
    return out


def _augment(
    n_target: int,
    k: int,
    rows: tuple[int, ...],
    form: bytes,
    edge_count: int,
    max_edges: int | None,
) -> Iterator[tuple[tuple[int, ...], int]]:
    if k == n_target:
        yield rows, edge_count
        return
    # vertices k+1 .. n_target-1 can contribute at most sum(k+1 .. n_target-1)
    # further edges, so children below that floor can never hit an exact target
    floor = 0
    if max_edges is not None:
        floor = max_edges - sum(range(k + 1, n_target))
    for child, cform, ce in _accepted_children(k, rows, form, edge_count, max_edges):
        if max_edges is not None and ce < floor:
            continue
        yield from _augment(n_target, k + 1, child, cform, ce, max_edges)


_ROOT_ROWS: tuple[int, ...] = (0,)


def _root_form() -> bytes:
    return _canon(1, _ROOT_ROWS)[0]


def enumerate_all_graphs(n: int) -> Iterator[Graph]:
    """All simple graphs on ``n`` vertices, one per isomorphism class."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    for rows, _ in _augment(n, 1, _ROOT_ROWS, _root_form(), 0, None):
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
    for rows, _ in _augment(n, 1, _ROOT_ROWS, _root_form(), 0, None):
        g = Graph.from_rows(n, rows)
        if is_connected(g):
            yield g


def branch_states(max_edges: int | None = None) -> list[tuple[tuple[int, ...], bytes, int]]:
    """Deterministic level-5 generation states partitioning all larger graphs.

    Every graph on more than 5 vertices descends from exactly one of these
    states, so they are the unit of parallel work and of checkpointing.
    """
    states = [(_ROOT_ROWS, _root_form(), 0)]
    for _ in range(BRANCH_LEVEL - 1):
        nxt = []
        for rows, form, e in states:
            nxt.extend(_accepted_children(len(rows), rows, form, e, max_edges))
        states = nxt
    return states


def enumerate_connected_from_branch(
    n: int, state: tuple[tuple[int, ...], bytes, int]
) -> Iterator[Graph]:
    """Connected n-vertex descendants of one level-5 branch state."""
    rows, form, e = state
    for out_rows, _ in _augment(n, len(rows), rows, form, e, None):
        g = Graph.from_rows(n, out_rows)
        if is_connected(g):
            yield g


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
    for rows, e in _augment(n, 1, _ROOT_ROWS, _root_form(), 0, m_edges):
        if e != m_edges:
            continue
        g = Graph.from_rows(n, rows)
        if is_connected(g):
            yield g


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


_TREE_CACHE: dict[int, list[tuple[tuple[int, ...], int, int]]] = {}


def _tree_alpha(tree: tuple[int, ...]) -> tuple[int, int]:
    """(a_out, gain) of the rooted tree with level sequence ``tree``.

    A tree DP over (root taken, root left out); see the module docstring
    for how the pair composes over a core.
    """
    parent = [0] * len(tree)
    path: list[int] = []
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


def _trees_of_size(s: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(level sequence, a_out, gain) of every rooted tree on ``s`` nodes."""
    if s not in _TREE_CACHE:
        _TREE_CACHE[s] = [(t, *_tree_alpha(t)) for t in rooted_tree_sequences(s)]
    return _TREE_CACHE[s]


def _attach_forest(
    core_rows: Sequence[int], assignment: Sequence[tuple[int, ...]]
) -> tuple[int, ...]:
    """Core rows plus one rooted tree hung from each core vertex."""
    c = len(core_rows)
    rows = list(core_rows)
    nxt = c
    for root, tree in enumerate(assignment):
        if len(tree) == 1:
            continue
        stack = [root]
        prev_level = 0
        for level in tree[1:]:
            while level <= prev_level:
                stack.pop()
                prev_level -= 1
            parent = stack[-1]
            rows.append(0)
            rows[parent] |= 1 << nxt
            rows[nxt] |= 1 << parent
            stack.append(nxt)
            prev_level = level
            nxt += 1
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
    """
    c = core.n
    rows = core.rows
    auts = [a for a in automorphisms(core) if a != tuple(range(c))]
    trees = [_trees_of_size(s) for s in range(extra + 2)]
    memo: dict[int, int] = {}
    everyone = (1 << c) - 1
    current: list[tuple[int, ...]] = [(0,)] * c

    def rec(v: int, budget: int, out_sum: int, w: int):
        if budget == 0:
            # vertices v.. stay bare: a_out 0 and gain 1 each
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


def bicyclic_graphs(n: int) -> Iterator[Graph]:
    """Connected graphs with exactly ``n + 1`` edges, up to isomorphism.

    Every such graph is a theta, figure-eight, or dumbbell core with rooted
    forests attached; cores are enumerated by normalized parameters and the
    forest placements modulo core automorphisms.
    """
    for rows, assignment, _ in _bicyclic_classes(n):
        yield Graph.from_rows(n, _attach_forest(rows, assignment))


def unicyclic_graphs(n: int) -> Iterator[Graph]:
    """Connected graphs with exactly ``n`` edges, up to isomorphism."""
    for k in range(3, n + 1):
        core = Graph(k, [(i, (i + 1) % k) for i in range(k)])
        for rows, assignment, _ in _forest_assignments(core, n - k):
            yield Graph.from_rows(n, _attach_forest(rows, assignment))
