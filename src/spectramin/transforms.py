"""Spectral-radius-modifying graph rewrites and the descent replay pipeline.

Each operation implements one radius law: edge deletion (strict decrease),
internal-path subdivision (strict decrease except on the double-fork tree),
vertex relocation into an internal path (delete + subdivide, order
preserved), neighbor shifting toward a larger Perron entry (strict
increase), and hub splitting along a cut edge (non-increase, equality only
in the fully symmetric degree-3 case).  ``proof_replay`` chains relocations
and deletions to walk an arbitrary dense-enough graph down onto a canonical
two-cycle family member with non-increasing radius, returning the trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .graphs import (
    Graph,
    InvalidInputError,
    InvalidParameterError,
    canonical_form,
    cut_edges,
    double_fork_tree,
    independence_number,
    internal_paths,
    is_connected,
    on_internal_path,
)
from .spectral import compare_rho_certified, perron_pair, rho_numeric

PERRON_MARGIN = 1e-9  # slack when checking the split anchor's minimum Perron entry


class ExemptionError(InvalidParameterError):
    """The rewrite is refused because its radius law exempts this graph."""


@dataclass(frozen=True)
class RewriteStep:
    kind: str
    before: Graph
    after: Graph
    rho_before: float
    rho_after: float
    rule: str


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Remove one edge; on a connected graph this strictly lowers the radius."""
    if not is_connected(g):
        raise InvalidInputError("delete_edge requires a connected graph")
    u, v = e
    if not g.has_edge(u, v):
        raise InvalidParameterError(f"edge ({u},{v}) not in graph")
    return g.without_edge(u, v)


def _is_double_fork(g: Graph) -> bool:
    if g.n < 6:
        return False
    degs = sorted(g.degrees())
    if degs != [1, 1, 1, 1] + [2] * (g.n - 6) + [3, 3]:
        return False
    return canonical_form(g) == canonical_form(double_fork_tree(g.n))


def subdivide_internal(g: Graph, e: tuple[int, int]) -> Graph:
    """Insert a degree-2 vertex into an internal-path edge.

    Strictly lowers the radius for every graph except the double-fork tree,
    whose radius is pinned at 2; that input is refused.
    """
    u, v = e
    if not g.has_edge(u, v):
        raise InvalidParameterError(f"edge ({u},{v}) not in graph")
    if not on_internal_path(g, (u, v)):
        raise InvalidParameterError(f"edge ({u},{v}) is not on an internal path")
    if _is_double_fork(g):
        raise ExemptionError(
            "refused: subdividing the double-fork tree keeps its radius at 2, "
            "the single exemption to the strict-decrease rule"
        )
    return g.without_edge(u, v).with_vertex([u, v])


def relocate_vertex(g: Graph, v: int, target: tuple[int, int]) -> Graph:
    """Delete ``v`` and reinsert it by subdividing ``target``; order unchanged.

    ``target`` is named in ``g``'s indexing (endpoints must differ from
    ``v``) and must be an internal-path edge once ``v`` is gone.  Combining
    interlacing with the subdivision law, the radius strictly drops.
    """
    a, b = target
    if v in (a, b):
        raise InvalidParameterError("target edge must not touch the relocated vertex")
    h = g.without_vertex(v)
    if not is_connected(h):
        raise InvalidParameterError(f"removing vertex {v} disconnects the graph")
    a2 = a - (a > v)
    b2 = b - (b > v)
    return subdivide_internal(h, (a2, b2))


def shift_neighbors(g: Graph, u: int, v: int, subset) -> Graph:
    """Move the edges from ``v`` to ``subset`` over to ``u``.

    ``subset`` must be nonempty, inside N(v) \\ N(u), and must not contain
    ``u``.  When the Perron entry of ``u`` is at least that of ``v`` the
    radius strictly increases.
    """
    s = sorted(set(subset))
    if not s:
        raise InvalidParameterError("subset must be nonempty")
    if u in s:
        raise InvalidParameterError("subset must not contain the receiving vertex")
    nv = set(g.neighbors(v))
    nu = set(g.neighbors(u))
    for w in s:
        if w not in nv or w in nu:
            raise InvalidParameterError(f"vertex {w} is not in N(v) minus N(u)")
    out = g
    for w in s:
        out = out.without_edge(v, w).with_edge(u, w)
    return out


def split_vertex(g: Graph, v: int, first_side) -> Graph:
    """Split hub ``v`` along a cut edge into two vertices sharing that anchor.

    ``first_side`` is the neighbor set of the first replacement vertex; it
    must contain the cut-edge anchor ``w1`` (the minimum-Perron neighbor of
    ``v``, checked numerically) and leave at least one neighbor for the
    second replacement vertex, which is wired to the anchor plus the rest.
    The radius never increases; with degree 3 and equal neighbor entries it
    is preserved, which is exactly the dumbbell move
    B(m, p, q) -> B(m, p-1, q+2) at the path-side hub.
    """
    side = sorted(set(first_side))
    nv = list(g.neighbors(v))
    t = len(nv)
    if t < 3:
        raise InvalidParameterError(f"split vertex must have degree >= 3, got {t}")
    if not 2 <= len(side) <= t - 1:
        raise InvalidParameterError(
            f"first side must keep between 2 and {t - 1} neighbors, got {len(side)}"
        )
    if any(w not in nv for w in side):
        raise InvalidParameterError("first side must be a subset of N(v)")
    x = perron_pair(g).perron
    w1 = min(nv, key=lambda w: (x[w], w))
    if w1 not in side:
        raise InvalidParameterError(
            f"first side must contain the minimum-Perron neighbor {w1}"
        )
    if any(x[w1] > x[w] + PERRON_MARGIN for w in nv):
        raise InvalidParameterError("anchor does not attain the minimum Perron entry")
    if (min(v, w1), max(v, w1)) not in cut_edges(g):
        raise InvalidParameterError(f"edge ({v},{w1}) is not a cut edge")
    rest = [w for w in nv if w not in side]
    # v keeps the first side, the appended vertex takes the anchor plus the rest
    out = g
    for w in rest:
        out = out.without_edge(v, w)
    return out.with_vertex([w1] + rest)


# ---------------------------------------------------------------------------
# descent replay


def _bfs(g: Graph, sources):
    """Breadth-first first discoveries ``(a, b)``: ``b`` is first reached from ``a``.

    The sources are expanded in ascending order, then every vertex in the
    order it was discovered.
    """
    seen = set(sources)
    queue = deque(sorted(seen))
    while queue:
        a = queue.popleft()
        for b in g.neighbors(a):
            if b not in seen:
                seen.add(b)
                yield a, b
                queue.append(b)


def _shortest_path(g: Graph, sources, targets):
    """Vertex tuple from the first target discovered back to a source, or None.

    The search stops at that target, so no target and no source is interior.
    """
    prev: dict[int, int] = {}
    for a, b in _bfs(g, sources):
        prev[b] = a
        if b in targets:
            path = [b]
            while path[-1] in prev:
                path.append(prev[path[-1]])
            return tuple(path)
    return None


def _edge_set(walk) -> set[frozenset]:
    """Edges between consecutive vertices of ``walk``."""
    return {frozenset(pp) for pp in zip(walk, walk[1:])}


def _cycle_edges(cyc: tuple[int, ...]) -> set[frozenset]:
    return _edge_set(cyc + cyc[:1])


def _theta_from_pair(c1: tuple[int, ...], c2: tuple[int, ...]):
    """Minimal theta inside the union of two cycles sharing >= 2 vertices.

    Takes the shortest arc of ``c1`` whose interior avoids ``c2`` and whose
    edge is not itself a ``c2`` edge; its endpoints split ``c2`` into two
    more internally disjoint paths.  Returns (params, edges) or None.
    """
    s2 = set(c2)
    e2 = _cycle_edges(c2)
    n1 = len(c1)
    hits = [i for i in range(n1) if c1[i] in s2]
    best = None
    for a_i in range(len(hits)):
        i0 = hits[a_i]
        i1 = hits[(a_i + 1) % len(hits)]
        length = (i1 - i0) % n1
        if length == 0:
            continue
        x, y = c1[i0], c1[i1]
        if x == y:
            continue
        if length == 1 and frozenset((x, y)) in e2:
            continue
        if best is None or length < best[0]:
            arc = tuple(c1[(i0 + k) % n1] for k in range(length + 1))
            best = (length, x, y, arc)
    if best is None:
        return None
    length, x, y, arc = best
    j0, j1 = c2.index(x), c2.index(y)
    d = (j1 - j0) % len(c2)
    return tuple(sorted((length, d, len(c2) - d))), e2 | _edge_set(arc)


def find_minimal_bicyclic_core(g: Graph):
    """Smallest two-cycle subgraph: (family, params, vertex set, edge set).

    Short cycles are collected per edge (shortest cycle through each) and
    classified pairwise into shared-vertex (figure-eight), shared-stretch
    (theta), or disjoint (dumbbell, via a shortest connecting path)
    candidates, keeping the fewest edges, ties broken on family then the
    normalized parameter triple.
    """
    if g.edge_count < g.n + 1:
        raise InvalidInputError("a two-cycle subgraph needs at least n + 1 edges")
    pool = []
    seen_cycles = set()
    for u, v in g.edges():
        # the shortest cycle through uv closes a shortest v-u path without it
        cyc = _shortest_path(g.without_edge(u, v), (u,), (v,))
        if cyc is None:
            continue
        key = frozenset(cyc)
        if key not in seen_cycles:
            seen_cycles.add(key)
            pool.append(cyc)
    best = None
    for c1, c2 in combinations(pool, 2):
        s1, s2 = set(c1), set(c2)
        shared = len(s1 & s2)
        m, q = sorted((len(c1), len(c2)))
        if shared == 0:
            path = _shortest_path(g, s1, s2)
            if path is None:
                continue
            rank, family, params = 2, "B", (m, len(path) - 1, q)
            edges = _cycle_edges(c1) | _cycle_edges(c2) | _edge_set(path)
        elif shared == 1:
            rank, family, params = 0, "C", (m, 0, q)
            edges = _cycle_edges(c1) | _cycle_edges(c2)
        else:
            theta = _theta_from_pair(c1, c2) or _theta_from_pair(c2, c1)
            if theta is None:
                continue
            rank, family, (params, edges) = 1, "P", theta
        cand = (len(edges), rank, params, family, edges)
        if best is None or cand[:3] < best[:3]:
            best = cand
    if best is None:
        raise InvalidInputError("no pair of cycles found")
    _, _, params, family, edges = best
    return family, params, {v for e in edges for v in e}, edges


def _farthest_outside(g: Graph, core: set[int]) -> int:
    """Outside vertex at maximum BFS distance from the core (ties: max index)."""
    dist = dict.fromkeys(core, 0)
    for a, b in _bfs(g, core):
        dist[b] = dist[a] + 1
    return max((d, v) for v, d in dist.items() if v not in core)[1]


def _core_subdivision_target(g: Graph, core: set[int]) -> tuple[int, int]:
    """Edge of the longest internal path of the induced core, deterministic."""
    verts = sorted(core)
    sub = g.subgraph(verts)
    paths = internal_paths(sub)
    if not paths:
        raise InvalidInputError("core has no internal path to extend")
    longest = max(len(p) for p in paths)
    path = min(p for p in paths if len(p) == longest)
    a, b = path[0], path[1]
    return verts[a], verts[b]


def proof_replay(g: Graph) -> list[RewriteStep]:
    """Monotone descent from ``g`` onto a two-cycle family member.

    Requires a connected graph with at least n + 1 edges whose independence
    number is ceil(n/2) - 1.  Picks a minimal two-cycle core, deletes
    non-core edges between core vertices, then repeatedly relocates the
    outside vertex farthest from the core into the core's longest internal
    path.  Every step is radius-non-increasing by a certified comparison
    ("less" or "equal"); the float readings are only reported.  The final
    graph is the core with all spare vertices absorbed as subdivisions,
    i.e. a family member of full order.
    """
    if not is_connected(g):
        raise InvalidInputError("replay requires a connected graph")
    if g.edge_count < g.n + 1:
        raise InvalidInputError(
            f"replay requires at least {g.n + 1} edges, got {g.edge_count}"
        )
    alpha = independence_number(g)
    want = (g.n + 1) // 2 - 1
    if alpha != want:
        raise InvalidInputError(
            f"replay requires independence number {want}, got {alpha}"
        )
    _, _, core, core_edges = find_minimal_bicyclic_core(g)
    moves = []  # (kind, rule, graph after the step)
    cur = g
    # deleting a non-core edge between core vertices creates no other
    for u, v in g.edges():
        if u in core and v in core and frozenset((u, v)) not in core_edges:
            cur = delete_edge(cur, (u, v))
            moves.append(("delete-edge", "edge-deletion", cur))
    while len(core) < cur.n:
        v = _farthest_outside(cur, core)
        cur = relocate_vertex(cur, v, _core_subdivision_target(cur, core))
        moves.append(("relocate-vertex", "relocation-into-internal-path", cur))
        # v lay outside the core: reindex the core below it, add the new vertex
        core = {u - (u > v) for u in core} | {cur.n - 1}
    walk = [g] + [h for _, _, h in moves]
    rho = [rho_numeric(h) for h in walk] if moves else []
    steps = [
        RewriteStep(kind, walk[i], h, rho[i], rho[i + 1], rule)
        for i, (kind, rule, h) in enumerate(moves)
    ]
    # one pool: a step's ``after`` is the next step's ``before``
    certs: dict = {}
    for st in steps:
        verdict = compare_rho_certified(st.after, st.before, certs)
        if verdict not in ("less", "equal"):
            raise InvalidInputError(
                f"non-monotone step {st.kind}: {st.rho_before} -> {st.rho_after} "
                f"(certified: {verdict})"
            )
    return steps


def serialize_trace(steps: list[RewriteStep]) -> str:
    """Line log: kind, rule, radius before/after, graph6 of the result."""
    from .formats import to_graph6

    lines = []
    for st in steps:
        lines.append(
            f"{st.kind}\t{st.rule}\t{st.rho_before:.12g}\t{st.rho_after:.12g}\t"
            f"{to_graph6(st.after)}"
        )
    return "\n".join(lines)
