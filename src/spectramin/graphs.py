"""Immutable simple graphs, the named graph families, and exact structure predicates.

Vertices are always ``0..n-1`` and adjacency is kept as one integer bitmask
per vertex, which makes the hot paths (canonical labeling, independence
number, enumeration) cheap in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class InvalidParameterError(ValueError):
    """Arguments fall outside an operation's documented domain."""


class InvalidInputError(ValueError):
    """An input graph violates an operation's preconditions."""


# ---------------------------------------------------------------------------
# core graph type


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``rows[v]`` is the neighbor bitmask of ``v`` (bit ``u`` set iff ``uv`` is
    an edge).  Instances are immutable and hashable; operations that "modify"
    a graph return a new one.
    """

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise InvalidParameterError(f"graph order must be >= 1, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self._hash = None

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[int]) -> "Graph":
        """Wrap prevalidated bitmask rows (trusted fast path for generators)."""
        g = object.__new__(cls)
        g.n = n
        g.rows = tuple(rows)
        g._hash = None
        return g

    # -- queries ------------------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return _bits(self.rows[v])

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, r in enumerate(self.rows) for v in _bits(r >> (u + 1) << (u + 1))]

    def adjacency_matrix(self) -> np.ndarray:
        return adjacency_matrices([self])[0]

    # -- functional edits ---------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidParameterError(f"bad edge ({u},{v})")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph.from_rows(self.n, rows)

    def without_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise InvalidParameterError(f"edge ({u},{v}) not present")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph.from_rows(self.n, rows)

    def with_vertex(self, neighbors: Iterable[int] = ()) -> "Graph":
        """Append vertex ``n`` adjacent to ``neighbors``."""
        k = self.n
        rows = list(self.rows)
        mask = 0
        for u in neighbors:
            if not 0 <= u < k:
                raise InvalidParameterError(f"neighbor {u} out of range")
            mask |= 1 << u
            rows[u] |= 1 << k
        rows.append(mask)
        return Graph.from_rows(k + 1, rows)

    def without_vertex(self, v: int) -> "Graph":
        """Delete ``v``; vertices above ``v`` shift down by one."""
        if not 0 <= v < self.n:
            raise InvalidParameterError(f"vertex {v} out of range")
        if self.n == 1:
            raise InvalidParameterError("cannot delete the last vertex")
        return Graph.from_rows(self.n - 1, _delete_vertex_rows(self.rows, v))

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is ``vertices[i]``."""
        vs = list(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        if len(pos) != len(vs):
            raise InvalidParameterError("duplicate vertices in subgraph selection")
        if any(not 0 <= v < self.n for v in vs):
            raise InvalidParameterError(f"subgraph vertices must lie in 0..{self.n - 1}")
        rows = [0] * len(vs)
        for i, v in enumerate(vs):
            for u in _bits(self.rows[v]):
                j = pos.get(u)
                if j is not None:
                    rows[i] |= 1 << j
        return Graph.from_rows(len(vs), rows)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Relabeled copy where old vertex ``v`` becomes ``perm[v]``."""
        if sorted(perm) != list(range(self.n)):
            raise InvalidParameterError(f"relabel needs a permutation of 0..{self.n - 1}")
        rows = [0] * self.n
        for v, r in enumerate(self.rows):
            rows[perm[v]] = _permute_mask(perm, r)
        return Graph.from_rows(self.n, rows)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.rows))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def adjacency_matrices(graphs: Sequence[Graph]) -> np.ndarray:
    """Stacked ``(B, n, n)`` float64 adjacency matrices of graphs of one order,
    unpacked from the little-endian bytes of each bitmask row (any ``n``)."""
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise InvalidParameterError("adjacency_matrices needs graphs of one order")
    width = (n + 7) // 8
    raw = b"".join(r.to_bytes(width, "little") for g in graphs for r in g.rows)
    rows = np.frombuffer(raw, np.uint8).reshape(len(graphs), n, width)
    return np.unpackbits(rows, axis=2, count=n, bitorder="little").astype(np.float64)


def _permute_mask(perm: Sequence[int], mask: int) -> int:
    """Image of the vertex set ``mask`` under ``perm``: bit ``v`` moves to bit ``perm[v]``."""
    out = 0
    while mask:
        b = mask & -mask
        out |= 1 << perm[b.bit_length() - 1]
        mask ^= b
    return out


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def _delete_vertex_rows(rows: Sequence[int], v: int) -> list[int]:
    low = (1 << v) - 1
    out = []
    for u, r in enumerate(rows):
        if u == v:
            continue
        out.append((r & low) | ((r >> (v + 1)) << v))
    return out


# ---------------------------------------------------------------------------
# connectivity, bridges, paths


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single component (one vertex counts)."""
    full = (1 << g.n) - 1
    return _mask_components(g.rows, full) == [full]


def connected_components(g: Graph) -> list[int]:
    """Component bitmasks, ordered by smallest member."""
    return _mask_components(g.rows, (1 << g.n) - 1)


def cut_edges(g: Graph) -> list[tuple[int, int]]:
    """All bridges of a connected graph, sorted: the edges whose removal disconnects it."""
    if not is_connected(g):
        raise InvalidInputError("cut_edges requires a connected graph")
    return [(u, v) for u, v in g.edges() if not is_connected(g.without_edge(u, v))]


def cycles_mutually_disjoint(g: Graph) -> bool:
    """True iff no two cycles share a vertex.

    Every cycle avoids the bridges, and a bridgeless connected graph holds
    two cycles sharing a vertex unless it is one cycle: a second cycle
    through any edge leaving the first meets it.  So with the bridges
    deleted, every component of two or more vertices must have as many
    edges as vertices.
    """
    if not is_connected(g):
        raise InvalidInputError("cycles_mutually_disjoint requires a connected graph")
    rows = list(g.rows)
    for u, v in cut_edges(g):
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    for comp in _mask_components(rows, (1 << g.n) - 1):
        size = comp.bit_count()
        if size > 1 and sum(rows[v].bit_count() for v in _bits(comp)) != 2 * size:
            return False
    return True


def internal_paths(g: Graph) -> list[tuple[int, ...]]:
    """Maximal paths with endpoints of degree >= 3 and interior degree 2.

    Closed walks (equal endpoints) and the degenerate two-adjacent-branch-
    vertices case are included.  Each path appears once, in a canonical
    orientation, sorted.
    """
    deg = g.degrees()
    found = set()
    for s in range(g.n):
        if deg[s] < 3:
            continue
        for t in g.neighbors(s):
            seq = [s, t]
            while deg[seq[-1]] == 2:
                a, b = g.neighbors(seq[-1])
                seq.append(b if a == seq[-2] else a)
            if deg[seq[-1]] >= 3:
                tup = tuple(seq)
                found.add(min(tup, tuple(reversed(tup))))
    return sorted(found)


def on_internal_path(g: Graph, edge: tuple[int, int]) -> bool:
    """True iff the edge lies on some internal path of ``g``.

    Walking from the edge through degree-2 vertices, both ways, must stop at
    a vertex of degree >= 3; a walk that comes back to where it began has
    gone round a bare cycle.
    """
    u, v = edge
    if not g.has_edge(u, v):
        return False
    deg = g.degrees()
    for start, cur in ((u, v), (v, u)):
        prev = start
        while deg[cur] == 2 and cur != start:
            a, b = g.neighbors(cur)
            prev, cur = cur, (b if a == prev else a)
        if deg[cur] < 3:
            return False
    return True


# ---------------------------------------------------------------------------
# independence number


def independence_number(g: Graph) -> int:
    """Exact maximum independent set size (see ``_mis``)."""
    return _mis(g.rows, (1 << g.n) - 1, {})


def _mask_components(rows: Sequence[int], alive: int) -> list[int]:
    comps = []
    left = alive
    while left:
        seen = left & -left
        frontier = seen
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= rows[b.bit_length() - 1]
                m ^= b
            frontier = nxt & alive & ~seen
            seen |= frontier
        comps.append(seen)
        left &= ~seen
    return comps


def _mis(rows: Sequence[int], mask: int, memo: dict[int, int]) -> int:
    """alpha of the subgraph induced on ``mask``, memoized per mask in ``memo``.

    Four rules, each exact by its law:

    * a vertex of degree 0 or 1 lies in some maximum independent set (swap
      its one neighbour out of any other), so it is taken and its
      neighbour deleted, again and again, with no recursion;
    * alpha adds over components, so a disconnected rest is summed
      component by component;
    * a connected 2-regular graph is a cycle, whose alpha is ``k // 2``;
    * otherwise a maximum-degree vertex ``v`` is left out or taken:
      ``alpha = max(alpha(G - v), 1 + alpha(G - N[v]))``.
    """
    cached = memo.get(mask)
    if cached is not None:
        return cached
    start = mask
    alpha = 0
    todo = mask
    while todo:
        b = todo & -todo
        todo ^= b
        nb = rows[b.bit_length() - 1] & mask
        if nb & (nb - 1) == 0:  # degree 0 or 1
            alpha += 1
            mask ^= b | nb
            if nb:  # the neighbour's other neighbours lost a degree
                todo = (todo | rows[nb.bit_length() - 1]) & mask
    if mask:
        comps = _mask_components(rows, mask)
        if len(comps) > 1:
            alpha += sum(_mis(rows, comp, memo) for comp in comps)
        else:
            best_v = -1
            best_d = -1
            m = mask
            while m:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                d = (rows[v] & mask).bit_count()
                if d > best_d:
                    best_d = d
                    best_v = v
            if best_d == 2:
                alpha += mask.bit_count() // 2
            else:
                bit = 1 << best_v
                alpha += max(
                    _mis(rows, mask & ~bit, memo),
                    1 + _mis(rows, mask & ~(rows[best_v] | bit), memo),
                )
    memo[start] = alpha
    return alpha


# ---------------------------------------------------------------------------
# canonical labeling (refinement + pruned minimal-encoding search)


def _refined_colors(n: int, rows: Sequence[int]) -> list[int]:
    """Relabeling-invariant vertex colors from iterated neighborhood refinement.

    Round 0 ranks the vertices by degree; each later round ranks them by
    (previous color, sorted colors of the neighbors) until the number of
    classes stops growing.  Colors are ranks ``0..c-1`` in that order.

    A round costs O(m) integer additions.  Later rounds only split cells,
    so vertices of one color have equal degree, and for equal degree the
    sorted neighbor-color lists compare as the count vectors do, more of a
    smaller color first.  With ``c`` classes and every count below ``n``,
    the integer ``colors[v]·n^c − Σ_{u∈N(v)} n^(c−1−colors[u])`` therefore
    ranks the vertices exactly as the (color, sorted list) keys would.
    """
    keys = [rows[v].bit_count() for v in range(n)]
    uniq = sorted(set(keys))
    rank = {k: r for r, k in enumerate(uniq)}
    colors = [rank[k] for k in keys]
    nclasses = len(uniq)
    while nclasses < n:
        power = [1] * nclasses  # power[c] = n^(nclasses-1-c)
        for c in range(nclasses - 2, -1, -1):
            power[c] = power[c + 1] * n
        top = power[0] * n
        weight = [power[c] for c in colors]
        keys = []
        for v in range(n):
            key = colors[v] * top
            m = rows[v]
            while m:
                b = m & -m
                key -= weight[b.bit_length() - 1]
                m ^= b
            keys.append(key)
        uniq = sorted(set(keys))
        if len(uniq) == nclasses:
            break
        rank = {k: r for r, k in enumerate(uniq)}
        colors = [rank[k] for k in keys]
        nclasses = len(uniq)
    return colors


def _dense_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, count) per row of ``keys``: each key's place among its row's
    distinct keys in ascending order, and the number of distinct keys."""
    order = np.argsort(keys, axis=1, kind="stable")
    ordered = np.take_along_axis(keys, order, 1)
    step = np.zeros(keys.shape, np.int64)
    step[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    np.cumsum(step, axis=1, out=step)
    ranks = np.empty_like(step)
    np.put_along_axis(ranks, order, step, 1)
    return ranks, step[:, -1] + 1


def _refined_colors_batch(
    n: int, rows: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``_refined_colors`` of every graph of a stack, as (colors, classes):
    ``rows[i]`` holds the bitmask rows of graph ``i`` (int64, shape (B, n)),
    with no ``start``, ``colors[i]`` equals ``_refined_colors(n, rows[i])``,
    and ``classes[i]`` is its number of colors.

    Round 0 ranks the degrees, or ``start``, one integer per vertex (shape
    (B, n)), when given.  Each round ranks the keys
    ``colors[v]·n^c − Σ_{u∈N(v)} n^(c−1−colors[u])`` of the scalar routine
    row by row, for the rows whose class count still grows.  A row refines
    while ``c < n``, so a key lies within (n − 1)·n^c < (n − 1)·n^n in size,
    which is exact in int64 while (n − 1)·n^n < 2^63, that is for n <= 15.
    A ``start`` whose classes lie inside degree classes keeps the keys
    ordered as (color, sorted neighbor colors) would be.
    """
    if n > 15:
        raise InvalidParameterError(f"int64 refinement keys hold n <= 15, got {n}")
    if start is None:
        start = np.zeros_like(rows)
        for u in range(n):
            start += rows >> u & 1
    colors, classes = _dense_ranks(start)
    power = n ** np.arange(n + 1, dtype=np.int64)
    live = np.flatnonzero(classes < n)
    while live.size:
        c = classes[live, None]
        old = colors[live]
        weight = power[c - 1 - old]
        keys = old * power[c]
        nbrs = rows[live]
        for u in range(n):
            keys -= (nbrs >> u & 1) * weight[:, u, None]
        new, count = _dense_ranks(keys)
        grown = count > c[:, 0]
        colors[live[grown]] = new[grown]
        classes[live[grown]] = count[grown]
        live = live[grown & (count < n)]
    return colors, classes


def _canon(
    n: int, rows: Sequence[int], colors: Sequence[int] | None = None
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonical labeling, orbits and automorphism generators.

    Searches for the least packed adjacency encoding over all orderings
    that respect the refined color classes.  Returns ``(perm, orbits,
    gens)``: ``perm[i]`` is the input vertex at canonical position ``i``;
    ``gens`` are automorphisms as image tuples (``sigma[v]`` = image of
    ``v``); ``orbits[v]`` is the least vertex of ``v``'s orbit.  Two graphs
    are isomorphic iff ``_pack_form`` gives them equal forms under ``perm``.

    The generators are every leaf that ties the best encoding (as the map
    from the first least leaf to it) plus every twin swap the search prunes
    by.  The search skips a subtree only when its prefix encodes above the
    best, when a twin swap maps it onto a tried sibling, or when a found
    automorphism maps its root vertex onto a tried root.  So every least leaf is
    the image of the first one under the group these generate, and since
    the least leaves form one coset of Aut(G), the generators generate
    Aut(G) and ``orbits`` are its orbits.

    ``colors``, when given, must be ``_refined_colors(n, rows)``; a caller
    that already refined the graph passes them so the search does not
    refine it again.
    """
    if colors is None:
        colors = _refined_colors(n, rows)
    order = sorted(range(n), key=lambda v: (colors[v], v))
    if len(set(colors)) == n:
        return tuple(order), tuple(range(n)), ()

    inf = 1 << n  # above every rv: at position pos, rv < 2^pos
    best_rows = [inf] * n
    best_perm: list[int] = [0] * n
    best_complete = False
    gens: dict[tuple[int, ...], None] = {}  # insertion-ordered set
    # union-find over vertices: the orbits of the generators found so far
    uf = list(range(n))

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def record(sigma: tuple[int, ...]) -> None:
        if sigma in gens:
            return
        gens[sigma] = None
        for v in range(n):
            a, b = find(v), find(sigma[v])
            if a != b:
                uf[a] = b

    placed: list[int] = []
    tried_roots: list[int] = []

    # rest: the unplaced vertices in (color, vertex) order, whose first color
    # cell holds the candidates; rv[u]: u's adjacency to the placed vertices
    def search(rest: list[int], rv: list[int]) -> None:
        nonlocal best_complete
        pos = len(placed)
        if pos == n:
            if best_complete:
                # every position matched the best: best_perm -> placed is an automorphism
                sigma = [0] * n
                for i in range(n):
                    sigma[best_perm[i]] = placed[i]
                record(tuple(sigma))
            else:
                best_perm[:] = placed
                best_complete = True
            return
        at_root = pos == 0
        cell = colors[rest[0]]
        cands = sorted([v for v in rest if colors[v] == cell], key=lambda v: rv[v])
        tried: list[int] = []
        for v in cands:
            if at_root and any(find(v) == find(w) for w in tried_roots):
                continue
            rv_v = rv[v]
            twin = -1
            for w in tried:
                if rv[w] == rv_v and rows[v] & ~(1 << w) == rows[w] & ~(1 << v):
                    twin = w
                    break
            if twin >= 0:
                # swapping the twins fixes everything else, so the twin's
                # subtree already covered this branch
                swap = list(range(n))
                swap[v], swap[twin] = twin, v
                record(tuple(swap))
                continue
            b = best_rows[pos]
            if rv_v > b:
                break  # candidates are sorted ascending
            if rv_v < b:
                best_rows[pos] = rv_v
                for j in range(pos + 1, n):
                    best_rows[j] = inf
                best_complete = False
            if at_root:
                tried_roots.append(v)
            tried.append(v)
            placed.append(v)
            rest2 = [u for u in rest if u != v]
            rv2 = rv[:]
            for u in rest2:
                rv2[u] = (rv2[u] << 1) | ((rows[u] >> v) & 1)
            search(rest2, rv2)
            placed.pop()

    search(order, [0] * n)

    least: dict[int, int] = {}
    orbits = tuple(least.setdefault(find(v), v) for v in range(n))
    return tuple(best_perm), orbits, tuple(gens)


def _pack_form(n: int, rows: Sequence[int], perm: Sequence[int]) -> bytes:
    width = (n + 7) // 8
    out = bytearray(n.to_bytes(2, "big"))
    inv = [0] * n
    for i, v in enumerate(perm):
        inv[v] = i
    for v in perm:
        out += _permute_mask(inv, rows[v]).to_bytes(width, "big")
    return bytes(out)


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant byte string: equal iff graphs are isomorphic."""
    return _pack_form(g.n, g.rows, _canon(g.n, g.rows)[0])


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Permutation ``perm`` with ``perm[i]`` = vertex at canonical position ``i``."""
    return _canon(g.n, g.rows)[0]


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms as image tuples (``sigma[v]`` = image of ``v``), sorted.

    The closure of the generators ``_canon`` finds.
    """
    gens = _canon(g.n, g.rows)[2]
    frontier = {tuple(range(g.n))}
    group = set(frontier)
    while frontier:
        frontier = {tuple(map(a.__getitem__, s)) for a in frontier for s in gens} - group
        group |= frontier
    return sorted(group)


# ---------------------------------------------------------------------------
# named families


def build_cycle(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise InvalidParameterError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def build_complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def build_join_extremal(n: int, alpha: int) -> Graph:
    """Clique on ``n - alpha`` vertices completely joined to ``alpha`` isolated ones."""
    if not 1 <= alpha <= n - 1:
        raise InvalidParameterError(f"need 1 <= alpha <= n-1, got n={n}, alpha={alpha}")
    c = n - alpha
    edges = [(i, j) for i in range(c) for j in range(i + 1, c)]
    edges += [(i, j) for i in range(c) for j in range(c, n)]
    return Graph(n, edges)


def double_fork_tree(n: int) -> Graph:
    """Two degree-3 fork vertices joined by a path, two leaves on each end.

    The unique tree exempt from the rule that subdividing an internal path
    strictly lowers the spectral radius; its radius stays exactly 2.
    """
    if n < 6:
        raise InvalidParameterError(f"double fork tree needs n >= 6, got {n}")
    spine = n - 4
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(0, spine), (0, spine + 1), (spine - 1, spine + 2), (spine - 1, spine + 3)]
    return Graph(n, edges)


@dataclass(frozen=True)
class BicyclicSpec:
    """Family tag and edge-length parameters naming one bicyclic graph.

    ``B(m, p, q)``: cycles of lengths m and q joined by a path of length p.
    ``C(m, q)``: cycles of lengths m and q sharing one vertex (no p).
    ``P(m, p, q)``: three internally disjoint paths of lengths m, p, q
    between two hub vertices (the theta graph).
    """

    family: str
    m: int
    p: int | None
    q: int

    def __post_init__(self):
        f = self.family
        if f == "B":
            if self.m < 3 or self.q < 3 or self.p is None or self.p < 1:
                raise InvalidParameterError(f"B needs m,q >= 3 and p >= 1: {self}")
        elif f == "C":
            if self.m < 3 or self.q < 3:
                raise InvalidParameterError(f"C needs m,q >= 3: {self}")
            if self.p is not None:
                raise InvalidParameterError("C takes no path parameter")
        elif f == "P":
            if self.p is None or min(self.m, self.p, self.q) < 1:
                raise InvalidParameterError(f"P needs m,p,q >= 1: {self}")
            if [self.m, self.p, self.q].count(1) > 1:
                raise InvalidParameterError(f"P allows at most one unit length: {self}")
        else:
            raise InvalidParameterError(f"unknown family {f!r}")

    @property
    def order(self) -> int:
        if self.family == "C":
            return self.m + self.q - 1
        return self.m + self.p + self.q - 1

    def __str__(self) -> str:
        if self.family == "C":
            return f"C({self.m},{self.q})"
        return f"{self.family}({self.m},{self.p},{self.q})"


def spec_B(m: int, p: int, q: int) -> BicyclicSpec:
    return BicyclicSpec("B", m, p, q)


def spec_C(m: int, q: int) -> BicyclicSpec:
    return BicyclicSpec("C", m, None, q)


def spec_P(m: int, p: int, q: int) -> BicyclicSpec:
    return BicyclicSpec("P", m, p, q)


@dataclass(frozen=True)
class VertexLabeling:
    """Where each structural role of a bicyclic family graph landed.

    ``hub_a``/``hub_b`` are the junction vertices (equal for the C family).
    ``seg_m``/``seg_q`` hold the non-hub vertices of the two length-m/q
    parts in walk order starting next to ``hub_a``/``hub_b``; ``seg_p`` holds
    the interior path vertices in order from ``hub_a`` to ``hub_b``.
    """

    hub_a: int
    hub_b: int
    seg_m: tuple[int, ...]
    seg_p: tuple[int, ...]
    seg_q: tuple[int, ...]

    def all_vertices(self) -> tuple[int, ...]:
        hubs = (self.hub_a,) if self.hub_a == self.hub_b else (self.hub_a, self.hub_b)
        return hubs + self.seg_m + self.seg_p + self.seg_q


def build_bicyclic(spec: BicyclicSpec) -> tuple[Graph, VertexLabeling]:
    """Construct the named family graph with the documented fixed indexing.

    ``hub_a`` is vertex 0; the length-m part takes ``1..m-1``, the interior
    path ``m..m+p-2``, ``hub_b`` comes next (B and P; C has one hub) and the
    length-q part follows.  Each family is a set of hub-to-hub walks: the two
    cycles closed at their hubs plus, for B, the path; for P, three walks
    from ``hub_a`` to ``hub_b``.
    """
    m, q = spec.m, spec.q
    p = spec.p or 0  # C: no path, so the length-q part starts at m
    hub_a = 0
    hub_b = hub_a if spec.family == "C" else m + p - 1
    seg_m = tuple(range(1, m))
    seg_p = tuple(range(m, m + p - 1))
    seg_q = tuple(range(m + p, m + p + q - 1))
    if spec.family == "P":
        walks = [(hub_a, *seg, hub_b) for seg in (seg_m, seg_p, seg_q)]
    else:
        walks = [(hub_a, *seg_m, hub_a), (hub_b, *seg_q, hub_b)]
        if spec.family == "B":
            walks.append((hub_a, *seg_p, hub_b))
    edges = [e for walk in walks for e in zip(walk, walk[1:])]
    return Graph(spec.order, edges), VertexLabeling(hub_a, hub_b, seg_m, seg_p, seg_q)


def predicted_independence(spec: BicyclicSpec) -> int:
    """Closed-form independence number of a family graph via parameter parity."""
    n = spec.order
    half_up = (n + 1) // 2
    if spec.family == "P":
        odd = sum(x % 2 for x in (spec.m, spec.p, spec.q))
        return half_up - 1 if odd == 2 else half_up
    if spec.family == "C":
        return half_up - 1 if spec.m % 2 == 1 and spec.q % 2 == 1 else half_up
    odd = sum(x % 2 for x in (spec.m, spec.p, spec.q))
    return half_up - 1 if odd >= 2 else half_up
