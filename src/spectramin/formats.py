"""Graph serialization: graph6 strings and plain edge-list text.

The graph6 codec follows the published ASCII format bit for bit: N(n)
header, then the upper triangle read column by column, packed big-endian
into 6-bit groups offset by 63.
"""

from __future__ import annotations

from .graphs import Graph, InvalidParameterError


def _encode_n(n: int) -> str:
    if n < 0:
        raise InvalidParameterError("graph6 order must be nonnegative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise InvalidParameterError(f"graph6 cannot encode n = {n}")


def _decode_n(s: str) -> tuple[int, int]:
    """Return (n, chars consumed): one header character, or "~" and 3, or
    "~~" and 6, each in "?".."~" and read as 6 bits big-endian."""
    if not s:
        raise InvalidParameterError("empty graph6 string")
    used = 1 if s[0] != "~" else 4 if s[1:2] != "~" else 8
    head = s[:used]
    if len(head) < used or not all("?" <= ch <= "~" for ch in head):
        raise InvalidParameterError(f"malformed graph6 header {head!r}")
    n = 0
    for ch in head[used // 4:]:
        n = (n << 6) | (ord(ch) - 63)
    return n, used


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no header, no newline)."""
    n = g.n
    bits = []
    for j in range(1, n):
        col = g.rows[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k : k + 6]:
            v = (v << 1) | b
        chars.append(chr(v + 63))
    return _encode_n(n) + "".join(chars)


def from_graph6(s: str) -> Graph:
    """Decode a graph6 string; the optional ``>>graph6<<`` header is allowed."""
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    n, used = _decode_n(s)
    if n < 1:
        raise InvalidParameterError("graph6 decodes to an empty graph")
    body = s[used:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise InvalidParameterError(
            f"graph6 body length {len(body)} != expected {need} for n={n}"
        )
    bits = []
    for ch in body:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise InvalidParameterError(f"invalid graph6 character {ch!r}")
        for shift in range(5, -1, -1):
            bits.append((v >> shift) & 1)
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph.from_rows(n, rows)


def to_edge_list(g: Graph) -> str:
    """Text form: first line ``n m``, then one ``u v`` line per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _int_pair(line: str) -> tuple[int, int]:
    try:
        u, v = map(int, line.split())
    except ValueError:
        raise InvalidParameterError(
            f"edge list lines must be two integers ('n m', then 'u v'), got {line!r}"
        ) from None
    return u, v


def from_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParameterError("empty edge list")
    (n, m), *edges = map(_int_pair, lines)
    if len(edges) != m:
        raise InvalidParameterError(f"edge list declares {m} edges, found {len(edges)}")
    g = Graph(n, edges)
    if g.edge_count != m:
        raise InvalidParameterError(f"edge list repeats an edge ({m} lines, {g.edge_count} edges)")
    return g
