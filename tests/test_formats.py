"""Serialization: graph6 bit-exactness and edge-list text."""

import random

import networkx as nx
import pytest

from spectramin.formats import (
    _decode_n,
    _encode_n,
    from_edge_list,
    from_graph6,
    to_edge_list,
    to_graph6,
)
from spectramin.graphs import Graph, InvalidParameterError, build_cycle


def random_graph(rng, n, p=0.3) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


class TestGraph6:
    def test_round_trip(self):
        rng = random.Random(0)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 40))
            assert from_graph6(to_graph6(g)) == g

    def test_bit_exact_against_networkx(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(1, 25)
            g = random_graph(rng, n)
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(g.edges())
            assert to_graph6(g) == nx.to_graph6_bytes(G, header=False).decode().strip()

    def test_decodes_networkx_output(self):
        G = nx.petersen_graph()
        s = nx.to_graph6_bytes(G, header=False).decode().strip()
        g = from_graph6(s)
        assert g.n == 10 and g.edge_count == 15

    def test_header_allowed(self):
        g = build_cycle(5)
        assert from_graph6(">>graph6<<" + to_graph6(g)) == g

    def test_large_order_encoding(self):
        g = Graph(100, [(i, i + 1) for i in range(99)])
        s = to_graph6(g)
        assert s.startswith("~")
        assert from_graph6(s) == g

    def test_invalid_rejected(self):
        with pytest.raises(InvalidParameterError):
            from_graph6("D")  # declares 5 vertices, no body

    @pytest.mark.parametrize("s", ["~", "~@", "~?@", "~~", "~~?@", "~~?????", "!", "\x00", "~?!?",
                                   "~~?????\x7f"])
    def test_malformed_header_rejected(self, s):
        # a long-form header cut short, or a header character outside "?".."~"
        with pytest.raises(InvalidParameterError, match="malformed graph6 header"):
            from_graph6(">>graph6<<" + s)

    @pytest.mark.parametrize("n", [62, 63, 64, 258047, 258048, 68719476735])
    def test_header_round_trip(self, n):
        assert _decode_n(_encode_n(n)) == (n, 1 if n <= 62 else 4 if n <= 258047 else 8)


class TestEdgeList:
    def test_round_trip(self):
        g = build_cycle(6)
        text = to_edge_list(g)
        assert text.splitlines()[0] == "6 6"
        assert from_edge_list(text) == g

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            from_edge_list("3 2\n0 1\n")  # promises two edges, has one
        with pytest.raises(InvalidParameterError):
            from_edge_list("")
        with pytest.raises(InvalidParameterError):
            from_edge_list("3 3\n0 1\n0 1\n1 2\n")  # 0-1 listed twice
        with pytest.raises(InvalidParameterError):
            from_edge_list("x 1\n0 1\n")  # non-integer header token
        with pytest.raises(InvalidParameterError):
            from_edge_list("3 1\n0 y\n")  # non-integer edge token
