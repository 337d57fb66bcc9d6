"""graph6 codec, cross-checked against networkx on the full atlas."""

import networkx as nx
import pytest

from corpus import atlas_graphs
from eigenframe.errors import Graph6Error, ResourceLimitError
from eigenframe.graphs import cycle, emit_graph6, from_edges, parse_graph6


def test_roundtrip_full_atlas():
    for g, _ in atlas_graphs():
        assert parse_graph6(emit_graph6(g)) == g


def test_emit_matches_networkx():
    for g, nxg in atlas_graphs():
        relabeled = nx.convert_node_labels_to_integers(nxg, ordering="sorted")
        expected = nx.to_graph6_bytes(relabeled, header=False).strip().decode()
        assert emit_graph6(g) == expected


def test_parse_matches_networkx():
    for g, nxg in atlas_graphs():
        s = emit_graph6(g)
        back = nx.from_graph6_bytes(s.encode())
        assert back.number_of_edges() == g.num_edges()
        assert sorted(map(sorted, back.edges())) == sorted(map(list, g.edges()))


def test_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.num_edges() == 0
    assert emit_graph6(g) == "@"


def test_triangle_literal():
    # n=3 header byte is 'B'; three adjacency bits 111 padded to 111000 is 'w'
    assert emit_graph6(from_edges(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"
    assert parse_graph6("Bw") == from_edges(3, [(0, 1), (0, 2), (1, 2)])


def test_header_accepted():
    s = ">>graph6<<" + emit_graph6(cycle(5))
    assert parse_graph6(s) == cycle(5)


def test_trailing_newline_tolerated():
    assert parse_graph6(emit_graph6(cycle(4)) + "\n") == cycle(4)


def test_errors_carry_byte_offsets():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D" + chr(32) * 2)  # bytes below the graph6 range
    assert "byte" in str(exc.value)
    with pytest.raises(Graph6Error):
        parse_graph6("D")  # declares 5 vertices, adjacency bytes missing
    with pytest.raises(Graph6Error):
        parse_graph6("A")  # n=2 needs one adjacency byte
    # once replaced by "?", byte 63, "Aé" would read as the graph "A?"
    for text, offset in (("Aé", 1), ("é", 0), (">>graph6<<B\u2019", 11)):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(text)
        assert exc.value.offset == offset and "not ASCII" in str(exc.value)


def test_padding_bits_checked():
    # n=3 uses 3 of 6 bits; 000001 sets a padding bit
    with pytest.raises(Graph6Error):
        parse_graph6("B" + chr(63 + 1))


def test_vertex_cap():
    n = 2_000_000  # above the vertex cap
    digits = [((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1)]
    with pytest.raises(ResourceLimitError):
        parse_graph6(bytes([126, 126] + digits))


def test_large_n_roundtrip():
    g = cycle(80)
    assert parse_graph6(emit_graph6(g)) == g
