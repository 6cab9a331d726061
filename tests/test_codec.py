"""graph6 codec and DOT export."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_networkx, random_connected_graph, to_networkx
from graphrefute.codec import Graph6Error, decode_graph6, encode_graph6, export_dot
from graphrefute.graphs import Graph, complete, cycle, path, star


def test_known_strings():
    assert encode_graph6(Graph(1)) == "@"
    assert encode_graph6(complete(2)) == "A_"
    assert encode_graph6(path(3)) == "Bg"
    assert encode_graph6(complete(3)) == "Bw"
    assert decode_graph6("Bw") == complete(3)
    assert decode_graph6(">>graph6<<Bw") == complete(3)


def test_round_trip_small():
    rng = random.Random(2)
    for n in range(1, 14):
        g = random_connected_graph(n, rng)
        assert decode_graph6(encode_graph6(g)) == g


def test_round_trip_long_header():
    # Orders 63..258047 use the 4-byte header form.
    g = path(70)
    text = encode_graph6(g)
    assert text.startswith("~")
    assert decode_graph6(text) == g


def test_matches_networkx_encoding():
    nx = pytest.importorskip("networkx")
    rng = random.Random(9)
    for n in (1, 2, 6, 11, 63, 70):
        g = random_connected_graph(n, rng) if n > 1 else Graph(1)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert encode_graph6(g) == theirs
        assert from_networkx(nx.from_graph6_bytes(theirs.encode())) == g


def test_decode_errors_carry_offsets():
    with pytest.raises(Graph6Error) as info:
        decode_graph6("")
    assert info.value.offset == 0
    with pytest.raises(Graph6Error) as info:
        decode_graph6("B" + chr(3))
    assert info.value.offset == 1
    assert decode_graph6("Bw \n") == complete(3)  # outer whitespace tolerated
    with pytest.raises(Graph6Error) as info:
        decode_graph6("Bw w")  # interior space
    assert info.value.offset == 2
    with pytest.raises(Graph6Error):
        decode_graph6("B")  # truncated payload
    # Only "~~" starts the 8-byte order header; a lone "~" starts the 4-byte one.
    for text, form in (("~", "4-byte"), ("~?", "4-byte"), ("~~", "8-byte"), ("~~??", "8-byte")):
        with pytest.raises(Graph6Error, match=f"truncated {form} order header") as info:
            decode_graph6(text)
        assert info.value.offset == len(text)


def test_decode_rejects_nonzero_padding():
    # P3 is "Bg"; flipping a padding bit past the 3 used pairs must fail.
    good = decode_graph6("Bg")
    assert good == path(3)
    with pytest.raises(Graph6Error):
        decode_graph6("Bh")


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12))
def test_round_trip_property(seed, n):
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
    ]
    g = Graph(n, edges)
    assert decode_graph6(encode_graph6(g)) == g


def test_export_dot_text():
    text = export_dot(path(3))
    assert text == (
        "graph G {\n"
        "  0;\n"
        "  1;\n"
        "  2;\n"
        "  0 -- 1;\n"
        "  1 -- 2;\n"
        "}\n"
    )


def test_export_dot_lists_all_edges():
    text = export_dot(cycle(4))
    assert text.count(" -- ") == 4
    assert "3 -- 0;" in text or "0 -- 3;" in text
    assert export_dot(star(3)).count(" -- ") == 2
