"""graph6 codec and DOT export."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_networkx, random_connected_graph, to_networkx
from graphrefute.codec import Graph6Error, decode_graph6, encode_graph6, export_dot
from graphrefute.graphs import Graph, complete, cycle, path, star


# A per-bit reference codec, one Python step per adjacency bit: the program's
# own codec before it packed the bits through one integer and base64. The
# program must agree with it byte for byte and error for error.

def _reference_order(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))


def _reference_encode(g: Graph) -> str:
    out = [_reference_order(g.n)]
    acc = nbits = 0
    for j in range(1, g.n):
        nbrs = set(g.neighbors(j))
        for i in range(j):
            acc = (acc << 1) | (i in nbrs)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def _reference_decode(text: str) -> Graph:
    # Every index is into the stripped text, header included, so each error
    # offset counts from its start.
    s = text.strip()
    h = len(">>graph6<<") if s.startswith(">>graph6<<") else 0
    if len(s) == h:
        raise Graph6Error("empty graph6 string", h)
    data = [ord(c) for c in s]
    for pos in range(h, len(data)):
        if not (63 <= data[pos] <= 126):
            raise Graph6Error(f"byte {data[pos]} outside graph6 range 63..126", pos)
    if data[h] != 126:
        n, pos = data[h] - 63, h + 1
    elif len(data) < h + 2 or data[h + 1] != 126:
        if len(data) < h + 4:
            raise Graph6Error("truncated 4-byte order header", len(data))
        n, pos = 0, h + 4
        for b in data[h + 1:h + 4]:
            n = (n << 6) | (b - 63)
    else:
        if len(data) < h + 8:
            raise Graph6Error("truncated 8-byte order header", len(data))
        n, pos = 0, h + 8
        for b in data[h + 2:h + 8]:
            n = (n << 6) | (b - 63)
    if n < 1:
        raise Graph6Error(f"graph order {n} must be >= 1", h)
    nbits = n * (n - 1) // 2
    need, have = (nbits + 5) // 6, len(data) - pos
    if have != need:
        raise Graph6Error(f"expected {need} edge bytes for order {n}, found {have}", pos)
    edges, bit, i, j = [], 0, 0, 1
    for b in data[pos:]:
        for k in range(5, -1, -1):
            if bit >= nbits:
                if ((b - 63) >> k) & 1:
                    raise Graph6Error("nonzero padding bits", pos + bit // 6)
                continue
            if ((b - 63) >> k) & 1:
                edges.append((i, j))
            bit += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, edges)


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
    # Offsets count from the start of the stripped input, header included.
    header = ">>graph6<<"
    for text, offset in ((header + "A_!", 12), (" " + header + "~?\n", 12),
                         (header + "Bww", 11), (header, 10)):
        with pytest.raises(Graph6Error) as info:
            decode_graph6(text)
        assert info.value.offset == offset, text


def test_decode_rejects_nonzero_padding():
    # P3 is "Bg"; flipping a padding bit past the 3 used pairs must fail.
    good = decode_graph6("Bg")
    assert good == path(3)
    with pytest.raises(Graph6Error):
        decode_graph6("Bh")


def _random_graph(n: int, p: float, rng: random.Random) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _assert_same_as_reference(g: Graph) -> None:
    text = encode_graph6(g)
    assert text == _reference_encode(g)
    decoded, expected = decode_graph6(text), _reference_decode(text)
    assert decoded._adj == expected._adj == g._adj
    assert decoded.m == expected.m == g.m
    assert decoded._connected is None


def test_codec_matches_the_per_bit_reference_at_every_order():
    # Orders 62 and 63 sit on both sides of the 1-byte/4-byte header switch.
    # Every density runs at orders 1..100; above that, where the reference
    # costs tens of milliseconds a graph, each order takes one density in turn.
    rng = random.Random(25)
    orders = [(n, k) for n in range(1, 101) for k in range(4)]
    orders += [(n, n % 4) for n in range(101, 301)]
    for n, k in orders:
        p = (0.0, min(1.0, 2 / n), 0.5, 1.0)[k]
        _assert_same_as_reference(_random_graph(n, p, rng))


def _malformed_inputs() -> dict[str, str]:
    long_form = encode_graph6(path(70))  # "~" plus 3 header bytes, 3 padding bits
    assert long_form.startswith("~") and len(long_form) == 4 + 403
    return {
        "empty": "", "low-byte": "B" + chr(3), "interior-space": "Bw w",
        "non-ascii": "B\u20ac", "low-byte-before-non-ascii": "B\x01\u20ac",
        "lone-surrogate": "B\udcff",  # str.encode would raise on it
        "no-edge-bytes": "B", "order-zero": "?", "order-zero-8-byte": "~~??????",
        "tilde": "~", "tilde-one-byte": "~?", "two-tildes": "~~", "two-tildes-two-bytes": "~~??",
        "padding-bit": "Bh", "4-byte-header-edge-byte-missing": long_form[:-1],
        "4-byte-header-padding-bit": long_form[:-1] + chr(ord(long_form[-1]) + 1),
        "header-only": ">>graph6<<", "header-low-byte": ">>graph6<<A_!",
        "header-tilde": ">>graph6<<~?", "header-order-zero": ">>graph6<<?",
        "header-edge-byte-extra": ">>graph6<<Bww", "header-padding-bit": ">>graph6<<Bh",
    }


@pytest.mark.parametrize("text", _malformed_inputs().values(), ids=_malformed_inputs().keys())
def test_decode_errors_match_the_reference(text):
    with pytest.raises(Graph6Error) as expected:
        _reference_decode(text)
    with pytest.raises(Graph6Error) as got:
        decode_graph6(text)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert got.value.offset == expected.value.offset


def test_long_order_headers_may_carry_small_orders():
    for text in ("~??Bw", "~~?????Bw"):
        assert decode_graph6(text) == _reference_decode(text) == complete(3)


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
