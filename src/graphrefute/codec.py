"""graph6 text encoding and Graphviz DOT export.

graph6 packs the upper triangle of the adjacency matrix, column by column,
into 6-bit groups offset by 63 so every byte is printable ASCII. The order
header is 1, 4, or 8 bytes depending on n.
"""

from __future__ import annotations

from .graphs import Graph

_MAX_ORDER = 68719476735  # 2^36 - 1, the largest order graph6 can carry


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def _encode_order(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        bits = [(n >> s) & 63 for s in (12, 6, 0)]
        return "~" + "".join(chr(b + 63) for b in bits)
    bits = [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    return "~~" + "".join(chr(b + 63) for b in bits)


def encode_graph6(g: Graph) -> str:
    """Return the graph6 string for g."""
    if g.n > _MAX_ORDER:
        raise ValueError(f"graph6 supports at most {_MAX_ORDER} vertices")
    out = [_encode_order(g.n)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        nbrs = set(g.neighbors(j))
        for i in range(j):
            acc = (acc << 1) | (i in nbrs)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return "".join(out)


def decode_graph6(text: str) -> Graph:
    """Parse a graph6 string, raising Graph6Error with a byte offset."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    data = [ord(c) for c in s]
    for pos, b in enumerate(data):
        if not (63 <= b <= 126):
            raise Graph6Error(f"byte {b} outside graph6 range 63..126", pos)
    pos = 0
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) < 2 or data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated 4-byte order header", len(data))
        n = 0
        for b in data[1:4]:
            n = (n << 6) | (b - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise Graph6Error("truncated 8-byte order header", len(data))
        n = 0
        for b in data[2:8]:
            n = (n << 6) | (b - 63)
        pos = 8
    if n < 1:
        raise Graph6Error(f"graph order {n} must be >= 1", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    have = len(data) - pos
    if have != need:
        raise Graph6Error(
            f"expected {need} edge bytes for order {n}, found {have}", pos
        )
    edges = []
    bit = 0
    i, j = 0, 1
    for b in data[pos:]:
        group = b - 63
        for k in range(5, -1, -1):
            if bit >= nbits:
                if (group >> k) & 1:
                    raise Graph6Error("nonzero padding bits", pos + bit // 6)
                continue
            if (group >> k) & 1:
                edges.append((i, j))
            bit += 1
            i += 1
            if i == j:
                i = 0
                j += 1
    return Graph(n, edges)


def export_dot(g: Graph) -> str:
    """Render g as an undirected Graphviz DOT block, vertices ascending."""
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
