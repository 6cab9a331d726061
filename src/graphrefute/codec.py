"""graph6 text encoding and Graphviz DOT export.

graph6 packs the upper triangle of the adjacency matrix, column by column,
into 6-bit groups offset by 63 so every byte is printable ASCII. The order
header is 1, 4, or 8 bytes depending on n.

The edge bits form one integer, and base64 regroups its bytes into 6-bit
groups (a byte translation maps its alphabet onto graph6's). Decoding
appends each edge to both rows in column order, so the rows come out sorted
and need no re-validation; connectivity stays unknown until asked. Errors
carry the offset of the failing byte in the stripped input, counted from its
start, an optional ``>>graph6<<`` header included.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64

from .graphs import Graph

_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_MAX_ORDER = 68719476735  # 2^36 - 1, the largest order graph6 can carry


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def encode_graph6(g: Graph) -> str:
    """Return the graph6 string for g."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= _MAX_ORDER:
        prefix, shifts = ("~", (12, 6, 0)) if n <= 258047 else ("~~", (30, 24, 18, 12, 6, 0))
        head = prefix + "".join(chr(((n >> s) & 63) + 63) for s in shifts)
    else:
        raise ValueError(f"graph6 supports at most {_MAX_ORDER} vertices")
    nbits = n * (n - 1) // 2
    if not nbits:
        return head
    # One ASCII digit per edge bit, padded to whole 24-bit quanta, since
    # base64 regroups each 3 bytes as four 6-bit groups.
    bits = bytearray(b"0" * (-(-nbits // 24) * 24))
    base = 0  # column j, the rows i < j, starts at bit j(j - 1)/2
    for j, row in enumerate(g._adj):
        for i in row:
            if i >= j:
                break
            bits[base + i] = 49  # "1"
        base += j
    body = b2a_base64(int(bits, 2).to_bytes(len(bits) // 8, "big"), newline=False)
    return head + body[: -(-nbits // 6)].translate(_TO_GRAPH6).decode()


def decode_graph6(text: str) -> Graph:
    """Parse a graph6 string, raising Graph6Error with a byte offset."""
    s = text.strip()
    head = len(">>graph6<<") if s.startswith(">>graph6<<") else 0
    s = s[head:]
    if not s:
        raise Graph6Error("empty graph6 string", head)
    data = s.encode() if s.isascii() else b""
    if not data or min(data) < 63 or max(data) > 126:
        for pos, c in enumerate(s, head):
            if not (63 <= ord(c) <= 126):
                raise Graph6Error(f"byte {ord(c)} outside graph6 range 63..126", pos)
    # The order takes 1 byte, "~" plus 3, or "~~" plus 6: data[pos // 3:pos].
    pos = 1 if data[0] != 126 else 4 if len(data) < 2 or data[1] != 126 else 8
    if len(data) < pos:
        raise Graph6Error(f"truncated {pos}-byte order header", head + len(data))
    n = 0
    for b in data[pos // 3:pos]:
        n = (n << 6) | (b - 63)
    if n < 1:
        raise Graph6Error(f"graph order {n} must be >= 1", head)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    have = len(data) - pos
    if have != need:
        raise Graph6Error(f"expected {need} edge bytes for order {n}, found {have}", head + pos)
    # The edge bits as one integer, padded with zero groups to whole base64
    # quanta; every bit past the first nbits must be zero.
    body = data[pos:].translate(_TO_BASE64)
    body += b"A" * (-len(body) % 4)
    spare = 6 * len(body) - nbits
    value = int.from_bytes(a2b_base64(body), "big")
    if value & ((1 << spare) - 1):
        raise Graph6Error("nonzero padding bits", head + pos + nbits // 6)
    # Column j holds rows i < j; scanning columns in order appends each row's
    # neighbours in ascending order.
    bits = bin((value >> spare) | (1 << nbits))
    rows: list[list[int]] = [[] for _ in range(n)]
    lo = 3  # past "0b1"
    for j in range(1, n):
        hi = lo + j
        k = bits.find("1", lo, hi)
        while k >= 0:
            rows[j].append(k - lo)
            rows[k - lo].append(j)
            k = bits.find("1", k + 1, hi)
        lo = hi
    return Graph._trusted(tuple(map(tuple, rows)), bits.count("1") - 1, None)


def export_dot(g: Graph) -> str:
    """Render g as an undirected Graphviz DOT block, vertices ascending."""
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
