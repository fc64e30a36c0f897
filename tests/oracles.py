"""Independent oracles used to pin expected values.

Nothing here imports implementation internals beyond public graph accessors;
the point is that these paths are derived separately from the code they check.
"""

from __future__ import annotations

import struct
from collections import defaultdict


def _rotl(x: int, b: int) -> int:
    return ((x << b) | (x >> (64 - b))) & 0xFFFFFFFFFFFFFFFF


def reference_siphash24(key: bytes, data: bytes) -> int:
    """Textbook SipHash-2-4, written against the published round function."""
    assert len(key) == 16
    k0, k1 = struct.unpack("<QQ", key)
    v = [
        k0 ^ 0x736F6D6570736575,
        k1 ^ 0x646F72616E646F6D,
        k0 ^ 0x6C7967656E657261,
        k1 ^ 0x7465646279746573,
    ]

    def sipround(v):
        v[0] = (v[0] + v[1]) & 0xFFFFFFFFFFFFFFFF
        v[1] = _rotl(v[1], 13) ^ v[0]
        v[0] = _rotl(v[0], 32)
        v[2] = (v[2] + v[3]) & 0xFFFFFFFFFFFFFFFF
        v[3] = _rotl(v[3], 16) ^ v[2]
        v[0] = (v[0] + v[3]) & 0xFFFFFFFFFFFFFFFF
        v[3] = _rotl(v[3], 21) ^ v[0]
        v[2] = (v[2] + v[1]) & 0xFFFFFFFFFFFFFFFF
        v[1] = _rotl(v[1], 17) ^ v[2]
        v[2] = _rotl(v[2], 32)

    blocks = len(data) // 8
    for i in range(blocks):
        (m,) = struct.unpack_from("<Q", data, i * 8)
        v[3] ^= m
        sipround(v)
        sipround(v)
        v[0] ^= m
    tail = data[blocks * 8 :]
    m = int.from_bytes(tail + bytes(7 - len(tail)) + bytes([len(data) & 0xFF]), "little")
    v[3] ^= m
    sipround(v)
    sipround(v)
    v[0] ^= m
    v[2] ^= 0xFF
    for _ in range(4):
        sipround(v)
    return v[0] ^ v[1] ^ v[2] ^ v[3]


# Official SipHash-2-4 test vectors: key = 00 01 .. 0f, message = first n bytes
# of 00 01 02 ..., output little-endian.  All 64 published rows, n = 0..63.
SIPHASH_VECTORS = [
    "310e0edd47db6f72",
    "fd67dc93c539f874",
    "5a4fa9d909806c0d",
    "2d7efbd796666785",
    "b7877127e09427cf",
    "8da699cd64557618",
    "cee3fe586e46c9cb",
    "37d1018bf50002ab",
    "6224939a79f5f593",
    "b0e4a90bdf82009e",
    "f3b9dd94c5bb5d7a",
    "a7ad6b22462fb3f4",
    "fbe50e86bc8f1e75",
    "903d84c02756ea14",
    "eef27a8e90ca23f7",
    "e545be4961ca29a1",
    "db9bc2577fcc2a3f",
    "9447be2cf5e99a69",
    "9cd38d96f0b3c14b",
    "bd6179a71dc96dbb",
    "98eea21af25cd6be",
    "c7673b2eb0cbf2d0",
    "883ea3e395675393",
    "c8ce5ccd8c030ca8",
    "94af49f6c650adb8",
    "eab8858ade92e1bc",
    "f315bb5bb835d817",
    "adcf6b0763612e2f",
    "a5c91da7acaa4dde",
    "716595876650a2a6",
    "28ef495c53a387ad",
    "42c341d8fa92d832",
    "ce7cf2722f512771",
    "e37859f94623f3a7",
    "381205bb1ab0e012",
    "ae97a10fd434e015",
    "b4a31508beff4d31",
    "81396229f0907902",
    "4d0cf49ee5d4dcca",
    "5c73336a76d8bf9a",
    "d0a704536ba93e0e",
    "925958fcd6420cad",
    "a915c29bc8067318",
    "952b79f3bc0aa6d4",
    "f21df2e41d4535f9",
    "87577519048f53a9",
    "10a56cf5dfcd9adb",
    "eb75095ccd986cd0",
    "51a9cb9ecba312e6",
    "96afadfc2ce666c7",
    "72fe52975a4364ee",
    "5a1645b276d592a1",
    "b274cb8ebf87870a",
    "6f9bb4203de7b381",
    "eaecb2a30b22a87f",
    "9924a43cc1315724",
    "bd838d3aafbf8db7",
    "0b1a2a3265d51aea",
    "135079a3231ce660",
    "932b2846e4d70666",
    "e1915f5cb1eca46c",
    "f325965ca16d629f",
    "575ff28e60381be5",
    "724506eb4c328a95",
]


def kbisim_partition(
    n: int, edges: list[tuple[int, str, int]], k: int
) -> list[frozenset[int]]:
    """k rounds of partition refinement over outgoing (predicate, class) sets.

    Starts from the trivial one-class partition; after round r, two vertices
    share a class iff their r-hop outgoing structures agree.  Returns the
    partition as a set of frozen vertex groups.
    """
    out = defaultdict(list)
    for s, p, o in edges:
        out[s].append((p, o))
    cls = {v: 0 for v in range(n)}
    for _ in range(k):
        signatures = {
            v: frozenset((p, cls[o]) for p, o in out.get(v, ())) for v in range(n)
        }
        renumber: dict[frozenset, int] = {}
        nxt = {}
        for v in range(n):
            sig = signatures[v]
            if sig not in renumber:
                renumber[sig] = len(renumber)
            nxt[v] = renumber[sig]
        cls = nxt
    groups = defaultdict(set)
    for v, c in cls.items():
        groups[c].add(v)
    return [frozenset(g) for g in groups.values()]


def partition_of_hashes(hashes) -> set[frozenset[int]]:
    """Group vertex indices by hash value into a comparable partition."""
    groups = defaultdict(set)
    for i, h in enumerate(hashes):
        groups[int(h)].add(i)
    return {frozenset(g) for g in groups.values()}
