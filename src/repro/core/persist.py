"""CECI index persistence.

Section 6.4: "For larger graphs whose CECI does not fit inside memory,
we plan to store it in non-volatile memory [30]."  This module is that
feature's laptop-scale counterpart: a compact binary serialization of a
built (filtered + refined) CECI, so an index can be constructed once and
re-enumerated many times — across processes — without paying
construction again.

The format (``CECIIDX3``) is a JSON header followed by the
:class:`~repro.core.store.CompactCECI` arrays as raw ``.npy`` blocks, in
a fixed deterministic order.  Because the in-memory compact store and
the on-disk layout are the *same* flat ``(keys, offsets, values)``
triples, dumping is a straight array write and :func:`load_ceci`
rebuilds the store by ``np.memmap``-ing each block in place — **no dict
reconstruction, no value boxing**; candidate lookups on a loaded index
are served from the mapped file.  A file with any other magic is
refused with ``ValueError``.

**Integrity.**  Since minor version 3.1 the v3 header carries a CRC32
per array block (``"block_crc32"``; CRC32C/xxhash would be preferable
but need non-stdlib deps, and zlib's CRC32 catches the same bit-flip
class).  Loads verify every block *before* any array is materialised
or memory-mapped, so a corrupted file — torn write, bit rot, truncation
— raises :class:`ChecksumError` instead of serving garbage candidates.
Since 3.2 the header carries its own CRC32 (``"header_crc32"``, over
the JSON of every other header field), and its recorded length is
bounded by the bytes present, so a corrupt header raises
:class:`ChecksumError` or ``ValueError`` instead of rebuilding the wrong
query.  Files written before 3.1 have no checksums and still load; the
result (like that of a 3.1 file, whose header is unchecked) is marked
``checksum_verified = False`` so callers (the service spill tier) can
decide whether to trust them.  Every header must still describe its
block stream: canonical query edges, NTE groups that are NTE parents in
its query tree, and blocks that end exactly where the stream does.

**Layout.**  Since 3.3 the JSON header is padded with spaces and every
block with zero bytes to a 64-byte boundary (:data:`_ALIGN`).
``np.save`` already pads each ``.npy`` header to 64 bytes, so every
array's data starts 64-byte aligned in the file and a mapped array is
aligned (numpy takes slower paths over an unaligned int64 map).  A
block's padding counts in its recorded ``block_bytes`` and its CRC, and
the loader advances by the recorded length, so 3.1 and 3.2 files
(whose blocks are unpadded) load unchanged.  The 3.3 header also
records the query tree's parents: a store transplanted onto an
isomorphic query keeps a tree that BFS over that query may not
re-derive, and older files (which re-derive it) still load.
"""

from __future__ import annotations

import io
import json
import os
import zlib
from typing import BinaryIO, Dict, List, Optional, Tuple, Union

import numpy as np

from ..graph import Graph
from .ceci import CECI
from .query_tree import QueryTree
from .store import CompactCECI, PairArrays

__all__ = [
    "ChecksumError",
    "save_ceci",
    "load_ceci",
    "publish_ceci",
    "publish_bytes",
    "dump_store_bytes",
    "load_store_bytes",
]

_MAGIC_V3 = b"CECIIDX3"

#: Since 3.3 the header and every block end on a multiple of this many
#: bytes, so each ``.npy`` block's data (which ``np.save`` pads to 64
#: bytes within the block) starts 64-byte aligned in the file and every
#: mapped array is aligned.
_ALIGN = 64


class ChecksumError(ValueError):
    """A stored array block does not match its recorded checksum —
    the file is corrupt and must not be served from."""


def _header_of(index: CompactCECI) -> Dict[str, object]:
    """The JSON header: enough to rebuild the query graph and tree
    (its parents since 3.3; older files re-derive them by BFS), plus
    the NTE group keys that fix the array order."""
    tree = index.tree
    return {
        "query_vertices": tree.query.num_vertices,
        "query_edges": [list(edge) for edge in tree.query.edges],
        "query_labels": [
            sorted(map(repr, tree.query.labels_of(u)))
            for u in tree.query.vertices()
        ],
        "root": tree.root,
        "order": list(tree.order),
        # An index transplanted onto an isomorphic query keeps its own
        # spanning tree, which re-deriving one by BFS may not give.
        "parents": list(tree.parent),
        "nte_built": index.nte_built,
        "nte_groups": [
            sorted(int(u_n) for u_n in index.nte[u])
            for u in range(tree.query.num_vertices)
        ],
    }


def _rebuild_tree(header: Dict[str, object]) -> QueryTree:
    query = Graph(
        header["query_vertices"],
        [tuple(edge) for edge in header["query_edges"]],
        [frozenset(_parse(label) for label in labels)
         for labels in header["query_labels"]],
    )
    # The writer lists the canonical edges (sorted ``(min, max)``
    # pairs); any other list is a corrupt header.
    if header["query_edges"] != [list(edge) for edge in query.edges]:
        raise ValueError("CECIIDX3 query edges are not in canonical order")
    return QueryTree(
        query, header["root"], header["order"], parents=header.get("parents")
    )


def _header_crc(header: Dict[str, object]) -> int:
    """CRC32 of the header's JSON text (``json.dumps`` output is
    deterministic for the parsed dict, so a reader re-derives it)."""
    return zlib.crc32(json.dumps(header).encode("utf-8")) & 0xFFFFFFFF


def _write_header(buf: BinaryIO, magic: bytes, header: Dict[str, object]) -> None:
    """Magic, length and JSON header, the JSON padded with spaces so
    the first block starts on an :data:`_ALIGN` boundary."""
    buf.write(magic)
    header = dict(header, header_crc32=_header_crc(header))
    payload = json.dumps(header).encode("utf-8")
    payload += b" " * (-(len(magic) + 8 + len(payload)) % _ALIGN)
    buf.write(len(payload).to_bytes(8, "little"))
    buf.write(payload)


def _read_header(
    buf: BinaryIO, verify: bool
) -> Tuple[Dict[str, object], bool]:
    """The JSON header and whether its CRC was checked.

    The recorded length is bounded by the bytes actually present; a
    header that does not parse to a JSON object raises ``ValueError``,
    and one whose ``header_crc32`` (written since 3.2) disagrees with
    the rest of it raises :class:`ChecksumError`.
    """
    start = buf.tell()
    available = buf.seek(0, io.SEEK_END) - start - 8
    buf.seek(start)
    size = int.from_bytes(buf.read(8), "little")
    if size > available:
        raise ValueError(
            f"header length {size} exceeds the {max(available, 0)} "
            f"bytes present"
        )
    header = json.loads(buf.read(size).decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("CECIIDX3 header is not a JSON object")
    stored = header.pop("header_crc32", None)
    if not verify or stored is None:
        return header, False
    actual = _header_crc(header)
    if stored != actual:
        raise ChecksumError(
            f"header fails CRC32 (stored {stored!r}, computed {actual:#010x})"
        )
    return header, True


# ----------------------------------------------------------------------
# Compact-store format (CECIIDX3)
# ----------------------------------------------------------------------
def dump_store_bytes(index: Union[CECI, CompactCECI]) -> bytes:
    """Serialize a compact store (a dict builder is frozen first).

    The array order is fixed: pivots, then per query vertex the TE
    triple, each NTE group triple (group keys ascending, recorded in
    the header), and the cardinality ``(keys, values)`` pair.  Each
    block is zero-padded to an :data:`_ALIGN` boundary, and its padded
    length (``"block_bytes"``) and CRC32 (``"block_crc32"``) land in the
    header, so loads can verify integrity before touching any array and
    a corrupt pad byte is caught like any other.
    """
    store = index if isinstance(index, CompactCECI) else index.compact()
    tree = store.tree

    def encode(array: np.ndarray) -> bytes:
        block = io.BytesIO()
        np.save(block, array, allow_pickle=False)
        block.write(bytes(-block.tell() % _ALIGN))
        return block.getvalue()

    blocks: List[bytes] = [encode(store.pivots)]
    for u in range(tree.query.num_vertices):
        for array in store.te[u]:
            blocks.append(encode(array))
        for u_n in sorted(store.nte[u]):
            for array in store.nte[u][u_n]:
                blocks.append(encode(array))
        for array in store.card[u]:
            blocks.append(encode(array))

    header = _header_of(store)
    header["checksum"] = "crc32"
    header["block_bytes"] = [len(block) for block in blocks]
    header["block_crc32"] = [
        zlib.crc32(block) & 0xFFFFFFFF for block in blocks
    ]
    buf = io.BytesIO()
    _write_header(buf, _MAGIC_V3, header)
    for block in blocks:
        buf.write(block)
    return buf.getvalue()


def _read_block(
    handle: BinaryIO,
    path: str,
    mmap: bool,
    length: Optional[int] = None,
    crc: Optional[int] = None,
) -> np.ndarray:
    """One ``.npy`` block, either loaded or mapped in place.

    ``length`` is the header-recorded block length, padding included
    (``None`` for a pre-3.1 file, whose blocks are unpadded); the stream
    is left at the end of the block.  With ``crc`` too, the raw bytes
    are read and CRC-verified *before* any npy parsing happens — a
    corrupt block (even one whose npy header is mangled) raises
    :class:`ChecksumError` and is never loaded or mapped.  The mmap path
    parses only the npy header and creates a read-only ``np.memmap``
    view at the data offset — the candidate payload never enters the
    Python heap.
    """
    start = handle.tell()
    if length is not None and length < 0:
        raise ValueError(f"negative array block length {length}")
    if crc is not None:
        raw = handle.read(length)
        if len(raw) != length:
            raise ChecksumError(
                f"truncated array block at byte {start} "
                f"(wanted {length} bytes, file has {len(raw)})"
            )
        actual = zlib.crc32(raw) & 0xFFFFFFFF
        if actual != crc:
            raise ChecksumError(
                f"array block at byte {start} fails CRC32 "
                f"(stored {crc:#010x}, computed {actual:#010x})"
            )
        handle.seek(start)
    array = _parse_block(handle, path, mmap)
    if length is not None:
        handle.seek(start + length)
    return array


def _parse_block(handle: BinaryIO, path: str, mmap: bool) -> np.ndarray:
    """The ``.npy`` array at the stream position, loaded or (parsing
    only its npy header) mapped read-only at its data offset; the
    stream is left at the end of the array data."""
    if not mmap:
        return np.load(handle, allow_pickle=False)
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        shape, _fortran, dtype = np.lib.format.read_array_header_1_0(handle)
    elif version == (2, 0):
        shape, _fortran, dtype = np.lib.format.read_array_header_2_0(handle)
    else:  # pragma: no cover - numpy only writes 1.0/2.0 today
        raise ValueError(f"unsupported npy format version {version}")
    offset = handle.tell()
    count = 1
    for dim in shape:
        count *= int(dim)
    handle.seek(offset + count * dtype.itemsize)
    if count == 0:
        # Zero-length arrays cannot be mapped (mmap forbids empty
        # ranges); an empty in-heap array is observationally identical.
        return np.empty(shape, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape)


def _load_store(
    handle: BinaryIO, data: Graph, path: str, mmap: bool, verify: bool = True
) -> CompactCECI:
    """Rebuild a :class:`CompactCECI` from a v3 stream positioned just
    after the magic — straight into arrays, never through dicts.

    With ``verify`` (the default) the header is CRC-checked, then every
    block against the header's ``block_crc32`` table before it is loaded
    or mapped; pre-3.1 files have no table, load unverified, and come
    back with ``checksum_verified = False``.  Each block ends where its
    recorded ``block_bytes`` say (with or without ``verify``), which
    skips the 3.3 padding.  A structurally malformed header raises
    ``ValueError``.
    """
    header, header_verified = _read_header(handle, verify)
    try:
        tree = _rebuild_tree(header)
        n = tree.query.num_vertices
        nte_groups = [
            [int(u_n) for u_n in header["nte_groups"][u]] for u in range(n)
        ]
        # The groups fix the block order, so they must be NTE parents
        # of the tree the header describes, ascending as written (an
        # absent group is empty).
        if any(
            groups != sorted(set(groups))
            or not set(groups) <= set(tree.nte_parents[u])
            for u, groups in enumerate(nte_groups)
        ):
            raise ValueError("CECIIDX3 NTE groups disagree with the query")
        table = None
        checked = verify and "block_crc32" in header
        if "block_bytes" in header:
            lengths = [int(length) for length in header["block_bytes"]]
            crcs = (
                [int(crc) for crc in header["block_crc32"]]
                if checked
                else [None] * len(lengths)
            )
            table = list(zip(lengths, crcs))
    except (
        KeyError, TypeError, IndexError, AttributeError, OverflowError
    ) as exc:
        raise ValueError(f"malformed CECIIDX3 header: {exc!r}") from exc
    cursor = iter(table) if table is not None else None

    def block() -> np.ndarray:
        if cursor is None:
            return _read_block(handle, path, mmap)
        entry = next(cursor, None)
        if entry is None:
            raise ChecksumError(
                "block table shorter than the block stream"
            )
        return _read_block(handle, path, mmap, *entry)

    pivots = block()
    te: List[PairArrays] = []
    nte: List[Dict[int, PairArrays]] = []
    card: List[Tuple[np.ndarray, np.ndarray]] = []
    for u in range(n):
        te.append((block(), block(), block()))
        groups: Dict[int, PairArrays] = {}
        for u_n in nte_groups[u]:
            groups[u_n] = (block(), block(), block())
        nte.append(groups)
        card.append((block(), block()))
    # A header that names fewer blocks than the stream holds (or a
    # table longer than it) would shift every array it does name.
    unread = cursor is not None and next(cursor, None) is not None
    if unread or handle.read(1):
        raise ValueError("CECIIDX3 blocks do not end where the stream does")
    store = CompactCECI(
        tree, data, pivots, te, nte, card,
        nte_built=bool(header.get("nte_built", True)),
    )
    store.checksum_verified = header_verified and table is not None and checked
    return store


def load_store_bytes(
    blob: bytes, data: Graph, verify: bool = True
) -> CompactCECI:
    """Reconstruct a compact store from v3 bytes (no dict round-trip).
    ``verify`` CRC-checks every block when the blob carries checksums;
    a corrupt block raises :class:`ChecksumError`."""
    buf = io.BytesIO(blob)
    if buf.read(len(_MAGIC_V3)) != _MAGIC_V3:
        raise ValueError("not a compact CECI store blob")
    return _load_store(buf, data, "<bytes>", mmap=False, verify=verify)


def _parse(token: str) -> object:
    try:
        return int(token)
    except ValueError:
        if token.startswith(("'", '"')) and token.endswith(("'", '"')):
            return token[1:-1]
        return token


# ----------------------------------------------------------------------
# File entry points (format auto-detected on load)
# ----------------------------------------------------------------------
def save_ceci(index: Union[CECI, CompactCECI], path: str) -> None:
    """Write a built index to ``path`` in the v3 array format (a dict
    builder is frozen first)."""
    publish_bytes(dump_store_bytes(index), path)


def publish_bytes(blob: bytes, path: str) -> int:
    """Atomically publish ``blob`` at ``path`` (write-to-temp, fsync,
    rename): readers — including other processes about to ``np.memmap``
    the file — observe either the previous file or the complete new
    one, never a torn intermediate.  Returns the byte count."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return len(blob)


def publish_ceci(index: Union[CECI, CompactCECI], path: str) -> int:
    """Atomically publish a built index at ``path`` in the v3 format —
    the shared-mmap publication path of the sharded service tier: one
    process freezes and publishes, N processes
    :func:`load_ceci`\\ (…, ``mmap=True``) the same checksummed file and
    share its pages through the OS page cache.  Returns the byte count
    written."""
    return publish_bytes(dump_store_bytes(index), path)


def load_ceci(
    path: str, data: Graph, mmap: bool = True, verify: bool = True
) -> CompactCECI:
    """Load an index from ``path`` against the identical data graph.

    The result is a :class:`CompactCECI` whose arrays are ``np.memmap``
    views into the file (pass ``mmap=False`` to read them into RAM
    instead).  ``verify`` CRC-checks checksummed files block-by-block
    *before* anything is mapped; corruption raises
    :class:`ChecksumError`, and a file without the ``CECIIDX3`` magic
    raises ``ValueError``.
    """
    with open(path, "rb") as handle:
        if handle.read(len(_MAGIC_V3)) == _MAGIC_V3:
            return _load_store(handle, data, path, mmap=mmap, verify=verify)
    raise ValueError(f"{path}: not a CECI index file")
