"""Tests for CECI index persistence (the CECIIDX3 compact format)."""

import io
import json
import random
import zlib

import numpy as np
import pytest

from conftest import refined_builder
from repro import CECIMatcher, Graph
from repro.core import (
    CompactCECI,
    Enumerator,
    dump_store_bytes,
    load_ceci,
    load_store_bytes,
    save_ceci,
)
from repro.core.persist import ChecksumError
from repro.core.query_tree import QueryTree
from repro.service.cache import transplant_store
from repro.graph import inject_labels, power_law


@pytest.fixture(scope="module")
def instance():
    data = inject_labels(
        power_law(200, 5, seed=3, min_edges_per_vertex=1), 3, seed=3
    )
    query = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
                  labels=[0, 1, 0, 2])
    return query, data


def _same_store(a: CompactCECI, b: CompactCECI) -> None:
    assert np.array_equal(a.pivots, b.pivots)
    assert a.tree.order == b.tree.order
    for u in range(a.tree.query.num_vertices):
        for x, y in zip(a.te[u], b.te[u]):
            assert np.array_equal(x, y)
        assert sorted(a.nte[u]) == sorted(b.nte[u])
        for u_n in a.nte[u]:
            for x, y in zip(a.nte[u][u_n], b.nte[u][u_n]):
                assert np.array_equal(x, y)
        for x, y in zip(a.card[u], b.card[u]):
            assert np.array_equal(x, y)


class TestRoundTrip:
    def test_bytes_round_trip_preserves_structure(self, instance):
        query, data = instance
        store = CECIMatcher(query, data).build()
        _same_store(load_store_bytes(dump_store_bytes(store), data), store)

    def test_loaded_index_enumerates_identically(self, instance):
        query, data = instance
        matcher = CECIMatcher(query, data)
        reference = matcher.match()
        loaded = load_store_bytes(dump_store_bytes(matcher.build()), data)
        got = Enumerator(loaded, symmetry=matcher.symmetry).collect()
        assert got == reference

    def test_file_round_trip(self, instance, tmp_path):
        query, data = instance
        matcher = CECIMatcher(query, data)
        ceci = matcher.build()
        path = str(tmp_path / "index.ceci")
        save_ceci(ceci, path)
        loaded = load_ceci(path, data)
        assert list(loaded.pivots) == list(ceci.pivots)

    def test_string_labels_survive(self):
        data = Graph(4, [(0, 1), (1, 2), (2, 3)], labels=["C", "O", "C", "N"])
        query = Graph(2, [(0, 1)], labels=["C", "O"])
        store = CECIMatcher(query, data).build()
        loaded = load_store_bytes(dump_store_bytes(store), data)
        assert loaded.tree.query.labels_of(0) == frozenset({"C"})

    def test_bad_magic_rejected(self, instance):
        _, data = instance
        with pytest.raises(ValueError):
            load_store_bytes(b"NOTANIDX" + b"\x00" * 64, data)

    def test_legacy_v2_file_rejected(self, instance, tmp_path):
        """The retired dict-builder format (``CECIIDX2``) is refused
        with the typed error, like any other foreign magic."""
        _, data = instance
        header = json.dumps({"query_vertices": 1}).encode("utf-8")
        path = tmp_path / "legacy.ceci"
        path.write_bytes(
            b"CECIIDX2" + len(header).to_bytes(8, "little") + header
        )
        with pytest.raises(ValueError, match="not a CECI index file"):
            load_ceci(str(path), data)

    def test_loaded_index_is_frozen(self, instance, tmp_path):
        query, data = instance
        path = str(tmp_path / "index.ceci")
        save_ceci(CECIMatcher(query, data).build(), path)
        loaded = load_ceci(path, data, mmap=True)
        assert isinstance(loaded, CompactCECI)
        mapped = [
            arr
            for u in query.vertices()
            for arr in loaded.te[u]
            if isinstance(arr, np.memmap)
        ]
        assert mapped and not any(arr.flags.writeable for arr in mapped)


class TestCompactFormat:
    def test_store_bytes_round_trip_enumerates_identically(self, instance):
        query, data = instance
        matcher = CECIMatcher(query, data)
        reference = sorted(matcher.match())
        store = matcher.build()
        assert isinstance(store, CompactCECI)
        loaded = load_store_bytes(dump_store_bytes(store), data)
        got = sorted(Enumerator(loaded, symmetry=matcher.symmetry).collect())
        assert got == reference

    def test_candidate_sets_identical_across_formats(self, instance):
        query, data = instance
        builder = refined_builder(query, data)
        loaded = load_store_bytes(dump_store_bytes(builder), data)
        for u in query.vertices():
            assert sorted(int(v) for v in loaded.candidates(u)) == sorted(
                builder.te_union(u)
            )

    def test_dump_from_dict_builder_freezes(self, instance):
        query, data = instance
        ceci = refined_builder(query, data)
        loaded = load_store_bytes(dump_store_bytes(ceci), data)
        assert isinstance(loaded, CompactCECI)
        assert list(loaded.pivots) == list(ceci.pivots)

    def test_mmap_load_serves_array_backed_candidates(
        self, instance, tmp_path
    ):
        query, data = instance
        matcher = CECIMatcher(query, data)
        store = matcher.build()
        path = str(tmp_path / "index.ceci")
        save_ceci(store, path)
        loaded = load_ceci(path, data, mmap=True)
        # No dict reconstruction: the index is a CompactCECI and every
        # candidate probe answers with an ndarray (a memmap view for
        # non-empty blocks), never a rebuilt Python list.
        assert isinstance(loaded, CompactCECI)
        assert isinstance(loaded.pivots, np.ndarray)
        mapped = 0
        for u in query.vertices():
            keys, _, values = loaded.te[u]
            assert isinstance(keys, np.ndarray)
            assert isinstance(values, np.ndarray)
            mapped += sum(
                1 for arr in (keys, values) if isinstance(arr, np.memmap)
            )
            for v_p in keys:
                assert isinstance(loaded.te_values(u, int(v_p)), np.ndarray)
        assert mapped > 0  # at least one block really is file-backed
        reference = sorted(matcher.match())
        got = sorted(Enumerator(loaded, symmetry=matcher.symmetry).collect())
        assert got == reference

    def test_checksums_survive_the_mmap_round_trip(self, instance, tmp_path):
        query, data = instance
        store = CECIMatcher(query, data).build()
        path = str(tmp_path / "index.ceci")
        save_ceci(store, path)
        loaded = load_ceci(path, data, mmap=True)
        assert loaded.checksum_verified is True

    def test_te_only_cpi_shape_round_trips(self, instance, tmp_path):
        # CPI-style index: TE candidates only, nte_built=False.
        from repro.baselines.cflmatch import CFLMatcher

        query, data = instance
        matcher = CFLMatcher(query, data)
        reference = sorted(matcher.match())
        cpi = matcher._build().ceci
        assert isinstance(cpi, CompactCECI)
        assert not cpi.nte_built
        path = str(tmp_path / "cpi.ceci")
        save_ceci(cpi, path)
        loaded = load_ceci(path, data)
        assert isinstance(loaded, CompactCECI)
        assert not loaded.nte_built
        for u in query.vertices():
            assert loaded.nte[u] == {}
            assert np.array_equal(loaded.te[u][0], cpi.te[u][0])
            assert np.array_equal(loaded.te[u][2], cpi.te[u][2])


# ----------------------------------------------------------------------
# Block checksums (CECIIDX3 minor version 3.1)
# ----------------------------------------------------------------------

def _split_v3(blob: bytes):
    """(header dict, offset of the first array block) of a v3 blob."""
    assert blob[:8] == b"CECIIDX3"
    size = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + size].decode("utf-8"))
    return header, 16 + size


def _npy_blocks(blob: bytes):
    """(header dict, each array block's ``.npy`` bytes without the 3.3
    alignment padding) of a v3 blob."""
    header, at = _split_v3(blob)
    blocks = []
    for length in header["block_bytes"]:
        block = io.BytesIO(blob[at:at + length])
        np.load(block, allow_pickle=False)
        blocks.append(block.getvalue()[:block.tell()])
        at += length
    return header, blocks


def _legacy(blob: bytes, minor: int, edit=None) -> bytes:
    """Rewrite a v3 blob in the layout of minor version ``minor``: the
    same arrays as unpadded ``.npy`` blocks after an unpadded header
    without the tree's parents, with a block table from 3.1 and a
    header CRC from 3.2.  ``edit``
    changes the header dict before any checksum covers it."""
    header, blocks = _npy_blocks(blob)
    for key in (
        "parents", "checksum", "block_bytes", "block_crc32", "header_crc32"
    ):
        header.pop(key, None)
    if minor >= 1:
        header["checksum"] = "crc32"
        header["block_bytes"] = [len(block) for block in blocks]
        header["block_crc32"] = [zlib.crc32(block) for block in blocks]
    if edit is not None:
        edit(header)
    if minor >= 2:
        header["header_crc32"] = zlib.crc32(json.dumps(header).encode())
    payload = json.dumps(header).encode("utf-8")
    return (
        blob[:8]
        + len(payload).to_bytes(8, "little")
        + payload
        + b"".join(blocks)
    )


def _strip_checksums(blob: bytes) -> bytes:
    """Rewrite a v3 blob as a pre-3.1 file: the same arrays as unpadded
    ``.npy`` blocks, header without the checksum table."""
    return _legacy(blob, 0)


def _flip(blob: bytes, pos: int) -> bytes:
    return blob[:pos] + bytes([blob[pos] ^ 0xFF]) + blob[pos + 1:]


class TestChecksums:
    @pytest.fixture(scope="class")
    def blob(self, instance):
        query, data = instance
        store = CECIMatcher(query, data).build()
        return dump_store_bytes(store)

    def test_header_carries_a_complete_crc_table(self, blob):
        header, body_at = _split_v3(blob)
        assert header["checksum"] == "crc32"
        assert len(header["block_bytes"]) == len(header["block_crc32"])
        # The recorded lengths tile the payload exactly: every byte of
        # every block is covered by some CRC.
        assert sum(header["block_bytes"]) == len(blob) - body_at

    def test_round_trip_marks_checksum_verified(self, blob, instance):
        _, data = instance
        loaded = load_store_bytes(blob, data)
        assert loaded.checksum_verified is True

    def test_any_payload_bit_flip_is_detected(self, blob, instance):
        """Sweep corruptions across the whole array payload — npy
        headers and data alike — and every one must surface as a
        ChecksumError, never as garbage candidates or a numpy parse
        crash."""
        _, data = instance
        _, body_at = _split_v3(blob)
        positions = list(range(body_at, len(blob), 131)) + [len(blob) - 1]
        assert positions
        for pos in positions:
            with pytest.raises(ChecksumError):
                load_store_bytes(_flip(blob, pos), data)

    def test_truncated_blob_is_detected(self, blob, instance):
        _, data = instance
        with pytest.raises(ChecksumError):
            load_store_bytes(blob[:-7], data)

    def test_corrupt_file_is_never_memmapped(self, instance, tmp_path):
        query, data = instance
        store = CECIMatcher(query, data).build()
        path = tmp_path / "index.ceci"
        save_ceci(store, str(path))
        raw = path.read_bytes()
        _, body_at = _split_v3(raw)
        path.write_bytes(_flip(raw, (body_at + len(raw)) // 2))
        with pytest.raises(ChecksumError):
            load_ceci(str(path), data, mmap=True)

    def test_legacy_no_checksum_blob_still_loads(self, blob, instance):
        query, data = instance
        legacy = _strip_checksums(blob)
        loaded = load_store_bytes(legacy, data)
        assert isinstance(loaded, CompactCECI)
        assert loaded.checksum_verified is False
        reference = load_store_bytes(blob, data)
        assert np.array_equal(loaded.pivots, reference.pivots)
        for u in query.vertices():
            assert np.array_equal(loaded.te[u][2], reference.te[u][2])

    def test_verify_false_skips_the_check(self, blob, instance):
        """Opt-out path: with ``verify=False`` a data-region flip loads
        (the caller accepted the risk) and the store says so."""
        _, data = instance
        corrupted = _flip(blob, len(blob) - 5)  # inside the last block's
        # data region, clear of any npy header
        loaded = load_store_bytes(corrupted, data, verify=False)
        assert isinstance(loaded, CompactCECI)
        assert loaded.checksum_verified is False


class TestByteMutations:
    """Exhaustive single-byte corruption, every truncation and seeded
    multi-byte corruption of a small blob: every mutation either raises
    ``ChecksumError``/``ValueError`` or loads a store whose answers
    equal the original's — the JSON header included, not only the
    array blocks."""

    @pytest.fixture(scope="class")
    def small_blob(self):
        """``(blob, data, symmetry, reference embeddings)`` of a small
        store with TE, NTE and cardinality blocks."""
        data = inject_labels(
            power_law(60, 3, seed=5, min_edges_per_vertex=1), 2, seed=5
        )
        query = Graph(
            4, [(0, 1), (1, 2), (2, 3), (0, 2)], labels=[0, 1, 0, 1]
        )
        matcher = CECIMatcher(query, data)
        reference = matcher.match()
        assert reference
        blob = dump_store_bytes(matcher.build())
        return blob, data, matcher.symmetry, reference

    #: Bit masks applied to each byte: ASCII-preserving low bits reach
    #: header digits and names that still parse; 0xFF breaks UTF-8.
    MASKS = (0x01, 0x02, 0x04, 0xFF)

    def test_every_byte_flip_is_rejected_or_harmless(self, small_blob):
        blob, data, symmetry, reference = small_blob
        _, body_at = _split_v3(blob)
        for pos in range(len(blob)):
            # Block bytes are all CRC-covered; one mask per byte there.
            for mask in self.MASKS if pos < body_at else (0x01,):
                flipped = bytes([blob[pos] ^ mask])
                mutated = blob[:pos] + flipped + blob[pos + 1:]
                try:
                    loaded = load_store_bytes(mutated, data)
                except ValueError:  # ChecksumError included
                    continue
                got = Enumerator(loaded, symmetry=symmetry).collect()
                assert got == reference, f"byte {pos} ^ {mask:#04x}"

    def test_every_truncation_is_rejected(self, small_blob):
        """No prefix of a blob loads: each one raises ``ValueError``
        (``ChecksumError`` for a cut inside the array blocks)."""
        blob, data, _, _ = small_blob
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                load_store_bytes(blob[:cut], data)

    #: Seeded multi-byte mutations per run.
    MUTATIONS = 3000

    def test_multi_byte_mutations_are_rejected_or_harmless(self, small_blob):
        """2-8 random bytes XORed with random non-zero masks anywhere in
        the blob: only ``ValueError`` subclasses escape, and a mutation
        that loads answers exactly as the original."""
        blob, data, symmetry, reference = small_blob
        rng = random.Random(24)
        for trial in range(self.MUTATIONS):
            mutated = bytearray(blob)
            for pos in rng.sample(range(len(blob)), rng.randint(2, 8)):
                mutated[pos] ^= rng.randint(1, 0xFF)
            try:
                loaded = load_store_bytes(bytes(mutated), data)
            except ValueError:  # ChecksumError included
                continue
            got = Enumerator(loaded, symmetry=symmetry).collect()
            assert got == reference, f"mutation {trial}"

    def test_oversized_header_length_is_a_value_error(self, instance):
        query, data = instance
        blob = bytearray(dump_store_bytes(CECIMatcher(query, data).build()))
        blob[15] ^= 0xFF  # top byte of the 8-byte header length
        with pytest.raises(ValueError, match="header length"):
            load_store_bytes(bytes(blob), data)

    def test_header_edit_fails_the_header_crc(self, instance):
        query, data = instance
        blob = dump_store_bytes(CECIMatcher(query, data).build())
        header, body_at = _split_v3(blob)
        header["root"] = (header["root"] + 1) % query.num_vertices
        payload = json.dumps(header).encode("utf-8")
        size = len(payload).to_bytes(8, "little")
        edited = blob[:8] + size + payload + blob[body_at:]
        with pytest.raises(ChecksumError, match="header"):
            load_store_bytes(edited, data)


def _arrays(store: CompactCECI):
    """Every array a store holds."""
    yield store.pivots
    for u in range(store.tree.query.num_vertices):
        yield from store.te[u]
        for triple in store.nte[u].values():
            yield from triple
        yield from store.card[u]


class TestAlignment:
    """Since 3.3 the header and every block end on a 64-byte boundary,
    so every loaded or mapped array is aligned."""

    @pytest.fixture(scope="class")
    def blob(self, instance):
        query, data = instance
        return dump_store_bytes(CECIMatcher(query, data).build())

    def test_header_and_blocks_end_on_64_bytes(self, blob):
        header, body_at = _split_v3(blob)
        assert body_at % 64 == 0
        assert all(length % 64 == 0 for length in header["block_bytes"])

    def test_mmap_arrays_are_aligned(self, blob, instance, tmp_path):
        _, data = instance
        path = tmp_path / "index.ceci"
        path.write_bytes(blob)
        loaded = load_ceci(str(path), data, mmap=True)
        mapped = 0
        for array in _arrays(loaded):
            assert array.flags.aligned
            if isinstance(array, np.memmap):
                mapped += 1
                assert array.offset % 64 == 0
        assert mapped

    def test_in_memory_arrays_are_aligned(self, blob, instance):
        _, data = instance
        assert all(
            array.flags.aligned
            for array in _arrays(load_store_bytes(blob, data))
        )

    def test_unpadded_32_blob_still_loads(self, blob, instance, tmp_path):
        """A 3.2 file (header CRC, unpadded blocks) loads verified with
        identical arrays, in memory and mapped."""
        _, data = instance
        old = _legacy(blob, 2)
        assert len(old) < len(blob)
        reference = load_store_bytes(blob, data)
        loaded = load_store_bytes(old, data)
        assert loaded.checksum_verified is True
        _same_store(loaded, reference)
        path = tmp_path / "old.ceci"
        path.write_bytes(old)
        mapped = load_ceci(str(path), data, mmap=True)
        assert mapped.checksum_verified is True
        _same_store(mapped, reference)

    def test_padding_byte_flip_is_detected(self, blob, instance):
        """Pad bytes count in their block's length and CRC."""
        _, data = instance
        header, at = _split_v3(blob)
        _, blocks = _npy_blocks(blob)
        pads = []
        for length, block in zip(header["block_bytes"], blocks):
            if len(block) < length:
                pads.append(at + len(block))
            at += length
        assert pads
        for pos in pads:
            with pytest.raises(ChecksumError):
                load_store_bytes(_flip(blob, pos), data)


class TestDerivedProbeSets:
    """The batch engine's probe sets (sorted codes or code bitmaps) are
    derived from the arrays: never persisted, rebuilt after a load."""

    def test_enumeration_leaves_the_dump_unchanged(self):
        """On an unlabeled power-law graph, dense enough for bitmaps."""
        data = power_law(200, 5, seed=3, min_edges_per_vertex=1)
        query = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        matcher = CECIMatcher(query, data)
        store = matcher.build()
        before = dump_store_bytes(store)
        reference = Enumerator(store, symmetry=matcher.symmetry).collect()
        assert reference and store._probe_sets
        assert dump_store_bytes(store) == before

        loaded = load_store_bytes(before, data)
        assert not loaded._probe_sets
        got = Enumerator(loaded, symmetry=matcher.symmetry).collect()
        assert got == reference
        assert loaded._probe_sets.keys() == store._probe_sets.keys()
        kinds = set()
        for key, probe in store._probe_sets.items():
            rebuilt = loaded._probe_sets[key]
            assert rebuilt.dtype == probe.dtype
            assert np.array_equal(rebuilt, probe)
            kinds.add(probe.dtype)
        assert np.dtype(np.uint8) in kinds


class TestPre32Headers:
    """A header without ``header_crc32`` (files from 3.0 and 3.1) is
    unchecked: seeded mutations of its JSON either raise ``ValueError``
    (``ChecksumError`` included) or load a store whose answers equal
    the original's."""

    @pytest.fixture(scope="class")
    def small(self):
        data = inject_labels(
            power_law(60, 3, seed=5, min_edges_per_vertex=1), 2, seed=5
        )
        query = Graph(
            4, [(0, 1), (1, 2), (2, 3), (0, 2)], labels=[0, 1, 0, 1]
        )
        matcher = CECIMatcher(query, data)
        reference = matcher.match()
        assert reference
        return dump_store_bytes(matcher.build()), data, matcher.symmetry, (
            reference
        )

    #: Seeded mutations per pre-3.2 layout.
    MUTATIONS = 3000

    @staticmethod
    def _rejected_or_harmless(blob, data, symmetry, reference):
        try:
            loaded = load_store_bytes(blob, data)
        except ValueError:  # ChecksumError included
            return
        assert loaded.checksum_verified is False
        assert Enumerator(loaded, symmetry=symmetry).collect() == reference

    @pytest.mark.parametrize("minor", [0, 1])
    def test_header_mutations_are_rejected_or_harmless(self, small, minor):
        blob, data, symmetry, reference = small
        legacy = _legacy(blob, minor)
        size = int.from_bytes(legacy[8:16], "little")
        payload, body = legacy[16:16 + size], legacy[16 + size:]
        self._rejected_or_harmless(legacy, data, symmetry, reference)
        rng = random.Random(32 + minor)
        for trial in range(self.MUTATIONS):
            mutated = bytearray(payload)
            for pos in rng.sample(range(size), rng.randint(1, 3)):
                mutated[pos] ^= rng.choice(
                    (0x01, 0x02, 0x04, 0x08, 0x10, rng.randint(1, 0xFF))
                )
            edited = (
                legacy[:8] + size.to_bytes(8, "little") + bytes(mutated) + body
            )
            try:
                self._rejected_or_harmless(edited, data, symmetry, reference)
            except AssertionError as exc:
                raise AssertionError(
                    f"mutation {trial}: {bytes(mutated)!r}"
                ) from exc

    # Shrunk counterexamples of the mutation sweep, each a header that
    # loaded and answered wrongly (or raised an untyped error) before.

    def test_edge_moving_an_nte_group_is_rejected(self, small):
        """Edge (0, 1) -> (0, 3), listed in canonical order: vertex 1
        keeps an NTE group for a parent it no longer has."""
        blob, data, _, _ = small

        def edit(header):
            assert header["query_edges"][0] == [0, 1]
            edges = header["query_edges"][1:] + [[0, 3]]
            header["query_edges"] = sorted(edges)

        with pytest.raises(ValueError, match="NTE groups"):
            load_store_bytes(_legacy(blob, 1, edit), data)

    def test_non_canonical_edge_list_is_rejected(self, small):
        """Edge (2, 3) -> (0, 3) leaves the NTE groups valid but moves
        vertex 3's tree parent; the writer never lists edges out of
        order."""
        blob, data, _, _ = small

        def edit(header):
            assert header["query_edges"][-1] == [2, 3]
            header["query_edges"][-1] = [0, 3]

        for minor in (0, 1):
            with pytest.raises(ValueError, match="canonical"):
                load_store_bytes(_legacy(blob, minor, edit), data)

    def test_dropped_nte_group_is_rejected(self, small):
        """Without a block table a dropped group shifts every later
        block; the stream then does not end where the header does."""
        blob, data, _, _ = small

        def edit(header):
            assert header["nte_groups"][1] == [0]
            header["nte_groups"][1] = []

        for minor in (0, 1):
            with pytest.raises(ValueError, match="blocks do not end"):
                load_store_bytes(_legacy(blob, minor, edit), data)

    def test_overflowing_number_is_a_value_error(self, small):
        """A digit turned into an exponent parses as an infinite float."""
        blob, data, _, _ = small

        def edit(header):
            header["block_crc32"][0] = float("inf")

        legacy = _legacy(blob, 1, edit)
        assert b"Infinity" in legacy
        with pytest.raises(ValueError, match="malformed"):
            load_store_bytes(legacy, data)


def test_transplanted_store_keeps_its_tree():
    """An index transplanted onto an isomorphic query keeps the mapped
    spanning tree, which BFS over the image query does not re-derive;
    the file records it, so the loaded store answers as the original
    (before 3.3 it loaded the BFS tree and found none of the 7,202)."""
    data = power_law(80, 3, seed=2)
    query = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
    sigma = [0, 2, 3, 1, 4]
    image = Graph(5, [(sigma[a], sigma[b]) for a, b in query.edges])
    store = CECIMatcher(query, data, break_automorphisms=False).build()
    moved = transplant_store(store, image, sigma)
    tree = moved.tree
    assert QueryTree(image, tree.root, tree.order).parent != tree.parent
    loaded = load_store_bytes(dump_store_bytes(moved), data)
    assert loaded.tree.parent == tree.parent
    symmetry = CECIMatcher(image, data, break_automorphisms=False).symmetry
    want = Enumerator(moved, symmetry=symmetry).collect()
    assert len(want) == 7202
    assert Enumerator(loaded, symmetry=symmetry).collect() == want
