"""Tests for CECI index persistence (the CECIIDX3 compact format)."""

import json
import random

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


def _strip_checksums(blob: bytes) -> bytes:
    """Rewrite a v3 blob as a pre-3.1 file: same array blocks, header
    without the checksum table."""
    header, body_at = _split_v3(blob)
    for key in ("checksum", "block_bytes", "block_crc32", "header_crc32"):
        header.pop(key, None)
    payload = json.dumps(header).encode("utf-8")
    return (
        blob[:8]
        + len(payload).to_bytes(8, "little")
        + payload
        + blob[body_at:]
    )


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
