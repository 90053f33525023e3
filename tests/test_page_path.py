"""The paged read path: bisect routing and one-pass page and row decoding.

Every piece is a pure speed-up, so every test here is an equivalence: each
routine against the loop it replaced, kept here as the slow reference, and
an evicting server workload against the artifact hash those loops left
behind.
"""

import random
import struct
import tempfile
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError, RecordError, ReproError
from repro.server import MySQLServer, ServerConfig
from repro.storage.paged import BufferPoolManager, PagedPageType
from repro.storage.paged.btree import _leaf_slot
from repro.storage.paged.format import NO_PAGE, PageImage, pack_page, unpack_page
from repro.storage.paged.node import NEG_INF, InternalNode, LeafNode
from repro.storage.record import decode_row, decode_value, encode_row
from tests.page_files import temp_page_file
from tests.test_statement_fastpath import _fingerprint

# -- slow references: the loops the read path used to run ---------------------


def route_reference(entries, key):
    child = entries[0][1]
    for sep, candidate in entries:
        if key >= sep:
            child = candidate
        else:
            break
    return child


def leaf_slot_reference(entries, key):
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid][0] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


_ENTRY = struct.Struct("<qI")


def leaf_decode_reference(image):
    entries = []
    payload = image.payload
    offset = 0
    for _ in range(image.n_entries):
        try:
            key, length = _ENTRY.unpack_from(payload, offset)
        except struct.error:
            raise PageError(f"truncated leaf entry on page {image.page_id}") from None
        offset += 12
        if offset + length > len(payload):
            raise PageError(f"leaf entry on page {image.page_id} overruns the page")
        entries.append((key, bytes(payload[offset:offset + length])))
        offset += length
    return entries, sum(12 + len(p) for _, p in entries)


def internal_decode_reference(image):
    entries = []
    offset = 0
    for _ in range(image.n_entries):
        try:
            entries.append(_ENTRY.unpack_from(image.payload, offset))
        except struct.error:
            raise PageError(f"truncated internal entry on page {image.page_id}") from None
        offset += 12
    return entries


def read_uint_reference(data, offset):
    end = offset + 4
    if end > len(data):
        raise RecordError(
            f"truncated integer at offset {offset} (need 4 bytes, "
            f"have {len(data) - offset})"
        )
    return int.from_bytes(data[offset:end], "little"), end


def decode_value_reference(data, offset):
    if offset >= len(data):
        raise RecordError(f"truncated value at offset {offset}")
    tag = data[offset]
    offset += 1
    if tag == ord("n"):
        return None, offset
    if tag == ord("i"):
        end = offset + 8
        if end > len(data):
            raise RecordError(f"truncated integer at offset {offset}")
        return int.from_bytes(data[offset:end], "little", signed=True), end
    if tag in (ord("s"), ord("b")):
        length, offset = read_uint_reference(data, offset)
        end = offset + length
        if end > len(data):
            raise RecordError(f"truncated string/blob at offset {offset}")
        body = data[offset:end]
        if tag == ord("s"):
            try:
                return body.decode("utf-8"), end
            except UnicodeDecodeError as exc:
                raise RecordError(f"invalid UTF-8 in record: {exc}") from exc
        return body, end
    raise RecordError(f"unknown value tag {tag:#x} at offset {offset - 1}")


def decode_row_reference(data, offset=0):
    count, offset = read_uint_reference(data, offset)
    values = []
    for _ in range(count):
        value, offset = decode_value_reference(data, offset)
        values.append(value)
    return tuple(values), offset


def outcome(fn, *args):
    """The value, or the error's type and message."""
    try:
        return fn(*args)
    except (PageError, RecordError) as exc:
        return type(exc).__name__, str(exc)


# -- routing ------------------------------------------------------------------

_KEY = st.integers(-(1 << 63) + 1, (1 << 63) - 1)


@st.composite
def _internal_entries(draw):
    """Sorted separators; slot 0 is NEG_INF or a real separator."""
    seps = sorted(draw(st.lists(st.integers(-1000, 1000), min_size=1, max_size=60)))
    if draw(st.booleans()):
        seps[0] = NEG_INF
    children = draw(st.lists(st.integers(1, (1 << 32) - 1), min_size=len(seps),
                             max_size=len(seps)))
    return list(zip(seps, children))


class TestRoute:
    @settings(max_examples=300, deadline=None)
    @given(_internal_entries(), st.lists(st.integers(-1100, 1100), max_size=40), _KEY)
    def test_route_matches_the_linear_walk(self, entries, keys, far_key):
        node = InternalNode(7, 1, entries)
        probes = keys + [far_key, NEG_INF, NEG_INF + 1, (1 << 63) - 1]
        probes += [sep + delta for sep, _ in entries for delta in (-1, 0, 1)]
        for key in probes:
            assert node.route(key) == route_reference(entries, key), key

    def test_key_below_a_real_slot0_separator_takes_slot0(self):
        node = InternalNode(7, 1, [(500, 11), (600, 12), (700, 13)])
        assert [node.route(k) for k in (-5, 499, 500, 650, 10**9)] == [11, 11, 11, 12, 13]


class TestLeafSlot:
    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(-300, 300), max_size=80), st.lists(st.integers(-310, 310),
                                                                   max_size=30))
    def test_leaf_slot_is_bisect_left_over_the_keys(self, keys, probes):
        keys = sorted(keys)
        entries = [(k, f"p{k}".encode()) for k in keys]
        for key in probes + keys:
            want = bisect_left(keys, key)
            assert _leaf_slot(entries, key) == want == leaf_slot_reference(entries, key)


# -- page decoding --------------------------------------------------------------


def _random_leaf(rng):
    keys = sorted(rng.sample(range(-10**6, 10**6), rng.randint(0, 40)))
    entries = [(k, rng.randbytes(rng.randint(0, 90))) for k in keys]
    return LeafNode(rng.randint(1, 500), entries, prev_page=rng.randint(0, 9),
                    next_page=rng.randint(0, 9))


def _random_internal(rng):
    seps = sorted(rng.sample(range(-10**9, 10**9), rng.randint(1, 300)))
    seps[0] = NEG_INF
    entries = [(s, rng.randint(1, (1 << 32) - 1)) for s in seps]
    return InternalNode(rng.randint(1, 500), rng.randint(1, 3), entries)


def _cut(image, size, n_entries=None):
    return PageImage(
        page_id=image.page_id, page_type=image.page_type, level=image.level,
        page_lsn=image.page_lsn, prev_page=image.prev_page,
        next_page=image.next_page,
        n_entries=image.n_entries if n_entries is None else n_entries,
        payload=image.payload[:size],
    )


def _hostile_images(seed):
    """Random bytes under a random entry count, as a reader of a corrupt or
    forged page sees them; also memoryview payloads."""
    rng = random.Random(seed)
    image = unpack_page(_random_leaf(rng).serialize())
    for _ in range(30):
        size = rng.randint(0, 200)
        payload = bytearray(rng.randbytes(size))
        for offset in range(8, size - 3, 12):  # small lengths, so some entries parse
            if rng.random() < 0.8:
                payload[offset:offset + 4] = rng.randint(0, 40).to_bytes(4, "little")
        forged = _cut(image, 0, n_entries=rng.randint(0, 12))
        forged.payload = rng.choice([bytes, memoryview])(bytes(payload))
        yield forged


def _leaf_outcome(image):
    node = LeafNode.decode(image)
    assert (node.page_id, node.prev_page, node.next_page) == (
        image.page_id, image.prev_page, image.next_page)
    assert all(type(payload) is bytes for _, payload in node.entries)
    return node.entries, node.used_bytes


def _internal_outcome(image):
    node = InternalNode.decode(image)
    assert (node.page_id, node.level) == (image.page_id, image.level)
    return node.entries


class TestLeafDecode:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_pages(self, seed):
        rng = random.Random(seed)
        leaf = _random_leaf(rng)
        image = unpack_page(leaf.serialize(page_lsn=seed))
        assert _leaf_outcome(image) == leaf_decode_reference(image)
        assert _leaf_outcome(image) == (leaf.entries, leaf.used_bytes)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_truncation(self, seed):
        leaf = _random_leaf(random.Random(seed))
        image = unpack_page(leaf.serialize())
        for size in range(leaf.used_bytes + 14):
            cut = _cut(image, size)
            assert outcome(_leaf_outcome, cut) == outcome(leaf_decode_reference, cut)

    @pytest.mark.parametrize("seed", range(20))
    def test_hostile_payloads(self, seed):
        for forged in _hostile_images(seed):
            assert outcome(_leaf_outcome, forged) == outcome(leaf_decode_reference, forged)

    def test_wrong_page_type(self):
        image = unpack_page(_random_internal(random.Random(1)).serialize())
        with pytest.raises(PageError, match="is INDEX_INTERNAL, not a leaf"):
            LeafNode.decode(image)


class TestInternalDecode:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_pages(self, seed):
        node = _random_internal(random.Random(seed))
        image = unpack_page(node.serialize())
        assert _internal_outcome(image) == internal_decode_reference(image) == node.entries

    @pytest.mark.parametrize("seed", range(3))
    def test_every_truncation_and_entry_count(self, seed):
        image = unpack_page(_random_internal(random.Random(seed)).serialize())
        used = image.n_entries * 12
        for size in range(used + 13):
            for n_entries in (image.n_entries, size // 12, size // 12 + 1):
                cut = _cut(image, size, n_entries)
                want = outcome(internal_decode_reference, cut)
                assert outcome(_internal_outcome, cut) == want

    def test_wrong_page_type(self):
        image = unpack_page(_random_leaf(random.Random(1)).serialize())
        with pytest.raises(PageError, match="is INDEX_LEAF, not an internal node"):
            InternalNode.decode(image)


# -- lazy leaves: lookup, materialization and write-back from kept bytes --------


def lookup_reference(entries, key):
    slot = leaf_slot_reference(entries, key)
    if slot < len(entries) and entries[slot][0] == key:
        return entries[slot][1]
    return None


def _probes(entries, rng):
    keys = [k for k, _ in entries]
    probes = keys + [k + 1 for k in keys] + [k - 1 for k in keys]
    probes += [NEG_INF, (1 << 63) - 1, 0]
    if keys:
        probes += [min(keys) - 5, max(keys) + 5]
    probes += [rng.randint(-10**6, 10**6) for _ in range(10)]
    return probes


class TestLazyLeaf:
    @pytest.mark.parametrize("seed", range(40))
    def test_lookup_on_a_fresh_leaf_matches_the_reference(self, seed):
        rng = random.Random(seed)
        image = unpack_page(_random_leaf(rng).serialize(page_lsn=seed))
        entries, _ = leaf_decode_reference(image)
        node = LeafNode.decode(image)
        for key in _probes(entries, rng):
            assert node.lookup(key) == lookup_reference(entries, key), key
        # Lookups build nothing: a later materialization sees the same page,
        # and lookups on the materialized leaf give the same answers.
        assert node.materialize() == entries
        for key in _probes(entries, rng):
            assert node.lookup(key) == lookup_reference(entries, key), key

    @pytest.mark.parametrize("seed", range(20))
    def test_lookup_on_hostile_pages_matches_the_reference(self, seed):
        # Keys on a forged page need not be sorted or unique; lookup must
        # still land where the reference's binary search lands.
        rng = random.Random(seed)
        checked = 0
        for forged in _hostile_images(seed):
            want = outcome(leaf_decode_reference, forged)
            if isinstance(want[0], str):  # the page is rejected
                assert outcome(LeafNode.decode, forged) == want
                continue
            entries, _ = want
            for key in _probes(entries, rng):
                got = LeafNode.decode(forged).lookup(key)
                assert got == lookup_reference(entries, key)
                assert got is None or type(got) is bytes
            checked += 1
        assert checked  # some forged pages decode

    @pytest.mark.parametrize("seed", range(20))
    def test_materialized_entries_and_used_bytes_match_the_reference(self, seed):
        rng = random.Random(seed)
        image = unpack_page(_random_leaf(rng).serialize())
        node = LeafNode.decode(image)
        want_entries, want_used = leaf_decode_reference(image)
        assert node.used_bytes == want_used
        assert node.materialize() == want_entries
        assert node.entries is node.materialize()
        assert node.used_bytes == want_used

    @pytest.mark.parametrize("seed", range(20))
    def test_unmaterialized_leaf_serializes_like_its_materialized_twin(self, seed):
        rng = random.Random(seed)
        raw = _random_leaf(rng).serialize(page_lsn=seed)
        lazy = LeafNode.decode(unpack_page(raw))
        twin = LeafNode.decode(unpack_page(raw))
        twin.materialize()
        assert lazy.serialize(page_lsn=seed) == twin.serialize(page_lsn=seed) == raw
        # A sibling-pointer change (split or unlink next door) keeps the
        # leaf unmaterialized and still serializes as its twin does.
        for node in (lazy, twin):
            node.prev_page, node.next_page = 4000 + seed, 5000 + seed
        assert lazy._raw is not None  # still serializing from kept bytes
        assert lazy.serialize(page_lsn=7) == twin.serialize(page_lsn=7)
        assert lazy.lookup(0) == twin.lookup(0)

    def test_forged_leaf_fails_fetch_and_leaves_the_pool_as_it_was(self):
        pool = BufferPoolManager(capacity=2)
        file = temp_page_file("t", space_id=1)
        good = []
        for key in (1, 2):
            page_id = file.allocate()
            file.write_page(page_id, LeafNode(page_id, [(key, b"row")]).serialize())
            good.append(page_id)
        forged_id = file.allocate()
        # A valid checksum over entries that overrun the page.
        forged_raw = pack_page(
            forged_id, PagedPageType.INDEX_LEAF, 0, 0, NO_PAGE, NO_PAGE, 3,
            struct.pack("<qI", 5, 3) + b"abc" + struct.pack("<qI", 9, 5000),
        )
        file.write_page(forged_id, forged_raw)
        want = outcome(leaf_decode_reference, unpack_page(forged_raw, forged_id))
        assert want == ("PageError", f"leaf entry on page {forged_id} overruns the page")
        for page_id in good:  # fill the pool: a decoded page would evict
            pool.unpin(pool.fetch(file, page_id))
        before = pool.stats
        with pytest.raises(PageError) as raised:
            pool.fetch(file, forged_id)
        assert ("PageError", str(raised.value)) == want
        after = pool.stats
        assert after["misses"] == before["misses"] + 1
        assert {k: after[k] for k in ("hits", "evictions", "writebacks")} == {
            k: before[k] for k in ("hits", "evictions", "writebacks")}
        assert not pool.contains(1, forged_id)
        assert [f.page_id for f in pool.frames()] == good[::-1]
        assert pool.pinned_frames == 0


# -- row decoding ---------------------------------------------------------------

_VALUE = st.one_of(
    st.none(),
    st.integers(-(1 << 63), (1 << 63) - 1),
    st.sampled_from([0, -1, 1 << 62, -(1 << 63), (1 << 63) - 1]),
    st.text(max_size=30),
    st.binary(max_size=30),
)


class TestDecodeRow:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_VALUE, max_size=8), st.binary(max_size=6))
    def test_random_rows_and_every_truncation(self, row, prefix):
        data = prefix + encode_row(row)
        assert decode_row(data, len(prefix)) == (tuple(row), len(data))
        for size in range(len(data) + 1):
            cut = data[:size]
            want = outcome(decode_row_reference, cut, len(prefix))
            assert outcome(decode_row, cut, len(prefix)) == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_VALUE, min_size=1, max_size=6), st.data())
    def test_bit_flips(self, row, data):
        encoded = bytearray(encode_row(row))
        for _ in range(data.draw(st.integers(1, 3))):
            bit = data.draw(st.integers(0, len(encoded) * 8 - 1))
            encoded[bit // 8] ^= 1 << (bit % 8)
        flipped = bytes(encoded)
        assert outcome(decode_row, flipped) == outcome(decode_row_reference, flipped)

    def test_every_single_bit_flip(self):
        encoded = encode_row((7, "naïve", b"\x00\xff", None, -(1 << 63), ""))
        for bit in range(len(encoded) * 8):
            flipped = bytearray(encoded)
            flipped[bit // 8] ^= 1 << (bit % 8)
            flipped = bytes(flipped)
            assert outcome(decode_row, flipped) == outcome(decode_row_reference, flipped)

    def test_decode_value_offsets(self):
        data = encode_row((5, "ab", b"c", None))
        offset = 4
        for want in (5, "ab", b"c", None):
            value, offset = decode_value(data, offset)
            assert value == want
        assert offset == len(data)
        for bad in (len(data), len(data) + 3):
            assert outcome(decode_value, data, bad) == outcome(
                decode_value_reference, data, bad)


# -- an evicting server workload, hashed -------------------------------------------

_ROWS = 2000
_DELETED = (510, 512)  # every row of one leaf: slot 0 of a non-leftmost node


def _body(key):
    return (f"row{key:05d}-" * 110)[:1000]


def _evicting_statements():
    """~1 KB rows in shuffled multi-row INSERTs, so the tree is three
    levels deep against a 16-frame pool, then reads and writes that fault
    leaves in from disk."""
    keys = [(i * 7919) % _ROWS for i in range(_ROWS)]
    out = ["CREATE TABLE t (id INT PRIMARY KEY, v INT, body TEXT)"]
    for start in range(0, _ROWS, 12):
        rows = ", ".join(
            f"({k}, {k * 3 - 1000}, '{_body(k)}')" for k in keys[start:start + 12]
        )
        out.append(f"INSERT INTO t (id, v, body) VALUES {rows}")
    out.append("INSERT INTO t (id, v, body) VALUES (5, 0, 'duplicate')")
    for i in range(300):
        out.append(f"SELECT * FROM t WHERE id = {(i * 613) % (_ROWS + 10)}")
    for low in (0, 497, 1234, 1990):
        out.append(f"SELECT id, v FROM t WHERE id BETWEEN {low} AND {low + 15}")
    out += [
        "UPDATE t SET v = 7, body = 'short' WHERE id = 777",
        f"DELETE FROM t WHERE id BETWEEN {_DELETED[0]} AND {_DELETED[1]}",
        "SELECT * FROM t WHERE id = 511",
        "SELECT id FROM t WHERE id BETWEEN 505 AND 520",
        "SELECT COUNT(*) FROM t",
    ]
    return out


def _run_evicting(before_delete=None):
    """The fingerprint, each statement's rows and the freed pages."""
    with tempfile.TemporaryDirectory() as tmp:
        server = MySQLServer(ServerConfig(buffer_pool_capacity=16, data_dir=tmp))
        try:
            session = server.connect("app")
            errors, results = [], []
            for sql in _evicting_statements():
                if sql.startswith("DELETE") and before_delete is not None:
                    before_delete(server)
                try:
                    results.append(server.execute(session, sql).rows)
                except ReproError as exc:
                    errors.append(f"{type(exc).__name__}: {exc}")
            server.engine.checkpoint()
            freed = server.engine.free_list_info()["t"]
            return _fingerprint(server, errors, tmp), results, freed
        finally:
            server.close()


#: (artifact hash, error hash) of :func:`_evicting_statements`, left by the
#: linear ``route``, the binary-search ``_leaf_slot`` and the per-entry
#: leaf and per-value row decoding loops kept above as references.
_EVICTING_HASHES = ("29771c90f106875d331641f7eb52f8c4", "5973a3e2aa38e7c3")


class TestEvictingWorkload:
    def test_workload_reaches_the_paths_it_pins(self):
        seen = {}

        def inspect(server):
            _, table = server.engine._tables["t"]
            tree = table.clustered
            pool, file = tree._pool, tree._file
            root = pool.read_node(file, tree.root_page_id)
            children = [pool.read_node(file, child) for _, child in root.entries]
            seen["height"] = tree.height
            seen["slot0"] = [node.entries[0][0] for node in children]
            seen["misses"] = pool.stats["misses"]

        _, results, freed = _run_evicting(inspect)
        assert seen["height"] == 3
        # The DELETE empties the leaf under a real slot-0 separator.
        assert seen["slot0"][0] == NEG_INF
        assert _DELETED[0] in seen["slot0"][1:]
        assert seen["misses"] > 3000  # leaves are decoded from disk
        assert freed  # the emptied leaf went to the free list
        assert results[-1] == ((_ROWS - 3,),)
        assert results[-3] == ()

    def test_artifacts_match_the_loops_before_bisect(self):
        (artifacts, errors), _, _ = _run_evicting()
        assert (artifacts, errors) == _EVICTING_HASHES
