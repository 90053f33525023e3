"""Carving rows out of a stolen tablespace image, and hostile images."""

import random

import pytest

from repro.errors import ForensicsError
from repro.forensics import read_leaf_entries
from repro.server import MySQLServer
from repro.snapshot import AttackScenario, capture
from repro.storage import PAGED_PAGE_SIZE, decode_row


def stolen_image(rows=40, checkpoint=True):
    """A ``t`` tablespace of ~100-byte rows spread over several leaves."""
    server = MySQLServer()
    session = server.connect("app")
    server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    for i in range(rows):
        server.execute(session, f"INSERT INTO t (id, v) VALUES ({i}, '{'s' * 100}{i}')")
    if checkpoint:
        server.engine.checkpoint()
    image = capture(server, AttackScenario.DISK_THEFT).require("tablespace_images")["t"]
    server.close()
    return image


def carve(image):
    """Entries read before the reader stops, and how it stopped."""
    entries = []
    try:
        for entry in read_leaf_entries(image):
            entries.append(entry)
    except ForensicsError:
        return entries, "error"
    return entries, "complete"


class TestReadLeafEntries:
    def test_checkpointed_image_yields_every_row(self):
        image = stolen_image()
        rows = sorted(decode_row(payload)[0] for _, payload in read_leaf_entries(image))
        assert rows == [(i, "s" * 100 + str(i)) for i in range(40)]

    def test_without_checkpoint_only_written_back_pages(self):
        # Nothing was evicted, so no leaf reached the file yet.
        assert list(read_leaf_entries(stolen_image(checkpoint=False))) == []


class TestHostileImages:
    """Corruption gives a ForensicsError or a partial result, never an
    IndexError or struct.error."""

    def test_truncated_image(self):
        image = stolen_image()
        for cut in (1, PAGED_PAGE_SIZE // 2, PAGED_PAGE_SIZE + 7, len(image) - 1):
            entries, how = carve(image[:cut])
            assert how == "error"
            assert len(entries) < 40
        # A cut on a page boundary is a shorter file: a partial result.
        entries, how = carve(image[: 2 * PAGED_PAGE_SIZE])
        assert how == "complete" and len(entries) < 40

    def test_bit_flipped_page(self):
        image = bytearray(stolen_image())
        image[2 * PAGED_PAGE_SIZE + 100] ^= 0x10
        entries, how = carve(bytes(image))
        assert how == "error"
        assert len(entries) < 40

    def test_spliced_page(self):
        image = stolen_image()
        page = PAGED_PAGE_SIZE
        # Page 1's bytes copied over page 2: a valid page in the wrong slot.
        spliced = image[: 2 * page] + image[page: 2 * page] + image[3 * page:]
        entries, how = carve(spliced)
        assert how == "error"
        assert len(entries) < 40

    @pytest.mark.parametrize("seed", range(20))
    def test_random_corruption(self, seed):
        rng = random.Random(seed)
        image = bytearray(stolen_image(rows=12))
        for _ in range(rng.randint(1, 8)):
            image[rng.randrange(len(image))] = rng.randrange(256)
        if rng.random() < 0.5:
            del image[rng.randrange(len(image)):]
        entries, _ = carve(bytes(image))
        assert all(isinstance(k, int) and isinstance(p, bytes) for k, p in entries)
