"""§7 mitigation: history independence — leakage removed, performance paid.

The paper's Discussion points at history-independent data structures as the
research direction. This bench quantifies both sides at once:

* leakage: B+-tree disk images differ across insertion orders of the same
  key set (history encoded in page layout); the HI index's images are
  byte-identical.
* cost: bulk-update throughput of the HI index vs the B+ tree.
"""

import os
import random
import tempfile
import time

from repro.mitigations import HistoryIndependentIndex
from repro.storage import BufferPoolManager, PagedBTree, PageFile


def _btree_image(order):
    with tempfile.TemporaryDirectory() as tmp:
        pool = BufferPoolManager(capacity=256)
        file = PageFile(os.path.join(tmp, "t.ibd"), "t", space_id=1)
        tree = PagedBTree(pool, file)
        for k in order:
            tree.insert(k, str(k).encode())
        pool.flush_all()
        image = file.to_bytes()
        file.close()
    return image


def _hi_image(order):
    index = HistoryIndependentIndex(page_capacity=16)
    for k in order:
        index.insert(k, str(k).encode())
    return index.to_bytes()


def test_history_independence_vs_btree(benchmark, report):
    def run():
        rng = random.Random(0)
        keys = list(range(2_000))
        orders = []
        for _ in range(4):
            order = keys[:]
            rng.shuffle(order)
            orders.append(order)

        btree_images = {_btree_image(order) for order in orders}
        hi_images = {_hi_image(order) for order in orders}

        def per_insert_cost(build, n):
            rng_local = random.Random(1)
            order = rng_local.sample(range(n * 10), n)
            t0 = time.perf_counter()
            build(order)
            return (time.perf_counter() - t0) / n * 1e6  # microseconds

        scaling = {
            n: (
                per_insert_cost(_btree_image, n),
                per_insert_cost(_hi_image, n),
            )
            for n in (2_000, 20_000)
        }
        return btree_images, hi_images, scaling

    btree_images, hi_images, scaling = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    small, large = scaling[2_000], scaling[20_000]
    lines = [
        "Mitigation bench: history-independent index vs the default B+ tree",
        "(same 2,000-key set inserted in 4 different random orders)",
        "",
        f"distinct B+-tree disk images : {len(btree_images)} of 4 "
        f"(page layout leaks insertion history)",
        f"distinct HI-index disk images: {len(hi_images)} of 4 "
        f"(snapshot reveals contents only)",
        "",
        "per-insert cost (us), 2k -> 20k keys:",
        f"  B+ tree : {small[0]:7.1f} -> {large[0]:7.1f}  (~log n growth)",
        f"  HI index: {small[1]:7.1f} -> {large[1]:7.1f}  (O(n) shifts: its growth",
        "            is linear while the tree's is logarithmic)",
        "",
        "paper (Section 7): 'there appears to be an inherent conflict between",
        "security and transparency' - unique representation removes the",
        "snapshot side channel and the adaptive-performance machinery with it.",
    ]
    report("mitigation_history_independence", lines)
    assert len(btree_images) > 1
    assert len(hi_images) == 1
