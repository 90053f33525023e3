"""The B+-tree under the module path it had beside the deleted memory tree.

Only the repository benchmark's per-layer tracer (``perfbench/tracer.py``)
still imports ``repro.storage.btree.BTree``; the tree itself is
:class:`repro.storage.paged.PagedBTree`. Delete this module together with
the tracer's two ``BTree`` rows.
"""

from .paged.btree import PagedBTree as BTree

__all__ = ["BTree"]
