"""Tablespace files for storage tests.

A :class:`~repro.storage.paged.PageFile` is always a file on disk. Module
helpers and hypothesis examples build many small trees and cannot take
pytest's per-test ``tmp_path``, so each file here gets its own temporary
directory, removed when the file object is garbage collected (the way a
default ``StorageEngine`` cleans up its private data directory).
"""

import os
import shutil
import tempfile
import weakref

from repro.storage.paged import PageFile


def temp_page_file(name: str = "t", space_id: int = 0) -> PageFile:
    """A new, empty tablespace file in a fresh temporary directory."""
    directory = tempfile.mkdtemp(prefix="repro-pagefile-")
    file = PageFile(os.path.join(directory, f"{name}.ibd"), name, space_id=space_id)
    weakref.finalize(file, shutil.rmtree, directory, True)
    return file
