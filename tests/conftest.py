"""Fixtures shared across test modules."""

import pytest
from hypothesis import settings

from repro.wal import LogManager

#: ``--hypothesis-profile=oracle-sweep``: the longer SQLite-oracle sweep
#: (tests/test_sqlite_oracle.py), whose test takes hypothesis's budget
#: from the active profile.
settings.register_profile("oracle-sweep", max_examples=2000)
#: ``--hypothesis-profile=history-sweep``: the longer one-engine isolation
#: sweep (tests/test_history_checker.py).
settings.register_profile("history-sweep", max_examples=2000)


@pytest.fixture
def make_wal(tmp_path):
    """Build on-disk ``LogManager``\\ s under ``tmp_path``; each gets its own
    ``wal_dir`` and all are closed at teardown."""
    managers = []

    def make(**kwargs):
        mgr = LogManager(wal_dir=str(tmp_path / f"wal{len(managers)}"), **kwargs)
        managers.append(mgr)
        return mgr

    yield make
    for mgr in managers:
        mgr.close()
