"""Observability that is off makes no call into ``repro.obs``.

Every public method of the layer's classes (their constructors included)
is replaced by one that records the call and fails. A server with
observability off then runs the statement mix of the fast-path artifact
test and a multi-row INSERT through a pool small enough to evict: the
statement, row and page paths must not touch the layer at all. The same
patch on a server with observability on is the control that shows the
patch sees calls.
"""

import inspect
import tempfile
from contextlib import ExitStack
from unittest import mock

import pytest

from repro.obs import Instrumentation, MetricsRegistry, TraceStore, Tracer
from repro.server import MySQLServer, ServerConfig
from tests.test_statement_fastpath import _run_workload

OBS_CLASSES = (Instrumentation, Tracer, MetricsRegistry, TraceStore)


class ObsCalled(AssertionError):
    pass


def _public_methods(cls):
    for name, value in vars(cls).items():
        if name == "__init__" or not name.startswith("_"):
            if inspect.isfunction(value) or isinstance(value, property):
                yield name, value


def forbid_obs_calls(calls):
    """Patch every public method of the obs classes to record and fail."""
    stack = ExitStack()
    for cls in OBS_CLASSES:
        for name, value in _public_methods(cls):
            qualname = f"{cls.__name__}.{name}"

            def fail(*args, _qualname=qualname, **kwargs):
                calls.append(_qualname)
                raise ObsCalled(f"{_qualname} called")

            patched = property(fail) if isinstance(value, property) else fail
            stack.enter_context(mock.patch.object(cls, name, patched))
    return stack


def test_every_class_has_methods_to_forbid():
    for cls in OBS_CLASSES:
        assert "__init__" in dict(_public_methods(cls))
        assert len(dict(_public_methods(cls))) > 1


def _statement_mix(config_kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        server, _ = _run_workload(ServerConfig(**config_kwargs, data_dir=tmp))
        server.close()


def _evicting_insert(config_kwargs):
    server = MySQLServer(ServerConfig(buffer_pool_capacity=4, **config_kwargs))
    session = server.connect()
    server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    rows = ", ".join(f"({key}, '{'v' * 120}{key}')" for key in range(100))
    result = server.execute(session, f"INSERT INTO t (id, v) VALUES {rows}")
    assert result.rows_affected == 100
    assert server.engine.buffer_pool.stats["evictions"] > 0
    assert len(server.execute(session, "SELECT id FROM t").rows) == 100
    server.close()


@pytest.mark.parametrize("run", [_statement_mix, _evicting_insert])
def test_obs_off_makes_no_call(run):
    calls = []
    with forbid_obs_calls(calls):
        run({})
    assert calls == []


@pytest.mark.parametrize("run", [_statement_mix, _evicting_insert])
def test_the_patch_sees_obs_on(run):
    calls = []
    with forbid_obs_calls(calls), pytest.raises(ObsCalled):
        run({"obs_enabled": True})
    assert calls
