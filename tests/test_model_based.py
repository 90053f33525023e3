"""Model-based testing: the server vs a naive in-memory reference.

A random workload of INSERT/UPDATE/DELETE/SELECT statements is applied both
to the real :class:`MySQLServer` and to a dict-based reference model; every
SELECT's result set must agree, and at the end the forensic log
reconstruction must replay the model's exact write history — the deep
invariant the paper's Section 3 forensics depends on.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.forensics import reconstruct_modifications
from repro.server import MySQLServer
from repro.snapshot import AttackScenario, capture


class ReferenceTable:
    """The naive model: a dict of id -> (name, score)."""

    def __init__(self):
        self.rows = {}
        self.write_log = []  # (op, key) in application order

    def insert(self, key, name, score):
        if key in self.rows:
            return False
        self.rows[key] = (name, score)
        self.write_log.append(("insert", key))
        return True

    def update_score(self, low, high, score):
        changed = 0
        for key, (name, _old) in sorted(self.rows.items()):
            if low <= key <= high:
                self.rows[key] = (name, score)
                self.write_log.append(("update", key))
                changed += 1
        return changed

    def delete(self, low, high):
        doomed = [k for k in sorted(self.rows) if low <= k <= high]
        for key in doomed:
            del self.rows[key]
            self.write_log.append(("delete", key))
        return len(doomed)

    def select_range(self, low, high):
        return sorted(
            (k, name, score)
            for k, (name, score) in self.rows.items()
            if low <= k <= high
        )

    def select_by_score(self, threshold):
        return sorted(
            (k, name, score)
            for k, (name, score) in self.rows.items()
            if score is not None and score >= threshold
        )


operation = st.one_of(
    st.tuples(
        st.just("insert"),
        st.integers(0, 60),
        st.sampled_from(["ada", "bob", "cy"]),
        st.integers(0, 100),
    ),
    st.tuples(st.just("update"), st.integers(0, 60), st.integers(0, 60), st.integers(0, 100)),
    st.tuples(st.just("delete"), st.integers(0, 60), st.integers(0, 60)),
    st.tuples(st.just("select_range"), st.integers(0, 60), st.integers(0, 60)),
    st.tuples(st.just("select_score"), st.integers(0, 100)),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(operation, min_size=1, max_size=40))
def test_server_agrees_with_reference_model(ops):
    server = MySQLServer()
    session = server.connect("model")
    server.execute(
        session, "CREATE TABLE m (id INT PRIMARY KEY, name TEXT, score INT)"
    )
    model = ReferenceTable()

    for op in ops:
        if op[0] == "insert":
            _, key, name, score = op
            if model.insert(key, name, score):
                server.execute(
                    session,
                    f"INSERT INTO m (id, name, score) VALUES ({key}, '{name}', {score})",
                )
        elif op[0] == "update":
            _, a, b, score = op
            low, high = min(a, b), max(a, b)
            result = server.execute(
                session,
                f"UPDATE m SET score = {score} WHERE id BETWEEN {low} AND {high}",
            )
            assert result.rows_affected == model.update_score(low, high, score)
        elif op[0] == "delete":
            _, a, b = op
            low, high = min(a, b), max(a, b)
            result = server.execute(
                session, f"DELETE FROM m WHERE id BETWEEN {low} AND {high}"
            )
            assert result.rows_affected == model.delete(low, high)
        elif op[0] == "select_range":
            _, a, b = op
            low, high = min(a, b), max(a, b)
            result = server.execute(
                session,
                f"SELECT id, name, score FROM m "
                f"WHERE id BETWEEN {low} AND {high} ORDER BY id",
            )
            assert [tuple(r) for r in result.rows] == model.select_range(low, high)
        else:
            _, threshold = op
            result = server.execute(
                session,
                f"SELECT id, name, score FROM m WHERE score >= {threshold} ORDER BY id",
            )
            assert [tuple(r) for r in result.rows] == model.select_by_score(threshold)

    # Forensic invariant: the logs replay the model's exact write history.
    snap = capture(server, AttackScenario.DISK_THEFT)
    events = reconstruct_modifications(
        snap.get("redo_log_raw"), snap.get("undo_log_raw")
    )
    log = [(e.op, e.key) for e in events if e.table == "m"]
    assert log == model.write_log

    # Binlog invariant: every INSERT statement that changed the table is
    # present with its full text (UPDATE/DELETE appear when they matched).
    binlog_inserts = sum(
        1 for e in snap.get("binlog_events") if e.statement.startswith("INSERT INTO m")
    )
    model_inserts = sum(1 for op, _ in model.write_log if op == "insert")
    assert binlog_inserts == model_inserts
