"""Replication multiplies the snapshot-attack surface (paper §2/§3)."""

from repro.forensics import reconstruct_modifications
from repro.replication import ReplicatedDeployment
from repro.snapshot import AttackScenario, capture


def test_replication_attack_surface(benchmark, report):
    def run():
        dep = ReplicatedDeployment(num_replicas=3)
        session = dep.connect("app")
        dep.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        for i in range(50):
            dep.execute(session, f"INSERT INTO t (id, v) VALUES ({i}, 'row{i}')")
        dep.execute(session, "UPDATE t SET v = 'edited' WHERE id = 7")
        leaky = 0
        for machine in dep.all_machines:
            snap = capture(machine, AttackScenario.DISK_THEFT)
            events = reconstruct_modifications(
                snap.get("redo_log_raw"), snap.get("undo_log_raw")
            )
            if any(e.op == "update" and e.key == 7 for e in events):
                leaky += 1
        return dep, leaky

    dep, leaky = benchmark.pedantic(run, rounds=1, iterations=1)
    status = dep.status()
    lines = [
        "Replication: every machine is a complete snapshot target",
        "",
        f"replicas                         : {status.replicas}",
        f"binlog events shipped            : {status.primary_binlog_events}",
        f"replicas in sync                 : {status.in_sync}",
        f"machines leaking the full write  : {leaky} of "
        f"{len(dep.all_machines)}",
        "",
        "paper (Section 2): 'even if the database is replicated, every",
        "machine has a full copy of the data' - and, via statement",
        "replication, a full copy of the write history artifacts too.",
    ]
    report("replication_surface", lines)
    assert leaky == len(dep.all_machines)
