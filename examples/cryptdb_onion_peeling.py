#!/usr/bin/env python
"""CryptDB onions: peeling is permanent, and it shows.

Paper Section 6: CryptDB-class systems enable server-side predicates by
peeling onion layers. The peel pass is a burst of UPDATEs in the logs; the
peeled column is deterministic (histogram leaked); and the equality tokens
embedded in rewritten queries persist everywhere query text does.

Run: ``python examples/cryptdb_onion_peeling.py``
"""

from collections import Counter

from repro import AttackScenario, MySQLServer, capture
from repro.attacks import frequency_analysis
from repro.edb import ColumnSpec, CryptDbProxy


def main() -> None:
    server = MySQLServer()
    session = server.connect("proxy")
    proxy = CryptDbProxy(
        server,
        session,
        b"cryptdb-demo-key-0123456789abcd!",
        table="employees",
        columns=[ColumnSpec("dept", "eq"), ColumnSpec("notes", "search")],
    )

    print("== load encrypted rows (dept onion at RND: semantically secure) ==")
    depts = ["surgery"] * 6 + ["oncology"] * 3 + ["admin"] * 1
    for i, dept in enumerate(depts):
        proxy.insert({"dept": dept, "notes": f"employee {i} file"})
    flat = proxy.column_histogram("dept")
    print(f"RND histogram: {sorted(Counter(flat.values()).items())} (all unique - no leak)")

    print("\n== the application runs its first equality query ==")
    binlog_before = server.engine.binlog.num_events
    pks = proxy.select_where_eq("dept", "surgery")
    peel_updates = sum(
        1
        for e in server.engine.binlog.events[binlog_before:]
        if e.statement.startswith("UPDATE employees")
    )
    print(f"matched rows: {sorted(pks)}")
    print(f"the implicit peel wrote {peel_updates} UPDATEs into the binlog")

    print("\n== the column is now DET: any snapshot gets the histogram ==")
    hist = proxy.column_histogram("dept")
    counts = sorted(hist.values(), reverse=True)
    print(f"ciphertext histogram: {counts}")

    model = {"surgery": 0.6, "oncology": 0.3, "admin": 0.1}  # public staffing data
    attack = frequency_analysis(
        {ct.hex(): n for ct, n in hist.items()}, model
    )
    print("frequency analysis over the DET column:")
    for ct_hex, dept in attack.assignment.items():
        print(f"  {ct_hex[:16]}... => {dept}")

    print("\n== and the query token itself is in the snapshot ==")
    snap = capture(server, AttackScenario.VM_SNAPSHOT)
    det_hex = proxy._det["dept"].encrypt(b"surgery").hex()
    hits = snap.require("memory_dump").count_locations(det_hex)
    print(f"the 'surgery' equality token appears at {hits} memory locations;")
    attacker = server.connect("attacker")
    replay = server.execute(
        attacker, f"SELECT pk FROM employees WHERE dept_onion = x'{det_hex}'"
    )
    print(f"replaying it (no keys!) matches rows {sorted(r[0] for r in replay.rows)}")


if __name__ == "__main__":
    main()
