"""Transactional histories and an Adya-style isolation checker.

Adya's thesis (*Weak Consistency: A Generalized Theory and Optimistic
Implementations for Distributed Transactions*, MIT, 1999) defines each
isolation anomaly as a cycle, or a forbidden read, in the direct
serialization graph of committed transactions:

* ``ww`` edge ``Ti -> Tj``: Tj installs the version right after Ti's;
* ``wr`` edge ``Ti -> Tj``: Tj reads the version Ti installed;
* ``rw`` edge ``Ti -> Tj``: Ti reads a version and Tj installs the next one.

G0 is a ww cycle, G1a an aborted read, G1b an intermediate read, G1c a
cycle of ww and wr edges, and G-single a cycle with exactly one rw edge.
Snapshot isolation forbids all five.

Building the graph needs each object's version order, which a database
does not report. Elle (Kingsbury & Alvaro, *Elle: Inferring Isolation
Anomalies from Experimental Observations*, VLDB 2020) recovers it with
list-append objects: every write appends a unique element, so every read
returns the order of all writes before it. :func:`run_history` drives
that workload against an engine (an append writes the list the
transaction read plus one new element) and :func:`check` builds the
graph and reports the anomalies. The checker writes no artifact.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError

TABLE = "h"


def encode(elements: Tuple[int, ...]) -> bytes:
    # Never empty: the engine reads an empty before-image as "no row".
    return b"L" + b",".join(str(e).encode() for e in elements)


def decode(value: Optional[bytes]) -> Tuple[int, ...]:
    if value is None or value == b"L":
        return ()
    return tuple(int(e) for e in value[1:].split(b","))


@dataclass
class Txn:
    """One transaction's operations: ``("r", key, list)`` reads and
    ``("a", key, element)`` appends, in order."""

    name: str
    ops: List[Tuple[str, int, object]] = field(default_factory=list)
    committed: bool = False


def run_history(engine, seed: int, sessions: int = 4, txns: int = 40,
                keys: int = 6) -> Tuple[List[Txn], Dict[int, Tuple[int, ...]]]:
    """Interleave ``txns`` transactions over ``sessions`` sessions.

    Each step runs one operation of one session's open transaction: read a
    key, or append to it. An append writes the list the transaction last
    read for that key (read earlier, possibly several steps ago) plus one
    new element, so a write that should have conflicted shows up as a
    lost append. A transaction that hits an error (a write conflict) is
    rolled back; one in ten is rolled back on purpose. Returns the
    transactions and each key's final committed list.
    """
    rng = random.Random(seed)
    engine.register_table(TABLE)
    setup = engine.begin()
    for key in range(keys):
        engine.insert(setup, TABLE, key, encode(()))
    engine.commit(setup)
    history: List[Txn] = []
    #: Per session: (txn, engine handle, operations left, key -> its view).
    running: List[Optional[tuple]] = [None] * sessions
    element = 0
    while len(history) < txns or any(running):
        session = rng.randrange(sessions)
        if running[session] is None:
            if len(history) < txns:
                history.append(Txn(f"T{len(history)}"))
                ops = rng.randrange(1, 6)
                running[session] = (history[-1], engine.begin(), ops, {})
            continue
        txn, handle, left, view = running[session]
        if left == 0:
            if rng.random() < 0.1:
                engine.rollback(handle)
            else:
                engine.commit(handle)
                txn.committed = True
            running[session] = None
            continue
        running[session] = (txn, handle, left - 1, view)
        key = rng.randrange(keys)
        try:
            if key not in view or rng.random() < 0.5:
                view[key] = decode(engine.get(TABLE, key, txn=handle)[0])
                txn.ops.append(("r", key, view[key]))
            else:
                element += 1
                txn.ops.append(("a", key, element))
                view[key] += (element,)
                engine.update(handle, TABLE, key, encode(view[key]))
        except ReproError:
            engine.rollback(handle)
            running[session] = None
    final = {key: decode(engine.get(TABLE, key)[0]) for key in range(keys)}
    return history, final


ANOMALIES = (
    "incompatible-order",  # a read that is not a prefix of the final list
    "lost-append",  # a committed append missing from the final list
    "G0",
    "G1a",
    "G1b",
    "G1c",
    "G-single",
)


def check(
    history: List[Txn], final: Dict[int, Tuple[int, ...]]
) -> Dict[str, list]:
    """Anomalies by name; an empty list for each name means none found."""
    found: Dict[str, list] = {name: [] for name in ANOMALIES}
    writer: Dict[int, Txn] = {}
    last_append: Dict[Tuple[str, int], int] = {}
    for txn in history:
        for kind, key, value in txn.ops:
            if kind == "a":
                writer[value] = txn
                last_append[(txn.name, key)] = value
    committed = [t for t in history if t.committed]
    for key, elements in final.items():
        for e in elements:
            if not writer[e].committed:
                found["G1a"].append((f"final[{key}]", writer[e].name))
    edges: Dict[str, Dict[str, Set[str]]] = {
        kind: defaultdict(set) for kind in ("ww", "wr", "rw")
    }
    for key, elements in final.items():
        for a, b in zip(elements, elements[1:]):
            if writer[a] is not writer[b]:
                edges["ww"][writer[a].name].add(writer[b].name)
    for txn in committed:
        for kind, key, value in txn.ops:
            if kind == "a":
                if value not in final[key]:
                    found["lost-append"].append((txn.name, key, value))
                continue
            aborted = {writer[e].name for e in value if not writer[e].committed}
            if aborted:
                found["G1a"] += [(txn.name, name) for name in sorted(aborted)]
                continue
            order = final[key]
            if value != order[: len(value)]:
                found["incompatible-order"].append((txn.name, key, value))
                continue
            if value:
                source = writer[value[-1]]
                if source is txn:
                    continue  # read of its own write
                if last_append[(source.name, key)] != value[-1]:
                    found["G1b"].append((txn.name, source.name, key))
                    continue
                edges["wr"][source.name].add(txn.name)
            if len(order) > len(value):
                nxt = writer[order[len(value)]]
                if nxt is not txn:
                    edges["rw"][txn.name].add(nxt.name)
    found["G0"] = _cycles(edges["ww"])
    ww_wr = _union(edges["ww"], edges["wr"])
    found["G1c"] = _cycles(ww_wr)
    for src, dsts in sorted(edges["rw"].items()):
        for dst in sorted(dsts):
            if _reaches(ww_wr, dst, src):
                found["G-single"].append((src, dst))
    return found


def _union(*graphs: Dict[str, Set[str]]) -> Dict[str, Set[str]]:
    out: Dict[str, Set[str]] = defaultdict(set)
    for graph in graphs:
        for src, dsts in graph.items():
            out[src] |= dsts
    return out


def _reaches(graph: Dict[str, Set[str]], start: str, goal: str) -> bool:
    stack, seen = [start], {start}
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for nxt in graph.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _cycles(graph: Dict[str, Set[str]]) -> List[Tuple[str, str]]:
    """Edges that lie on a cycle."""
    return sorted(
        (src, dst)
        for src, dsts in graph.items()
        for dst in dsts
        if _reaches(graph, dst, src)
    )
