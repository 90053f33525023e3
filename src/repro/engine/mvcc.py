"""Multi-version concurrency control: per-row version chains.

The pre-concurrency engine assumed a single client; interleaved
transactions silently corrupted rollback state (before-images replayed over
another transaction's writes). This module replaces that assumption with
InnoDB-style MVCC:

* the B+ tree always holds the **newest** write (possibly uncommitted), and
  every row carries a **version chain** of before-images — the shape of
  InnoDB's undo chains — keyed by the write's LSN;
* readers reconstruct the row as of their **snapshot** by walking the
  chain past versions that are uncommitted or committed after the snapshot
  (no dirty reads, repeatable snapshot reads). A snapshot is the number of
  commits stamped before the reader began, not an LSN: a commit record
  advances the LSN by zero bytes, so a transaction that commits right
  after another begins shares its LSN yet is not in its snapshot;
* writers take **first-writer-wins** conflict detection: touching a row
  that an uncommitted transaction already wrote, or that committed after
  the writer's snapshot, raises :class:`~repro.errors.WriteConflictError`
  at write time, so per-row before-image rollback stays sound under
  interleaving.

The chains themselves are a *new leakage surface* (registered as the
``mvcc_version_chains`` snapshot artifact): chain lengths record exactly
which rows concurrent transactions contended on, and the retained
before-images extend the paper's §3 write-history leakage to in-memory
state that was never meant to reach the disk logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..errors import TransactionError, WriteConflictError
from .transaction import Transaction

#: The chain map of a table without chains: lookups allocate nothing.
_NO_CHAINS: Mapping[int, "RowVersion"] = MappingProxyType({})


class RowVersion:
    """One link of a row's version chain: the before-image of a write.

    ``commit_seq`` is ``None`` while the writing transaction is active,
    then the manager's commit count including this commit.
    ``before_image`` is the serialized row the write replaced (``b""`` when
    the row did not exist — i.e. this version is an insert).
    """

    __slots__ = ("txn_id", "lsn", "op", "before_image", "commit_seq", "prev")

    def __init__(
        self,
        txn_id: int,
        lsn: int,
        op: str,
        before_image: bytes,
        commit_seq: Optional[int] = None,
        prev: Optional["RowVersion"] = None,
    ) -> None:
        self.txn_id = txn_id
        self.lsn = lsn
        self.op = op
        self.before_image = before_image
        self.commit_seq = commit_seq
        self.prev = prev

    def chain_length(self) -> int:
        length, node = 0, self
        while node is not None:
            length += 1
            node = node.prev
        return length


@dataclass(frozen=True)
class MvccChainStat:
    """One row's version-chain summary (snapshot-artifact row)."""

    table: str
    key: int
    length: int
    uncommitted: int


class MVCCManager:
    """Version chains + snapshot visibility for one storage engine.

    The engine applies writes to the B+ tree immediately (preserving the
    redo/undo/binlog leakage the paper catalogs) and records a
    :class:`RowVersion` here; readers call :meth:`read_row` (point reads)
    or :meth:`visible_entries` (scans) to roll the tree's current values
    back to their snapshot.
    """

    def __init__(self) -> None:
        #: table -> key -> newest version (chain head).
        self._chains: Dict[str, Dict[int, RowVersion]] = {}
        #: Commits stamped so far; a commit's versions carry the new count.
        self._commits = 0
        #: txn_id -> snapshot (commits stamped before it began) of every
        #: active (begun, unfinished) txn.
        self._active: Dict[int, int] = {}
        #: txn_id -> rows written, in write order.
        self._writes: Dict[int, List[Tuple[str, int]]] = {}

    # -- transaction lifecycle --------------------------------------------

    def begin(self, txn: Transaction) -> None:
        self._active[txn.txn_id] = self._commits
        self._writes[txn.txn_id] = []

    @property
    def active_txn_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._active))

    def oldest_active_snapshot(self) -> Optional[int]:
        return min(self._active.values()) if self._active else None

    # -- writes ------------------------------------------------------------

    def check_write(self, txn: Transaction, table: str, key: int) -> None:
        """First-writer-wins conflict detection; raises before any mutation."""
        if txn.txn_id not in self._active:
            raise TransactionError(
                f"transaction {txn.txn_id} is not registered with MVCC"
            )
        head = self._chains.get(table, _NO_CHAINS).get(key)
        if head is None:
            return
        if head.commit_seq is None and head.txn_id != txn.txn_id:
            raise WriteConflictError(
                f"txn {txn.txn_id} lost write-write conflict on "
                f"{table}[{key}]: txn {head.txn_id} wrote it first and is "
                "uncommitted (first-writer-wins)"
            )
        snapshot = self._active[txn.txn_id]
        if head.commit_seq is not None and head.commit_seq > snapshot:
            raise WriteConflictError(
                f"txn {txn.txn_id} lost write-write conflict on "
                f"{table}[{key}]: txn {head.txn_id} committed it (commit "
                f"{head.commit_seq}) after this transaction's snapshot "
                f"(commit {snapshot})"
            )

    def record_write(
        self, txn: Transaction, table: str, key: int, op: str,
        before_image: bytes, lsn: int,
    ) -> None:
        """Push a new uncommitted version at the head of the row's chain."""
        chain = self._chains.get(table)
        if chain is None:
            chain = self._chains[table] = {}
        chain[key] = RowVersion(
            txn.txn_id, lsn, op, before_image, None, chain.get(key)
        )
        self._writes[txn.txn_id].append((table, key))

    # -- commit / rollback -------------------------------------------------

    def commit(self, txn: Transaction) -> None:
        """Stamp the transaction's versions committed, then truncate."""
        touched = self._finish(txn)
        self._commits += 1
        for table, key in touched:
            node = self._chains.get(table, _NO_CHAINS).get(key)
            while node is not None and node.commit_seq is None:
                if node.txn_id == txn.txn_id:
                    node.commit_seq = self._commits
                node = node.prev
        if not self._active:
            self._clear_committed()
        else:
            for table, key in touched:
                self._truncate(table, key)

    def rollback(self, txn: Transaction) -> None:
        """Drop the transaction's (contiguous, newest) versions."""
        touched = self._finish(txn)
        for table, key in touched:
            chain = self._chains[table]  # record_write created it
            head = chain.get(key)
            while head is not None and head.commit_seq is None and (
                head.txn_id == txn.txn_id
            ):
                head = head.prev
            if head is None:
                chain.pop(key, None)
            else:
                chain[key] = head
        if not self._active:
            self._clear_committed()

    def _finish(self, txn: Transaction) -> List[Tuple[str, int]]:
        if txn.txn_id not in self._active:
            raise TransactionError(
                f"transaction {txn.txn_id} is not active under MVCC"
            )
        del self._active[txn.txn_id]
        writes = self._writes.pop(txn.txn_id)
        # Preserve discovery order for deterministic commit stamping.
        seen: Set[Tuple[str, int]] = set()
        return [w for w in writes if not (w in seen or seen.add(w))]

    def _clear_committed(self) -> None:
        """Drop every fully-committed chain once no transaction is active.

        First-writer-wins keeps uncommitted versions only at chain heads,
        so a committed head means the whole chain is committed — and with
        no active snapshots left, no reader can ever need it. Running the
        sweep only when the active set drains keeps commit O(rows written)
        instead of O(all chains), while still releasing chains a finishing
        *read-only* transaction was pinning.
        """
        for table in list(self._chains):
            chain = self._chains[table]
            dead = [k for k, head in chain.items() if head.commit_seq is not None]
            for key in dead:
                del chain[key]

    def _truncate(self, table: str, key: int) -> None:
        """Drop chain history no active snapshot can ever need.

        With no active transactions a fully-committed chain disappears
        entirely; otherwise the chain is cut right after the newest version
        visible to the oldest active snapshot.
        """
        chain = self._chains.get(table)
        if chain is None:
            return
        head = chain.get(key)
        if head is None:
            return
        horizon = self.oldest_active_snapshot()
        if horizon is None:
            if head.commit_seq is not None:
                del chain[key]
            return
        node = head
        while node is not None:
            visible_to_oldest = (
                node.commit_seq is not None and node.commit_seq <= horizon
            )
            if visible_to_oldest:
                node.prev = None
                return
            node = node.prev

    # -- reads -------------------------------------------------------------

    def read_row(
        self,
        table: str,
        key: int,
        current: Optional[bytes],
        txn: Optional[Transaction] = None,
    ) -> Optional[bytes]:
        """Roll the tree's ``current`` value back to the reader's snapshot.

        ``txn=None`` reads the latest *committed* state (autocommit reads:
        still no dirty reads). Returns ``None`` when the row is invisible
        at the snapshot.
        """
        node = self._chains.get(table, _NO_CHAINS).get(key)
        if node is None:
            return current
        if txn is None:
            reader, snapshot = None, self._commits  # latest committed
        else:
            reader, snapshot = txn.txn_id, self._snapshot(txn)
        value = current
        while node is not None:
            if node.txn_id == reader:
                break  # read-your-own-writes
            if node.commit_seq is not None and node.commit_seq <= snapshot:
                break
            value = node.before_image if node.before_image else None
            node = node.prev
        return value

    def visible_entries(
        self,
        table: str,
        low: Optional[int],
        high: Optional[int],
        entries: List[Tuple[int, bytes]],
        txn: Optional[Transaction] = None,
    ) -> List[Tuple[int, bytes]]:
        """Roll a range scan's ``entries`` (keys ``low..high``, either end
        open when ``None``) back to the reader's snapshot.

        Only a key with a version chain can read differently from the tree,
        and only such a key can be absent from the tree yet visible: an
        uncommitted (or post-snapshot-committed) delete removed it, but the
        snapshot still contains it. A table without chains therefore gets
        ``entries`` back as they are — every table of an autocommit
        workload, whose chains are cleared whenever the active set drains.
        """
        chain = self._chains.get(table)
        if not chain:
            return entries
        out: List[Tuple[int, bytes]] = []
        seen: Set[int] = set()
        for entry in entries:
            key = entry[0]
            if key not in chain:
                out.append(entry)
                continue
            seen.add(key)
            value = self.read_row(table, key, entry[1], txn)
            if value is not None:
                out.append((key, value))
        from_tree = len(out)
        for key in chain:
            if key in seen:
                continue
            if low is not None and key < low:
                continue
            if high is not None and key > high:
                continue
            value = self.read_row(table, key, None, txn)
            if value is not None:
                out.append((key, value))
        if len(out) > from_tree:
            out.sort(key=lambda kv: kv[0])
        return out

    def _snapshot(self, txn: Transaction) -> int:
        try:
            return self._active[txn.txn_id]
        except KeyError:
            raise TransactionError(
                f"transaction {txn.txn_id} is not active under MVCC"
            ) from None

    # -- introspection / artifacts ----------------------------------------

    def chain_stats(self) -> Tuple[MvccChainStat, ...]:
        """Deterministic per-row chain summaries (the leakage artifact)."""
        stats: List[MvccChainStat] = []
        for table in sorted(self._chains):
            chain = self._chains[table]
            for key in sorted(chain):
                head = chain[key]
                length, uncommitted, node = 0, 0, head
                while node is not None:
                    length += 1
                    if node.commit_seq is None:
                        uncommitted += 1
                    node = node.prev
                stats.append(MvccChainStat(table, key, length, uncommitted))
        return tuple(stats)

    def chain_length(self, table: str, key: int) -> int:
        head = self._chains.get(table, _NO_CHAINS).get(key)
        return head.chain_length() if head is not None else 0

    @property
    def num_chains(self) -> int:
        return sum(len(chain) for chain in self._chains.values())


__all__ = ["MVCCManager", "MvccChainStat", "RowVersion"]
