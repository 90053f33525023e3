"""A mini Spark cluster: driver, executors, partitioned aggregation jobs.

The driver accepts aggregation queries (``count`` / ``sum`` over a column,
with an optional equality filter), splits them into per-partition tasks,
and "ships" each task's expression to an executor. Two leak surfaces are
modeled faithfully:

* the **event log** records each job with its full description (the query
  text) — persistent state (see :mod:`.events`);
* each **executor heap** (a :class:`repro.memory.SimulatedHeap`) receives a
  copy of the task expression per task, freed without zeroing when the task
  ends — the "heap of the worker nodes" of paper §6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..clock import SimClock
from ..errors import ReproError
from ..memory import SimulatedHeap
from .events import EventLog, SparkEvent

Row = Dict[str, Any]


@dataclass(frozen=True)
class SparkJobResult:
    """Outcome of one aggregation job."""

    job_id: int
    description: str
    value: int
    rows_scanned: int
    partitions: int


class _Executor:
    """One worker: a heap that keeps task expressions around."""

    def __init__(self, executor_id: int) -> None:
        self.executor_id = executor_id
        self.heap = SimulatedHeap()
        self.tasks_run = 0

    def run_task(self, expression: str, partition: Sequence[Row], agg: str,
                 column: Optional[str], filter_col: Optional[str],
                 filter_value: Any) -> Tuple[int, int]:
        """Evaluate one partition; returns (partial aggregate, rows scanned)."""
        # The task's expression lands in the executor heap (and is freed,
        # unzeroed, when the task finishes).
        addr = self.heap.alloc_str(expression, tag=f"task/{self.tasks_run}")
        total = 0
        for row in partition:
            if filter_col is not None and row.get(filter_col) != filter_value:
                continue
            if agg == "count":
                total += 1
            else:
                value = row.get(column)
                if value is not None:
                    total += int(value)
        self.heap.free(addr)
        self.tasks_run += 1
        return total, len(partition)


class MiniSparkCluster:
    """Driver + N executors over a partitioned in-memory dataset."""

    def __init__(
        self,
        num_executors: int = 4,
        clock: Optional[SimClock] = None,
        event_log_enabled: bool = True,
    ) -> None:
        if num_executors <= 0:
            raise ReproError(f"need at least one executor, got {num_executors}")
        self.clock = clock or SimClock()
        self.event_log = EventLog(enabled=event_log_enabled)
        self.executors = [_Executor(i) for i in range(num_executors)]
        self._tables: Dict[str, List[List[Row]]] = {}
        self._next_job_id = 0

    # -- data ------------------------------------------------------------------

    def create_table(self, name: str, rows: Sequence[Row]) -> None:
        """Load a table, hash-partitioned across executors."""
        if name in self._tables:
            raise ReproError(f"table {name!r} already exists")
        partitions: List[List[Row]] = [[] for _ in self.executors]
        for index, row in enumerate(rows):
            partitions[index % len(self.executors)].append(dict(row))
        self._tables[name] = partitions

    def _partitions(self, name: str) -> List[List[Row]]:
        try:
            return self._tables[name]
        except KeyError:
            raise ReproError(f"unknown table {name!r}") from None

    # -- jobs ----------------------------------------------------------------------

    def run_aggregation(
        self,
        table: str,
        agg: str,
        column: Optional[str] = None,
        filter_col: Optional[str] = None,
        filter_value: Any = None,
        description: Optional[str] = None,
    ) -> SparkJobResult:
        """Run ``agg`` (count | sum) over ``table`` with an optional filter."""
        if agg not in ("count", "sum"):
            raise ReproError(f"unsupported aggregation {agg!r}")
        if agg == "sum" and column is None:
            raise ReproError("sum needs a column")
        partitions = self._partitions(table)
        job_id = self._next_job_id
        self._next_job_id += 1
        if description is None:
            where = (
                f" WHERE {filter_col} = {filter_value!r}"
                if filter_col is not None
                else ""
            )
            target = "*" if agg == "count" else column
            description = f"SELECT {agg}({target}) FROM {table}{where}"

        self.event_log.append(
            SparkEvent(
                event_type="SparkListenerJobStart",
                timestamp=self.clock.timestamp(),
                job_id=job_id,
                payload={"Job Description": description, "Table": table},
            )
        )
        total = 0
        scanned = 0
        for index, partition in enumerate(partitions):
            executor = self.executors[index % len(self.executors)]
            expression = f"job {job_id} stage 0 task {index}: {description}"
            part_total, part_scanned = executor.run_task(
                expression, partition, agg, column, filter_col, filter_value
            )
            total += part_total
            scanned += part_scanned
            self.event_log.append(
                SparkEvent(
                    event_type="SparkListenerStageCompleted",
                    timestamp=self.clock.timestamp(),
                    job_id=job_id,
                    payload={"Stage ID": index, "Records Read": part_scanned},
                )
            )
        self.clock.advance(0.01 + scanned * 1e-6)
        self.event_log.append(
            SparkEvent(
                event_type="SparkListenerJobEnd",
                timestamp=self.clock.timestamp(),
                job_id=job_id,
                payload={"Job Result": "JobSucceeded"},
            )
        )
        return SparkJobResult(
            job_id=job_id,
            description=description,
            value=total,
            rows_scanned=scanned,
            partitions=len(partitions),
        )
