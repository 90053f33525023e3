"""Seabed on a commodity DBMS: DET joins, ASHE aggregates, SPLASHE filters.

The table layout mirrors Seabed's (paper §6 / OSDI 2016):

* a **DET** column for values that must support joins — leaks the histogram
  directly to any snapshot of the table;
* an **ASHE** column for additive aggregation — semantically secure;
* **SPLASHE** indicator columns for categorical filters — semantically
  secure *on disk*, but every rewritten count query names its per-plaintext
  indicator column, so ``events_statements_summary_by_digest`` accumulates
  the exact per-plaintext query histogram the paper's attack reads.

``ENHANCED`` mode adds the padded DET column for infrequent values.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..crypto.ashe import AsheCipher
from ..crypto.primitives import derive_key
from ..crypto.splashe import EnhancedSplasheEncoder, SplasheEncoder
from ..crypto.symmetric import DetCipher
from ..errors import EDBError
from ..server import MySQLServer, Session

#: ASHE modulus chosen to keep ciphertext values inside a signed 64-bit INT
#: column (the engine's integer storage format).
ASHE_MODULUS = 1 << 62


class SeabedEdb:
    """Client + schema of the Seabed-style analytics store."""

    def __init__(
        self,
        server: MySQLServer,
        session: Session,
        key: bytes,
        category_domain: Sequence[int],
        table: str = "seabed_data",
        enhanced: bool = False,
        frequent_values: Optional[Sequence[int]] = None,
        pad_to: int = 0,
    ) -> None:
        if len(key) < 16:
            raise EDBError("Seabed key must be at least 16 bytes")
        self._server = server
        self._session = session
        self._table = table
        self._det = DetCipher(derive_key(key, "seabed-det"))
        self._ashe = AsheCipher(derive_key(key, "seabed-ashe"), modulus=ASHE_MODULUS)
        self._column_key_root = derive_key(key, "seabed-splashe-columns")
        self.enhanced = enhanced
        if enhanced:
            if frequent_values is None:
                raise EDBError("enhanced SPLASHE needs frequent_values")
            self._splashe: object = EnhancedSplasheEncoder(
                derive_key(key, "seabed-splashe"),
                frequent_values=frequent_values,
                pad_to=pad_to,
            )
            self._category_columns = [
                self._splashe.column_for(v) for v in frequent_values
            ]
        else:
            self._splashe = SplasheEncoder(
                derive_key(key, "seabed-splashe"), domain=category_domain
            )
            self._category_columns = [
                self._splashe.column_for(v) for v in category_domain
            ]
        self.category_domain = list(category_domain)
        self._next_row_id = 1

        columns = ["id INT PRIMARY KEY", "join_det BLOB", "metric_ashe INT"]
        columns.extend(f"{name} INT" for name in self._category_columns)
        if enhanced:
            columns.append("det_col BLOB")
        self._server.execute(
            session, f"CREATE TABLE {table} ({', '.join(columns)})"
        )

    # -- data path ------------------------------------------------------------

    def insert(self, join_key: int, metric: int, category: int) -> int:
        """Encrypt and store one row; returns its row id."""
        row_id = self._next_row_id
        self._next_row_id += 1

        det_hex = self._det.encrypt(join_key.to_bytes(8, "little", signed=True)).hex()
        ashe_value = self._ashe.encrypt(metric, row_id).value

        names = ["id", "join_det", "metric_ashe"]
        values = [str(row_id), f"x'{det_hex}'", str(ashe_value)]
        # Basic SPLASHE raises on out-of-domain categories; enhanced returns
        # None and routes the value to the padded DET column.
        target = self._splashe.column_for(category)
        for name in self._category_columns:
            indicator = 1 if name == target else 0
            # Indicator values are themselves ASHE-encrypted per column.
            names.append(name)
            values.append(
                str(self._column_cipher(name).encrypt(indicator, row_id).value)
            )
        if self.enhanced:
            names.append("det_col")
            if target is None:
                det_cat = self._splashe.det_encrypt(category).hex()
                values.append(f"x'{det_cat}'")
            else:
                values.append("NULL")
        self._server.execute(
            self._session,
            f"INSERT INTO {self._table} ({', '.join(names)}) "
            f"VALUES ({', '.join(values)})",
        )
        return row_id

    def _column_cipher(self, column_name: str) -> AsheCipher:
        """The per-indicator-column ASHE cipher."""
        return AsheCipher(
            derive_key(self._column_key_root, column_name), modulus=ASHE_MODULUS
        )

    # -- analytics queries (the SPLASHE rewrite) -----------------------------------

    def count_where_category(self, value: int) -> int:
        """``SELECT count(*) WHERE category = value`` after rewriting.

        The rewritten statement names the per-plaintext indicator column —
        the digest-table side channel.
        """
        target = self._splashe.column_for(value)
        if target is None:
            if not self.enhanced:
                raise EDBError(f"category {value} outside SPLASHE domain")
            det_cat = self._splashe.det_encrypt(value).hex()
            statement = (
                f"SELECT count(*) FROM {self._table} WHERE det_col = x'{det_cat}'"
            )
            result = self._server.execute(self._session, statement)
            return int(result.rows[0][0])
        statement = f"SELECT ashe_sum({target}) FROM {self._table}"
        result = self._server.execute(self._session, statement)
        masked_sum = int(result.rows[0][0]) % ASHE_MODULUS
        n = self._next_row_id - 1
        if n == 0:
            return 0
        from ..crypto.ashe import AsheCiphertext

        total = AsheCiphertext(value=masked_sum, first_id=1, last_id=n)
        return self._column_cipher(target).decrypt(total)

    def sum_metric(self) -> int:
        """Decrypted ``SUM(metric)`` over all rows via ASHE aggregation."""
        statement = f"SELECT ashe_sum(metric_ashe) FROM {self._table}"
        result = self._server.execute(self._session, statement)
        n = self._next_row_id - 1
        if n == 0:
            return 0
        from ..crypto.ashe import AsheCiphertext

        total = AsheCiphertext(
            value=int(result.rows[0][0]) % ASHE_MODULUS, first_id=1, last_id=n
        )
        return self._ashe.decrypt(total)

    def join_histogram(self) -> Dict[bytes, int]:
        """The DET join column's ciphertext histogram (snapshot leakage)."""
        result = self._server.execute(
            self._session, f"SELECT join_det FROM {self._table}"
        )
        hist: Dict[bytes, int] = {}
        for (ct,) in result.rows:
            hist[ct] = hist.get(ct, 0) + 1
        return hist

    @property
    def table(self) -> str:
        return self._table

    def splashe_column_for(self, value: int):
        """The indicator column assigned to ``value`` (client secret).

        Experiments use this as ground truth when scoring attacks; a real
        attacker never sees this mapping — recovering it IS the attack.
        """
        return self._splashe.column_for(value)
