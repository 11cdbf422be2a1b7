"""The paper's approximate cost model (Section 7.1).

* ``cost(q_i) = b × Σ blocks(R_ij)`` — I/O-only, full scans, no indexes;
* ``cost(UNION ALL q_i) = Σ cost(q_i)`` — Formula (6);
* the GROUP BY / HAVING wrapper is free — assumption (a).

The model intentionally trades accuracy for speed: CQP evaluates the
cost of exponentially many candidate queries, so invoking a real
optimizer per candidate is off the table. Figure 15 validates the model
against measured execution.
"""

from __future__ import annotations

from repro.errors import SQLError
from repro.sql.ast_nodes import (
    GroupByHavingCount,
    QueryNode,
    SelectQuery,
    UnionAllQuery,
)
from repro.storage.database import Database


class CostModel:
    """Estimates execution cost in milliseconds."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.ms_per_block = database.device.ms_per_block

    def _relation_blocks(self, query: SelectQuery, table) -> int:
        return self.database.blocks(table.relation)

    def blocks(self, query: QueryNode) -> int:
        """Estimated block reads for ``query``."""
        if isinstance(query, SelectQuery):
            return sum(self._relation_blocks(query, table) for table in query.from_tables)
        if isinstance(query, UnionAllQuery):
            return sum(self.blocks(sub) for sub in query.subqueries)
        if isinstance(query, GroupByHavingCount):
            return self.blocks(query.source)
        raise SQLError("cannot cost %r" % (query,))

    def cost_ms(self, query: QueryNode) -> float:
        """Estimated execution time: ``b × blocks``."""
        return self.blocks(query) * self.ms_per_block


class IndexAwareCostModel(CostModel):
    """The index ablation's estimator.

    Drops Section 7.1's assumption (c): a relation accessed through an
    equality selection on an indexed attribute is priced at the hash
    probe (bucket block + estimated matching data blocks) instead of a
    full scan — mirroring the executor's ``use_indexes`` access path.
    """

    def _relation_blocks(self, query: SelectQuery, table) -> int:
        import math

        from repro.sql.ast_nodes import Literal as _Literal
        from repro.sql.ast_nodes import Operator as _Operator

        relation = table.relation
        storage = self.database.table(relation)
        for condition in query.where:
            if (
                condition.op is _Operator.EQ
                and isinstance(condition.right, _Literal)
                and condition.left.qualifier in (table.binding_name, None)
            ):
                index = self.database.index_on(relation, condition.left.name)
                if index is None:
                    continue
                stats = self.database.statistics(relation).attribute(condition.left.name)
                matches = stats.equality_selectivity(condition.right.value) * len(storage)
                return 1 + math.ceil(matches / storage.rows_per_block)
        return self.database.blocks(relation)
