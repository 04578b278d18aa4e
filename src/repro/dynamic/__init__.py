"""Dynamic-graph extension: incremental coreness maintenance.

Level-grouped parallel traversal maintenance
(:mod:`repro.dynamic.batch`) behind :class:`DynamicGraph`'s per-edge
and batch updates, on a slack-capacity dynamic CSR
(:mod:`repro.dynamic.dyncsr`).
"""

from repro.dynamic.batch import BatchUpdateReport, batch_repair, normalize_batch
from repro.dynamic.dyncsr import DynamicCSR
from repro.dynamic.maintenance import DynamicGraph

__all__ = [
    "BatchUpdateReport",
    "DynamicCSR",
    "DynamicGraph",
    "batch_repair",
    "normalize_batch",
]
