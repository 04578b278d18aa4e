"""Graph substrate: CSR storage, builders, I/O, generators, properties."""

from repro.graph.builder import GraphBuilder
from repro.graph.checked import validate_csr
from repro.graph.graph import Graph
from repro.graph.io import (
    load_npz,
    read_edge_list,
    read_metis,
    save_npz,
    write_edge_list,
    write_metis,
)

__all__ = [
    "Graph",
    "validate_csr",
    "GraphBuilder",
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "write_metis",
    "load_npz",
    "save_npz",
]
