"""Core decomposition and HCD construction algorithms."""

from repro.core.approx import approx_core_decomposition
from repro.core.decomposition import core_decomposition, k_core_members, shell_sizes
from repro.core.distributed import mpm_core_decomposition
from repro.core.divide_conquer import DncResult, dnc_build_hcd
from repro.core.hcd import HCD, HCDBuilder, HCDStats
from repro.core.lcps import lcps_build_hcd
from repro.core.local_search import local_core_search, rc_build_hcd
from repro.core.lower_bound import lower_bound_cost
from repro.core.partition import label_propagation_partition
from repro.core.phcd import phcd_build_hcd
from repro.core.pkc import (
    julienne_core_decomposition,
    park_core_decomposition,
    pkc_core_decomposition,
)
from repro.core.vertex_rank import VertexRankResult, compute_vertex_rank

__all__ = [
    "core_decomposition",
    "k_core_members",
    "shell_sizes",
    "approx_core_decomposition",
    "mpm_core_decomposition",
    "julienne_core_decomposition",
    "pkc_core_decomposition",
    "park_core_decomposition",
    "compute_vertex_rank",
    "VertexRankResult",
    "HCD",
    "HCDBuilder",
    "HCDStats",
    "lcps_build_hcd",
    "phcd_build_hcd",
    "rc_build_hcd",
    "local_core_search",
    "lower_bound_cost",
    "label_propagation_partition",
    "dnc_build_hcd",
    "DncResult",
]
