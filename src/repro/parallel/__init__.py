"""Simulated-multicore substrate: scheduler, cost model, atomics."""

from repro.parallel.accumulate import (
    tree_accumulate,
    tree_accumulate_euler,
    tree_depths,
)
from repro.parallel.atomics import AtomicArray, AtomicCounter, AtomicList, AtomicSet
from repro.parallel.context import ThreadContext
from repro.parallel.scheduler import RegionStats, SimulatedPool

__all__ = [
    "SimulatedPool",
    "RegionStats",
    "ThreadContext",
    "AtomicCounter",
    "AtomicArray",
    "AtomicSet",
    "AtomicList",
    "tree_accumulate",
    "tree_accumulate_euler",
    "tree_depths",
]
