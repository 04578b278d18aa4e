"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import copy
import functools
import hashlib
import inspect
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.core.decomposition import core_decomposition
from repro.graph.generators import (
    complete_graph,
    core_chain,
    cycle_graph,
    erdos_renyi,
    powerlaw_cluster,
    star_graph,
)
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool


@pytest.fixture
def triangle():
    """K3 — the smallest 2-core."""
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def paper_like_graph():
    """A graph shaped like the paper's Figure 1.

    One 4-core (K5), two 3-cores hanging inside the same 2-core, and a
    2-shell ring stitching them together.
    """
    edges = []
    # 4-core: K5 on 0-4
    for i in range(5):
        for j in range(i + 1, 5):
            edges.append((i, j))
    # 3-core #1: K4 on 5-8, attached to the K5 through a 1-bridge edge
    for i in range(5, 9):
        for j in range(i + 1, 9):
            edges.append((i, j))
    edges.append((5, 0))
    # 3-core #2: K4 on 9-12
    for i in range(9, 13):
        for j in range(i + 1, 13):
            edges.append((i, j))
    # 2-shell: a ring 13-17 touching both 3-cores
    ring = [13, 14, 15, 16, 17]
    for a, b in zip(ring, ring[1:] + ring[:1]):
        edges.append((a, b))
    edges.append((13, 5))
    edges.append((15, 9))
    return Graph.from_edges(edges)


@pytest.fixture
def chain_result():
    """A core-chain graph with known ground-truth HCD."""
    return core_chain([[5, 3, 2], [4, 2], [3, 2]])


@pytest.fixture(params=[0, 1, 2, 3])
def random_graph(request):
    """A family of small random graphs across generator types."""
    seed = request.param
    if seed % 2 == 0:
        return erdos_renyi(90, 0.06, seed=seed)
    return powerlaw_cluster(90, 3, 0.3, seed=seed)


@pytest.fixture(params=[1, 2, 4, 7])
def pool(request):
    """Pools at several thread counts."""
    return SimulatedPool(threads=request.param)


@pytest.fixture
def serial_pool():
    return SimulatedPool(threads=1)


def nx_coreness(graph: Graph) -> np.ndarray:
    """Reference coreness via networkx."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(graph.edges())
    core = nx.core_number(g)
    return np.asarray([core[v] for v in range(graph.num_vertices)])


@pytest.fixture
def coreness_oracle():
    """Callable computing reference coreness with networkx."""
    return nx_coreness


# ----------------------------------------------------------------------
# whole-tree static analyses, run once per session
# ----------------------------------------------------------------------

def _memoize_analyses() -> None:
    """Memoize SimFlow path analysis and effect inference, SimProve and
    SimDist for the session: many tests analyze the same unchanged
    tree.  The key is the call's arguments plus a digest of every
    analyzed source, so a test that edits a copy re-analyzes; each
    caller gets its own deep copy.  A call with an explicit ``index``
    (an edited tree, or an in-memory table changed by the test) always
    runs the analyzer."""
    from repro.sanitizer import dist, flow, prove
    from repro.sanitizer.lint import source_files

    tree = Path(flow.__file__).resolve().parents[1]
    memo: dict = {}

    def digest(paths: list) -> str:
        sha = hashlib.sha256()
        for f in source_files([tree, *paths]):
            sha.update(f"{f.resolve()}\0".encode() + f.read_bytes())
        return sha.hexdigest()

    def memoize(module, name: str) -> None:
        analyze = getattr(module, name)
        signature = inspect.signature(analyze)

        @functools.wraps(analyze)
        def memoized(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            if bound.arguments.get("index") is not None:
                return analyze(*args, **kwargs)
            paths = list(bound.arguments.get("paths", ()))
            key = (
                name,
                repr(sorted(bound.arguments.items())),
                tuple(str(Path(p).resolve()) for p in paths),
                digest(paths),
            )
            if key not in memo:
                memo[key] = analyze(*args, **kwargs)
            return copy.deepcopy(memo[key])

        setattr(module, name, memoized)

    memoize(flow, "analyze_paths")
    memoize(flow, "infer_kernel_effects")
    memoize(prove, "prove_kernels")
    memoize(dist, "analyze_dist")


_memoize_analyses()


# ----------------------------------------------------------------------
# `repro sanitize` runs: this checkout once, planted trees per test
# ----------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]


@dataclass
class SanitizeRun:
    """Exit code, stdout and ``--report`` JSON of one ``repro
    sanitize`` run."""

    rc: int
    out: str
    report: dict


def _sanitize(cwd: Path, report: Path, *argv: str) -> SanitizeRun:
    from repro.cli import main as cli_main

    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(stdout):
        mp.chdir(cwd)
        rc = cli_main(["sanitize", *argv, "--report", str(report)])
    return SanitizeRun(rc, stdout.getvalue(), json.loads(report.read_text()))


@pytest.fixture(scope="session")
def sanitize_tree(tmp_path_factory) -> SanitizeRun:
    """``repro sanitize`` over this checkout, run once per session."""
    return _sanitize(REPO, tmp_path_factory.mktemp("sanitize") / "report.json")


@pytest.fixture
def sanitize_planted(tmp_path, monkeypatch):
    """``run(files, *argv)``: ``repro sanitize`` from ``tmp_path``,
    holding an empty ``src/`` plus ``files`` (path relative to
    ``tmp_path`` -> text or bytes).  The static families analyze just
    those files; kernels, manifests and selftests are the package's,
    and kernel runs are memoized for the session."""
    import repro.sanitizer

    monkeypatch.setattr(repro.sanitizer, "run_kernel", _run_kernel_once)

    def run(files: dict, *argv: str) -> SanitizeRun:
        (tmp_path / "src").mkdir()
        for name, content in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
        return _sanitize(tmp_path, tmp_path / "report.json", *argv)

    return run


@functools.cache
def _run_kernel_once(name: str, threads: int, memcheck: bool):
    from repro.sanitizer.kernels import run_kernel

    return run_kernel(name, threads=threads, memcheck=memcheck)


# ----------------------------------------------------------------------
# pytest --sanitize / --memcheck: run the suite under the sanitizers
# ----------------------------------------------------------------------

def pytest_addoption(parser):
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help=(
            "attach the SimTSan race detector to every SimulatedPool "
            "and fail any test whose parallel regions contain "
            "unsynchronized conflicting accesses"
        ),
    )
    parser.addoption(
        "--memcheck",
        action="store_true",
        default=False,
        help=(
            "attach the SimCheck memory sanitizer to every "
            "SimulatedPool and fail any test whose recorded accesses "
            "hit poisoned (uninitialized) slots, go out of bounds, or "
            "overflow a checked cast; composes with --sanitize"
        ),
    )


def pytest_configure(config):
    sanitize = config.getoption("--sanitize")
    memcheck = config.getoption("--memcheck")
    if not (sanitize or memcheck):
        return
    observers = []
    if sanitize:
        from repro.sanitizer.detector import RaceDetector

        detector = RaceDetector()
        config._sanitize_detector = detector
        observers.append(detector)
    if memcheck:
        from repro.sanitizer.memcheck import MemChecker

        checker = MemChecker()
        checker.activate()  # san_empty registers suite allocations here
        config._memcheck_checker = checker
        observers.append(checker)
    if len(observers) == 1:
        observer = observers[0]
    else:
        from repro.parallel.observers import ObserverFanout

        observer = ObserverFanout(observers)
    original_init = SimulatedPool.__init__

    def instrumented_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.set_observer(observer)

    config._sanitize_original_init = original_init
    SimulatedPool.__init__ = instrumented_init


def pytest_unconfigure(config):
    original = getattr(config, "_sanitize_original_init", None)
    if original is not None:
        SimulatedPool.__init__ = original
    checker = getattr(config, "_memcheck_checker", None)
    if checker is not None:
        checker.deactivate()


@pytest.fixture(autouse=True)
def _sanitize_guard(request):
    """Fail any test that produced a new race or memcheck finding.

    Races/findings in regions labelled ``selftest:*`` are intentional
    (seeded sanitizer fixtures) and ignored.  NaN origins are tracking
    records, not failures.
    """
    detector = getattr(request.config, "_sanitize_detector", None)
    checker = getattr(request.config, "_memcheck_checker", None)
    if detector is None and checker is None:
        yield
        return
    from repro.sanitizer.selftest import SELFTEST_PREFIX

    races_before = len(detector.races) if detector else 0
    findings_before = len(checker.findings) if checker else 0
    yield
    problems: list[str] = []
    if detector is not None:
        problems += [
            f"  {race}"
            for race in detector.races[races_before:]
            if not race.region.startswith(SELFTEST_PREFIX)
        ]
    if checker is not None:
        problems += [
            f"  {finding}"
            for finding in checker.findings[findings_before:]
            if not finding.region.startswith(SELFTEST_PREFIX)
            and not finding.name.startswith("selftest")
        ]
    if problems:
        lines = "\n".join(problems)
        pytest.fail(
            f"sanitizer: {len(problems)} finding(s) in this test:\n{lines}",
            pytrace=False,
        )


__all__ = [
    "nx_coreness",
    "complete_graph",
    "cycle_graph",
    "star_graph",
    "core_decomposition",
]
