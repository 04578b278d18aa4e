"""Tests for the HCDServe serving layer (snapshot store -> service loop)."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterService, ClusterServiceConfig
from repro.core.decomposition import core_decomposition
from repro.core.hcd import HCD
from repro.dynamic import DynamicGraph
from repro.errors import HierarchyError, SnapshotError, WorkloadError
from repro.graph.generators import powerlaw_cluster
from repro.parallel.scheduler import SimulatedPool
from repro.search.best_k import find_best_k
from repro.search.influential import InfluentialCommunityIndex
from repro.search.pbks import pbks_search
from repro.serve import (
    DynamicServingFeed,
    HCDService,
    ResultCache,
    ServiceConfig,
    Snapshot,
    SnapshotCatalog,
    SnapshotExecutor,
    build_snapshot,
    load_trace,
    normalize_request,
    plan_batch,
    save_trace,
    synthetic_trace,
)
from repro.serve.catalog import KEEP_VERSIONS
from repro.serve.planner import Query
from repro.serve.snapshot import ARRAY_KEYS, ARRAYS_FILE, MANIFEST_FILE


def _graph():
    return powerlaw_cluster(90, 3, 0.35, seed=13)


@pytest.fixture(scope="module")
def snapshot():
    return build_snapshot(_graph(), threads=4, name="base")


@pytest.fixture
def catalog(tmp_path, snapshot):
    cat = SnapshotCatalog(tmp_path / "catalog")
    cat.publish(snapshot, name="base")
    return cat


# ----------------------------------------------------------------------
# snapshot round-trip and corruption (satellite: typed SnapshotError)
# ----------------------------------------------------------------------


class TestSnapshotRoundTrip:
    def test_save_load_identical(self, tmp_path, snapshot):
        snapshot.save(tmp_path / "bundle")
        loaded = Snapshot.load(tmp_path / "bundle")
        for key, arr in snapshot.arrays().items():
            assert np.array_equal(arr, loaded.arrays()[key]), key
        assert loaded.name == snapshot.name
        assert loaded.build_info == snapshot.build_info
        # derived shells round-trip through coreness
        for ours, theirs in zip(
            snapshot.rank_result.shells, loaded.rank_result.shells
        ):
            assert np.array_equal(np.sort(ours), np.sort(theirs))

    def test_loaded_snapshot_serves_same_answers(self, tmp_path, snapshot):
        snapshot.save(tmp_path / "bundle")
        loaded = Snapshot.load(tmp_path / "bundle")
        a = SnapshotExecutor(snapshot, SimulatedPool(threads=2))
        b = SnapshotExecutor(loaded, SimulatedPool(threads=2))
        query = normalize_request({"kind": "pbks", "metric": "average_degree"})
        ra, rb = a.run_query(query), b.run_query(query)
        assert (ra.best_k, ra.best_score, ra.size) == (
            rb.best_k,
            rb.best_score,
            rb.size,
        )


#: one corruption per structural check of ``HCD.from_arrays``
HCD_CORRUPTIONS = (
    "tid_negative",
    "parent_below_root",
    "member_out_of_range",
    "vertex_listed_twice",
    "member_in_other_node",
)


def _corrupted_hcd_array(hcd, case):
    """``(key, array)``: one of ``hcd``'s flat arrays with ``case`` applied."""
    arrays = {key: arr.copy() for key, arr in hcd.to_arrays().items()}
    tid, members = arrays["tid"], arrays["members"]
    if case == "tid_negative":
        tid[0] = -1  # would wrap to the last node
        return "tid", tid
    if case == "parent_below_root":
        arrays["parent"][0] = -2
        return "parent", arrays["parent"]
    if case == "member_out_of_range":
        members[0] = 10**6
        return "members", members
    if case == "vertex_listed_twice":
        members[1] = members[0]  # and members[1]'s vertex nowhere
        return "members", members
    assert case == "member_in_other_node"
    v = int(members[0])
    tid[v] = (tid[v] + 1) % hcd.num_nodes
    return "tid", tid


@pytest.mark.parametrize(
    "key,convert,message",
    [
        # the fraction would be cut off by an int64 cast
        ("node_coreness", lambda a: a + 0.9, "integer"),
        ("members", lambda a: a.astype(np.float64), "integer"),
        # a root's -1 as uint64 would wrap back to -1 in the cast
        ("parent", lambda a: a.astype(np.uint64), "overflow"),
    ],
    ids=["fractional_levels", "float_members", "uint64_parent"],
)
def test_hcd_load_rejects_non_int64_arrays(
    tmp_path, snapshot, key, convert, message
):
    arrays = snapshot.hcd.to_arrays()
    path = tmp_path / "hcd.npz"
    np.savez(path, **{**arrays, key: convert(arrays[key])})
    with pytest.raises(HierarchyError, match=f"{key}.*{message}"):
        HCD.load(path)


@pytest.mark.parametrize("case", HCD_CORRUPTIONS)
def test_hcd_load_rejects_corrupt_arrays(tmp_path, snapshot, case):
    key, bad = _corrupted_hcd_array(snapshot.hcd, case)
    path = tmp_path / "hcd.npz"
    np.savez(path, **{**snapshot.hcd.to_arrays(), key: bad})
    with pytest.raises(HierarchyError):
        HCD.load(path)


class TestSnapshotCorruption:
    @pytest.fixture
    def bundle(self, tmp_path, snapshot):
        path = tmp_path / "bundle"
        snapshot.save(path)
        return path

    def _edit_manifest(self, bundle, fn):
        manifest = json.loads((bundle / MANIFEST_FILE).read_text())
        fn(manifest)
        (bundle / MANIFEST_FILE).write_text(json.dumps(manifest))

    def _tamper_array(self, bundle, key, new_arr):
        """Replace one array and refresh its manifest entry (checksum
        passes; the structural validator must catch it)."""
        from repro.serve.snapshot import _sha256

        with np.load(bundle / ARRAYS_FILE) as data:
            raw = {k: data[k] for k in data.files}
        raw[key] = new_arr
        np.savez_compressed(bundle / ARRAYS_FILE, **raw)
        self._edit_manifest(
            bundle,
            lambda m: m["arrays"].__setitem__(
                key,
                {
                    "sha256": _sha256(new_arr),
                    "dtype": str(new_arr.dtype),
                    "shape": list(new_arr.shape),
                },
            ),
        )

    def test_missing_manifest(self, bundle):
        (bundle / MANIFEST_FILE).unlink()
        with pytest.raises(SnapshotError, match="manifest.json"):
            Snapshot.load(bundle)

    def test_manifest_not_json(self, bundle):
        (bundle / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(SnapshotError, match="manifest.json"):
            Snapshot.load(bundle)

    def test_format_version_skew(self, bundle):
        self._edit_manifest(
            bundle, lambda m: m.__setitem__("format", "hcdserve/v0")
        )
        with pytest.raises(SnapshotError, match="'format'"):
            Snapshot.load(bundle)

    def test_missing_manifest_field(self, bundle):
        self._edit_manifest(bundle, lambda m: m.pop("version"))
        with pytest.raises(SnapshotError, match="'version'"):
            Snapshot.load(bundle)

    def test_truncated_npz(self, bundle):
        blob = (bundle / ARRAYS_FILE).read_bytes()
        (bundle / ARRAYS_FILE).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError, match="truncated or unreadable"):
            Snapshot.load(bundle)

    def test_missing_npz(self, bundle):
        (bundle / ARRAYS_FILE).unlink()
        with pytest.raises(SnapshotError, match="arrays.npz"):
            Snapshot.load(bundle)

    def test_checksum_mismatch_names_array(self, bundle):
        self._edit_manifest(
            bundle,
            lambda m: m["arrays"]["coreness"].__setitem__("sha256", "0" * 64),
        )
        with pytest.raises(SnapshotError, match="'coreness'.*checksum"):
            Snapshot.load(bundle)

    def test_dtype_mismatch_names_array(self, bundle):
        self._edit_manifest(
            bundle,
            lambda m: m["arrays"]["rank"].__setitem__("dtype", "float32"),
        )
        with pytest.raises(SnapshotError, match="'rank'.*dtype"):
            Snapshot.load(bundle)

    def test_shape_mismatch_names_array(self, bundle):
        self._edit_manifest(
            bundle,
            lambda m: m["arrays"]["indices"].__setitem__("shape", [1]),
        )
        with pytest.raises(SnapshotError, match="'indices'.*shape"):
            Snapshot.load(bundle)

    def test_missing_array_entry(self, bundle):
        with np.load(bundle / ARRAYS_FILE) as data:
            raw = {k: data[k] for k in data.files}
        raw.pop("vsort")
        np.savez_compressed(bundle / ARRAYS_FILE, **raw)
        with pytest.raises(SnapshotError, match="'vsort'"):
            Snapshot.load(bundle)

    def test_invalid_csr_is_snapshot_error(self, bundle, snapshot):
        bad = snapshot.graph.indices.copy()
        if bad.size:
            bad[0] = 10**6  # out-of-range neighbor
        self._tamper_array(bundle, "indices", bad)
        with pytest.raises(SnapshotError, match="CSR"):
            Snapshot.load(bundle)

    def test_negative_coreness(self, bundle, snapshot):
        bad = snapshot.coreness.copy()
        bad[0] = -3
        self._tamper_array(bundle, "coreness", bad)
        with pytest.raises(SnapshotError, match="'coreness'"):
            Snapshot.load(bundle)

    def test_invalid_hcd_parent(self, bundle, snapshot):
        bad = snapshot.hcd.parent.copy()
        bad[0] = 10**6
        self._tamper_array(bundle, "parent", bad)
        with pytest.raises(SnapshotError, match="HCD"):
            Snapshot.load(bundle)

    @pytest.mark.parametrize("case", HCD_CORRUPTIONS)
    def test_invalid_hcd_partition(self, bundle, snapshot, case):
        key, bad = _corrupted_hcd_array(snapshot.hcd, case)
        self._tamper_array(bundle, key, bad)
        with pytest.raises(SnapshotError, match="HCD"):
            Snapshot.load(bundle)

    def test_root_level_above_its_coreness(self, bundle, snapshot):
        # a k-core query walks node levels: a root raised by 10 would
        # answer k beyond kmax with its whole component
        hcd = snapshot.hcd
        root = hcd.roots()[0]
        level = int(hcd.node_coreness[root])
        bad = hcd.node_coreness.copy()
        bad[root] = level + 10
        self._tamper_array(bundle, "node_coreness", bad)
        with pytest.raises(
            SnapshotError, match=f"HCD.*level {level} in a {level + 10}-node"
        ):
            Snapshot.load(bundle)

    def test_parent_level_not_below_child(self, bundle, snapshot):
        # coreness and node levels agree, but a child sits at its
        # parent's level
        hcd = snapshot.hcd
        child = int(np.flatnonzero(hcd.parent >= 0)[0])
        level = int(hcd.node_coreness[hcd.parent[child]])
        node_coreness = hcd.node_coreness.copy()
        node_coreness[child] = level
        coreness = snapshot.coreness.copy()
        coreness[hcd.vertices_of(child)] = level
        self._tamper_array(bundle, "node_coreness", node_coreness)
        self._tamper_array(bundle, "coreness", coreness)
        with pytest.raises(SnapshotError, match="HCD.*parent level"):
            Snapshot.load(bundle)

    def test_empty_tree_node(self, bundle, snapshot):
        # one more root with no members: the partition still holds
        arrays = snapshot.hcd.to_arrays()
        offsets = arrays["member_offsets"]
        self._tamper_array(
            bundle, "node_coreness", np.append(arrays["node_coreness"], 1)
        )
        self._tamper_array(bundle, "parent", np.append(arrays["parent"], -1))
        self._tamper_array(
            bundle, "member_offsets", np.append(offsets, offsets[-1])
        )
        with pytest.raises(SnapshotError, match="HCD.*empty"):
            Snapshot.load(bundle)

    def test_fractional_node_levels(self, bundle, snapshot):
        bad = snapshot.hcd.node_coreness + 0.9
        self._tamper_array(bundle, "node_coreness", bad)
        with pytest.raises(SnapshotError, match="HCD.*integer"):
            Snapshot.load(bundle)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_loaded_arrays_are_read_only(self, bundle, snapshot, dtype):
        # an int32 bundle is converted on load: the copies are frozen too
        for key, arr in snapshot.arrays().items():
            if arr.dtype != dtype:
                self._tamper_array(bundle, key, arr.astype(dtype))
        loaded = Snapshot.load(bundle)
        hcd, counts, ranks = loaded.hcd, loaded.counts, loaded.rank_result
        held = [
            loaded.graph.indptr,
            loaded.graph.indices,
            loaded.coreness,
            hcd.node_coreness,
            hcd.parent,
            hcd.tid,
            *(hcd.vertices_of(node) for node in range(hcd.num_nodes)),
            counts.gt,
            counts.eq,
            counts.lt,
            ranks.rank,
            ranks.vsort,
            *ranks.shells,
        ]
        for arr in held:
            with pytest.raises(ValueError, match="read-only"):
                arr.fill(0)

    def test_counts_exceeding_degree(self, bundle, snapshot):
        bad = np.asarray(snapshot.counts.gt, dtype=np.int64).copy()
        bad[0] = 10**6
        self._tamper_array(bundle, "counts_gt", bad)
        with pytest.raises(SnapshotError, match="degree"):
            Snapshot.load(bundle)


class TestSnapshotFormat:
    """``arrays.npz`` members are stored, not deflated; bundles written
    deflated still open, and corruption of stored data stays typed."""

    @pytest.fixture
    def bundle(self, tmp_path, snapshot):
        path = tmp_path / "bundle"
        snapshot.save(path)
        return path

    def test_members_are_stored(self, bundle):
        with zipfile.ZipFile(bundle / ARRAYS_FILE) as archive:
            infos = archive.infolist()
        assert {info.filename for info in infos} == {
            f"{key}.npy" for key in ARRAY_KEYS
        }
        assert all(info.compress_type == zipfile.ZIP_STORED for info in infos)

    def test_deflated_bundle_still_opens(self, bundle, snapshot):
        with np.load(bundle / ARRAYS_FILE) as data:
            raw = {key: data[key] for key in data.files}
        np.savez_compressed(bundle / ARRAYS_FILE, **raw)
        with zipfile.ZipFile(bundle / ARRAYS_FILE) as archive:
            assert all(
                info.compress_type == zipfile.ZIP_DEFLATED
                for info in archive.infolist()
            )
        loaded = Snapshot.load(bundle)
        for key, arr in snapshot.arrays().items():
            got = loaded.arrays()[key]
            assert type(got) is np.ndarray, key
            assert np.array_equal(arr, got), key

    def test_flipped_byte_in_stored_data_is_snapshot_error(self, bundle):
        path = bundle / ARRAYS_FILE
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("indices.npy")
        blob = bytearray(path.read_bytes())
        # local file header: 30 fixed bytes ending in the name and
        # extra-field lengths, then the name, the extra field, the data
        at = info.header_offset
        name_len = int.from_bytes(blob[at + 26 : at + 28], "little")
        extra_len = int.from_bytes(blob[at + 28 : at + 30], "little")
        data_end = at + 30 + name_len + extra_len + info.file_size
        blob[data_end - 1] ^= 0x01  # last byte of the array payload
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="arrays.npz|'indices'"):
            Snapshot.load(bundle)


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------


class TestCatalog:
    def test_publish_assigns_increasing_versions(self, tmp_path, snapshot):
        cat = SnapshotCatalog(tmp_path)
        assert cat.publish(snapshot, name="s") == 1
        assert cat.publish(snapshot, name="s") == 2
        assert cat.versions("s") == [1, 2]
        assert cat.latest_version("s") == 2

    def test_open_latest_and_specific(self, catalog):
        latest = catalog.open("base")
        assert latest.version == 1
        assert catalog.open("base", version=1).version == 1

    def test_open_unknown_name_lists_known(self, catalog):
        with pytest.raises(SnapshotError, match="base"):
            catalog.open("nope")

    def test_open_unknown_version(self, catalog):
        with pytest.raises(SnapshotError, match="no version"):
            catalog.open("base", version=99)

    def test_staleness(self, catalog, snapshot):
        assert not catalog.is_stale("base", 1)
        catalog.publish(snapshot, name="base")
        assert catalog.is_stale("base", 1)
        assert not catalog.is_stale("base", 2)

    @staticmethod
    def _probes_of_is_stale(monkeypatch, cat, version, calls=None):
        """Filesystem calls one ``is_stale`` makes: stats and listings
        (their names are appended to ``calls`` when it is given)."""
        import os

        calls = [] if calls is None else calls
        for fn in ("stat", "lstat", "scandir", "listdir"):
            real = getattr(os, fn)

            def probe(*args, _real=real, _fn=fn, **kwargs):
                calls.append(_fn)
                return _real(*args, **kwargs)

            monkeypatch.setattr(os, fn, probe)
        try:
            stale = cat.is_stale("s", version)
        finally:
            monkeypatch.undo()
        return stale, len(calls)

    def test_staleness_probes_do_not_grow_with_versions(
        self, tmp_path, monkeypatch, snapshot
    ):
        cat = SnapshotCatalog(tmp_path)
        cat.publish(snapshot, name="s")
        bundle = cat.path("s", 1)
        for version in range(2, 41):
            # a complete bundle is a v%08d directory holding a manifest
            cat.path("s", version).mkdir()
            (cat.path("s", version) / MANIFEST_FILE).write_bytes(
                (bundle / MANIFEST_FILE).read_bytes()
            )
        assert cat.latest_version("s") == 40
        assert cat.is_stale("s", 39) and not cat.is_stale("s", 40)
        stale, probes = self._probes_of_is_stale(monkeypatch, cat, 1)
        assert stale
        assert probes <= 3, probes
        # the same count as with two versions: independent of history
        small = SnapshotCatalog(tmp_path / "small")
        small.publish(snapshot, name="s")
        small.publish(snapshot, name="s")
        assert self._probes_of_is_stale(monkeypatch, small, 1) == (True, probes)

    def test_not_stale_probe_makes_two_stats_and_no_listing(
        self, tmp_path, monkeypatch, snapshot
    ):
        cat = SnapshotCatalog(tmp_path)
        for _ in range(3):
            cat.publish(snapshot, name="s")
        calls = []
        stale, probes = self._probes_of_is_stale(monkeypatch, cat, 3, calls)
        assert not stale
        assert probes <= 2 and set(calls) <= {"stat", "lstat"}, calls
        # the stale answer costs the same
        calls.clear()
        assert self._probes_of_is_stale(monkeypatch, cat, 2, calls)[0]
        assert len(calls) <= 2 and set(calls) <= {"stat", "lstat"}, calls

    def test_publish_from_another_process_is_seen(self, tmp_path, snapshot):
        import repro

        cat = SnapshotCatalog(tmp_path)
        cat.publish(snapshot, name="s")
        assert not cat.is_stale("s", 1)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        script = (
            "import sys\n"
            "from repro.serve import SnapshotCatalog\n"
            "cat = SnapshotCatalog(sys.argv[1])\n"
            "print(cat.publish(cat.open('s')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["2"]
        # the catalog object made before the publish sees it at once
        assert cat.is_stale("s", 1)
        assert not cat.is_stale("s", 2)

    def test_manifest_less_next_slot_falls_back_to_listing(
        self, tmp_path, monkeypatch, snapshot
    ):
        cat = SnapshotCatalog(tmp_path)
        cat.publish(snapshot, name="s")
        # slot 2 without a manifest (a bundle whose delete failed half
        # way); the next publish takes slot 3
        cat.path("s", 2).mkdir()
        (cat.path("s", 2) / ARRAYS_FILE).write_bytes(b"partial")
        calls = []
        stale, _ = self._probes_of_is_stale(monkeypatch, cat, 1, calls)
        assert not stale and "scandir" in calls
        assert cat.publish(snapshot, name="s") == 3
        calls.clear()
        stale, _ = self._probes_of_is_stale(monkeypatch, cat, 1, calls)
        assert stale and "scandir" in calls
        assert not cat.is_stale("s", 3)

    def test_pruned_reader_version_reads_stale(self, tmp_path, snapshot):
        cat = SnapshotCatalog(tmp_path)
        reader = cat.publish(snapshot, name="s")
        for published in range(KEEP_VERSIONS + 1):
            cat.publish(snapshot, name="s")
            assert cat.is_stale("s", reader), published
        # both the reader's slot and the one after it are gone
        assert not cat.path("s", reader).exists()
        assert not cat.path("s", reader + 1).exists()
        assert cat.is_stale("s", reader)
        latest = cat.latest_version("s")
        assert latest == KEEP_VERSIONS + 2
        assert not cat.is_stale("s", latest)

    def test_stage_directory_does_not_read_stale(self, tmp_path, snapshot):
        cat = SnapshotCatalog(tmp_path)
        cat.publish(snapshot, name="s")
        # a crashed publish of v2 left its stage directory, manifest
        # included, behind
        stage = tmp_path / "s" / ".stage-v00000002"
        stage.mkdir()
        (stage / MANIFEST_FILE).write_bytes(
            (cat.path("s", 1) / MANIFEST_FILE).read_bytes()
        )
        assert not cat.is_stale("s", 1)
        assert cat.latest_version("s") == 1

    def test_crashed_publish_without_manifest_is_skipped(
        self, tmp_path, snapshot
    ):
        cat = SnapshotCatalog(tmp_path)
        cat.publish(snapshot, name="s")
        cat.publish(snapshot, name="s")
        # a newest v-directory with no manifest: a publish that died
        # mid-write, left in place
        cat.path("s", 3).mkdir()
        (cat.path("s", 3) / ARRAYS_FILE).write_bytes(b"partial")
        assert cat.latest_version("s") == 2
        assert cat.versions("s") == [1, 2]
        assert not cat.is_stale("s", 2)
        assert cat.open("s").version == 2

    def test_invalid_name_rejected(self, tmp_path, snapshot):
        cat = SnapshotCatalog(tmp_path)
        with pytest.raises(SnapshotError, match="invalid snapshot name"):
            cat.publish(snapshot, name="../evil")

    def test_stage_dirs_never_visible(self, tmp_path, snapshot):
        cat = SnapshotCatalog(tmp_path)
        cat.publish(snapshot, name="s")
        entries = [p.name for p in (tmp_path / "s").iterdir()]
        assert entries == ["v00000001"]

    def test_identity_mismatch_detected(self, tmp_path, snapshot):
        cat = SnapshotCatalog(tmp_path)
        cat.publish(snapshot, name="s")
        manifest_path = cat.path("s", 1) / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 7
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="identity"):
            cat.open("s")


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------


class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.hits == 3
        assert stats.misses == 1

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.stats().misses == 1

    def test_hit_rate(self):
        cache = ResultCache(capacity=4)
        assert cache.stats().hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.stats().hit_rate == 0.5


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------


class TestPlanner:
    def test_densest_normalizes_to_pbks(self):
        a = normalize_request({"kind": "densest"})
        b = normalize_request({"kind": "pbks", "metric": "average_degree"})
        assert a.fingerprint == b.fingerprint

    @pytest.mark.parametrize(
        "request_, field",
        [
            ({"kind": "nope"}, "kind"),
            ({}, "kind"),
            ({"kind": "pbks", "metric": "nope"}, "metric"),
            ({"kind": "influential", "k": 0}, "'k'"),
            ({"kind": "influential", "r": -1}, "'r'"),
            ({"kind": "influential", "weights": "pagerank"}, "weights"),
            ({"kind": "densest", "metric": "internal_density"}, "metric"),
        ],
    )
    def test_malformed_requests_name_the_field(self, request_, field):
        with pytest.raises(WorkloadError, match=field):
            normalize_request(request_)

    def test_non_mapping_rejected(self):
        with pytest.raises(WorkloadError, match="object"):
            normalize_request("pbks")

    def test_query_identity(self):
        a = Query(kind="influential", k=2, r=3, weights="degree")
        b = Query(kind="influential", k=2, r=3, weights="degree")
        assert a == b and hash(a) == hash(b)
        # hashed and compared on the five request fields, as before
        assert hash(a) == hash(("influential", "", 2, 3, "degree"))
        assert a != Query(kind="influential", k=2, r=4, weights="degree")
        assert repr(a) == (
            "Query(kind='influential', metric='', k=2, r=3, weights='degree')"
        )
        assert a.fingerprint == "influential k=2 r=3 weights=degree"
        moved = dataclasses.replace(a, k=5)
        assert moved.fingerprint == "influential k=5 r=3 weights=degree"
        assert moved == Query(kind="influential", k=5, r=3, weights="degree")
        assert dataclasses.replace(a) == a
        pbks = Query(kind="pbks", metric="average_degree")
        assert pbks.fingerprint == "pbks metric=average_degree"
        assert dataclasses.replace(pbks, kind="best_k").fingerprint == (
            "best_k metric=average_degree"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.fingerprint = "other"
        with pytest.raises(TypeError):
            Query(kind="pbks", fingerprint="pbks metric=x")

    @pytest.mark.parametrize(
        "left, right",
        [
            ({"kind": "densest"}, {"kind": "search"}),
            ({"kind": "bestk"}, {"kind": "best_k", "metric": "average_degree"}),
            (
                {"kind": "influential"},
                {"kind": "influential", "k": 1, "r": 1, "weights": "degree"},
            ),
        ],
    )
    def test_alike_requests_share_a_fingerprint(self, left, right):
        a, b = normalize_request(left), normalize_request(right)
        assert a == b and hash(a) == hash(b)
        assert a.fingerprint == b.fingerprint

    def test_plan_coalesces_identical_queries(self):
        q = normalize_request({"kind": "pbks", "metric": "average_degree"})
        plan = plan_batch([(0, q), (1, q), (2, q)])
        assert plan.distinct == 1
        assert plan.coalesced == 2
        assert plan.requesters[q.fingerprint] == [0, 1, 2]


# ----------------------------------------------------------------------
# executor: batched answers match the direct search engines
# ----------------------------------------------------------------------


class TestExecutor:
    @pytest.mark.parametrize(
        "metric", ["average_degree", "clustering_coefficient"]
    )
    def test_pbks_matches_direct_search(self, snapshot, metric):
        executor = SnapshotExecutor(snapshot, SimulatedPool(threads=4))
        got = executor.run_query(
            normalize_request({"kind": "pbks", "metric": metric})
        )
        want = pbks_search(
            snapshot.graph,
            snapshot.coreness,
            snapshot.hcd,
            metric,
            SimulatedPool(threads=4),
            counts=snapshot.counts,
            rank_result=snapshot.rank_result,
        )
        assert got.best_k == want.best_k
        assert got.best_score == want.best_score
        assert got.detail == (want.best_node,)

    @pytest.mark.parametrize(
        "metric", ["average_degree", "clustering_coefficient"]
    )
    def test_best_k_matches_direct(self, snapshot, metric):
        executor = SnapshotExecutor(snapshot, SimulatedPool(threads=4))
        got = executor.run_query(
            normalize_request({"kind": "best_k", "metric": metric})
        )
        want = find_best_k(
            snapshot.graph,
            snapshot.coreness,
            metric,
            SimulatedPool(threads=4),
            counts=snapshot.counts,
            rank_result=snapshot.rank_result,
        )
        assert got.best_k == want.best_k
        assert got.best_score == want.best_score

    def test_influential_matches_direct(self, snapshot):
        executor = SnapshotExecutor(snapshot, SimulatedPool(threads=4))
        got = executor.run_query(
            normalize_request(
                {"kind": "influential", "k": 2, "r": 3, "weights": "degree"}
            )
        )
        index = InfluentialCommunityIndex(
            snapshot.hcd,
            np.asarray(snapshot.graph.degrees(), dtype=np.float64),
            SimulatedPool(threads=4),
        )
        want = index.top_r(2, 3)
        assert got.detail == tuple(
            (c.node, float(c.influence), int(c.size)) for c in want
        )

    def test_share_passes_off_same_answers_more_work(self, snapshot):
        reqs = [
            (0, normalize_request({"kind": "pbks", "metric": "average_degree"})),
            (1, normalize_request({"kind": "pbks", "metric": "internal_density"})),
            (2, normalize_request({"kind": "best_k", "metric": "average_degree"})),
        ]
        plan = plan_batch(reqs)
        shared_pool = SimulatedPool(threads=4)
        baseline_pool = SimulatedPool(threads=4)
        shared = SnapshotExecutor(snapshot, shared_pool, share_passes=True)
        baseline = SnapshotExecutor(
            snapshot, baseline_pool, share_passes=False
        )
        r_shared = shared.execute(plan.queries)
        r_base = baseline.execute(plan.queries)
        assert r_shared == r_base
        assert shared_pool.clock < baseline_pool.clock

    def test_execute_runs_each_shared_pass_once(self, snapshot, monkeypatch):
        # the node pass runs once, with the type-B columns because one
        # pbks metric is type B, and the type-A pbks query reuses it;
        # the level pass runs without them (type-A best-k only); one
        # influence index per weight spec, in first-appearance order
        from repro.serve import executor as executor_module

        calls = []
        for name in (
            "pbks_node_values",
            "compute_level_values",
            "InfluentialCommunityIndex",
        ):
            real = getattr(executor_module, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append((_name, kwargs.get("need_type_b")))
                return _real(*args, **kwargs)

            monkeypatch.setattr(executor_module, name, spy)
        reqs = [
            {"kind": "influential", "k": 2, "r": 1, "weights": "uniform"},
            {"kind": "pbks", "metric": "average_degree"},
            {"kind": "best_k", "metric": "average_degree"},
            {"kind": "pbks", "metric": "clustering_coefficient"},
            {"kind": "influential", "k": 2, "r": 1, "weights": "degree"},
            {"kind": "influential", "k": 3, "r": 2, "weights": "uniform"},
        ]
        plan = plan_batch(
            [(i, normalize_request(r)) for i, r in enumerate(reqs)]
        )
        executor = SnapshotExecutor(snapshot, SimulatedPool(threads=4))
        results = executor.execute(plan.queries)
        assert calls == [
            ("pbks_node_values", True),
            ("compute_level_values", False),
            ("InfluentialCommunityIndex", None),
            ("InfluentialCommunityIndex", None),
        ]
        assert list(executor._passes) == [
            ("pbks", True),
            ("best_k", False),
            ("influential", "uniform"),
            ("influential", "degree"),
        ]
        assert list(results) == list(plan.queries)
        unshared = SnapshotExecutor(
            snapshot, SimulatedPool(threads=4), share_passes=False
        )
        assert results == unshared.execute(plan.queries)

    def test_type_a_reuses_type_b_matrix(self, snapshot):
        pool = SimulatedPool(threads=2)
        executor = SnapshotExecutor(snapshot, pool)
        executor.run_query(
            normalize_request(
                {"kind": "pbks", "metric": "clustering_coefficient"}
            )
        )
        mark = pool.mark()
        before = len(pool.regions)
        executor.run_query(
            normalize_request({"kind": "pbks", "metric": "average_degree"})
        )
        # only the score fold ran — no new contribution/accumulate pass
        new_labels = [r.label for r in pool.regions[before:]]
        assert all("score" in label for label in new_labels), new_labels
        assert pool.elapsed_since(mark) > 0


# ----------------------------------------------------------------------
# service loop
# ----------------------------------------------------------------------


@pytest.fixture(params=["single", "cluster-1x1", "cluster-2x2"])
def serve_with(request, catalog):
    """Build a service of each kind on ``catalog``; one loop serves all."""

    def build(config: ServiceConfig | None = None):
        if request.param == "single":
            return HCDService(catalog, "base", threads=2, config=config)
        shards, replicas = map(int, request.param.split("-")[1].split("x"))
        return ClusterService(
            catalog,
            "base",
            config=ClusterServiceConfig(num_shards=shards, replicas=replicas),
            service_config=config,
            threads=2,
        )

    return build


class TestService:
    def test_serve_accounts_every_request(self, catalog):
        service = HCDService(catalog, "base", threads=4)
        trace = synthetic_trace(40, seed=5)
        report = service.serve(trace)
        assert len(report.records) == 40
        assert report.admitted + report.shed == 40
        answered = report.computed + report.hits + report.shared
        assert answered + report.shed + report.invalid == 40
        # executor/cache reconciliation: every computed record is a real
        # cache miss, every hit record a real cache hit, and dedup
        # followers are exactly the planner's coalesced count
        assert report.computed == report.cache["misses"]
        assert report.hits == report.cache["hits"]
        assert report.shared == report.coalesced
        assert [r.rid for r in report.records] == list(range(40))
        assert report.work_units > 0
        assert report.sim_clock > 0

    def test_identical_repeat_queries_hit_cache(self, catalog):
        service = HCDService(catalog, "base", threads=2)
        entry = {"kind": "pbks", "metric": "average_degree"}
        first = service.serve([dict(entry, arrival=0)])
        second = service.serve([dict(entry, arrival=0)])
        assert first.computed == 1 and first.hits == 0
        assert second.computed == 0 and second.hits == 1
        assert service.cache.stats().hits == 1

    def test_in_flight_dedup_coalesces(self, catalog):
        service = HCDService(catalog, "base", threads=2)
        entry = {"kind": "pbks", "metric": "average_degree", "arrival": 0}
        report = service.serve([dict(entry) for _ in range(5)])
        assert report.coalesced == 4
        assert service.cache.stats().puts == 1

    def test_bounded_queue_sheds(self, serve_with):
        service = serve_with(ServiceConfig(queue_capacity=2, max_batch=2))
        trace = [
            {"kind": "pbks", "metric": "average_degree", "arrival": 0}
            for _ in range(6)
        ]
        report = service.serve(trace)
        assert report.shed == 4
        assert report.admitted == 2
        assert (report.computed, report.shared, report.batches) == (1, 1, 1)
        statuses = [r.status for r in report.records]
        assert statuses == ["ok", "shared"] + ["shed"] * 4
        assert [r.batch for r in report.records] == [0, 0, -1, -1, -1, -1]
        shed = [r for r in report.records if r.status == "shed"]
        assert all(r.latency == 0.0 for r in shed)

    def test_invalid_requests_are_counted_not_fatal(self, serve_with):
        service = serve_with()
        trace = [
            {"kind": "pbks", "metric": "average_degree", "arrival": 0},
            {"kind": "bogus", "arrival": 1},
        ]
        report = service.serve(trace)
        assert report.invalid == 1
        assert report.computed == 1
        assert (report.admitted, report.batches, report.failed) == (2, 2, 0)
        assert [r.status for r in report.records] == ["ok", "invalid"]
        assert [r.batch for r in report.records] == [0, 1]
        assert report.records[1].latency == 0.0

    @pytest.mark.parametrize(
        "trace,message",
        [
            (
                [{"kind": "densest", "arrival": 5}, {"kind": "densest", "arrival": 1}],
                "trace[1]: field 'arrival' decreased (1.0 after 5.0)",
            ),
            (
                [{"kind": "densest", "arrival": True}],
                "trace[0]: field 'arrival' must be a number, got True",
            ),
            (
                [{"kind": "densest", "arrival": 0}, ["densest"]],
                "trace[1]: entry must be an object, got list",
            ),
        ],
        ids=["decreasing", "boolean", "non-object"],
    )
    def test_malformed_traces_rejected(self, serve_with, trace, message):
        service = serve_with()
        with pytest.raises(WorkloadError) as excinfo:
            service.serve(trace)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "text, shown",
        [
            ("NaN", "nan"),
            ("Infinity", "inf"),
            ("-Infinity", "-inf"),
            ("1e999", "inf"),
            # an integer beyond the float range
            ("1" + "0" * 400, "inf"),
        ],
        ids=["nan", "inf", "-inf", "1e999", "10**400"],
    )
    def test_non_finite_arrival_rejected(
        self, serve_with, tmp_path, text, shown
    ):
        # json reads NaN and Infinity; a NaN arrival never compares
        # <= the clock, so the replay would wait for it forever
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"kind": "densest", "arrival": 0}\n'
            f'{{"kind": "densest", "arrival": {text}}}\n'
        )
        trace = load_trace(path)
        with pytest.raises(WorkloadError) as excinfo:
            serve_with().serve(trace)
        assert str(excinfo.value) == (
            f"trace[1]: field 'arrival' must be finite, got {shown}"
        )

    def test_latency_percentiles_ordered(self, catalog):
        service = HCDService(catalog, "base", threads=4)
        report = service.serve(synthetic_trace(32, seed=9))
        assert 0 < report.p50 <= report.p95 <= report.p99
        assert sum(report.histogram().values()) == len(report.latencies)

    def test_serve_phases_visible_to_simprof(self, catalog):
        from repro.profiler import SpanTracer, phase_totals, profile_report

        pool = SimulatedPool(threads=4)
        tracer = SpanTracer()
        tracer.attach(pool)
        service = HCDService(catalog, "base", pool=pool)
        service.serve(synthetic_trace(24, seed=2))
        tracer.detach()
        totals = phase_totals(profile_report(tracer, pool), prefix="serve.")
        seen = {path.split("/")[0] for path in totals}
        assert {
            "serve.admit",
            "serve.plan",
            "serve.cache",
            "serve.execute",
        } <= seen
        assert all(elapsed >= 0 for elapsed in totals.values())

    def test_serve_kernel_sanitizer_clean(self):
        from repro.sanitizer import run_kernel

        report = run_kernel("serve_batch", threads=4, memcheck=True)
        assert report.clean, (report.races, report.memcheck_findings)


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------


class TestTraces:
    def test_synthetic_trace_deterministic(self):
        assert synthetic_trace(30, seed=4) == synthetic_trace(30, seed=4)
        assert synthetic_trace(30, seed=4) != synthetic_trace(30, seed=5)

    def test_synthetic_trace_pinned(self):
        # every recorded bench and the serve_batch kernel replay these
        # traces: their bytes must not move
        import hashlib

        def digest(n: int, seed: int) -> str:
            text = json.dumps(synthetic_trace(n, seed=seed), sort_keys=True)
            return hashlib.sha256(text.encode()).hexdigest()

        assert digest(200, 11) == (
            "d9a33a01d62db5e06ecf6a0642297ba3ff0cac00965060b617fd70efd45f5770"
        )
        assert digest(0, 0) == (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        )

    def test_save_load_round_trip(self, tmp_path):
        trace = synthetic_trace(12, seed=1)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError, match="not found"):
            load_trace(tmp_path / "nope.jsonl")

    def test_load_bad_json_names_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "densest", "arrival": 0}\n{broken\n')
        with pytest.raises(WorkloadError, match=":2"):
            load_trace(path)

    def test_load_non_object_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(WorkloadError, match="object"):
            load_trace(path)


# ----------------------------------------------------------------------
# dynamic feed: refresh + cache invalidation (satellite 1)
# ----------------------------------------------------------------------


class TestDynamicFeed:
    def test_mutation_publishes_new_version(self, tmp_path):
        graph = _graph()
        dyn = DynamicGraph(graph)
        cat = SnapshotCatalog(tmp_path)
        feed = DynamicServingFeed(dyn, cat, name="live", threads=2)
        assert feed.publish() == 1
        u, v = self._absent_edge(dyn)
        assert feed.insert_edge(u, v) == 2
        assert cat.latest_version("live") == 2
        # the published snapshot reflects the maintained coreness
        snap = cat.open("live")
        assert np.array_equal(
            snap.coreness, core_decomposition(dyn.to_graph())
        )
        assert dyn.mutation_count == 1
        assert "dynamic" in snap.build_info["algorithm"]

    def test_refresh_invalidates_cached_results(self, tmp_path):
        graph = _graph()
        dyn = DynamicGraph(graph)
        cat = SnapshotCatalog(tmp_path)
        feed = DynamicServingFeed(dyn, cat, name="live", threads=2)
        feed.publish()

        service = HCDService(cat, "live", threads=2)
        entry = {"kind": "pbks", "metric": "average_degree", "arrival": 0}
        first = service.serve([dict(entry)])
        assert first.computed == 1
        assert first.snapshot == ("live", 1)

        # mutate -> new version; the old cached result must not be served
        u, v = self._absent_edge(dyn)
        feed.insert_edge(u, v)
        second = service.serve([dict(entry)])
        assert second.snapshot == ("live", 2)
        assert second.hits == 0  # old-version entry is dead, recomputed
        assert second.computed == 1
        # the stale entry is still *in* the LRU, just unreachable
        assert service.cache.stats().size == 2

        # same version again -> now it hits
        third = service.serve([dict(entry)])
        assert third.hits == 1

    def test_feed_catalog_keeps_newest_versions(self, tmp_path):
        dyn = DynamicGraph(_graph())
        cat = SnapshotCatalog(tmp_path)
        feed = DynamicServingFeed(dyn, cat, name="live", threads=2)
        feed.publish()
        # a crashed publish: an old manifest-less v-directory, which
        # never counts as published and is left in place
        crashed = cat.path("live", 2)
        crashed.mkdir()
        (crashed / ARRAYS_FILE).write_bytes(b"partial")
        rounds = KEEP_VERSIONS + 3
        for _ in range(rounds):
            # a stale stage directory, swept by the next publish
            (tmp_path / "live" / ".stage-v99999999").mkdir(exist_ok=True)
            u, v = self._absent_edge(dyn)
            feed.insert_edge(u, v)
        latest = rounds + 2  # v2 was taken by the crashed directory
        assert cat.versions("live") == list(
            range(latest - KEEP_VERSIONS + 1, latest + 1)
        )
        entries = sorted(p.name for p in (tmp_path / "live").iterdir())
        assert entries == ["v00000002"] + [
            f"v{version:08d}" for version in cat.versions("live")
        ]
        snap = cat.open("live")
        assert snap.version == latest
        assert np.array_equal(
            snap.coreness, core_decomposition(dyn.to_graph())
        )
        oldest = latest - KEEP_VERSIONS + 1
        assert cat.open("live", oldest).version == oldest
        with pytest.raises(SnapshotError, match="no version"):
            cat.open("live", oldest - 1)

    @staticmethod
    def _absent_edge(dyn):
        for u in range(dyn.num_vertices):
            for v in range(u + 1, dyn.num_vertices):
                if not dyn.has_edge(u, v):
                    return u, v
        raise AssertionError("graph is complete")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestServeCli:
    def test_build_and_serve(self, tmp_path, capsys):
        from repro.cli import main

        catalog_dir = tmp_path / "cat"
        report_path = tmp_path / "report.json"
        code = main(
            [
                "serve",
                "--build",
                "--dataset",
                "AS",
                "--catalog",
                str(catalog_dir),
                "--snapshot",
                "as",
                "--synthetic",
                "24",
                "--json",
                str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "published 'as' v1" in out
        assert "latency" in out
        payload = json.loads(report_path.read_text())
        assert payload["snapshot"] == {"name": "as", "version": 1}
        assert payload["requests"] == 24

    def test_missing_json_directory_exits_2_before_serving(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.serve
        from repro.cli import main

        def no_work(*args, **kwargs):
            raise AssertionError("served before the usage check")

        monkeypatch.setattr(repro.serve, "SnapshotCatalog", no_work)
        out = tmp_path / "missing" / "report.json"
        code = main(["serve", "--catalog", str(tmp_path), "--json", str(out)])
        assert code == 2
        assert f"no such directory for --json {out}" in capsys.readouterr().err

    def test_serve_unknown_snapshot_fails(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["serve", "--catalog", str(tmp_path), "--snapshot", "ghost"]
        )
        assert code == 1
        assert "serve failed" in capsys.readouterr().err


def test_committed_bench_serve_is_reproduced():
    # BENCH_serve.json records only work-unit and sim-clock numbers, so
    # the bench must rebuild the committed file exactly; re-record it
    # (make serve-bench) whenever serving accounting legitimately moves
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "bench_serve", root / "benchmarks" / "bench_serve.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    committed = json.loads(
        (root / "benchmarks" / "results" / "BENCH_serve.json").read_text()
    )
    assert json.loads(json.dumps(bench.serve_payload())) == committed
