"""SimDist SAN6xx: distributed-protocol certification tests.

Covers the in-tree certification (both cluster protocols must pass),
the seeded selftest's exact line attribution, the committed-manifest
drift detection (the derived wire shape of every send site included),
send-site derivation (SAN604) on a synthetic cluster module, the
declared barrier, partition and wire-counter facts on a synthetic
cluster package, and the monotonicity / phase / replay judgements on
standalone protocol sources.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.sanitizer import manifest
from repro.sanitizer.dist import (
    DEFAULT_DIST_MANIFEST_PATH,
    DIST_MANIFEST_SCHEMA,
    DistAnalyzer,
    analyze_dist,
    analyze_protocol_source,
    dist_selftest,
)
from repro.sanitizer.flow import ModuleIndex, ModuleInfo


def dist_manifest_payload(report):
    return manifest.payload(
        DIST_MANIFEST_SCHEMA,
        protocols=report.certificates,
        kernels=report.kernels,
    )


# ----------------------------------------------------------------------
# in-tree certification
# ----------------------------------------------------------------------

class TestInTree:
    def test_cluster_layer_certifies(self):
        report = analyze_dist()
        assert not report.findings, [str(f) for f in report.findings]
        assert report.certified == ["decompose", "serve"]
        for cert in report.certificates.values():
            assert cert.status == "certified"

    def test_every_cluster_kernel_classified(self):
        report = analyze_dist()
        assert report.kernels["cluster_decompose"] == "decompose"
        assert report.kernels["cluster_serve"] == "serve"
        assert "unclassified" not in report.kernels.values()

    def test_decompose_obligations(self):
        cert = analyze_dist().certificates["decompose"]
        assert "monotone:updates" in cert.obligations
        assert "phase:sends" in cert.obligations
        assert "ownership:partition" in cert.obligations
        assert any(k.startswith("replay:") for k in cert.obligations)
        # the exchange send is derived with the real wire constants
        (site,) = cert.sends.values()
        assert site["header_bytes"] == 16
        assert site["per_item_bytes"] == 8

    def test_serve_recovery_rebuilds(self):
        cert = analyze_dist().certificates["serve"]
        assert "HCDService" in cert.obligations["phase:recovery-rebuild"]
        assert len(cert.sends) == 2

    def test_committed_manifest_in_sync(self):
        payload = dist_manifest_payload(analyze_dist())
        path = DEFAULT_DIST_MANIFEST_PATH
        assert manifest.drift(payload, path, "dist") == []


# ----------------------------------------------------------------------
# seeded selftest
# ----------------------------------------------------------------------

class TestSelftest:
    def test_selftest_passes(self):
        ok, message = dist_selftest()
        assert ok, message
        assert "SAN601" in message and "SAN602" in message

    def test_planted_lines_attributed_exactly(self):
        from repro.sanitizer.dist import _PLANTED, _SELFTEST_PROTOCOL

        assert [case.code for case in _PLANTED] == ["SAN601", "SAN602"]
        for case in _PLANTED:
            report = analyze_protocol_source(case.source, _SELFTEST_PROTOCOL)
            (finding,) = report.findings
            assert (finding.code, finding.line) == (case.code, case.line)


# ----------------------------------------------------------------------
# monotonicity / phase / replay judgements on standalone sources
# ----------------------------------------------------------------------

_PROTOCOL = {
    "name": "toy",
    "kernels": (),
    "estimates": ("est",),
    "live": ("est",),
    "compute_roots": (),
    "send_scopes": (),
    "recovery_roots": (),
    "rebuild_calls": (),
    "handler_roots": ("exchange",),
    "metrics": ("hops",),
    "lww": ("label",),
}

_TEMPLATE = """\
import numpy as np

def driver(cluster, est, results):
    committed = est.copy()

    def exchange():
        for s in sorted(results):
            ids, vals = results[s]
            {update}
    cluster.superstep("step", {{}}, exchange)
"""


def _judge(update: str):
    return analyze_protocol_source(
        _TEMPLATE.format(update=update), _PROTOCOL
    )


class TestMonotonicity:
    def test_min_combining_certifies(self):
        report = _judge("est[ids] = np.minimum(est[ids], vals)")
        assert not report.findings
        assert report.certificates["toy"].status == "certified"

    def test_augmented_increase_flagged(self):
        # the in-place increase violates both monotonicity and replay
        # safety (a re-delivered message would apply the delta twice)
        report = _judge("est[ids] += vals")
        codes = [f.code for f in report.findings]
        assert "SAN601" in codes

    def test_max_combining_flagged(self):
        report = _judge("est[ids] = np.maximum(est[ids], vals)")
        assert [f.code for f in report.findings] == ["SAN601"]
        assert "monotone" in report.findings[0].message

    def test_transport_of_estimate_certifies(self):
        # pure transport: storing estimate-derived values verbatim
        report = _judge("est[ids] = est[ids]")
        assert not report.findings

    def test_missing_freeze_flagged(self):
        source = _TEMPLATE.format(
            update="est[ids] = np.minimum(est[ids], vals)"
        ).replace("    committed = est.copy()\n", "")
        report = analyze_protocol_source(source, _PROTOCOL)
        assert any(f.code == "SAN602" for f in report.findings)
        cert = report.certificates["toy"]
        assert cert.obligations["phase:freeze"].startswith("VIOLATED")


class TestReplay:
    def test_metric_and_lww_writes_allowed(self):
        report = _judge(
            "est[ids] = np.minimum(est[ids], vals); "
            "cluster.hops = cluster.hops + 1; cluster.label = s"
        )
        assert not report.findings
        summary = report.certificates["toy"].handlers["driver.exchange"]
        assert "metric=1" in summary and "lww=2" in summary

    def test_non_idempotent_handler_write_flagged(self):
        report = _judge(
            "est[ids] = np.minimum(est[ids], vals); "
            "cluster.journal = vals"
        )
        assert any(f.code == "SAN606" for f in report.findings)


# ----------------------------------------------------------------------
# shard ownership (SAN603) of per-item and slice workers
# ----------------------------------------------------------------------

_OWNERSHIP_PROTOCOL = dict(
    _PROTOCOL, estimates=("est", "local", "new_vals"), metrics=(), lww=()
)

_OWNERSHIP_TEMPLATE = """\
import numpy as np

def refine(node, local, front):
    new_vals = local.copy()

    def update(vs, ctx):
        ctx.write_row("new", {declared})
        new_vals[{stored}] = np.minimum(local[vs], 0)

    node.pool.{region}(front, update)
    return new_vals

def driver(cluster, est, fronts):
    committed = est.copy()

    def run(node):
        refine(node, committed, fronts[node.node_id])

    def exchange():
        pass
    cluster.superstep("step", {{0: run}}, exchange)
"""

#: source line of the planted store and of the write_row declaration
_STORE_LINE, _DECL_LINE = 8, 7


def _ownership(region="parallel_slices", stored="vs", declared="vs"):
    return analyze_protocol_source(
        _OWNERSHIP_TEMPLATE.format(
            region=region, stored=stored, declared=declared
        ),
        _OWNERSHIP_PROTOCOL,
    )


class TestOwnership:
    def test_slice_worker_storing_its_slice_certifies(self):
        report = _ownership()
        assert not report.findings, [str(f) for f in report.findings]
        obligations = report.certificates["toy"].obligations
        assert obligations["ownership:parallel-writes"].startswith(
            "1 shard-parallel worker(s)"
        )
        assert "min-combining=1" in obligations["monotone:updates"]

    def test_slice_worker_storing_past_its_slice_is_san603(self):
        report = _ownership(stored="vs + 1")
        (finding,) = report.findings
        assert (finding.code, finding.line) == ("SAN603", _STORE_LINE)
        assert report.certificates["toy"].obligations[
            "ownership:parallel-writes"
        ].startswith("VIOLATED")

    def test_slice_worker_declaring_past_its_slice_is_san603(self):
        report = _ownership(declared="vs + 1")
        (finding,) = report.findings
        assert (finding.code, finding.line) == ("SAN603", _DECL_LINE)

    def test_per_item_worker_still_checked(self):
        report = _ownership(region="parallel_for", stored="vs + 1")
        assert [f.code for f in report.findings] == ["SAN603"]


# ----------------------------------------------------------------------
# wire effects (SAN604) on a synthetic cluster module
# ----------------------------------------------------------------------

_TOY_CLUSTER = """\
DIST_PROTOCOL = {
    "name": "toy",
    "kernels": ("cluster_toy",),
    "estimates": (),
    "live": (),
    "compute_roots": (),
    "send_scopes": ("pump",),
    "recovery_roots": (),
    "rebuild_calls": (),
    "handler_roots": (),
    "metrics": (),
    "lww": (),
}

def pump(network, ids):
    network.send(0, 1, 16 + 8 * len(ids))
"""


def _toy_index(cluster_src: str = _TOY_CLUSTER) -> ModuleIndex:
    index = ModuleIndex()
    for name, path, src in [
        ("repro.cluster.toy", "<toy>", cluster_src),
        ("repro.sanitizer.kernels", "<toy-kernels>", "KERNELS: dict = {}\n"),
    ]:
        info = ModuleInfo(name, path, src)
        index.modules[name] = info
        index.by_path[path] = info
    return index


class TestWireSchemas:
    def test_matching_declaration_certifies(self):
        report = DistAnalyzer(_toy_index()).analyze()
        assert not report.findings, [str(f) for f in report.findings]
        assert report.certificates["toy"].status == "certified"
        assert report.certificates["toy"].sends["toy.pump#1"] == {
            "header_bytes": 16,
            "per_item_bytes": 8,
            "count": "len(ids)",
        }

    def test_underivable_send_is_san604(self):
        # a byte count with no constant per-item size cannot be derived
        source = _TOY_CLUSTER.replace("16 + 8 * len(ids)", "16 + sum(ids)")
        report = DistAnalyzer(_toy_index(source)).analyze()
        (finding,) = report.findings
        assert finding.code == "SAN604"
        assert "toy.pump#1" in finding.message
        assert "not statically derivable" in finding.message
        certificate = report.certificates["toy"]
        assert certificate.status == "violations"
        assert certificate.sends == {}

    @staticmethod
    def _toy_drift(recorded_src: str, current_src: str, tmp_path):
        recorded = dist_manifest_payload(
            DistAnalyzer(_toy_index(recorded_src)).analyze()
        )
        path = manifest.write(recorded, tmp_path / "dist.json")
        report = DistAnalyzer(_toy_index(current_src)).analyze()
        return report, manifest.drift(
            dist_manifest_payload(report), path, "dist"
        )

    def test_changed_send_field_is_drift(self, tmp_path):
        # a new wire shape at a recorded send site is one drift line
        # for the changed field, not an analysis finding
        source = _TOY_CLUSTER.replace("8 * len(ids)", "4 * len(ids)")
        report, lines = self._toy_drift(_TOY_CLUSTER, source, tmp_path)
        assert not report.findings, [str(f) for f in report.findings]
        assert lines == [
            "protocols.toy.sends.toy.pump#1.per_item_bytes: 8 -> 4"
        ]

    def test_removed_send_site_is_drift(self, tmp_path):
        # a recorded send site that no longer exists reads as absent
        # (beside the phase obligation's site count); the protocol
        # itself stays certified
        two_sends = _TOY_CLUSTER + "    network.send(1, 0, 16 + 8 * len(ids))\n"
        report, lines = self._toy_drift(two_sends, _TOY_CLUSTER, tmp_path)
        assert not report.findings, [str(f) for f in report.findings]
        assert report.certificates["toy"].status == "certified"
        assert lines == [
            "protocols.toy.obligations.phase:sends: "
            "\"2 send site(s) confined to ['pump']\" -> "
            "\"1 send site(s) confined to ['pump']\"",
            "protocols.toy.sends.toy.pump#2: {...} -> absent",
        ]


# ----------------------------------------------------------------------
# manifest round-trip + tamper detection
# ----------------------------------------------------------------------

class TestManifest:
    def test_round_trip_in_sync(self, tmp_path):
        payload = dist_manifest_payload(analyze_dist())
        path = manifest.write(payload, tmp_path / "dist.json")
        committed = manifest.load(path)
        assert committed["schema"] == "dist-manifest/v1"
        assert manifest.drift(payload, path, "dist") == []

    def test_missing_manifest_names_the_fix(self, tmp_path):
        payload = dist_manifest_payload(analyze_dist())
        lines = manifest.drift(payload, tmp_path / "absent.json", "dist")
        assert lines and "--write-manifest" in lines[0]

    def test_protocol_field_tamper_detected(self, tmp_path):
        payload = dist_manifest_payload(analyze_dist())
        committed = json.loads(json.dumps(payload))
        committed["protocols"]["decompose"]["status"] = "violations"
        path = manifest.write(committed, tmp_path / "dist.json")
        lines = manifest.drift(payload, path, "dist")
        assert lines == [
            "protocols.decompose.status: 'violations' -> 'certified'"
        ]

    def test_message_schema_tamper_detected(self, tmp_path):
        # the committed ``sends`` are the message schemas: a changed
        # wire shape at a send site is one drift line per field
        payload = dist_manifest_payload(analyze_dist())
        committed = json.loads(json.dumps(payload))
        sends = committed["protocols"]["decompose"]["sends"]
        sends["decomposition.exchange#1"]["per_item_bytes"] = 4
        path = manifest.write(committed, tmp_path / "dist.json")
        lines = manifest.drift(payload, path, "dist")
        assert lines == [
            "protocols.decompose.sends.decomposition.exchange#1."
            "per_item_bytes: 4 -> 8"
        ]
        # a committed site no send derives any more reads as absent
        sends["decomposition.exchange#1"]["per_item_bytes"] = 8
        sends["decomposition.exchange#2"] = {"count": "n"}
        path = manifest.write(committed, tmp_path / "dist.json")
        lines = manifest.drift(payload, path, "dist")
        assert lines == [
            "protocols.decompose.sends.decomposition.exchange#2: "
            "{...} -> absent"
        ]

    def test_tampered_manifest_fails_verify(self, tmp_path):
        payload = dist_manifest_payload(analyze_dist())
        path = manifest.write(payload, tmp_path / "dist.json")
        committed = json.loads(path.read_text())
        del committed["protocols"]["serve"]
        path.write_text(json.dumps(committed))
        lines = manifest.drift(payload, path, "dist")
        assert lines == ["protocols.serve: absent -> {...}"]

    def test_committed_manifest_file_exists(self):
        assert DEFAULT_DIST_MANIFEST_PATH.exists()
        payload = manifest.load(DEFAULT_DIST_MANIFEST_PATH)
        assert set(payload["protocols"]) == {"decompose", "serve"}


# ----------------------------------------------------------------------
# CLI exit contract
# ----------------------------------------------------------------------

class TestCli:
    def test_dist_gate_clean(self, sanitize_tree):
        assert sanitize_tree.rc == 0, sanitize_tree.out
        assert "SimDist SAN6xx" in sanitize_tree.out
        assert "== OK ==" in sanitize_tree.out

    def test_dist_strict_clean(self, sanitize_tree):
        # dist warnings gate: the tree has none
        dist = sanitize_tree.report["families"]["dist"]
        assert dist["failures"] == 0
        assert dist["summary"].endswith(
            "0 warning(s), 0 drift line(s) [strict]"
        )

    def test_dist_selftest_via_cli(self, sanitize_tree):
        assert "[dist] seeded SAN601" in sanitize_tree.out

    def test_dist_report_json(self, sanitize_tree):
        payload = sanitize_tree.report
        assert payload["schema"] == "sanitize-report/v2"
        assert set(payload["dist"]["certificates"]) == {
            "decompose",
            "serve",
        }
        assert payload["dist"]["drift"] == []
        assert payload["dist"]["kernels"]["cluster_decompose"] == (
            "decompose"
        )

    def test_usage_error_is_exit_2(self, capsys):
        # family selection is gone: every run covers SimDist
        with pytest.raises(SystemExit) as exc:
            cli_main(["sanitize", "--dist"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dist" in capsys.readouterr().err


# ----------------------------------------------------------------------
# partition (SAN603) and wire-counter (SAN604) declarations on a
# synthetic cluster package
# ----------------------------------------------------------------------

_TOY_COMPUTE = _TOY_CLUSTER.replace(
    '"compute_roots": (),', '"compute_roots": ("work",),'
) + """
def work(pool, out):
    out[0] = 0
"""

_TOY_SHARD = """\
import numpy as np

DIST_PARTITION = {"builder": "shard_graph", "owner": "owner"}

def shard_graph(graph, num_shards):
    owner = np.arange(graph.num_vertices) % num_shards
    return [np.flatnonzero(owner >= s) for s in range(num_shards)]
"""

_TOY_NETWORK = """\
WIRE_COUNTERS = ("messages", "bytes_sent", "total_cost", "links")

class Network:
    def send(self, src, dst, nbytes):
        self.messages += 1
        self.bytes_sent += nbytes
        {extra}
"""


def _toy_package(cluster_src: str = _TOY_CLUSTER, **modules: str):
    """``_toy_index`` plus one ``repro.cluster.<name>`` module per
    keyword argument."""
    index = _toy_index(cluster_src)
    for tail, source in modules.items():
        name, path = f"repro.cluster.{tail}", f"<toy-{tail}>"
        info = ModuleInfo(name, path, source)
        index.modules[name] = info
        index.by_path[path] = info
    return index


class TestDeclaredFacts:
    def test_partition_without_owner_equality_is_san603(self):
        index = _toy_package(_TOY_COMPUTE, shard=_TOY_SHARD)
        report = DistAnalyzer(index).analyze()
        (finding,) = report.findings
        assert (finding.code, finding.path) == ("SAN603", "<toy-shard>")
        assert "shard_graph" in finding.message
        certificate = report.certificates["toy"]
        assert certificate.status == "violations"
        assert certificate.obligations["ownership:partition"].startswith(
            "VIOLATED"
        )

    @pytest.mark.parametrize(
        "extra, what",
        [
            ("self.journal = nbytes", "writes a field outside"),
            ("self.log.append(nbytes)", "mutates a non-counter field"),
        ],
    )
    def test_non_counter_write_on_send_is_san604(self, extra, what):
        index = _toy_package(network=_TOY_NETWORK.format(extra=extra))
        report = DistAnalyzer(index).analyze()
        (finding,) = report.findings
        assert (finding.code, finding.path, finding.line) == (
            "SAN604",
            "<toy-network>",
            7,
        )
        assert what in finding.message
        assert report.certificates["toy"].status == "violations"

    @pytest.mark.parametrize(
        "tail, source, code",
        [
            ("cluster", "BARRIER = 'superstep'\n", "SAN602"),
            (
                "shard",
                _TOY_SHARD.replace('"owner": "owner"', '"owners": "owner"'),
                "SAN603",
            ),
            (
                "network",
                _TOY_NETWORK.format(extra="pass").replace(
                    "WIRE_COUNTERS", "COUNTERS"
                ),
                "SAN604",
            ),
        ],
    )
    def test_missing_declaration_is_a_finding(self, tail, source, code):
        # a declaring module without its fact gets no default: the
        # checks that read the fact cannot run, so the package fails
        index = _toy_package(_TOY_COMPUTE, **{tail: source})
        report = DistAnalyzer(index).analyze()
        (finding,) = report.findings
        assert (finding.code, finding.path) == (code, f"<toy-{tail}>")
        assert "declares no well-formed" in finding.message
        assert report.certificates["toy"].status == "violations"
