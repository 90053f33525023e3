"""Tests for repro.analysis: the taint analyzer and leakage-spec gate."""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import load_spec, run_analysis
from repro.analysis.cli import main as lint_main
from repro.analysis.registry_gate import registry_spec_problems
from repro.analysis.spec import LeakageSpec, SinkSpec, SnapshotArtifactSpec
from repro.errors import AnalysisError
from repro.snapshot import ArtifactProvider, ArtifactRegistry, StateQuadrant

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).resolve().parents[1]


def run_fixture(name):
    root = FIXTURES / name
    return run_analysis(root / "src" / name, name, root / "leakage_spec.json")


class TestSpecLoading:
    def test_loads_repo_spec(self):
        spec = load_spec(REPO_ROOT / "leakage_spec.json")
        assert spec.package == "repro"
        assert "key" in spec.key_taints
        assert "persistence" in spec.forbidden_categories
        assert spec.sources and spec.sinks and spec.documented

    def test_param_source_exposes_param_name(self):
        spec = load_spec(FIXTURES / "clean_pkg" / "leakage_spec.json")
        (src,) = spec.sources
        assert src.param == "value"

    def test_forbidden_pairs_cross_key_taints_with_persistence(self):
        spec = load_spec(FIXTURES / "bad_key_pkg" / "leakage_spec.json")
        assert ("key", "disk") in spec.forbidden_pairs()

    def test_malformed_json_raises(self, tmp_path):
        bad = tmp_path / "leakage_spec.json"
        bad.write_text("{not json")
        with pytest.raises(AnalysisError):
            load_spec(bad)

    def test_missing_package_raises(self, tmp_path):
        bad = tmp_path / "leakage_spec.json"
        bad.write_text(json.dumps({"taints": {}}))
        with pytest.raises(AnalysisError):
            load_spec(bad)

    def test_unknown_sink_category_raises(self, tmp_path):
        bad = tmp_path / "leakage_spec.json"
        bad.write_text(
            json.dumps(
                {
                    "package": "p",
                    "sinks": [
                        {"callable": "p.f", "sink": "s", "category": "bogus"}
                    ],
                }
            )
        )
        with pytest.raises(AnalysisError):
            load_spec(bad)

    def test_undeclared_taint_in_source_raises(self, tmp_path):
        bad = tmp_path / "leakage_spec.json"
        bad.write_text(
            json.dumps(
                {
                    "package": "p",
                    "taints": {"plaintext": "x"},
                    "sources": [
                        {"callable": "p.f", "taint": "nope", "via": "return"}
                    ],
                }
            )
        )
        with pytest.raises(AnalysisError):
            load_spec(bad)


class TestFixturePackages:
    def test_clean_package_passes(self):
        report = run_fixture("clean_pkg")
        assert report.exit_code == 0
        assert not report.violations
        assert [(f.taint, f.sink) for f in report.flows] == [("plaintext", "log")]

    def test_undocumented_flow_fails(self):
        report = run_fixture("bad_flow_pkg")
        assert report.exit_code == 1
        rules = {v.rule for v in report.violations}
        assert rules == {"undocumented-flow"}
        # The flow itself is still observed and reported.
        assert [(f.taint, f.sink) for f in report.flows] == [("plaintext", "log")]

    def test_key_to_persistence_fails_despite_allowlist(self):
        report = run_fixture("bad_key_pkg")
        assert report.exit_code == 1
        key_violations = [
            v for v in report.violations if v.rule == "key-hygiene"
        ]
        # One for the observed flow, one for the allowlist attempt itself.
        assert len(key_violations) == 2
        messages = " ".join(v.message for v in key_violations)
        assert "never be documented away" in messages

    def test_unguarded_release_point_fails(self):
        report = run_fixture("bad_free_pkg")
        assert report.exit_code == 1
        rules = {v.rule for v in report.violations}
        assert rules == {"secure-deletion"}
        (violation,) = report.violations
        assert "secure_delete" in violation.message
        assert violation.function == "bad_free_pkg.app.process"

    def test_function_reference_flow_is_observed(self):
        # The registry shape: a capture callable stored in a dataclass
        # field and invoked through the field read. The analyzer must see
        # the flow *through* the stored function, not lose it at the
        # indirect call site.
        report = run_fixture("fnref_pkg")
        assert report.exit_code == 0
        assert not report.violations
        assert [(f.taint, f.sink) for f in report.flows] == [
            ("plaintext", "capture")
        ]
        # And crucially: nothing stale — the documented flow IS observed.
        assert not report.stale_documented

    def test_function_reference_flow_through_a_namedtuple_field(self, tmp_path):
        # The same registry with a NamedTuple record: its constructor's
        # arguments are its fields, exactly as for a dataclass.
        root = tmp_path / "fnref_pkg"
        shutil.copytree(
            FIXTURES / "fnref_pkg", root,
            ignore=shutil.ignore_patterns(".repro-lint-cache"),
        )
        app = root / "src" / "fnref_pkg" / "app.py"
        source = app.read_text()
        for old, new in (
            ("from dataclasses import dataclass\n", ""),
            ("Callable, Dict, Tuple", "Callable, Dict, NamedTuple, Tuple"),
            ("@dataclass(frozen=True)\nclass Provider:", "class Provider(NamedTuple):"),
        ):
            assert old in source
            source = source.replace(old, new)
        app.write_text(source)
        report = run_analysis(
            root / "src" / "fnref_pkg", "fnref_pkg", root / "leakage_spec.json"
        )
        assert report.exit_code == 0
        assert [(f.taint, f.sink) for f in report.flows] == [
            ("plaintext", "capture")
        ]
        assert not report.stale_documented


class TestCli:
    def test_clean_fixture_json_output(self, capsys):
        rc = lint_main(
            [
                "--spec",
                str(FIXTURES / "clean_pkg" / "leakage_spec.json"),
                "--format",
                "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["package"] == "clean_pkg"
        assert payload["flows"][0]["documented"] is True

    def test_bad_fixture_text_output(self, capsys):
        rc = lint_main(
            ["--spec", str(FIXTURES / "bad_flow_pkg" / "leakage_spec.json")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "undocumented flow" in out

    def test_missing_spec_is_usage_error(self, capsys):
        rc = lint_main(["--spec", "/nonexistent/leakage_spec.json"])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_spec_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "leakage_spec.json"
        bad.write_text("{not json")
        rc = lint_main(["--spec", str(bad)])
        assert rc == 2
        assert "malformed" in capsys.readouterr().err

    def test_explicit_package_dir(self, capsys):
        rc = lint_main(
            [
                "--spec",
                str(FIXTURES / "clean_pkg" / "leakage_spec.json"),
                "--package-dir",
                str(FIXTURES / "clean_pkg" / "src" / "clean_pkg"),
            ]
        )
        assert rc == 0
        assert "PASS" in capsys.readouterr().out


def _gate_spec(artifacts):
    """A minimal LeakageSpec carrying only what the gate consumes."""
    return LeakageSpec(
        package="p",
        sinks=[SinkSpec(callable="p.Log.append", sink="log", category="persistence")],
        snapshot_artifacts=list(artifacts),
        path="test-spec",
    )


def _gate_registry(*providers):
    registry = ArtifactRegistry()
    for provider in providers:
        registry.register(provider)
    return registry


def _gate_provider(name, **overrides):
    fields = dict(
        name=name,
        backend="mysql",
        quadrant=StateQuadrant.PERSISTENT_DB,
        artifact_class="logs",
        capture=lambda target: b"",
        spec_sinks=("log",),
    )
    fields.update(overrides)
    return ArtifactProvider(**fields)


class TestSnapshotArtifactSpec:
    def test_repo_spec_declares_snapshot_artifacts(self):
        spec = load_spec(REPO_ROOT / "leakage_spec.json")
        names = {a.name for a in spec.snapshot_artifacts}
        assert "redo_log_raw" in names
        assert "mongo_oplog_entries" in names
        assert "spark_event_log" in names

    def test_unknown_quadrant_rejected(self, tmp_path):
        bad = tmp_path / "leakage_spec.json"
        bad.write_text(
            json.dumps(
                {
                    "package": "p",
                    "snapshot_artifacts": [
                        {"name": "a", "quadrant": "sideways_db", "class": "logs"}
                    ],
                }
            )
        )
        with pytest.raises(AnalysisError, match="unknown quadrant"):
            load_spec(bad)

    def test_unknown_class_rejected(self, tmp_path):
        bad = tmp_path / "leakage_spec.json"
        bad.write_text(
            json.dumps(
                {
                    "package": "p",
                    "snapshot_artifacts": [
                        {"name": "a", "quadrant": "volatile_db", "class": "blobs"}
                    ],
                }
            )
        )
        with pytest.raises(AnalysisError, match="unknown artifact class"):
            load_spec(bad)

    def test_duplicate_artifact_rejected(self, tmp_path):
        bad = tmp_path / "leakage_spec.json"
        entry = {"name": "a", "quadrant": "volatile_db", "class": "logs"}
        bad.write_text(
            json.dumps({"package": "p", "snapshot_artifacts": [entry, entry]})
        )
        with pytest.raises(AnalysisError, match="declared twice"):
            load_spec(bad)

    def test_unknown_sink_id_rejected(self, tmp_path):
        bad = tmp_path / "leakage_spec.json"
        bad.write_text(
            json.dumps(
                {
                    "package": "p",
                    "snapshot_artifacts": [
                        {
                            "name": "a",
                            "quadrant": "volatile_db",
                            "class": "logs",
                            "sinks": ["nosuch"],
                        }
                    ],
                }
            )
        )
        with pytest.raises(AnalysisError, match="unknown sink id"):
            load_spec(bad)


class TestRegistryGate:
    def test_repo_registry_matches_repo_spec(self):
        spec = load_spec(REPO_ROOT / "leakage_spec.json")
        assert registry_spec_problems(spec) == []

    def test_agreeing_inventories_are_clean(self):
        spec = _gate_spec(
            [
                SnapshotArtifactSpec(
                    name="a",
                    backend="mysql",
                    quadrant="persistent_db",
                    artifact_class="logs",
                    sinks=("log",),
                )
            ]
        )
        assert registry_spec_problems(spec, _gate_registry(_gate_provider("a"))) == []

    def test_unregistered_spec_entry_reported(self):
        spec = _gate_spec(
            [
                SnapshotArtifactSpec(
                    name="ghost",
                    backend="mysql",
                    quadrant="persistent_db",
                    artifact_class="logs",
                )
            ]
        )
        (problem,) = registry_spec_problems(spec, _gate_registry())
        assert "no provider registers" in problem

    def test_undeclared_provider_reported(self):
        spec = _gate_spec([])
        (problem,) = registry_spec_problems(
            spec, _gate_registry(_gate_provider("orphan"))
        )
        assert "no snapshot_artifacts entry" in problem

    def test_metadata_mismatches_reported(self):
        spec = _gate_spec(
            [
                SnapshotArtifactSpec(
                    name="a",
                    backend="mongo",
                    quadrant="volatile_db",
                    artifact_class="diagnostic_tables",
                    sinks=(),
                )
            ]
        )
        problems = registry_spec_problems(spec, _gate_registry(_gate_provider("a")))
        text = " ".join(problems)
        assert "backend" in text
        assert "quadrant" in text
        assert "class" in text
        assert "sinks" in text

    def test_cli_gate_fails_on_drift(self, tmp_path, capsys):
        # A spec whose snapshot_artifacts disagree with the shipped
        # registry: the analysis itself passes, the gate fails (exit 1).
        fixture = FIXTURES / "fnref_pkg"
        raw = json.loads((fixture / "leakage_spec.json").read_text())
        raw["snapshot_artifacts"] = [
            {"name": "ghost_artifact", "quadrant": "persistent_db", "class": "logs"}
        ]
        spec_path = tmp_path / "leakage_spec.json"
        spec_path.write_text(json.dumps(raw))
        rc = lint_main(
            [
                "--spec",
                str(spec_path),
                "--package-dir",
                str(fixture / "src" / "fnref_pkg"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "repro-lint: " in err
        assert "ghost_artifact" in err
        # Drift is symmetric: registered-but-undeclared is also flagged.
        assert "no snapshot_artifacts entry" in err


@pytest.fixture(scope="module")
def repo_report():
    return run_analysis(
        REPO_ROOT / "src" / "repro", "repro", REPO_ROOT / "leakage_spec.json"
    )


class TestRealTree:
    """The shipped tree must satisfy its own leakage spec."""

    def test_shipped_tree_is_clean(self, repo_report):
        assert repo_report.violations == []
        assert repo_report.exit_code == 0
        assert not repo_report.warnings
        assert not repo_report.stale_documented

    def test_core_paper_flows_are_observed(self, repo_report):
        pairs = {(f.taint, f.sink) for f in repo_report.flows}
        # E1/E3: plaintext persists in the recovery logs and binlog.
        assert ("plaintext", "redo_log") in pairs
        assert ("plaintext", "binlog") in pairs
        # E12: key material appears in memory and in the snapshot capture.
        assert ("key", "heap") in pairs
        assert ("key", "snapshot") in pairs

    def test_key_never_reaches_persistence(self, repo_report):
        spec = repo_report.spec
        for flow in repo_report.flows:
            if flow.taint in spec.key_taints:
                assert flow.category not in spec.forbidden_categories

    def test_every_flow_is_documented(self, repo_report):
        spec = repo_report.spec
        documented = spec.documented_pairs()
        # Volume flows are judged by the volume pass against the
        # volume_surface declarations, not documented_flows.
        volume_kinds = spec.volume_kinds()
        declared_volume = (
            spec.volume_surface.declared_pairs()
            if spec.volume_surface is not None
            else set()
        )
        persisted = (
            set(spec.volume_surface.categories)
            if spec.volume_surface is not None
            else set()
        )
        for flow in repo_report.flows:
            if flow.taint in volume_kinds:
                # Transient (memory-category) volume sinks are out of
                # scope: the attacker model reads persisted artifacts.
                if flow.category in persisted:
                    assert (flow.taint, flow.sink) in declared_volume
            else:
                assert (flow.taint, flow.sink) in documented

    def test_volume_surface_artifact_is_fresh(self, repo_report):
        """The committed volume_surface.json matches a fresh rebuild."""
        from repro.analysis.passes import build_volume_surface

        surface = build_volume_surface(repo_report.spec, repo_report.flows)
        committed = json.loads(
            (REPO_ROOT / "volume_surface.json").read_text(encoding="utf-8")
        )
        assert committed == surface
        # Every sink entry in the artifact is declared, none UNDECLARED.
        for entry in surface["sinks"].values():
            for flow in entry["flows"]:
                assert flow["source"] != "UNDECLARED"
