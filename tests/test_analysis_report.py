"""Tests for report rendering, SARIF output, baselines, and the CLI."""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import (
    default_registry,
    load_baseline,
    run_analysis,
    save_baseline,
    to_sarif,
)
from repro.analysis.cli import _find_default_root, main as lint_main
from repro.analysis.driver import ANALYZER_VERSION
from repro.errors import AnalysisError

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def run_fixture(name):
    root = FIXTURES / name
    return run_analysis(root / "src" / name, name, root / "leakage_spec.json")


def _copy_fixture(tmp_path, name):
    work = tmp_path / name
    shutil.copytree(FIXTURES / name, work)
    return work


class TestReportJson:
    def test_to_dict_round_trips_through_json(self):
        report = run_fixture("clean_pkg")
        data = json.loads(report.to_json())
        assert data == report.to_dict()
        assert data["package"] == "clean_pkg"
        assert data["ok"] is True
        assert data["modules_analyzed"] >= 1
        assert data["functions_analyzed"] >= 1

    def test_documented_flag_and_experiments_aggregation(self):
        report = run_fixture("clean_pkg")
        flows = report.to_dict()["flows"]
        documented = [f for f in flows if f["taint"] == "plaintext"]
        assert documented
        for flow in documented:
            assert flow["documented"] is True
            assert flow["experiments"] == ["E1"]

    def test_undocumented_flow_has_no_experiments(self):
        report = run_fixture("bad_flow_pkg")
        data = report.to_dict()
        assert data["ok"] is False
        flow = next(f for f in data["flows"] if f["sink"] == "log")
        assert flow["documented"] is False
        assert flow["experiments"] == []
        rules = {v["rule"] for v in data["violations"]}
        assert "undocumented-flow" in rules

    def test_cache_stats_stay_out_of_to_dict(self):
        report = run_fixture("clean_pkg")
        report.cache_stats = {"mode": "cold"}
        assert "cache_stats" not in report.to_dict()

    def test_payload_round_trip_preserves_findings(self):
        report = run_fixture("bad_flow_pkg")
        clone = type(report).from_payload(report.spec, report.to_payload())
        assert clone.to_json() == report.to_json()


class TestSarif:
    def test_sarif_2_1_0_shape(self):
        report = run_fixture("shared_state_pkg")
        doc = to_sarif(report, ANALYZER_VERSION, registry=default_registry())
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert driver["version"] == ANALYZER_VERSION
        rule_ids = [r["id"] for r in driver["rules"]]
        assert "lockset-race" in rule_ids
        assert rule_ids == sorted(rule_ids)

        results = run["results"]
        assert len(results) == len(report.violations)
        for res in results:
            assert res["ruleId"] in rule_ids
            assert res["level"] == "error"
            assert res["message"]["text"]
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"].endswith(".py")
            assert loc["region"]["startLine"] > 0
            fp = res["partialFingerprints"]["reproLintFingerprint/v1"]
            assert len(fp) == 64

    def test_sarif_marks_baselined_results_as_suppressed(self, tmp_path):
        work = _copy_fixture(tmp_path, "shared_state_pkg")
        report = run_analysis(
            work / "src" / "shared_state_pkg", "shared_state_pkg",
            work / "leakage_spec.json",
        )
        baseline = tmp_path / "baseline.json"
        save_baseline(baseline, report.violations)
        suppressed = run_analysis(
            work / "src" / "shared_state_pkg", "shared_state_pkg",
            work / "leakage_spec.json", baseline=baseline,
        )
        doc = to_sarif(suppressed, ANALYZER_VERSION)
        for res in doc["runs"][0]["results"]:
            assert res["level"] == "note"
            assert res["suppressions"][0]["kind"] == "external"

    def test_sarif_json_serializes(self):
        report = run_fixture("clean_pkg")
        from repro.analysis.sarif import to_sarif_json

        doc = json.loads(to_sarif_json(report, ANALYZER_VERSION))
        assert doc["runs"][0]["results"] == []


class TestBaseline:
    def test_baseline_suppresses_known_and_flags_new(self, tmp_path):
        work = _copy_fixture(tmp_path, "shared_state_pkg")

        def run(**kwargs):
            return run_analysis(
                work / "src" / "shared_state_pkg", "shared_state_pkg",
                work / "leakage_spec.json", **kwargs,
            )

        first = run()
        assert first.exit_code == 1
        baseline = tmp_path / "baseline.json"
        save_baseline(baseline, first.violations)

        # All current findings baselined: the run goes green.
        second = run(baseline=baseline)
        assert second.exit_code == 0
        assert len(second.violations) == len(first.violations)
        assert all(v.baselined for v in second.violations)

        # Introduce one NEW unguarded shared container; only its
        # fingerprint is active.
        server = work / "src" / "shared_state_pkg" / "server.py"
        server.write_text(
            server.read_text()
            + "\n\nSESSIONS = {}\n\n\ndef bulk_load(rows) -> None:\n"
            "    for key, value in rows:\n"
            "        SESSIONS[key] = value\n"
        )
        spec = json.loads((work / "leakage_spec.json").read_text())
        spec["concurrency"]["entry_points"].append(
            "shared_state_pkg.server.bulk_load"
        )
        (work / "leakage_spec.json").write_text(json.dumps(spec))

        third = run(baseline=baseline)
        active = third.active_violations
        assert len(active) == 1
        assert active[0].function == "shared_state_pkg.server.bulk_load"
        old_fps = set(load_baseline(baseline))
        assert active[0].fingerprint not in old_fps

    def test_key_hygiene_is_never_baselined(self, tmp_path):
        report = run_fixture("bad_key_pkg")
        key_viols = [v for v in report.violations if v.rule == "key-hygiene"]
        assert key_viols
        baseline = tmp_path / "baseline.json"
        save_baseline(baseline, report.violations)
        rerun = run_analysis(
            FIXTURES / "bad_key_pkg" / "src" / "bad_key_pkg", "bad_key_pkg",
            FIXTURES / "bad_key_pkg" / "leakage_spec.json", baseline=baseline,
        )
        assert any(
            not v.baselined for v in rerun.violations if v.rule == "key-hygiene"
        )
        assert rerun.exit_code == 1

    def test_malformed_baseline_is_an_input_error(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99}')
        with pytest.raises(AnalysisError):
            load_baseline(bad)


class TestCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert f"repro-lint {ANALYZER_VERSION}" in out

    def test_jobs_one_runs_serial(self, tmp_path, capsys):
        work = _copy_fixture(tmp_path, "clean_pkg")
        rc = lint_main(
            ["--spec", str(work / "leakage_spec.json"), "--jobs", "1",
             "--no-cache"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out
        assert "cold run" in captured.err

    def test_negative_jobs_rejected(self, capsys):
        rc = lint_main(["--jobs", "-1"])
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err

    def test_update_baseline_requires_baseline(self, capsys):
        rc = lint_main(["--update-baseline"])
        assert rc == 2
        assert "--baseline" in capsys.readouterr().err

    def test_update_baseline_then_green(self, tmp_path, capsys):
        work = _copy_fixture(tmp_path, "shared_state_pkg")
        spec = str(work / "leakage_spec.json")
        baseline = str(tmp_path / "baseline.json")
        assert lint_main(["--spec", spec, "--no-cache"]) == 1
        rc = lint_main(
            ["--spec", spec, "--no-cache", "--baseline", baseline,
             "--update-baseline"]
        )
        assert rc == 0
        capsys.readouterr()
        rc = lint_main(
            ["--spec", spec, "--no-cache", "--baseline", baseline]
        )
        assert rc == 0
        assert "baselined (suppressed)" in capsys.readouterr().out

    def test_cli_populates_cache_dir_next_to_spec(self, tmp_path):
        work = _copy_fixture(tmp_path, "clean_pkg")
        rc = lint_main(["--spec", str(work / "leakage_spec.json")])
        assert rc == 0
        assert (work / ".repro-lint-cache").is_dir()

    def test_sarif_format(self, tmp_path, capsys):
        work = _copy_fixture(tmp_path, "clean_pkg")
        rc = lint_main(
            ["--spec", str(work / "leakage_spec.json"), "--no-cache",
             "--format", "sarif"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"


class TestFindDefaultRoot:
    def test_requires_both_spec_and_src(self, tmp_path, monkeypatch):
        # Spec alone is not enough...
        (tmp_path / "leakage_spec.json").write_text("{}")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        monkeypatch.chdir(nested)
        assert _find_default_root() is None
        # ...until a src/ tree sits beside it.
        (tmp_path / "src").mkdir()
        assert _find_default_root() == tmp_path

    def test_src_alone_is_not_enough(self, tmp_path, monkeypatch):
        (tmp_path / "src").mkdir()
        monkeypatch.chdir(tmp_path)
        assert _find_default_root() is None
