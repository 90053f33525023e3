"""Tests for the resource-protocol (typestate) and lockset passes.

Fixture contract:

- ``protocol_bad_pkg`` seeds exactly one function per protocol rule;
- ``protocol_good_pkg`` holds the correct idioms (guarded pin, dirty
  release, both-path transaction, declared free, acquire-by-return
  wrapper) and must come back with zero violations and zero baseline
  entries;
- ``lockset_bad_pkg`` is lexically guarded everywhere but uses two
  different locks — the candidate-lockset intersection is empty;
- ``lockset_good_pkg`` exercises held-at-entry propagation (a helper
  written only under the caller's lock) and may-happen-in-parallel
  pruning (an unlocked writer declared as a serial entry role).
"""

import json
import shutil
import textwrap
from pathlib import Path

from repro.analysis import run_analysis
from repro.analysis.cli import main as cli_main
from repro.analysis.fingerprint import render_baseline

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).resolve().parents[1]


def run_fixture(name, **kwargs):
    root = FIXTURES / name
    return run_analysis(
        root / "src" / name, name, root / "leakage_spec.json", **kwargs
    )


class TestProtocolPass:
    def test_bad_fixture_flags_every_rule(self):
        report = run_fixture("protocol_bad_pkg")
        assert report.exit_code == 1
        by_rule = {}
        for v in report.violations:
            by_rule.setdefault(v.rule, []).append(v)
        assert sorted(by_rule) == [
            "protocol-dirty-unpin",
            "protocol-exception-leak",
            "protocol-leak",
            "protocol-undeclared-free",
            "protocol-unguarded-mutation",
        ]
        def fn(rule):
            return {v.function.rsplit(".", 1)[1] for v in by_rule[rule]}

        assert fn("protocol-leak") == {"pin_leak_normal"}
        assert fn("protocol-exception-leak") == {
            "pin_leak_on_exception",
            "missing_abort",
        }
        assert fn("protocol-dirty-unpin") == {"dirty_without_mark"}
        assert fn("protocol-unguarded-mutation") == {"mutate_after_commit"}
        assert fn("protocol-undeclared-free") == {"undeclared_free"}

    def test_exception_leak_names_the_trigger(self):
        report = run_fixture("protocol_bad_pkg")
        leak = next(
            v
            for v in report.violations
            if v.function.endswith("pin_leak_on_exception")
        )
        assert "decode" in v_msg(leak)
        assert "propagates" in v_msg(leak)

    def test_txn_uncaught_paths_are_not_leaks(self):
        # leak_on_uncaught=false for txn: only the *caught-and-swallowed*
        # path in missing_abort flags, never the propagating one (the
        # engine rolls back on error, the caller never sees the txn).
        report = run_fixture("protocol_bad_pkg")
        txn_leaks = [
            v
            for v in report.violations
            if v.rule == "protocol-exception-leak" and v.key.startswith("txn|")
        ]
        assert len(txn_leaks) == 1
        assert "|caught|" in txn_leaks[0].key

    def test_good_fixture_is_clean_with_zero_baseline_entries(self):
        report = run_fixture("protocol_good_pkg")
        assert report.exit_code == 0
        assert report.violations == []
        baseline = json.loads(render_baseline(report.violations))
        assert baseline["fingerprints"] == {}

    def test_undeclared_free_cannot_be_baselined(self):
        report = run_fixture("protocol_bad_pkg")
        baseline = json.loads(render_baseline(report.violations))
        free = [
            v for v in report.violations if v.rule == "protocol-undeclared-free"
        ]
        assert free  # the finding exists ...
        recorded_rules = {
            entry["rule"] for entry in baseline["fingerprints"].values()
        }
        assert "protocol-undeclared-free" not in recorded_rules
        assert len(baseline["fingerprints"]) == len(report.violations) - len(
            free
        )  # ... but a baseline refuses to record it


class TestLocksetPass:
    def test_bad_fixture_two_locks_one_race(self):
        report = run_fixture("lockset_bad_pkg")
        assert report.exit_code == 1
        assert [v.rule for v in report.violations] == ["lockset-race"]
        (v,) = report.violations
        assert v.key == "lockset_bad_pkg.state.REGISTRY"

    def test_good_fixture_no_false_positives(self):
        report = run_fixture("lockset_good_pkg")
        assert report.exit_code == 0
        assert report.violations == []


class TestFactsIncrementalCache:
    def _copy(self, tmp_path, name):
        work = tmp_path / name
        shutil.copytree(FIXTURES / name, work)
        return work

    def _run(self, work, name, **kwargs):
        return run_analysis(
            work / "src" / name, name, work / "leakage_spec.json", **kwargs
        )

    def test_one_module_edit_reextracts_only_its_facts(self, tmp_path):
        work = self._copy(tmp_path, "protocol_good_pkg")
        cache = tmp_path / "cache"
        cold = self._run(work, "protocol_good_pkg", cache_dir=cache)
        assert cold.cache_stats["mode"] == "cold"
        assert (
            cold.cache_stats["facts_reextracted"]
            == cold.cache_stats["functions_total"]
        )

        warm = self._run(work, "protocol_good_pkg", cache_dir=cache)
        assert warm.cache_stats["mode"] == "warm-full"
        assert warm.cache_stats["facts_reextracted"] == 0

        # Additive edit to ops.py (imports pool.py, nothing imports it):
        # only the ops cone re-extracts protocol summaries.
        ops = work / "src" / "protocol_good_pkg" / "ops.py"
        ops.write_text(
            ops.read_text()
            + textwrap.dedent(
                """

                def edit_probe(pool: Pool) -> None:
                    h = pool.acquire(6)
                    pool.release(h)
                """
            )
        )
        edited = self._run(work, "protocol_good_pkg", cache_dir=cache)
        stats = edited.cache_stats
        assert stats["mode"] == "warm-incremental"
        assert 0 < stats["facts_reextracted"] < stats["functions_total"]
        assert edited.violations == []

        # Byte-identical to a from-scratch run over the edited tree.
        fresh = self._run(work, "protocol_good_pkg")
        assert edited.to_json() == fresh.to_json()

    def test_edit_introducing_leak_is_caught_warm(self, tmp_path):
        work = self._copy(tmp_path, "protocol_good_pkg")
        cache = tmp_path / "cache"
        self._run(work, "protocol_good_pkg", cache_dir=cache)
        ops = work / "src" / "protocol_good_pkg" / "ops.py"
        ops.write_text(
            ops.read_text()
            + textwrap.dedent(
                """

                def leaky_probe(pool: Pool, flag: bool) -> None:
                    h = pool.acquire(7)
                    if flag:
                        pool.release(h)
                """
            )
        )
        warm = self._run(work, "protocol_good_pkg", cache_dir=cache)
        assert warm.cache_stats["mode"] == "warm-incremental"
        assert [v.rule for v in warm.violations] == ["protocol-leak"]
        assert warm.violations[0].function.endswith("leaky_probe")


class TestRealTree:
    def test_src_tree_is_protocol_and_lockset_clean(self):
        report = run_analysis(
            REPO_ROOT / "src" / "repro",
            "repro",
            REPO_ROOT / "leakage_spec.json",
        )
        gated = [
            v
            for v in report.violations
            if v.rule.startswith("protocol-") or v.rule == "lockset-race"
        ]
        assert gated == []


class TestDurabilityRealEngine:
    """The durability gate still sees the engine's one row-change append."""

    def _copy_tree(self, tmp_path):
        shutil.copytree(REPO_ROOT / "src" / "repro", tmp_path / "repro")
        shutil.copy(REPO_ROOT / "leakage_spec.json", tmp_path / "leakage_spec.json")
        return tmp_path / "repro" / "engine" / "engine.py"

    def _unlogged(self, tmp_path):
        report = run_analysis(
            tmp_path / "repro", "repro", tmp_path / "leakage_spec.json"
        )
        return sorted(
            v.function
            for v in report.violations
            if v.rule == "durability-unlogged-mutation"
        )

    def test_removing_the_append_from_insert_fires(self, tmp_path):
        engine_py = self._copy_tree(tmp_path)
        source = engine_py.read_text()
        # UPDATE and DELETE make the same append; cut only INSERT's.
        start = source.index("    def insert(")
        end = source.index("    def update(")
        logged = "self.wal.append_row_change(table, undo, redo)"
        insert = source[start:end]
        assert insert.count(logged) == 1
        engine_py.write_text(
            source[:start] + insert.replace(logged, "self.lsn.current") + source[end:]
        )
        assert self._unlogged(tmp_path) == ["repro.engine.engine.StorageEngine.insert"]


class TestExplainCli:
    def test_explain_known_rule(self, capsys):
        assert cli_main(["--explain", "protocol-dirty-unpin"]) == 0
        out = capsys.readouterr().out
        assert "protocol-dirty-unpin" in out
        assert "resource_protocols" in out
        assert "E2" in out

    def test_explain_preexisting_rule_has_metadata(self, capsys):
        assert cli_main(["--explain", "lockset-race"]) == 0
        out = capsys.readouterr().out
        assert "concurrency" in out
        assert "example:" in out

    def test_explain_unknown_rule_lists_known_ids(self, capsys):
        assert cli_main(["--explain", "no-such-rule"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err
        assert "protocol-leak" in err


def v_msg(violation):
    return violation.message
