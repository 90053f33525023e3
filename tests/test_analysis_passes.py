"""Tests for the lint-pass registry, the crypto pass and the lockset pass
on the ``shared_state_pkg`` fixture."""

from pathlib import Path

from repro.analysis import default_registry, load_spec, run_analysis

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def run_fixture(name):
    root = FIXTURES / name
    return run_analysis(root / "src" / name, name, root / "leakage_spec.json")


class TestPassRegistry:
    def test_default_registry_contents(self):
        registry = default_registry()
        names = [p.name for p in registry.passes()]
        assert names == [
            "undocumented-flows",
            "key-hygiene",
            "secure-deletion",
            "crypto-misuse",
            "protocol",
            "lockset",
            "volume-flows",
            "durability-ordering",
        ]

    def test_rule_table_is_sorted_and_complete(self):
        rules = default_registry().rules()
        ids = [m.id for m in rules]
        assert ids == sorted(ids)
        assert set(ids) == {
            "undocumented-flow",
            "key-hygiene",
            "secure-deletion",
            "crypto-nonce-reuse",
            "crypto-key-display",
            "crypto-det-misuse",
            "protocol-leak",
            "protocol-exception-leak",
            "protocol-dirty-unpin",
            "protocol-unguarded-mutation",
            "protocol-undeclared-free",
            "lockset-race",
            "volume-undeclared-flow",
            "durability-unlogged-mutation",
            "durability-unflushed-commit",
            "durability-append-after-flush",
        }
        for meta in rules:
            assert meta.name and meta.short_description

    def test_duplicate_pass_rejected(self):
        registry = default_registry()
        existing = registry.passes()[0]
        try:
            registry.register(existing)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("duplicate registration must raise")


class TestCryptoNonceReuse:
    def test_flags_repeated_constant_nonce(self):
        report = run_fixture("nonce_reuse_pkg")
        assert report.exit_code == 1
        rules = [v.rule for v in report.violations]
        assert rules == ["crypto-nonce-reuse"]
        (violation,) = report.violations
        # Both offending call sites appear in the message; the fresh-nonce
        # call site does not.
        assert "encrypt_row" in violation.message
        assert "encrypt_index" in violation.message
        assert "encrypt_fresh" not in violation.message
        assert violation.key.endswith(":nonce:b'fixed-nonce-0000'")
        assert violation.path == "src/nonce_reuse_pkg/app.py"

    def test_pass_disabled_without_crypto_policy(self):
        # clean_pkg has no crypto_policy section: the pass must not run.
        report = run_fixture("clean_pkg")
        assert not [
            v for v in report.violations if v.rule.startswith("crypto-")
        ]


class TestCryptoKeyDisplay:
    def test_flags_fstring_and_logging(self):
        report = run_fixture("key_log_pkg")
        assert report.exit_code == 1
        by_key = {v.key: v for v in report.violations}
        assert set(by_key) == {"f-string:key", ".info():key"}
        assert by_key["f-string:key"].function == "key_log_pkg.app.debug_banner"
        assert by_key[".info():key"].function == "key_log_pkg.app.startup"
        # The non-key f-string in safe_banner stays quiet.
        assert all("safe_banner" not in v.function for v in report.violations)

    def test_allowlist_prefix_silences(self, tmp_path):
        import json
        import shutil

        root = FIXTURES / "key_log_pkg"
        work = tmp_path / "key_log_pkg"
        shutil.copytree(root, work)
        spec = json.loads((work / "leakage_spec.json").read_text())
        spec["crypto_policy"]["key_display_allowed_in"] = ["key_log_pkg.app"]
        (work / "leakage_spec.json").write_text(json.dumps(spec))
        report = run_analysis(
            work / "src" / "key_log_pkg", "key_log_pkg",
            work / "leakage_spec.json",
        )
        assert report.exit_code == 0


class TestCryptoDetMisuse:
    def test_repo_spec_confines_det(self):
        spec = load_spec(
            Path(__file__).resolve().parents[1] / "leakage_spec.json"
        )
        assert spec.crypto_policy is not None
        assert "det_ciphertext" in spec.crypto_policy.det_taints
        assert spec.crypto_policy.det_allowed_in

    def test_flags_det_outside_allowed_prefixes(self, tmp_path):
        import json
        import shutil

        # Shrink the nonce fixture into a DET-misuse one: declare the
        # encrypt method a det source and allow it nowhere.
        root = FIXTURES / "nonce_reuse_pkg"
        work = tmp_path / "nonce_reuse_pkg"
        shutil.copytree(root, work)
        spec = json.loads((work / "leakage_spec.json").read_text())
        spec["taints"]["det_ciphertext"] = "deterministic ciphertext"
        spec["sources"].append(
            {
                "callable": "nonce_reuse_pkg.app.StreamCipher.encrypt",
                "taint": "det_ciphertext",
                "via": "return",
            }
        )
        spec["crypto_policy"]["det_taints"] = ["det_ciphertext"]
        spec["crypto_policy"]["det_allowed_in"] = ["nonce_reuse_pkg.allowed"]
        (work / "leakage_spec.json").write_text(json.dumps(spec))
        report = run_analysis(
            work / "src" / "nonce_reuse_pkg", "nonce_reuse_pkg",
            work / "leakage_spec.json",
        )
        det = [v for v in report.violations if v.rule == "crypto-det-misuse"]
        assert det
        assert all(
            v.key == "nonce_reuse_pkg.app.StreamCipher.encrypt" for v in det
        )


class TestSharedState:
    def test_flags_unguarded_writes_only(self):
        report = run_fixture("shared_state_pkg")
        assert report.exit_code == 1
        # One race per container, reported at its first writer. The direct
        # write and the helper reached through the call graph hold no lock,
        # so the locked write in handle_safe cannot make a common lockset;
        # the maintenance() writer is unreachable and stays out of it.
        (v,) = report.violations
        assert v.rule == "lockset-race"
        assert v.key == "shared_state_pkg.state.CACHE"
        assert v.function == "shared_state_pkg.server.Server.handle"
        assert "shared_state_pkg.state._record" in v.message
        assert "maintenance" not in v.message

    def test_pass_disabled_without_concurrency_section(self):
        report = run_fixture("clean_pkg")
        assert not [v for v in report.violations if v.rule == "lockset-race"]


class TestFingerprints:
    def test_fingerprints_are_stable_identity_hashes(self):
        report1 = run_fixture("shared_state_pkg")
        report2 = run_fixture("shared_state_pkg")
        fp1 = sorted(v.fingerprint for v in report1.violations)
        fp2 = sorted(v.fingerprint for v in report2.violations)
        assert fp1 == fp2
        assert all(len(fp) == 64 for fp in fp1)

    def test_fingerprint_survives_line_drift(self, tmp_path):
        import shutil

        root = FIXTURES / "shared_state_pkg"
        work = tmp_path / "shared_state_pkg"
        shutil.copytree(root, work)
        before = run_analysis(
            work / "src" / "shared_state_pkg", "shared_state_pkg",
            work / "leakage_spec.json",
        )
        # Prepend comment lines: every finding's line number moves, but
        # fingerprints (rule + path + function + key) must not.
        app = work / "src" / "shared_state_pkg" / "server.py"
        app.write_text("# drift\n# drift\n# drift\n" + app.read_text())
        after = run_analysis(
            work / "src" / "shared_state_pkg", "shared_state_pkg",
            work / "leakage_spec.json",
        )
        assert sorted(v.fingerprint for v in before.violations) == sorted(
            v.fingerprint for v in after.violations
        )
        assert sorted(v.line for v in before.violations) != sorted(
            v.line for v in after.violations
        )
