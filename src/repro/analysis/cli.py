"""``repro-lint``: command-line front-end for the leakage analyzer.

Exit codes: 0 — clean (every flow documented, lints quiet); 1 — violations
(undocumented flow, key-hygiene, secure-deletion, crypto-misuse, protocol,
lockset, volume, durability); 2 — usage or input error (missing spec,
unparseable source, malformed spec or baseline).

Caching: the CLI enables the incremental cache by default, at
``.repro-lint-cache/`` next to the spec (``--cache-dir`` moves it,
``--no-cache`` disables it). Library callers of
:func:`repro.analysis.run_analysis` get no cache unless they opt in.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from ..errors import AnalysisError
from . import __version__, run_analysis
from .cache import DEFAULT_CACHE_DIRNAME


def _find_default_root() -> Optional[Path]:
    """Walk up from cwd to a directory holding leakage_spec.json + src/."""
    current = Path.cwd()
    for candidate in (current, *current.parents):
        if (candidate / "leakage_spec.json").is_file() and (
            candidate / "src"
        ).is_dir():
            return candidate
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static plaintext-taint analysis: propagates leakage-spec "
            "sources to sinks across the package and fails on any flow the "
            "spec does not document."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro-lint {__version__}",
    )
    parser.add_argument(
        "--spec",
        help="leakage spec path (default: leakage_spec.json found upward "
        "from the current directory, next to a src/ tree)",
    )
    parser.add_argument(
        "--package-dir",
        help="directory of the package to analyze (default: src/<package> "
        "next to the spec)",
    )
    parser.add_argument(
        "--package",
        help="import name of the analyzed package (default: from the spec)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="parse workers on cold runs: N>1 process pool, 1 serial "
        "(deterministic CI debugging), 0 auto (default)",
    )
    parser.add_argument(
        "--cache-dir",
        help="incremental-cache directory (default: "
        f"{DEFAULT_CACHE_DIRNAME}/ next to the spec)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache (always run cold)",
    )
    parser.add_argument(
        "--baseline",
        help="baseline file of known violation fingerprints; only NEW "
        "fingerprints fail the run",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file with the current findings and "
        "exit 0",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print the rule's description, spec section, paper experiments "
        "and an example, then exit (no analysis run)",
    )
    return parser


def _explain_rule(rule_id: str) -> int:
    """Print reference material for one rule id; exit 0, or 2 if unknown."""
    from .passes import default_registry

    rules = {meta.id: meta for meta in default_registry().rules()}
    meta = rules.get(rule_id)
    if meta is None:
        print(f"repro-lint: unknown rule: {rule_id}", file=sys.stderr)
        print(
            "repro-lint: known rules: " + ", ".join(sorted(rules)),
            file=sys.stderr,
        )
        return 2
    print(f"{meta.id} ({meta.name})")
    print(f"  {meta.short_description}")
    if meta.spec_section:
        print(f"  spec section: {meta.spec_section}")
    if meta.experiments:
        print(f"  paper experiments: {', '.join(meta.experiments)}")
    if meta.example:
        print("  example:")
        for line in meta.example.splitlines():
            print(f"    {line}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.explain:
        # Rule metadata is static registry state: no spec or tree needed.
        return _explain_rule(args.explain)
    if args.update_baseline and not args.baseline:
        print(
            "repro-lint: --update-baseline requires --baseline <path>",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 0:
        print("repro-lint: --jobs must be >= 0", file=sys.stderr)
        return 2
    try:
        if args.spec:
            spec_path = Path(args.spec)
        else:
            root = _find_default_root()
            if root is None:
                print(
                    "repro-lint: no --spec given and no leakage_spec.json "
                    "(with a src/ tree beside it) found upward from the "
                    "current directory",
                    file=sys.stderr,
                )
                return 2
            spec_path = root / "leakage_spec.json"
        if not spec_path.is_file():
            print(f"repro-lint: spec not found: {spec_path}", file=sys.stderr)
            return 2

        # The package name lives in the spec; peek at it for defaults.
        from .spec import load_spec

        package = args.package or load_spec(spec_path).package
        if args.package_dir:
            package_dir = Path(args.package_dir)
        else:
            package_dir = spec_path.parent / "src" / package

        if args.no_cache:
            cache_dir = None
        elif args.cache_dir:
            cache_dir = Path(args.cache_dir)
        else:
            cache_dir = spec_path.parent / DEFAULT_CACHE_DIRNAME

        baseline = args.baseline if not args.update_baseline else None
        report = run_analysis(
            package_dir,
            package,
            spec_path,
            cache_dir=cache_dir,
            jobs=args.jobs,
            baseline=baseline,
        )
    except AnalysisError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    stats = report.cache_stats
    if stats:
        print(
            "repro-lint: {mode} run, {fr}/{ft} functions analyzed "
            "({md}/{mt} modules dirty)".format(
                mode=stats.get("mode", "cold"),
                fr=stats.get("functions_reanalyzed", "?"),
                ft=stats.get("functions_total", "?"),
                md=stats.get("modules_dirty", "?"),
                mt=stats.get("modules_total", "?"),
            ),
            file=sys.stderr,
        )

    if args.update_baseline:
        from .fingerprint import save_baseline

        save_baseline(args.baseline, report.violations)
        print(
            f"repro-lint: baseline updated: {args.baseline} "
            f"({len(report.violations)} finding(s) recorded)",
            file=sys.stderr,
        )
        return 0

    rc = report.exit_code

    # Registry ↔ spec surface gate: only when the spec opts in by
    # declaring snapshot_artifacts. Import failures while building the
    # registry are input errors, like an unparseable spec.
    if report.spec.snapshot_artifacts:
        try:
            from .registry_gate import registry_spec_problems

            problems = registry_spec_problems(report.spec)
        except Exception as exc:  # registry import/build failure
            print(f"repro-lint: registry gate failed: {exc}", file=sys.stderr)
            return 2
        if problems:
            for problem in problems:
                print(f"repro-lint: {problem}", file=sys.stderr)
            rc = max(rc, 1)

    # With a volume_surface section, every run regenerates the committed
    # per-sink volume map the E14+ attack suite consumes. The output is
    # deterministic (sorted keys, no timestamps), so CI can fail when the
    # committed file is stale relative to a fresh run.
    if report.spec.volume_surface is not None:
        import json as _json

        from .passes import build_volume_surface

        surface = build_volume_surface(report.spec, report.flows)
        surface_path = spec_path.parent / "volume_surface.json"
        payload = _json.dumps(surface, indent=2, sort_keys=True) + "\n"
        if (
            not surface_path.exists()
            or surface_path.read_text(encoding="utf-8") != payload
        ):
            surface_path.write_text(payload, encoding="utf-8")
        print(
            f"repro-lint: volume surface: {surface_path} "
            f"({len(surface['sinks'])} sink(s))",
            file=sys.stderr,
        )

    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        from .sarif import to_sarif_json

        print(to_sarif_json(report, __version__))
    else:
        print(report.to_text())
    return rc


if __name__ == "__main__":
    sys.exit(main())
