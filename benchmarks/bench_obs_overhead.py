"""Observability overhead: the tracing layer must be ~free when disabled.

The instrumentation argument for shipping diagnostics in production systems
is that their cost is negligible — which is exactly why they are always on,
and why the paper finds them populated in every snapshot (§5). This
benchmark quantifies our layer's cost on the E7 SSE workload (the heaviest
end-to-end pipeline: hundreds of INSERTs plus searches through the full SQL
path) in three configurations:

* ``baseline``  — default ``ServerConfig()`` (obs fields untouched),
* ``disabled``  — ``obs_enabled=False`` passed explicitly (same code path
  as baseline; the delta between the two is the timing noise floor),
* ``enabled``   — full span tracing + metrics.

Acceptance: enabled overhead < 20%; disabled indistinguishable from
baseline (within the measured noise floor).
"""

from __future__ import annotations

import time

from repro.experiments.e07_sse_count import run_sse_count_attack
from repro.server import ServerConfig

#: E7 workload scale for timing (full default scale is slow under repeats).
_WORKLOAD = dict(num_documents=150, vocabulary_size=80, top_k=40, num_searches=12)
_REPEATS = 25  # the workload is ~60ms; best-of-9 still swung ±8 points under load

#: Enabled-mode overhead budget (fraction of baseline). Recalibrated when
#: the statement path got ~2.3x faster (regex lexer, slotted tokens,
#: incremental leaf-decode cache): the obs layer's absolute cost is
#: unchanged at ~25us/statement (~6 spans), but against the faster
#: baseline that reads as ~8-10% instead of ~4%. The bound is a tripwire
#: against accidental superlinear work in the obs layer, so it sits well
#: above the measured steady state without hiding a 2x regression.
MAX_ENABLED_OVERHEAD = 0.20

#: Disabled mode runs the identical code path as baseline, so any measured
#: difference is noise; the workload is only ~60ms of wall time, and
#: best-of-25 interleaved timings still drift several points under
#: container load.
MAX_DISABLED_DELTA = 0.10


def _run_once(config) -> float:
    start = time.perf_counter()
    run_sse_count_attack(seed=3, config=config, **_WORKLOAD)
    return time.perf_counter() - start


def _time_workloads(configs) -> tuple:
    """Best-of-N wall time per config, interleaved round-robin.

    Interleaving spreads clock-frequency and cache drift evenly across the
    configs; taking the min damps scheduler noise. Also returns every
    per-run sample so the JSON records carry p50/p99.
    """
    for config in configs:  # warm-up round, untimed
        _run_once(config)
    samples = [[] for _ in configs]
    for _ in range(_REPEATS):
        for i, config in enumerate(configs):
            samples[i].append(_run_once(config))
    return [min(s) for s in samples], samples


def test_obs_overhead(report, bench_json):
    (baseline, disabled, enabled), samples = _time_workloads(
        [None, ServerConfig(obs_enabled=False), ServerConfig(obs_enabled=True)]
    )

    disabled_delta = disabled / baseline - 1.0
    enabled_overhead = enabled / baseline - 1.0

    for record, best, runs in (
        ("e7_workload_baseline", baseline, samples[0]),
        ("e7_workload_obs_disabled", disabled, samples[1]),
        ("e7_workload_obs_enabled", enabled, samples[2]),
    ):
        bench_json("obs", record, ops_per_sec=1.0 / best, latencies=runs)

    report(
        "obs_overhead",
        [
            "E7 SSE workload wall time (best of "
            f"{_REPEATS}, {_WORKLOAD['num_documents']} docs)",
            "",
            f"{'config':<12} {'seconds':>9} {'vs baseline':>12}",
            f"{'baseline':<12} {baseline:>9.4f} {'--':>12}",
            f"{'disabled':<12} {disabled:>9.4f} {disabled_delta:>+11.1%}",
            f"{'enabled':<12} {enabled:>9.4f} {enabled_overhead:>+11.1%}",
            "",
            f"budget: enabled < {MAX_ENABLED_OVERHEAD:.0%} overhead, "
            f"disabled within {MAX_DISABLED_DELTA:.0%} noise floor",
        ],
    )

    assert abs(disabled_delta) < MAX_DISABLED_DELTA, (
        f"disabled-mode delta {disabled_delta:+.1%} exceeds noise bound "
        f"(it shares baseline's code path)"
    )
    assert enabled_overhead < MAX_ENABLED_OVERHEAD, (
        f"enabled-mode overhead {enabled_overhead:+.1%} exceeds "
        f"{MAX_ENABLED_OVERHEAD:.0%} budget"
    )
