"""Integration tests for the experiment protocols (scaled-down runs).

The benchmarks run each experiment at paper fidelity; these tests run the
same code paths at small scale and assert the qualitative claims hold.
"""


import repro.experiments as E
from repro.experiments.e08_lewi_wu import run_end_to_end_token_recovery


class TestE1Surface:
    def test_matrix_matches_paper(self):
        result = E.run_attack_surface()
        assert result.matches_paper

    def test_table_rendering(self):
        result = E.run_attack_surface()
        table = result.to_table()
        assert "disk_theft" in table
        assert "X" in table


class TestE2Retention:
    def test_linear_model_predicts_window(self):
        result = E.run_log_retention(num_writes=1200, capacity_bytes=50_000)
        assert result.prediction_error < 0.05

    def test_retention_scales_with_capacity(self):
        small = E.run_log_retention(num_writes=1200, capacity_bytes=30_000)
        large = E.run_log_retention(num_writes=1200, capacity_bytes=60_000)
        ratio = (
            large.measured_retention_seconds / small.measured_retention_seconds
        )
        assert 1.7 <= ratio <= 2.3

    def test_projected_days_order_of_magnitude(self):
        # Our records are fatter than InnoDB's (~36 B/write implied by the
        # paper), so the projected window is days, not weeks - same order.
        result = E.run_log_retention(num_writes=800, capacity_bytes=40_000)
        assert 1.0 <= result.projected_days_at_paper_capacity <= 16.0

    def test_window_contents_reconstructable(self):
        result = E.run_log_retention(num_writes=500, capacity_bytes=30_000)
        assert 0 < result.reconstructed_fraction <= 1.0


class TestE3Timing:
    def test_recovers_purged_timestamps(self):
        result = E.run_binlog_timing(num_writes=200, purged_fraction=0.5)
        # "Approximate timestamps" (paper): with +/-30% interval jitter the
        # extrapolation error stays within a handful of write intervals -
        # i.e. a few minutes' error over a multi-hour purged window.
        assert result.error_in_intervals < 10.0
        span = result.num_writes * result.mean_interval_seconds
        assert result.mean_abs_error_seconds / span < 0.05

    def test_more_jitter_more_error(self):
        calm = E.run_binlog_timing(num_writes=200, jitter=0.05, seed=1)
        wild = E.run_binlog_timing(num_writes=200, jitter=0.6, seed=1)
        assert wild.mean_abs_error_seconds >= calm.mean_abs_error_seconds


class TestE4BufferPool:
    def test_last_select_path_recovered(self):
        result = E.run_buffer_pool_paths(table_rows=600, num_selects=12)
        assert result.last_select_recovered

    def test_some_recent_paths_recovered(self):
        result = E.run_buffer_pool_paths(table_rows=600, num_selects=12)
        assert result.recent_recovered >= 1
        assert result.paths_inferred >= 1


class TestE5Diagnostics:
    def test_history_window_fully_recovered(self):
        result = E.run_diagnostic_tables(victim_statements=30, history_size=10)
        assert result.verbatim_rate_of_window == 1.0

    def test_digest_histogram_exact(self):
        result = E.run_diagnostic_tables(victim_statements=30)
        assert result.digest_histogram_exact

    def test_larger_history_recovers_more(self):
        small = E.run_diagnostic_tables(victim_statements=40, history_size=5)
        large = E.run_diagnostic_tables(victim_statements=40, history_size=20)
        assert large.verbatim_recovered > small.verbatim_recovered


class TestE6Residue:
    def test_reproduces_paper_at_small_scale(self):
        result = E.run_memory_residue(scale=0.01)
        assert result.column_variant.full_query_locations >= 3
        assert result.column_variant.marker_only_locations >= 3
        assert result.where_variant.full_query_locations >= 3
        assert result.where_variant.marker_only_locations >= 3
        assert result.reproduces_paper

    def test_secure_delete_ablation_reduces_residue(self):
        leaky = E.run_memory_residue(scale=0.01, seed=5)
        sealed = E.run_memory_residue(scale=0.01, secure_delete=True, seed=5)
        assert (
            sealed.column_variant.total_marker_locations
            <= leaky.column_variant.total_marker_locations
        )


class TestE7SseCount:
    def test_unique_count_searches_fully_recovered(self):
        result = E.run_sse_count_attack(
            num_documents=300, vocabulary_size=80, top_k=40, num_searches=15
        )
        # Most tokens survive in memory; some old history blocks get reused
        # by later same-size statements, which is realistic attrition.
        assert result.tokens_carved_from_memory >= 0.8 * result.tokens_observed
        if result.unique_count_searches:
            assert result.unique_count_recovery_rate == 1.0

    def test_corpus_seed_5_fully_recovered(self):
        # Regression: on this corpus an insert overflowed a page of the old
        # in-memory storage, which surfaced as a false DuplicateKeyError.
        result = E.run_sse_count_attack(num_documents=2000, seed=5)
        assert result.unique_count_recovery_rate == 1.0

    def test_partial_documents_recovered(self):
        result = E.run_sse_count_attack(
            num_documents=300, vocabulary_size=80, top_k=40, num_searches=15
        )
        assert result.documents_with_recovered_content > 0


class TestE8LewiWu:
    def test_sweep_monotone_and_near_paper(self):
        result = E.run_lewi_wu_sweep(
            num_values=500, query_counts=(5, 25, 50), trials=30
        )
        assert result.monotone
        rows = result.rows()
        # 50-query anchor: the paper's 25% (8 bits of 32).
        anchor = [r for r in rows if r[0] == 50][0]
        assert 0.22 <= anchor[1] <= 0.28

    def test_end_to_end_token_pipeline(self):
        result = run_end_to_end_token_recovery()
        assert result.tokens_carved == 2 * result.queries_issued
        assert result.mean_bits_leaked_per_value > 0


class TestE9Seabed:
    def test_histogram_exact_and_recovery(self):
        result = E.run_seabed_splashe(num_queries=800)
        assert result.histogram_exact
        assert result.weighted_recovery_rate >= 0.5

    def test_noise_ablation_degrades(self):
        clean = E.run_seabed_splashe(num_queries=800, model_noise=0.0)
        # Rank matching is robust to mild noise, so compare to heavy noise.
        noisy = E.run_seabed_splashe(num_queries=800, model_noise=5.0, seed=3)
        assert noisy.weighted_recovery_rate <= clean.weighted_recovery_rate + 1e-9


class TestE10Arx:
    def test_transcript_fully_reconstructed(self):
        result = E.run_arx_transcript(num_values=15, num_queries=25)
        assert result.queries_reconstructed == 25
        assert result.transcript_set_accuracy == 1.0
        assert result.root_identified

    def test_ancestry_inference(self):
        result = E.run_arx_transcript(num_values=15, num_queries=40)
        assert result.ancestry_precision >= 0.8
        assert result.ancestry_recall >= 0.5

    def test_value_recovery_beats_random(self):
        result = E.run_arx_transcript(num_values=15, num_queries=40)
        # Random rank assignment has expected normalized error ~1/3.
        assert result.mean_rank_error < 0.34


class TestE11OreAux:
    def test_recovery_with_good_model(self):
        result = E.run_binomial_matching(num_rows=1500)
        assert result.matching_weighted_recovery_rate >= 0.5
        assert result.binomial_mean_correct_msbs >= 5.0

    def test_more_data_helps(self):
        small = E.run_binomial_matching(num_rows=300, seed=2)
        large = E.run_binomial_matching(num_rows=3000, seed=2)
        assert (
            large.matching_weighted_recovery_rate
            >= small.matching_weighted_recovery_rate
        )
