"""Integration tests for the benchmark harness at reduced scale."""

import pytest

from repro.bench.costmodel import expected_growth_rate, fit, prediction_errors
from repro.bench.enhancements import run_enhancements
from repro.bench.nonuniform import run_nonuniform
from repro.bench.queries import ALL_QUERY_IDS, benchmark_queries
from repro.bench.runner import BenchmarkRun, measure_suite, run_suite
from repro.bench.workload import (
    WorkloadConfig,
    all_configs,
    build_database,
)
from repro.catalog.schema import DatabaseType

SMALL = dict(tuples=64, seed=7)


def config(db_type=DatabaseType.TEMPORAL, loading=100, **kw):
    return WorkloadConfig(db_type=db_type, loading=loading, **SMALL | kw)


class TestWorkload:
    def test_eight_configurations(self):
        configs = all_configs(tuples=64)
        assert len(configs) == 8
        assert len({c.label for c in configs}) == 8

    def test_build_loads_both_relations(self):
        bench = build_database(config())
        assert bench.h.row_count == 64
        assert bench.i.row_count == 64

    def test_probe_amounts_present(self):
        bench = build_database(config())
        assert 69400 in bench.h_amounts.values()
        assert 73700 in bench.i_amounts.values()

    def test_amounts_unique_and_disjoint_from_ids(self):
        bench = build_database(config())
        values = list(bench.h_amounts.values())
        assert len(set(values)) == len(values)
        assert all(v > 1024 for v in values)

    def test_asof_qualifiers_pinned(self):
        from repro.temporal.parse import parse_temporal

        bench = build_database(config())
        threshold = parse_temporal("4:00 1/1/80")
        early = [
            row
            for row in bench.db.copy_out(bench.h_name)
            if row[4] < threshold
        ]
        assert len(early) == bench.config.asof_qualifiers

    def test_deterministic_given_seed(self):
        a = build_database(config())
        b = build_database(config())
        assert a.db.copy_out(a.h_name) == b.db.copy_out(b.h_name)

    def test_different_seeds_differ(self):
        a = build_database(config())
        b = build_database(config(seed=8))
        assert a.db.copy_out(a.h_name) != b.db.copy_out(b.h_name)

    def test_static_rows_are_user_width(self):
        bench = build_database(config(db_type=DatabaseType.STATIC))
        assert len(bench.db.copy_out(bench.h_name)[0]) == 4


class TestQueries:
    def test_temporal_has_all_twelve(self):
        texts = benchmark_queries(config())
        assert all(texts[q] is not None for q in ALL_QUERY_IDS)

    def test_static_drops_temporal_queries(self):
        texts = benchmark_queries(config(db_type=DatabaseType.STATIC))
        for query_id in ("Q03", "Q04", "Q11", "Q12"):
            assert texts[query_id] is None
        assert "when" not in texts["Q05"]

    def test_rollback_substitutes_as_of(self):
        texts = benchmark_queries(config(db_type=DatabaseType.ROLLBACK))
        assert 'as of "now"' in texts["Q05"]
        assert "when" not in texts["Q05"]

    def test_historical_keeps_when(self):
        texts = benchmark_queries(config(db_type=DatabaseType.HISTORICAL))
        assert 'overlap "now"' in texts["Q05"]
        assert texts["Q03"] is None

    def test_two_level_variant_anchors_both_join_vars(self):
        texts = benchmark_queries(config(), two_level=True)
        assert texts["Q09"].count('overlap "now"') == 2


class TestRunner:
    @pytest.fixture(scope="class")
    def sweep(self):
        return BenchmarkRun(config(), max_update_count=3).run()

    def test_sizes_recorded_per_update_count(self, sweep):
        assert sorted(sweep.sizes) == [0, 1, 2, 3]

    def test_costs_increase_with_update_count(self, sweep):
        for query_id in ("Q01", "Q03", "Q09"):
            series = sweep.input_series(query_id)
            assert series == sorted(series)
            assert series[-1] > series[0]

    def test_static_runs_only_uc0(self):
        result = BenchmarkRun(
            config(db_type=DatabaseType.STATIC), max_update_count=3
        ).run()
        assert sorted(result.sizes) == [0]

    def test_measure_suite_skips_inapplicable(self):
        bench = build_database(config(db_type=DatabaseType.ROLLBACK))
        suite = measure_suite(bench)
        assert suite["Q11"] is None
        assert suite["Q01"] is not None

    def test_run_suite_cached(self):
        first = run_suite(tuples=64, max_update_count=1, seed=3)
        second = run_suite(tuples=64, max_update_count=1, seed=3)
        assert first is second

    def test_output_cost_constant_across_update_counts(self, sweep):
        outputs = {
            sweep.costs["Q09"][uc].output_pages for uc in sweep.costs["Q09"]
        }
        assert len(outputs) == 1

    def test_q11_builds_no_period_per_row(self, monkeypatch):
        """Temporal predicates run on chronon pairs: the number of Period
        objects Q11 builds stays fixed while the rows it scans grow."""
        from repro.bench.evolve import evolve_uniform
        from repro.bench.runner import measure_query
        from repro.temporal.interval import Period

        bench = build_database(config())
        text = benchmark_queries(bench.config)["Q11"]
        built = []
        post_init = Period.__post_init__

        def counting_post_init(period):
            built.append(period)
            post_init(period)

        monkeypatch.setattr(Period, "__post_init__", counting_post_init)
        samples = []
        for _ in range(2):
            evolve_uniform(bench, steps=2)
            built.clear()
            cost = measure_query(bench, text)
            samples.append((cost.input_pages, len(built)))
        (pages_before, periods_before), (pages_after, periods_after) = samples
        assert pages_after > pages_before
        assert periods_after == periods_before


class TestCostModel:
    @pytest.fixture(scope="class")
    def sweep(self):
        return BenchmarkRun(config(), max_update_count=4).run()

    def test_growth_rate_near_two(self, sweep):
        model = fit(sweep, "Q03")
        assert model.growth_rate == pytest.approx(2.0, rel=0.15)

    def test_expected_growth_rates(self):
        assert expected_growth_rate(DatabaseType.STATIC, 100) is None
        assert expected_growth_rate(DatabaseType.ROLLBACK, 100) == 1.0
        assert expected_growth_rate(DatabaseType.ROLLBACK, 50) == 0.5
        assert expected_growth_rate(DatabaseType.TEMPORAL, 100) == 2.0
        assert expected_growth_rate(DatabaseType.TEMPORAL, 50) == 1.0

    def test_prediction_formula_linear(self, sweep):
        # Interior points predicted within a few percent (Section 5.3).
        for update_count, measured, predicted in prediction_errors(
            sweep, "Q04"
        ):
            assert predicted == pytest.approx(measured, rel=0.05)

    def test_fixed_cost_identified_for_isam(self, sweep):
        model = fit(sweep, "Q02")
        assert model.fixed == 1  # one directory level


class TestEnhancements:
    @pytest.fixture(scope="class")
    def enh(self):
        return run_enhancements(tuples=64, update_count=3, seed=7)

    def test_all_variants_measured(self, enh):
        from repro.bench.enhancements import VARIANTS

        assert set(enh.variants) == set(VARIANTS)

    def test_twolevel_restores_uc0_cost_for_static_queries(self, enh):
        for query_id in ("Q05", "Q06", "Q07", "Q08", "Q09", "Q10"):
            assert (
                enh.variants["twolevel_simple"][query_id]
                == enh.baseline_uc0[query_id]
            )

    def test_clustering_improves_version_scan(self, enh):
        assert (
            enh.variants["twolevel_clustered"]["Q01"]
            < enh.variants["twolevel_simple"]["Q01"]
        )

    def test_hash_index_beats_heap_index(self, enh):
        assert (
            enh.variants["index_1level_hash"]["Q07"]
            < enh.variants["index_1level_heap"]["Q07"]
        )

    def test_two_level_index_beats_one_level(self, enh):
        assert (
            enh.variants["index_2level_hash"]["Q07"]
            <= enh.variants["index_1level_hash"]["Q07"]
        )

    def test_best_case_is_two_pages(self, enh):
        # 2-level hash index: 1 index page + 1 data page (Figure 10).
        assert enh.variants["index_2level_hash"]["Q07"] == 2

    def test_conventional_degrades(self, enh):
        assert (
            enh.variants["conventional"]["Q07"]
            > enh.baseline_uc0["Q07"] * 3
        )


class TestSerialization:
    def test_result_roundtrips_through_json(self):
        import json

        from repro.bench.runner import result_from_dict

        original = BenchmarkRun(config(), max_update_count=2).run()
        encoded = json.dumps(original.to_dict())
        restored = result_from_dict(json.loads(encoded))
        assert restored.config == original.config
        assert restored.sizes == original.sizes
        assert restored.costs == original.costs

    def test_restored_result_supports_analysis(self):
        from repro.bench.costmodel import fit
        from repro.bench.runner import result_from_dict

        original = BenchmarkRun(config(), max_update_count=2).run()
        restored = result_from_dict(original.to_dict())
        assert fit(restored, "Q01") == fit(original, "Q01")

    def test_validator_refuses_reduced_scale(self):
        from repro.bench.validate import validate

        results = run_suite(tuples=64, max_update_count=2, seed=3)
        with pytest.raises(ValueError):
            validate(results)


class TestNonUniform:
    def test_growth_rate_independent_of_distribution(self):
        result = run_nonuniform(
            tuples=64, max_average_update_count=2, seed=7, updated_tuple=28
        )
        for _, weighted, uniform, *__ in result.rows:
            assert weighted == pytest.approx(uniform, rel=0.15)

    def test_chain_cost_explodes_clean_cost_flat(self):
        result = run_nonuniform(
            tuples=64, max_average_update_count=2, seed=7, updated_tuple=28
        )
        (_, __, ___, chain1, clean1, ____), (
            _____, ______, _______, chain2, clean2, ________,
        ) = result.rows
        assert clean1 == clean2 == 1
        assert chain2 > chain1 > 10
