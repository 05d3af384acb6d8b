"""Experiment smoke tests: every figure regenerates and has sane shape."""

import pytest

from repro.bench import (TINY, experiment_hrtree, experiment_insertion,
                         experiment_interleaved, experiment_maintenance,
                         experiment_memo, experiment_physical_io,
                         experiment_skew, experiment_spartition,
                         experiment_spatial_cells, experiment_spatial_extent,
                         experiment_time_interval, experiment_wave,
                         experiment_zcurve)


class TestFigures:
    def test_fig7_fig8_rows(self):
        fig7, fig8 = experiment_insertion(TINY)
        assert len(fig7.rows) == len(TINY.dataset_objects)
        assert len(fig8.rows) == len(TINY.dataset_objects)
        for row in fig7.rows:
            assert row[2] > 0 and row[3] > 0  # both indexes did IO
        # Node accesses grow with dataset size.
        assert fig7.rows[-1][2] > fig7.rows[0][2]

    def test_fig9_rows(self):
        result = experiment_spatial_extent(TINY)
        assert [row[0] for row in result.rows] == ["0.5%", "1%", "4%"]
        # SWST accesses grow with the spatial extent.
        swst = [row[1] for row in result.rows]
        assert swst[0] <= swst[-1]

    def test_fig10_rows(self):
        result = experiment_time_interval(TINY)
        assert [row[0] for row in result.rows] == ["0%", "5%", "10%", "15%"]
        swst = [row[1] for row in result.rows]
        mv3r = [row[2] for row in result.rows]
        # Both curves grow with the interval; MV3R grows at least as fast
        # overall (the paper's crossover shape).
        assert swst[0] <= swst[-1]
        assert mv3r[0] <= mv3r[-1]

    def test_fig11_memo_reduces_accesses(self):
        result = experiment_memo(TINY)
        for row in result.rows:
            with_memo, without_memo = row[1], row[2]
            assert with_memo <= without_memo

    def test_param_sweeps_produce_rows(self):
        cells = experiment_spatial_cells(TINY, grids=((2, 2), (5, 5)))
        assert len(cells.rows) == 2
        sp = experiment_spartition(TINY, s_partitions=(25, 201))
        assert len(sp.rows) == 2

    def test_zcurve_ablation_spatial_bits_help(self):
        result = experiment_zcurve(TINY)
        # Without the Z bits, candidate counts are never lower.
        for row in result.rows:
            assert row[3] <= row[4]

    def test_maintenance_swst_cheapest_per_entry(self):
        result = experiment_maintenance(TINY)
        per_entry = {row[0]: row[3] for row in result.rows}
        swst = per_entry["SWST (drop)"]
        assert swst < per_entry["3D R-tree (per-entry delete)"]
        assert swst < per_entry["PIST (per-sub-entry delete)"]

    def test_wave_flat_high_cost(self):
        result = experiment_wave(TINY)
        swst = [row[1] for row in result.rows]
        wave = [row[2] for row in result.rows]
        # Wave pays the multi-sub-index cost at every interval length.
        assert all(w >= s for s, w in zip(swst, wave, strict=True))
        assert wave[0] > 3 * max(swst[0], 1)

    def test_hrtree_interval_collapse_and_storage(self):
        result = experiment_hrtree(TINY)
        swst = [row[1] for row in result.rows]
        hr = [row[2] for row in result.rows]
        # Interval queries: HR-tree searches one R-tree per version.
        assert hr[-1] > 10 * max(swst[-1], 1)
        assert "pages" in result.notes

    def test_physical_io_monotone_in_capacity(self):
        result = experiment_physical_io(TINY, capacities=(2, 64))
        physical = [row[1] for row in result.rows]
        logical = [row[2] for row in result.rows]
        # Physical reads never exceed logical accesses and never grow
        # with a bigger cache.
        assert all(p <= l for p, l in zip(physical, logical, strict=True))
        assert physical[0] >= physical[-1]
        # Logical accesses are capacity-independent.
        assert len(set(logical)) == 1

    def test_skew_produces_all_distributions(self):
        result = experiment_skew(TINY)
        assert [row[0] for row in result.rows] == ["uniform", "gaussian",
                                                   "skewed"]
        for row in result.rows:
            # memo never hurts
            assert row[1] <= row[2]

    def test_interleaved_costs_stay_stable(self):
        result = experiment_interleaved(TINY)
        assert result.rows, "no steady-state checkpoint reached"
        costs = [row[3] for row in result.rows]
        assert max(costs) <= max(4.0 * min(costs), min(costs) + 25)
        # Physical size is bounded by the two-window invariant, not by
        # the full stream length.
        entries = [row[2] for row in result.rows]
        assert entries[-1] < entries[0] * 10

    def test_renders_are_printable(self):
        fig7, fig8 = experiment_insertion(TINY)
        text = fig7.render()
        assert "Fig.7" in text and "SWST" in text
        assert fig8.render().count("\n") >= 3

    def test_experiment_table_names_what_each_function_renders(self):
        import dataclasses

        from repro.bench.experiments import EXPERIMENTS, run_all

        results = run_all(dataclasses.replace(TINY, dataset_objects=(20,)))
        assert [result.exp_id for result in results] == [
            exp_id for exp_ids, _ in EXPERIMENTS for exp_id in exp_ids]
