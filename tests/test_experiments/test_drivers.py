"""Tests for the figure/table experiment drivers (fast ones only; the
simulation-heavy drivers are exercised by the benchmark harness)."""

from __future__ import annotations

import pytest

from repro.experiments import fig2_stability, fig8_batching, fig9_partial, pathological, table1_fastpath
from repro.experiments.fig7_load import (
    FIGURE7_CONFLICT_RATES,
    FIGURE7_PROTOCOLS,
    heatmap,
    saturation_table,
    speedups,
)


class TestTable1:
    def test_all_examples_match_the_paper(self):
        rows = table1_fastpath.run()
        assert [row["example"] for row in rows] == ["a", "b", "c", "d"]
        for row in rows:
            assert row["fast_path(analytic)"] == row["expected_fast_path"]
            assert row["fast_path(simulated)"] == row["expected_fast_path"]

    def test_example_a_timestamps(self):
        rows = {row["example"]: row for row in table1_fastpath.run()}
        assert rows["a"]["proposals"] == (6, 7, 11, 11)
        assert rows["a"]["timestamp"] == 11
        assert rows["d"]["proposals"] == (6, 6, 6)
        assert rows["d"]["match"] is True

    def test_simulated_commands_execute_everywhere(self):
        for example in table1_fastpath.TABLE1_EXAMPLES:
            row = table1_fastpath.simulate_row(example)
            assert row["executed_everywhere"] is True


class TestFigure2And3:
    def test_figure2_rows_match_expected_values(self):
        for row in fig2_stability.figure2_rows():
            assert row["stable_timestamp"] == row["expected"]

    def test_figure3_tempo_executes_w_and_y(self):
        outcome = fig2_stability.figure3_tempo()
        assert outcome["stable_timestamp"] == 2
        assert [str(dot) for dot in outcome["executable"]] == ["0.1", "1.1"]

    def test_figure3_epaxos_blocks_on_uncommitted_x(self):
        outcome = fig2_stability.figure3_epaxos()
        assert outcome["executable"] == []
        assert outcome["largest_component"] == 3

    def test_figure3_caesar_commits_nothing(self):
        outcome = fig2_stability.figure3_caesar()
        assert outcome["committed"] == []
        assert ("z", "x") in outcome["blocked_chain"]


class TestFigure7Driver:
    def test_saturation_table_has_one_row_per_protocol_and_rate(self):
        rows = saturation_table()
        assert len(rows) == 14
        assert {(row["protocol"], row["conflict_rate"]) for row in rows} == {
            (f"{protocol} f={faults}", rate)
            for rate in FIGURE7_CONFLICT_RATES
            for protocol, faults in FIGURE7_PROTOCOLS
        }

    def test_speedups_computed_against_tempo(self):
        rows = saturation_table()
        ratios = speedups(rows)
        assert ratios["tempo/fpaxos f=1@0.02"] > 3.0

    def test_heatmap_contains_bottlenecks(self):
        rows = heatmap()
        bottlenecks = {row["protocol"]: row["bottleneck"] for row in rows}
        assert bottlenecks["atlas"] == "execution"
        assert bottlenecks["tempo"] == "cpu"


class TestFigure8Driver:
    def test_rows_cover_all_payloads_and_protocols(self):
        rows = fig8_batching.run()
        assert len(rows) == 6
        assert {row["payload_bytes"] for row in rows} == {256, 1024, 4096}

    def test_gains_dictionary(self):
        gains = fig8_batching.batching_gains(fig8_batching.run())
        assert gains["fpaxos f=1@256B"] > gains["fpaxos f=1@4096B"]


class TestFigure9Driver:
    def test_tempo_scales_with_shards(self):
        rows = fig9_partial.run()
        by_shards = {}
        for row in rows:
            by_shards.setdefault(row["shards"], []).append(row["tempo_kops"])
        assert max(by_shards[2]) < max(by_shards[4]) < max(by_shards[6])

    def test_janus_degrades_with_writes_and_contention(self):
        rows = {(row["shards"], row["zipf"]): row for row in fig9_partial.run()}
        row = rows[(4, 0.7)]
        assert row["janus_w0_kops"] > row["janus_w5_kops"] > row["janus_w50_kops"]
        assert rows[(4, 0.7)]["janus_w50_kops"] < rows[(4, 0.5)]["janus_w50_kops"]

    def test_speedup_ranges_match_paper_brackets(self):
        for row in fig9_partial.run():
            assert 1.0 <= row["speedup_vs_w5"] <= 5.0
            assert 2.0 <= row["speedup_vs_w50"] <= 16.0

    def test_avg_shards_per_command(self):
        assert fig9_partial._avg_shards_per_command(1) == 1.0
        assert fig9_partial._avg_shards_per_command(2) == pytest.approx(1.5)
        assert fig9_partial._avg_shards_per_command(6) == pytest.approx(2 - 1 / 6)

    def test_contention_interpolation(self):
        assert fig9_partial._contention(0.5) == 0.06
        assert fig9_partial._contention(0.7) == 0.22
        assert 0.06 < fig9_partial._contention(0.6) < 0.22


class TestPathologicalDriver:
    def test_tempo_progresses_while_others_stall(self):
        rows = {row["protocol"]: row for row in pathological.run()}
        assert rows["tempo"]["committed_during"] > 0
        assert rows["epaxos"]["executed_during"] == 0
        assert rows["caesar"]["committed_during"] == 0
        assert rows["caesar"]["blocked_replies"] > 0

    def test_everything_recovers_after_the_adversary_stops(self):
        for row in pathological.run():
            assert row["executed_final"] == row["submitted"]

    def test_epaxos_component_grows_with_rounds(self):
        small = pathological.replay_schedule("epaxos", rounds=3)
        large = pathological.replay_schedule("epaxos", rounds=7)
        assert large.largest_component > small.largest_component

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            pathological.replay_schedule("raft", rounds=2)
