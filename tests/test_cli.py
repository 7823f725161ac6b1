"""Tests for the command-line interface."""

from __future__ import annotations

import os

import pytest

from repro.cli import build_parser, main

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")

#: The goldens whose rows take well under a second to compute.
FAST_GOLDENS = (
    "table1_fastpath",
    "fig2_stability",
    "fig3_comparison",
    "fig7_saturation",
    "fig7_curves",
    "fig7_heatmap",
    "fig8_batching",
    "fig9_partial",
    "pathological",
    "pathological_growth",
)


def _table(text):
    """The rows of a table ``format_table`` printed under a title line."""
    header, _, *rows = text.splitlines()[1:]
    columns = [cell.strip() for cell in header.split("|")]
    return [dict(zip(columns, (cell.strip() for cell in row.split("|")))) for row in rows]


with open(os.path.join(RESULTS_DIR, "fig7_saturation.txt"), encoding="utf-8") as _handle:
    FIG7_SATURATION_ROWS = _table(_handle.read())


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "tempo"
        assert args.sites == 5
        assert args.workload == "micro"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "raft"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig8_batching"])
        assert args.name == "fig8_batching"
        for name in ("fig8", "fig99"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["figure", name])


class TestCommands:
    def test_protocols_lists_all(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == {"tempo", "atlas", "epaxos", "caesar", "fpaxos", "janus"}

    def test_throughput_command(self, capsys):
        assert main(["throughput", "--protocol", "atlas", "--conflict", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "atlas" in out and "execution" in out

    @pytest.mark.parametrize(
        "row",
        FIG7_SATURATION_ROWS,
        ids=lambda row: f"{row['protocol'].replace(' f=', '-f')}@{row['conflict_rate']}",
    )
    def test_throughput_prints_the_fig7_ceiling(self, capsys, row):
        """``repro throughput`` and the fig7 golden are one model."""
        protocol, faults = row["protocol"].split(" f=")
        argv = ["throughput", "--protocol", protocol, "--faults", faults,
                "--conflict", row["conflict_rate"]]
        assert main(argv) == 0
        (printed,) = _table(capsys.readouterr().out)
        assert printed["max_kops"] == row["max_kops"]
        assert printed["bottleneck"] == row["bottleneck"]

    @pytest.mark.parametrize("name", FAST_GOLDENS)
    def test_figure_prints_its_golden(self, capsys, name):
        assert main(["figure", name]) == 0
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, encoding="utf-8") as handle:
            assert capsys.readouterr().out == handle.read()

    def test_run_small_experiment(self, capsys):
        code = main(
            [
                "run",
                "--protocol", "tempo",
                "--sites", "3",
                "--clients", "2",
                "--duration", "1200",
                "--warmup", "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-site latency" in out
        assert "throughput" in out
