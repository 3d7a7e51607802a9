"""Tests for the python -m repro.bench CLI."""

import pytest

from repro.bench.__main__ import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "max-X" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_experiment_registry_complete(self):
        # One CLI entry per table/figure of the paper + the CPU section
        # + the chaos correctness gate + the overload robustness gate
        # + the batching throughput gate + the ycsb isolation gate
        # + the partition-recovery gate + the read-path availability
        # gate + the self-healing membership gate + the dynamic-
        # sharding gate.
        assert set(EXPERIMENTS) == {
            "table1", "fig5", "fig6", "fig7", "fig8", "cpu", "chaos",
            "overload", "batching", "ycsb", "partitions", "readpath",
            "selfheal", "shards",
        }

    def test_chaos_gate(self, capsys):
        assert main(["chaos", "--seeds", "1", "--short"]) == 0
        out = capsys.readouterr().out
        assert "all episodes linearizable" in out

    def test_chaos_seed_runs_exactly_that_episode(self, capsys):
        assert main(["chaos", "--seed", "3", "--short"]) == 0
        out = capsys.readouterr().out
        assert out.count("  seed ") == 2          # one per protocol
        assert out.count("  seed    3: ok") == 2
        assert "1/1 clean" in out
