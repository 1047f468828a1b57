"""Unit tests for the command-line interface."""

import pytest

from repro.cli import _int_list, build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_int_list(self):
        assert _int_list("1,2,3") == [1, 2, 3]
        assert _int_list("500") == [500]
        with pytest.raises(Exception):
            _int_list("a,b")

    @pytest.mark.parametrize(
        "command",
        ["figure2", "table1", "figure3", "figure4", "validate", "topology"],
    )
    def test_all_commands_parse(self, command):
        args = build_parser().parse_args([command, "--seed", "3"])
        assert args.seed == 3
        assert callable(args.func)


class TestTopologyCommand:
    def test_waxman(self, capsys):
        code = main(["topology", "--kind", "waxman", "--nodes", "30", "--edges", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "waxman network: 30 nodes" in out
        assert "connected:      True" in out

    def test_transit_stub(self, capsys):
        code = main(["topology", "--kind", "transit-stub"])
        out = capsys.readouterr().out
        assert code == 0
        assert "transit-stub network: 104 nodes" in out


class TestExperimentCommands:
    """Tiny-scale smoke runs of each experiment command."""

    def test_figure2(self, capsys):
        code = main(
            ["figure2", "--nodes", "25", "--edges", "50",
             "--connections", "30,60", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 2" in out
        assert out.count("\n") >= 4  # title + header + rule + 2 rows

    def test_validate(self, capsys):
        code = main(["validate", "--nodes", "25", "--edges", "50", "--load", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "TV distance" in out

    def test_figure4(self, capsys):
        code = main(
            ["figure4", "--nodes", "25", "--edges", "50", "--populations", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 4" in out
        assert "Avg30ft" in out

    def test_chaining(self, capsys):
        code = main(
            ["chaining", "--nodes", "25", "--edges", "50",
             "--load", "60", "--samples", "20"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "population pairwise" in out
        assert "random-arrival view" in out

    def test_figure3_chart(self, capsys):
        code = main(
            ["figure3", "--node-counts", "20,30", "--connections-fixed", "30",
             "--chart"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "legend:" in out

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main(
            ["report", "--nodes", "22", "--edges", "44", "--output", str(out_file)]
        )
        assert code == 0
        text = out_file.read_text()
        assert "# Reproduction report" in text
        assert "Figure 2" in text and "Table 1" in text
        assert "Figure 3" in text and "Figure 4" in text


class TestBenchCommand:
    """Smoke runs of the micro-benchmark command (tiny event counts)."""

    def test_bench_timing(self, capsys):
        code = main(
            ["bench", "--benchmark", "request", "--events", "20",
             "--population", "40"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "request" in out and "us/event" in out

    def test_bench_profile_writes_dump(self, tmp_path, capsys):
        code = main(
            ["bench", "--benchmark", "failrep", "--events", "20",
             "--population", "40", "--profile", "--top", "5",
             "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        dump = tmp_path / "bench_failrep.prof.txt"
        assert dump.exists()
        text = dump.read_text()
        assert "cumulative" in text
        assert "repro bench --profile: failrep" in text
        assert str(dump) in out
