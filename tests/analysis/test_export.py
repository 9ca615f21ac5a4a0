"""Unit tests for the registry-backed CSV exporters and the CLI runner."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import export_all, export_experiment, exportable_ids


class TestExporters:
    def test_registry_covers_every_experiment(self):
        assert set(exportable_ids()) == {
            "fig1", "table1", "table2", "fig3", "fig4", "fig6", "fig12",
            "fig13", "fig14", "table5", "fig15", "fig16", "fig17", "fig18",
            "energy", "faults", "deploy", "deploy-faults",
        }

    def test_fig15_csv_roundtrip(self, tmp_path):
        path = export_experiment("fig15", tmp_path)
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 11  # header + 10 devices
        assert rows[0][1] == "Nike Fuel Band"
        diagonal = float(rows[1][1])
        assert diagonal == pytest.approx(1.43, abs=0.01)

    @pytest.mark.parametrize("name", ["fig1", "table5", "fig14", "fig6"])
    def test_light_exporters_produce_csv(self, tmp_path, name):
        path = export_experiment(name, tmp_path)
        assert path.exists()
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) >= 2  # header + data

    def test_export_all_writes_every_file(self, tmp_path):
        paths = export_all(tmp_path)
        assert len(paths) == len(exportable_ids())
        for path in paths:
            assert path.exists() and path.stat().st_size > 0

    def test_unknown_experiment_raises_with_known_ids(self, tmp_path):
        with pytest.raises(KeyError, match="fig15"):
            export_experiment("fig99", tmp_path)


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out and "table5" in out

    def test_list_is_a_capability_table(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        header, *rows = out.splitlines()
        assert header.split() == ["experiment", "kind", "campaign", "profile", "exports"]
        by_id = {line.split()[0]: line for line in rows}
        assert "fig15_gain_matrix.csv" in by_id["fig15"]
        assert " yes " in by_id["fig15"]  # campaign-able
        assert "sweep-gain-matrix" in by_id

    def test_show_table1(self, capsys):
        from repro.__main__ import main

        assert main(["show", "table1"]) == 0
        assert "CC2541" in capsys.readouterr().out

    def test_show_fig14(self, capsys):
        from repro.__main__ import main

        assert main(["show", "fig14"]) == 0
        assert "regime A" in capsys.readouterr().out

    def test_export_single(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["export", "table2", str(tmp_path)]) == 0
        assert (tmp_path / "table2_readers.csv").exists()

    def test_rejects_unknown_experiment(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["export", "fig99", str(tmp_path)])

    def test_rejects_unknown_campaign_experiment(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "fig99"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown campaign experiment 'fig99'" in err
        assert "fig15" in err

    @pytest.mark.parametrize("argv", [["list"], ["show", "fig4"]])
    def test_closed_stdout_exits_1_without_a_traceback(self, argv):
        # `python -m repro list | head -1`: the reader is gone before the
        # output is.  A pipe whose read end is already closed makes that
        # deterministic.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""
