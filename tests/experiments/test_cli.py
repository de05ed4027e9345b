"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, build_parser, load_user_file, main
from repro.exceptions import DataFormatError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table99"])

    def test_every_experiment_registered(self):
        expected = {"fig1", "fig2", "fig5a", "fig5b", "fig6a", "fig6b",
                    "table1", "table2", "table3", "table4", "table5", "table6",
                    "ablation-tau", "ablation-lda", "ablation-jump-cost"}
        assert set(EXPERIMENTS) == expected


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5a" in out and "table6" in out

    def test_run_fig2(self, capsys):
        assert main(["run", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "M4" in out

    def test_run_with_csv_output(self, tmp_path, capsys):
        out_path = str(tmp_path / "fig1.csv")
        assert main(["run", "fig1", "--scale", "0.15", "--out", out_path]) == 0
        with open(out_path) as handle:
            header = handle.readline()
        assert "tail_frac_of_catalog" in header

    def test_run_small_table5(self, capsys):
        assert main(["run", "table5", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "DPPR" in out


class TestLoadUserFile:
    def test_parses_indices_comments_blanks(self, tmp_path):
        path = tmp_path / "users.txt"
        path.write_text("0\n\n# a comment\n2  # trailing\n1\n2\n")
        users = load_user_file(str(path), n_users=3)
        np.testing.assert_array_equal(users, [0, 2, 1, 2])

    def test_rejects_non_integer(self, tmp_path):
        path = tmp_path / "users.txt"
        path.write_text("zero\n")
        with pytest.raises(DataFormatError, match="user index"):
            load_user_file(str(path), n_users=3)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "users.txt"
        path.write_text("99\n")
        with pytest.raises(DataFormatError, match="out-of-range"):
            load_user_file(str(path), n_users=3)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "users.txt"
        path.write_text("# only comments\n")
        with pytest.raises(DataFormatError, match="no user indices"):
            load_user_file(str(path), n_users=3)


class TestFitServe:
    def test_fit_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fit", "--algorithm", "AT"])

    def test_fit_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fit", "--algorithm", "nope",
                                       "--out", "model.npz"])

    def test_serve_users_file_and_csv_output(self, tmp_path, capsys):
        artifact = str(tmp_path / "model.npz")
        assert main(["fit", "--algorithm", "PureSVD", "--scale", "0.15",
                     "--out", artifact]) == 0
        users_path = tmp_path / "cohort.txt"
        users_path.write_text("0\n3\n# comment\n5\n")
        out_path = str(tmp_path / "served.csv")
        assert main(["serve", "--artifact", artifact, "--k", "2",
                     "--users-file", str(users_path), "--out", out_path]) == 0
        with open(out_path) as handle:
            lines = handle.read().strip().splitlines()
        assert lines[0] == "user,rank,item,label,score"
        served_users = {line.split(",")[0] for line in lines[1:]}
        assert served_users == {"0", "3", "5"}

    def test_fit_then_serve_roundtrip(self, tmp_path, capsys):
        artifact = str(tmp_path / "model.npz")
        store = str(tmp_path / "store.npz")
        assert main(["fit", "--algorithm", "AT", "--scale", "0.15",
                     "--out", artifact, "--store-out", store,
                     "--store-depth", "12"]) == 0
        out = capsys.readouterr().out
        assert "artifact" in out and "store" in out

        served_csv = str(tmp_path / "served.csv")
        assert main(["serve", "--artifact", artifact, "--store", store,
                     "--n-users", "6", "--k", "3", "--repeat", "2",
                     "--out", served_csv]) == 0
        out = capsys.readouterr().out
        assert "no refit" in out
        assert "result_hits" in out
        with open(served_csv) as handle:
            header = handle.readline().strip()
        assert header == "user,rank,item,label,score"

class TestOperatorErrors:
    """Operator mistakes answer with one clean 'error:' line and exit 1 —
    never a FileNotFoundError traceback (the ArtifactError family is
    caught at the main() boundary)."""

    def _assert_clean_failure(self, capsys, argv, needle):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert needle in captured.err
        assert "Traceback" not in captured.err

    def test_serve_missing_artifact(self, tmp_path, capsys):
        self._assert_clean_failure(
            capsys, ["serve", "--artifact", str(tmp_path / "absent.npz")],
            "cannot read artifact")

    def test_serve_http_missing_artifact(self, tmp_path, capsys):
        self._assert_clean_failure(
            capsys,
            ["serve-http", "--artifact", str(tmp_path / "absent.npz"),
             "--port", "0", "--self-test", "1"],
            "cannot read artifact")

    def test_serve_http_missing_shard_directory(self, tmp_path, capsys):
        self._assert_clean_failure(
            capsys,
            ["serve-http", "--shards", str(tmp_path / "no-fleet"),
             "--port", "0", "--self-test", "1"],
            "not a sharded-artifact directory")

    def test_serve_missing_store(self, tmp_path, capsys):
        artifact = str(tmp_path / "model.npz")
        assert main(["fit", "--algorithm", "AT", "--scale", "0.15",
                     "--out", artifact]) == 0
        capsys.readouterr()
        self._assert_clean_failure(
            capsys,
            ["serve", "--artifact", artifact,
             "--store", str(tmp_path / "absent-store.npz"),
             "--n-users", "2"],
            "cannot read top-K store")

    def test_update_missing_artifact(self, tmp_path, capsys):
        events = tmp_path / "events.log"
        events.write_text("u0\ti0\t4.0\n")
        self._assert_clean_failure(
            capsys,
            ["update", "--artifact", str(tmp_path / "absent.npz"),
             "--events", str(events)],
            "cannot read artifact")


class TestServeHttp:
    def test_requires_one_source(self, capsys):
        assert main(["serve-http", "--self-test", "1"]) == 2

    def test_self_test_round_trip_single_artifact(self, tmp_path, capsys):
        artifact = str(tmp_path / "model.npz")
        assert main(["fit", "--algorithm", "AT", "--scale", "0.15",
                     "--out", artifact]) == 0
        assert main(["serve-http", "--artifact", artifact, "--port", "0",
                     "--self-test", "12", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        assert "front-end report" in out

    def test_self_test_round_trip_sharded_fleet(self, tmp_path, capsys):
        fleet_dir = str(tmp_path / "fleet")
        assert main(["shard-fit", "--algorithm", "AT", "--scale", "0.15",
                     "--shards", "2", "--out", fleet_dir]) == 0
        assert main(["serve-http", "--shards", fleet_dir, "--port", "0",
                     "--self-test", "8", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
