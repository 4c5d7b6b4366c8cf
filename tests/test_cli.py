import csv
import hashlib
import json
import math
import statistics

import pytest

import zdlab.alliance
from zdlab.cli import (CSV_VERSION, SWEEP_COLUMNS, load_config, main,
                       run_sweep, write_sweep_csv)
from zdlab.errors import ConfigError, ConvergenceError
from zdlab.graphs import Graph


def base_config(tmp_path=None, **overrides):
    out = str(tmp_path / "sweep.csv") if tmp_path is not None else "sweep.csv"
    doc = {
        "topology": {"type": "ring", "n": 12},
        "scale": {"a": 2, "k": 1, "b": 3},
        "k_range": {"min": 1, "max": 2},
        "ga": {"population_size": 20, "generations": 10},
        "ratio": {"mode": "expected", "rounds": 50},
        "repetitions": 2,
        "seed": 7,
        "output": out,
    }
    doc.update(overrides)
    return doc


# every [s, x, y] index of a leader in a (4 players, 3 leaders) game
FULL_TABLE = {f"[{s}, {x}, {y}]": 0.5
              for s in (0, 1) for x in range(3) for y in range(2)}


class TestLoadConfig:
    def test_valid(self, tmp_path):
        cfg = load_config(base_config(tmp_path))
        assert cfg.topology.kind == "ring" and cfg.topology.n == 12
        assert cfg.k_min == 1 and cfg.k_max == 2 and cfg.repetitions == 2
        assert cfg.ga.population_size == 20

    def test_unknown_field_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(base_config(tmp_path, typo=True))
        doc = base_config(tmp_path)
        doc["topology"]["extra"] = 1
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_missing_required(self, tmp_path):
        doc = base_config(tmp_path)
        del doc["k_range"]
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_bad_values(self, tmp_path):
        for patch in ({"k_range": {"min": 0, "max": 2}},
                      {"k_range": {"min": 3, "max": 2}},
                      {"repetitions": 0},
                      {"ratio": {"mode": "guess"}},
                      {"scale": {"a": 0, "k": 1, "b": 0.5}},
                      {"topology": {"type": "blob", "n": 5}}):
            with pytest.raises(ConfigError):
                load_config(base_config(**patch))

    def test_trace_topology(self, tmp_path):
        doc = base_config(tmp_path,
                          topology={"trace": "contacts.txt", "min_contacts": 3})
        cfg = load_config(doc)
        assert cfg.topology.trace == "contacts.txt"
        assert cfg.topology.min_contacts == 3


class TestSweep:
    def test_rows_and_csv(self, tmp_path):
        cfg = load_config(base_config(tmp_path))
        rows = run_sweep(cfg)
        assert len(rows) == 4  # two K values x two repetitions
        for row in rows:
            assert len(row["zd_set"].split(";")) == row["K"]
            assert 0.0 <= row["expected_ratio"] <= 1.0

        with open(cfg.output) as fh:
            assert fh.readline().strip() == CSV_VERSION
            reader = csv.DictReader(fh)
            records = list(reader)
        assert reader.fieldnames == SWEEP_COLUMNS
        # 4 data rows + mean/std per K
        assert len(records) == 8
        means = {r["K"]: r for r in records if r["repetition"] == "mean"}
        data_k1 = [float(r["objective"]) for r in records
                   if r["K"] == "1" and r["repetition"] not in ("mean", "std")]
        assert float(means["1"]["objective"]) == pytest.approx(
            statistics.fmean(data_k1))

    def test_deterministic_modulo_wall_time(self, tmp_path):
        cfg1 = load_config(base_config(tmp_path, output=str(tmp_path / "a.csv")))
        cfg2 = load_config(base_config(tmp_path, output=str(tmp_path / "b.csv")))
        run_sweep(cfg1)
        run_sweep(cfg2)

        def strip_wall(path):
            with open(path) as fh:
                lines = fh.read().splitlines()
            idx = SWEEP_COLUMNS.index("wall_ms")
            out = [lines[0], lines[1]]
            for line in lines[2:]:
                cells = line.split(",")
                cells[idx] = ""
                out.append(",".join(cells))
            return out

        assert strip_wall(tmp_path / "a.csv") == strip_wall(tmp_path / "b.csv")

    def test_k_must_fit_graph(self, tmp_path):
        cfg = load_config(base_config(tmp_path,
                                      k_range={"min": 1, "max": 12}))
        with pytest.raises(ConfigError):
            run_sweep(cfg)

    def test_std_zero_for_single_rep(self, tmp_path):
        path = tmp_path / "one.csv"
        write_sweep_csv(path, [{
            "K": 1, "repetition": 0, "seed": 0, "objective": 2.0,
            "mean_regular_coop": 0.5, "expected_ratio": 0.5,
            "monte_carlo_ratio": 0.5, "zd_set": "0", "zd_mean_degree": 2.0,
            "zd_mean_betweenness": 0.0, "wall_ms": 1.0,
        }])
        with open(path) as fh:
            fh.readline()
            records = list(csv.DictReader(fh))
        std = [r for r in records if r["repetition"] == "std"][0]
        assert float(std["objective"]) == 0.0


class TestMain:
    def test_topo_metrics_field_opt(self, tmp_path, capsys):
        gpath = str(tmp_path / "star.txt")
        assert main(["topo", "--type", "star", "--n", "10",
                     "--out", gpath]) == 0
        g = Graph.read(gpath)
        assert g.degree(0) == 9

        assert main(["metrics", "--graph", gpath]) == 0
        out = capsys.readouterr().out
        assert "mean_betweenness" in out

        assert main(["field", "--graph", gpath, "--zd", "0"]) == 0
        out = capsys.readouterr().out
        assert f"objective {9 * math.e / (1 + math.e):.10g}" in out

        assert main(["opt", "--graph", gpath, "--K", "1",
                     "--exhaustive"]) == 0
        out = capsys.readouterr().out
        assert "zd_set 0" in out

    def test_ingest(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("a b 0 5\nb c\n a b 6 9\n")
        gpath = str(tmp_path / "g.txt")
        assert main(["ingest", "--trace", str(trace), "--min-contacts", "2",
                     "--out", gpath]) == 0
        assert Graph.read(gpath).edges() == [(0, 1)]

    def test_synth_and_verify(self, capsys):
        rc = main(["synth", "--players", "3", "--alliance", "2", "--r", "9",
                   "--chi", "0", "--l", "3", "--phi", str(1 / 6)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["strategy"]["c,1,0"] == pytest.approx(1 / 3)
        assert report["strategy"]["c,1,1"] == pytest.approx(0.0)
        assert report["residual"] <= 1e-9

        rc = main(["verify", "--players", "3", "--alliance", "2", "--r", "9",
                   "--l", "5", "--outsider-seed", "3"])
        assert rc == 0
        assert "residual" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, digest", [
        (["--players", "3", "--alliance", "2", "--r", "9", "--chi", "0",
          "--l", "5"],
         "d3e0c233916a96c9061dbc6ac28e73d233dadc2a54ef72d654d4db177293b2e4"),
        (["--players", "5", "--leaders", "4", "--alliance", "3", "--r", "13",
          "--chi", "0.3", "--l", "6"],
         "c46493a270427261bc4a276bbafd11ff2dfb30456f1f8ddb884cb78473163a0d"),
        (["--players", "8", "--leaders", "7", "--alliance", "6", "--r", "19",
          "--chi", "0.6", "--l", "8"],
         "c0f72aa81c782e5572f5c695c6da44f444aab4f6a565277d92a3104c5f64b614"),
    ])
    def test_synth_output_golden(self, capsys, argv, digest):
        # sha256 of stdout; its last value is the certificate residual,
        # solved on the alliance-lumped chain
        assert main(["synth", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_exit_codes(self, tmp_path, capsys):
        # infeasible baseline -> 3
        rc = main(["synth", "--players", "3", "--alliance", "2", "--r", "9",
                   "--l", "100"])
        assert rc == 3
        # inadmissible alliance -> 3
        rc = main(["synth", "--players", "3", "--alliance", "2", "--r", "2",
                   "--l", "1"])
        assert rc == 3
        # broken config -> 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", "--config", str(bad)]) == 2
        # missing graph file -> 2
        assert main(["metrics", "--graph", str(tmp_path / "nope.txt")]) == 2
        capsys.readouterr()

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def diverge(tm):
            raise ConvergenceError("stationary solve did not converge", 1.0)

        monkeypatch.setattr(zdlab.alliance, "stationary", diverge)
        rc = main(["verify", "--players", "3", "--alliance", "2", "--r", "9",
                   "--l", "5"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "verify"])
    def test_player_cap_exit_code(self, capsys, command):
        rc = main([command, "--players", "11", "--alliance", "10", "--r", "25",
                   "--chi", "0", "--l", "5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: state space capped at 10 players\n"

    def test_exhaustive_cap_exit_code(self, tmp_path, capsys):
        gpath = str(tmp_path / "mesh80.txt")
        assert main(["topo", "--type", "mesh", "--n", "80",
                     "--out", gpath]) == 0
        capsys.readouterr()
        assert main(["opt", "--graph", gpath, "--K", "5",
                     "--exhaustive"]) == 2
        err = capsys.readouterr().err
        assert "24040016 candidate subsets" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("patch", [
        {"topology": 5},
        {"topology": {"type": "mesh", "n": 12, "density": "x"}},
        {"topology": {"type": "ring", "n": "12"}},
        {"topology": {"type": 3, "n": 12}},
        {"topology": {"trace": ["contacts.txt"]}},
        {"scale": [2, 1, 3]},
        {"scale": {"a": "2"}},
        {"k_range": {"min": 1.5, "max": 2}},
        {"ga": {"population_size": 20.5}},
        {"ga": {"crossover_rate": "high"}},
        {"ga": "fast"},
        {"ratio": {"rounds": True}},
        {"repetitions": "2"},
        {"seed": None},
        {"output": 7},
        {"ga": {"generations": -5}},
        # json.dumps writes NaN and Infinity, and json.load reads them back
        {"scale": {"a": math.nan}},
        {"scale": {"b": math.inf}},
        {"topology": {"type": "mesh", "n": 12, "density": math.nan}},
        {"ga": {"crossover_rate": -math.inf}},
    ])
    def test_mistyped_config_exit_code(self, tmp_path, capsys, patch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(tmp_path, **patch)))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, option, value", [
        ("synth", "--r", "nan"),
        ("synth", "--l", "nan"),
        ("synth", "--l", "inf"),
        ("synth", "--chi", "nan"),
        ("verify", "--phi", "-inf"),
        ("verify", "--r", "inf"),
        ("field", "--scale-a", "nan"),
        ("opt", "--scale-b", "inf"),
        ("topo", "--density", "nan"),
    ])
    def test_non_finite_option_exit_code(self, tmp_path, capsys, command,
                                         option, value):
        defaults = {
            "synth": ["--players", "3", "--alliance", "2", "--r", "9",
                      "--l", "5"],
            "field": ["--graph", str(tmp_path / "g.txt"), "--zd", "0"],
            "opt": ["--graph", str(tmp_path / "g.txt"), "--K", "1"],
            "topo": ["--type", "mesh", "--n", "5",
                     "--out", str(tmp_path / "g.txt")],
        }
        # "--phi=-inf": a separate "-inf" would parse as an option
        rc = main([command, *defaults.get(command, defaults["synth"]),
                   f"{option}={value}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"config error: {option} must be a finite number, "
                       f"not {float(value)}\n")
        assert not (tmp_path / "g.txt").exists()

    @pytest.mark.parametrize("text, line, fault", [
        ("V x\n", 1, "node count 'x' is not an integer"),
        ("# graph\nV 3.0\n", 2, "node count '3.0' is not an integer"),
        ("V 0\n", 1, "node count must be positive"),
        ("V 3\n0 1\n1 y\n", 3, "node id 'y' is not an integer"),
        ("V 3\n\n0 3\n", 3, "node ids must lie in 0..2"),
        ("V 3\n-1 0\n", 2, "node ids must lie in 0..2"),
        ("V 3\n2 2\n", 2, "self-loop on node 2"),
        ("V 3\n0 1 2\n", 2, "expected 'u v'"),
        ("0 1\n", 1, "expected header 'V <count>'"),
    ])
    def test_bad_graph_file_names_line(self, tmp_path, capsys, text, line,
                                       fault):
        path = tmp_path / "g.txt"
        path.write_text(text)
        assert main(["metrics", "--graph", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:{line}: {fault}\n"

    @pytest.mark.parametrize("doc", [
        [],
        "leaders",
        {"leaders": {}},
        {"followers": 3},
        {"leaders": [[]]},
        {"leaders": [{"x": 0.5}]},
        {"leaders": [{"{}": 0.5}]},
        {"leaders": [{"[0, 0, 0]": True}]},
        {"leaders": [{"[0, 0, 0]": "0.5"}]},
        {"followers": [0.5]},
        {"followers": [[0.5, False]]},
        {"followers": [[0.5, None, 0.5]]},
    ])
    def test_bad_outsider_file_exit_code(self, tmp_path, capsys, doc):
        path = tmp_path / "outsiders.json"
        path.write_text(json.dumps(doc))
        rc = main(["verify", "--players", "3", "--alliance", "2", "--r", "9",
                   "--l", "5", "--outsider-file", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        {"leaders": [dict(FULL_TABLE, **{"[5, 5, 5]": 0.5})],
         "followers": [[0.5] * 4]},
        {"leaders": [dict(FULL_TABLE, **{'["a", 0]': 0.5})],
         "followers": [[0.5] * 4]},
        {"leaders": [dict(FULL_TABLE, **{"[0, 0]": 0.5})],
         "followers": [[0.5] * 4]},
        {"leaders": [dict(FULL_TABLE, **{"[true, 0, 0]": 0.5})],
         "followers": [[0.5] * 4]},
        {"leaders": [dict(FULL_TABLE, **{"[0, 0, 1.0]": 0.5})],
         "followers": [[0.5] * 4]},
        {"leaders": [dict(FULL_TABLE, **{"[0,0,0]": 0.5})],
         "followers": [[0.5] * 4]},
        {"leaders": [{k: v for k, v in FULL_TABLE.items() if k != "[1, 2, 1]"}],
         "followers": [[0.5] * 4]},
        {"leaders": [FULL_TABLE], "followers": [[0.5] * 6]},
        {"leaders": [FULL_TABLE], "followers": [[0.5] * 3]},
        {"leaders": [FULL_TABLE], "followers": [[0.5] * 4, [0.5] * 4]},
        {"followers": [[0.5] * 4, [0.5] * 4]},
        {"leaders": [FULL_TABLE, FULL_TABLE]},
    ])
    def test_extra_outsider_entries_rejected(self, tmp_path, capsys, doc):
        path = tmp_path / "outsiders.json"
        path.write_text(json.dumps(doc))
        rc = main(["verify", "--players", "4", "--leaders", "3",
                   "--alliance", "2", "--r", "11", "--l", "6",
                   "--outsider-file", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_outsider_file_with_leader_table(self, tmp_path, capsys):
        path = tmp_path / "outsiders.json"
        path.write_text(json.dumps({"leaders": [FULL_TABLE],
                                    "followers": [[0.2, 0.4, 0.6, 0.8]]}))
        assert main(["verify", "--players", "4", "--leaders", "3",
                     "--alliance", "2", "--r", "11", "--l", "6",
                     "--outsider-file", str(path)]) == 0
        residual = float(capsys.readouterr().out.split()[-1])
        assert residual <= 1e-8

    def test_outsider_file(self, tmp_path, capsys):
        path = tmp_path / "outsiders.json"
        path.write_text(json.dumps({"followers": [[0.2, 0.5, 0.9]]}))
        assert main(["verify", "--players", "3", "--alliance", "2", "--r", "9",
                     "--l", "5", "--outsider-file", str(path)]) == 0
        residual = float(capsys.readouterr().out.split()[-1])
        assert residual <= 1e-8

    def test_exhaustive_k_equal_v_exit_code(self, tmp_path, capsys):
        gpath = str(tmp_path / "ring6.txt")
        assert main(["topo", "--type", "ring", "--n", "6",
                     "--out", gpath]) == 0
        capsys.readouterr()
        assert main(["opt", "--graph", gpath, "--K", "6",
                     "--exhaustive"]) == 2
        err = capsys.readouterr().err
        assert "1 <= K < V" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_sweep_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(tmp_path)))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert "wrote 4 rows" in capsys.readouterr().out
        assert (tmp_path / "sweep.csv").exists()
