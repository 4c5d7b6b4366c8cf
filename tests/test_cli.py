import contextlib
import csv
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zdlab
import zdlab.alliance
import zdlab.cli
import zdlab.graphs
import zdlab.markov
import zdlab.optimize
from zdlab.alliance import feasible_l_range
from zdlab.cli import (CSV_VERSION, SWEEP_COLUMNS, load_config, main,
                       run_sweep, write_sweep_csv)
from zdlab.errors import ConfigError, ConvergenceError
from zdlab.game import GameShape
from zdlab.graphs import Graph

OUTSIDER_CAP = "state space capped at 9 outsiders"
PLAYER_CAP = "game capped at 1024 players"


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


def strip_wall(path):
    """CSV lines with the ``wall_ms`` cell of every data row blanked."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    idx = SWEEP_COLUMNS.index("wall_ms")
    out = [lines[0], lines[1]]
    for line in lines[2:]:
        cells = line.split(",")
        cells[idx] = ""
        out.append(",".join(cells))
    return out


def synth_argv(dims, chi, frac):
    """``zdlab synth`` options for a (players, leaders, alliance, r) game
    at the baseline ``frac`` of the way across the feasible range."""
    n, nl, na, r = dims
    l_min, l_max = feasible_l_range(chi, GameShape(n, nl, na, r))
    return ["--players", str(n), "--leaders", str(nl), "--alliance", str(na),
            "--r", str(r), "--chi", str(chi),
            "--l", str(l_min + frac * (l_max - l_min))]


# sha256 of `zdlab synth` stdout (stderr for exit 3), recorded before the
# unison table moved to arrays: (dims, chi, frac, extra options, exit code)
SYNTH_GOLDENS = [
    ((4, 3, 3, 11.0), 0.0, 0.1, [], 0,
     "ce3f57f60420a7295ceda50db09d8ed6e7fecfff4cc0ee7a11423e1286c6e1d0"),
    ((4, 3, 3, 11.0), 0.0, 0.5, [], 0,
     "b1a3ae0fbeb95cea2ed6025defd8e980d900cd4159f8dc93c26cb0dbe653a6a1"),
    ((4, 3, 3, 11.0), 0.0, 0.9, [], 0,
     "9403aeb1ab8c7c47c33b848f803dc42a04964bd3adb303e134cc073d00472e89"),
    ((4, 3, 3, 11.0), 0.3, 0.1, [], 0,
     "d1c46ab986aabe16e0c74546b5baeb26968296b58cbf1d1d87c1299bc8c46a36"),
    ((4, 3, 3, 11.0), 0.3, 0.5, [], 0,
     "d7e6df43b620113a58fa7ce65a275ed437df48b04d1b05d83b598d1cdc5453cd"),
    ((4, 3, 3, 11.0), 0.3, 0.9, [], 0,
     "2b7e52da1ef6098eabe0a6e14d40947b63e64ff29f28afb81ad078bfd0502077"),
    ((4, 3, 3, 11.0), 0.6, 0.1, [], 0,
     "bb2d84915402536d23435335c9032c1ad7e50a2b007057d49463c2a76c402b93"),
    ((4, 3, 3, 11.0), 0.6, 0.5, [], 0,
     "e3a19ea46b2e58ec5be1b8b8d938ea8c754f79e66b15679c2cd16b4feb3b7a90"),
    ((4, 3, 3, 11.0), 0.6, 0.9, [], 0,
     "b91a5ee0a107fb50f577935039745947699d08c81f60f35d828ae25dad0f2bbf"),
    ((5, 4, 4, 13.0), 0.0, 0.1, [], 0,
     "d62c79605334577b9054acfe81cf75666120aca1714e6dc8c3438d60e37042de"),
    ((5, 4, 4, 13.0), 0.0, 0.5, [], 0,
     "d0ccc829ee6e9ffab6af219e1726b3ba2fcb947c5ba99298ca4878b746884d8d"),
    ((5, 4, 4, 13.0), 0.0, 0.9, [], 0,
     "843cc622787de0a6e58be5d186a8e682543c851dcd60caa75582c675e821252d"),
    ((5, 4, 4, 13.0), 0.3, 0.1, [], 0,
     "ecb6edfe59de59a7a03d124b637965421df394684f94442039bf21c87ce3ab4f"),
    ((5, 4, 4, 13.0), 0.3, 0.5, [], 0,
     "f805296103e625ca722e272cb48e57379453e9d5f335f076d9a3f21f6f5b17de"),
    ((5, 4, 4, 13.0), 0.3, 0.9, [], 0,
     "b2188c41c77aa00757b6c5cba91a162271355a2f3e41c0d23ee0fbb129db49d2"),
    ((5, 4, 4, 13.0), 0.6, 0.1, [], 0,
     "6e214afdc1260e5a020df0d01f3ffe441eb733d8b45fe67b9a0384d52808ab3e"),
    ((5, 4, 4, 13.0), 0.6, 0.5, [], 0,
     "f39d63bbe3732521e44fcb199c054e34993bcc5fbf082e84ea50034ba0377bda"),
    ((5, 4, 4, 13.0), 0.6, 0.9, [], 0,
     "cc42c6f53fd97f2e850c2cac07bd1d86a96d4d61bbd17c37e80ba52ca6a0d3d3"),
    ((10, 9, 9, 23.0), 0.3, 0.5, [], 0,
     "17a5d5e6af8631077511021ddab9f83802ff43d9abf597859fa5200472e8718c"),
    ((10, 7, 6, 23.0), 0.0, 0.5, [], 0,
     "6d09d4f68b6262d0415a796474abace204dcd7b33998f77ad73c5d712ea216f2"),
    # phi inside and outside the interval (0, 0.238...)
    ((5, 4, 4, 13.0), 0.3, 0.5, ["--phi", "0.2"], 0,
     "a86f32bb74b1d9e00225e8249b4bda1d1896d08c0f86aa4a2a919c15007a7184"),
    ((5, 4, 4, 13.0), 0.3, 0.5, ["--phi", "0.3"], 3,
     "e8630b11c48fa89c9d6a89a791e5e2b5cadb85a29d3e2ea0cbc10a0ca236a8cf"),
]

# `zdlab synth` digests (of SYNTH_GOLDENS and of the README examples in
# test_synth_output_golden) that changed when chains of up to 64 states,
# then solved by power iteration, began to be solved directly: the
# certificate (`residual`) moved in its last digits. The tests keep the
# digests recorded before, which name them, and check the output against
# the re-pinned value.
SYNTH_REPINS = {
    "c46493a270427261bc4a276bbafd11ff2dfb30456f1f8ddb884cb78473163a0d":
        "48b80f409882b2c4257d07a7d1a39bb6eb308f05c18eb3bfd02330b842261ab1",
    "c0f72aa81c782e5572f5c695c6da44f444aab4f6a565277d92a3104c5f64b614":
        "b3019d9d91a859d51af9e15250b172e9dba5b8164799f64ba17b9a1c1f89d9ea",
    "ce3f57f60420a7295ceda50db09d8ed6e7fecfff4cc0ee7a11423e1286c6e1d0":
        "04c296ab0b6ea3c61565a88b2b7b61c0a77f161369ab6af911666e3d86336410",
    "9403aeb1ab8c7c47c33b848f803dc42a04964bd3adb303e134cc073d00472e89":
        "e87949cbeff61f94404d0a534dfec694096d910cfe03767fb081a84335c5d333",
    "d1c46ab986aabe16e0c74546b5baeb26968296b58cbf1d1d87c1299bc8c46a36":
        "6f97e1d78783ccb14c9f4560319dddcf8a73c2e7b5e08f07fd62df69b62599bb",
    "2b7e52da1ef6098eabe0a6e14d40947b63e64ff29f28afb81ad078bfd0502077":
        "2fdc090893a932a8537216fef15849406f35405380a47e541ba4d185956b26b0",
    "bb2d84915402536d23435335c9032c1ad7e50a2b007057d49463c2a76c402b93":
        "d04ab31d224246fb6c6033716ae0ef8e546c55c4d4b82b454ae3d9f881e6c08f",
    "e3a19ea46b2e58ec5be1b8b8d938ea8c754f79e66b15679c2cd16b4feb3b7a90":
        "52ae79c7de031c93347dc20f7a87bc4909df93670743ef7c9b21521f73215afd",
    "b91a5ee0a107fb50f577935039745947699d08c81f60f35d828ae25dad0f2bbf":
        "c7fe7f2900157075b7cabc0f82e7b8dd6e2607ccfbf76c7a33ceb582f7a6acfb",
    "d62c79605334577b9054acfe81cf75666120aca1714e6dc8c3438d60e37042de":
        "977cbb549ac80bef8e18e14be92aa3e6278e46e54fff50b5f5fbfdc1c5fd8445",
    "d0ccc829ee6e9ffab6af219e1726b3ba2fcb947c5ba99298ca4878b746884d8d":
        "ae399f68fc9c8173a6e1a1930d79080d6c04f017cd5c7e8bfd285a8c1f81cfc6",
    "843cc622787de0a6e58be5d186a8e682543c851dcd60caa75582c675e821252d":
        "71f8ac2befae52d4960ac8b54d567a42c4cf79cc42f5b5c6d99e81a0e78de4a3",
    "ecb6edfe59de59a7a03d124b637965421df394684f94442039bf21c87ce3ab4f":
        "c7010d21673b1fa957a842f8dfb7c06c7f414b13baaba9b741fe7ea954e140c8",
    "b2188c41c77aa00757b6c5cba91a162271355a2f3e41c0d23ee0fbb129db49d2":
        "34ec3dffd36f5d4ee6782f9cc2dd8aa28da683f1bc2e4a8d2078a94e91dbbd2b",
    "6e214afdc1260e5a020df0d01f3ffe441eb733d8b45fe67b9a0384d52808ab3e":
        "94e6d6fda98d5bebe26b60c38cb04e6af5d0fae0a373941f7e68b5ccecb2bc5a",
    "cc42c6f53fd97f2e850c2cac07bd1d86a96d4d61bbd17c37e80ba52ca6a0d3d3":
        "21290c6ac68b2da996a01ebc488cfd426f49a74b3c86e08941f31b4113a6cb4e",
    "17a5d5e6af8631077511021ddab9f83802ff43d9abf597859fa5200472e8718c":
        "d66d8183d00025f3bb1d57e7a7111e73f7af951af5f75018f5706d611ec960e8",
    "6d09d4f68b6262d0415a796474abace204dcd7b33998f77ad73c5d712ea216f2":
        "7236fcd8dc658a0be26c54cf0047cd4a2e5106204d7eaafa3ea7d1fda4bbbfa3",
}


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
                      {"topology": {"type": "blob", "n": 5}},
                      # neither 'type' and 'n' nor 'trace'
                      {"topology": {}}, {"topology": {"type": "ring"}},
                      {"topology": {"n": 5, "seed": 1}}):
            with pytest.raises(ConfigError):
                load_config(base_config(**patch))

    def test_largest_round_count(self, tmp_path):
        cfg = load_config(base_config(tmp_path, ratio={"rounds": 2**63 - 1}))
        assert cfg.ratio_rounds == 2**63 - 1

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
        assert strip_wall(tmp_path / "a.csv") == strip_wall(tmp_path / "b.csv")

    def test_monte_carlo_csv_golden(self, tmp_path):
        # sha256 of a 2-repetition monte_carlo sweep CSV, wall_ms blanked
        cfg = load_config(base_config(
            tmp_path, topology={"type": "mesh", "n": 20, "seed": 2},
            k_range={"min": 1, "max": 3},
            ratio={"mode": "monte_carlo", "rounds": 1000}))
        run_sweep(cfg)
        text = "\n".join(strip_wall(cfg.output)) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "42cfc393ea90926cbb62878b30b859be840757e689692b5a9bc640389ed54cff")

    def test_ratio_mode_selects_nothing(self, tmp_path):
        # both ratio columns are always written, whatever the mode
        outputs = []
        for mode in ("expected", "monte_carlo"):
            out = str(tmp_path / f"{mode}.csv")
            cfg = load_config(base_config(
                tmp_path, output=out, ratio={"mode": mode, "rounds": 50}))
            assert not hasattr(cfg, "ratio_mode")
            run_sweep(cfg)
            outputs.append(strip_wall(out))
        assert outputs[0] == outputs[1]

    def test_k_must_fit_graph(self, tmp_path):
        cfg = load_config(base_config(tmp_path,
                                      k_range={"min": 1, "max": 12}))
        with pytest.raises(ConfigError):
            run_sweep(cfg)

    @pytest.mark.parametrize("min_contacts, degree", [(1, 3), (2, 2)])
    def test_trace_topology_sweep(self, tmp_path, min_contacts, degree):
        # a 12-node ring seen twice per pair, and its six diameters once:
        # two contacts leave the ring, one adds the diameters
        trace = tmp_path / "contacts.txt"
        ring = [f"n{i} n{(i + 1) % 12} {t} {t + 1}" for t in (0, 5)
                for i in range(12)]
        trace.write_text("\n".join(ring + [f"n{i},n{i + 6}" for i in range(6)])
                         + "\n")
        cfg = load_config(base_config(
            tmp_path, topology={"trace": str(trace),
                                "min_contacts": min_contacts}))
        assert zdlab.cli.build_graph(cfg.topology).degrees.tolist() == (
            [degree] * 12)
        rows = run_sweep(cfg)
        assert [(r["K"], r["repetition"]) for r in rows] == [
            (1, 0), (1, 1), (2, 0), (2, 1)]
        for row in rows:
            zd_set = [int(u) for u in row["zd_set"].split(";")]
            assert len(zd_set) == row["K"] and set(zd_set) <= set(range(12))
            assert row["zd_mean_degree"] == degree
        with open(cfg.output) as fh:
            assert fh.readline().strip() == CSV_VERSION
            records = list(csv.DictReader(fh))
        assert len(records) == 8
        assert [r["zd_set"] for r in records[:4]] == [r["zd_set"] for r in rows]
        means = [r for r in records if r["repetition"] == "mean"]
        assert [float(r["zd_mean_degree"]) for r in means] == [degree] * 2

    def test_missing_trace_file_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "contacts.txt"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            tmp_path, topology={"trace": str(missing)})))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "sweep.csv").exists()

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
        assert g.degrees[0] == 9

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

    @pytest.mark.parametrize("graph, zd, digest", [
        (("star", 10, 0), "0",
         "740f08b6697c5f810ab40f817dcc245c96959280a41770a10626cd05bf263387"),
        (("mesh", 20, 3), "2,9,15",
         "97b8ce97152e02d9ddedb9e6693ceff0d4288a16f038b70d5df3d5f22fdb524b"),
        # node 5 is isolated; node 4's one neighbour is ZD
        ([(0, 1), (1, 2), (2, 0), (3, 4)], "3",
         "29be03dd048ed19626e205b48f09605a872f80ce565c727f568ecf25f27c18c4"),
        (("mesh", 12, 1), "0,1,2,3,4,5,6,8,9,10,11",
         "93af0d6757401d6b948d588f664f7bd838ab3194952290a81d4fbacb75e832df"),
    ])
    def test_field_output_golden(self, tmp_path, capsys, graph, zd, digest):
        # sha256 of `zdlab field` stdout: the per-node lines, objective,
        # mean_regular and expected_ratio
        gpath = tmp_path / "g.txt"
        if isinstance(graph, tuple):
            kind, n, seed = graph
            zdlab.graphs.generate(kind, n, seed=seed).write(gpath)
        else:
            Graph(6, graph).write(gpath)
        assert main(["field", "--graph", str(gpath), "--zd", zd]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
        assert hashlib.sha256(out.encode()).hexdigest() == SYNTH_REPINS.get(
            digest, digest)

    @pytest.mark.parametrize("dims, chi, frac, extra, code, digest",
                             SYNTH_GOLDENS)
    def test_synth_output_golden_grid(self, capsys, dims, chi, frac, extra,
                                      code, digest):
        assert main(["synth", *synth_argv(dims, chi, frac), *extra]) == code
        captured = capsys.readouterr()
        text = captured.out if code == 0 else captured.err
        assert hashlib.sha256(text.encode()).hexdigest() == SYNTH_REPINS.get(
            digest, digest)

    def test_synth_at_range_end(self, capsys):
        # l_max of this game: its boundary f entry rounds to about -2e-15
        assert main(["synth", "--players", "6", "--alliance", "4",
                     "--r", "15", "--chi", "0.3",
                     "--l", "11.42857142857143"]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] <= 1e-8

    def test_closed_pipe_exit_code(self, tmp_path):
        # the reader closes stdout after one line of a 3,000-line report
        gpath = tmp_path / "ring.txt"
        Graph(3000, [(u, (u + 1) % 3000) for u in range(3000)]).write(
            str(gpath))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(zdlab.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "zdlab.cli", "field", "--graph",
             str(gpath), "--zd", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"1 zd_neighbors=1")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

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

    @pytest.mark.parametrize("detail", [
        "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"
        " and data type float64", ""])
    def test_memory_error_exit_code(self, tmp_path, monkeypatch, capsys,
                                    detail):
        def oversized(g):
            raise MemoryError(detail)

        gpath = tmp_path / "ring.txt"
        Graph(3, [(0, 1), (1, 2), (2, 0)]).write(gpath)
        monkeypatch.setattr(zdlab.graphs, "betweenness", oversized)
        assert main(["metrics", "--graph", str(gpath)]) == 2
        err = capsys.readouterr().err
        expected = detail or "allocation failed"
        assert err == f"error: not enough memory ({expected})\n"

    # r·N, or the range's theta·b, past the largest float64; at chi
    # 0.999999 the range is finite but the payoffs are not
    @pytest.mark.parametrize("command", ["synth", "verify"])
    @pytest.mark.parametrize("players,alliance,r,chi,l", [
        (3, 2, "1e308", "0", "4e307"),
        (10, 6, "4e307", "0", "1e307"),
        (3, 2, "1e308", "0.999999", "5e307"),
    ])
    def test_payoff_overflow_exit_code(self, capsys, command, players,
                                       alliance, r, chi, l):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, "--players", str(players), "--alliance",
                       str(alliance), "--r", r, "--chi", chi, "--l", l])
        assert rc == 2 and not caught
        err = capsys.readouterr().err
        assert err == (f"error: payoff factor r={float(r)} overflows float64 "
                       f"in a {players}-player game\n")

    # the largest payoffs stay just inside float64
    @pytest.mark.parametrize("command", ["synth", "verify"])
    @pytest.mark.parametrize("players,alliance,r,l", [
        (3, 2, "5e307", "2.5e307"),
        (10, 9, "1e307", "5e306"),
    ])
    def test_payoffs_near_overflow_synthesize(self, capsys, command, players,
                                              alliance, r, l):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, "--players", str(players), "--alliance",
                       str(alliance), "--r", r, "--chi", "0", "--l", l])
        assert rc == 0 and not caught
        assert capsys.readouterr().err == ""

    def test_zero_band_near_overflow(self, capsys):
        # chi g_A + g_O + (1 + chi) |l| of this game exceeds float64, while
        # each of its terms and the payoffs stay finite
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["synth", "--players", "3", "--alliance", "2", "--r",
                       "5.966666666666667e+307", "--chi", "0.9", "--l",
                       "3.977777777777778e+307"])
        assert rc == 0 and not caught
        assert capsys.readouterr().err == ""

    def test_sweep_checks_output_before_ga(self, tmp_path, monkeypatch,
                                           capsys):
        def no_ga(*args, **kwargs):
            raise AssertionError("GA ran before the output was checked")

        monkeypatch.setattr(zdlab.cli, "optimize_ga", no_ga)
        out = tmp_path / "missing" / "sweep.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(tmp_path, output=str(out))))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    # the lumped chain is capped at 9 outsiders and the game at 1,024
    # players; the refusal comes before any table that grows with N, such
    # as the (alliance + 1, N + 1) payoffs by cooperator counts, is built
    @pytest.mark.parametrize("command, players, alliance, message", [
        ("synth", 11, 1, OUTSIDER_CAP), ("verify", 11, 1, OUTSIDER_CAP),
        ("synth", 20, 10, OUTSIDER_CAP), ("verify", 20, 10, OUTSIDER_CAP),
        ("synth", 64, 1, OUTSIDER_CAP), ("verify", 64, 1, OUTSIDER_CAP),
        ("synth", 1025, 1024, PLAYER_CAP), ("verify", 1025, 1024, PLAYER_CAP),
        ("synth", 2000, 1999, PLAYER_CAP), ("verify", 2000, 1999, PLAYER_CAP),
    ], ids=["synth", "verify", "synth-20", "verify-20", "synth-64",
            "verify-64", "synth-1025", "verify-1025", "synth-2000",
            "verify-2000"])
    def test_player_cap_exit_code(self, capsys, command, players, alliance,
                                  message):
        tracemalloc.start()
        try:
            rc = main([command, "--players", str(players),
                       "--alliance", str(alliance), "--r",
                       str(2 * players + 3), "--chi", "0", "--l",
                       str(players + 2)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert peak < 4 * 2**20

    def test_player_cap_precedes_feasibility(self, capsys):
        # this game is infeasible too, but its size is refused first
        assert main(["synth", "--players", "11", "--alliance", "1",
                     "--r", "2", "--l", "1"]) == 2
        assert capsys.readouterr().err == f"error: {OUTSIDER_CAP}\n"

    def test_one_outsider_at_n200(self, capsys):
        # N = 200 with one outsider: a 4-state lumped chain
        shape = ["--players", "200", "--alliance", "199", "--r", "403",
                 "--chi", "0", "--l", "150"]
        assert main(["synth", *shape]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] <= 1e-8
        assert main(["verify", *shape]) == 0
        assert float(capsys.readouterr().out.split()[-1]) <= 1e-8

    def test_exhaustive_cap_exit_code(self, tmp_path, capsys):
        gpath = str(tmp_path / "mesh80.txt")
        assert main(["topo", "--type", "mesh", "--n", "80",
                     "--out", gpath]) == 0
        capsys.readouterr()
        # 80 * C(79, 5) mask entries, each weighted by 1 + (80 / 256)^2
        assert main(["opt", "--graph", gpath, "--K", "6",
                     "--exhaustive"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: search work 1979075535 (V = 80, K = 6) "
                       "exceeds the cap of 134217728\n")

    @pytest.mark.parametrize("command", ["opt", "sweep"])
    def test_population_cap_exit_code(self, tmp_path, monkeypatch, capsys,
                                      command):
        # one over GA_CAP entries on a 12-node ring, refused by its value:
        # no betweenness, no output file and no random draw
        size = zdlab.optimize.GA_CAP // 12 + 1
        gpath = tmp_path / "ring12.txt"
        Graph(12, [(u, (u + 1) % 12) for u in range(12)]).write(str(gpath))
        out = tmp_path / "sweep.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            tmp_path, ga={"population_size": size, "generations": 1})))

        def refuse(*args):
            raise AssertionError("work done past the population cap")

        monkeypatch.setattr(zdlab.graphs, "betweenness", refuse)
        monkeypatch.setattr(zdlab.optimize.np.random, "default_rng", refuse)
        argv = {"opt": ["opt", "--graph", str(gpath), "--K", "2",
                        "--population", str(size)],
                "sweep": ["sweep", "--config", str(cfg_path)]}[command]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: a population of {size} on 12 nodes holds {12 * size} "
            f"entries, over the cap of {zdlab.optimize.GA_CAP}\n")
        assert not out.exists()
        assert peak < 4 * 2**20

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
        # the Monte Carlo draw takes a 64-bit round count
        {"ratio": {"mode": "monte_carlo", "rounds": 10**21}},
        {"ratio": {"mode": "monte_carlo", "rounds": 2**63}},
        # an integer past float64
        {"scale": {"a": 10**400}},
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

    @pytest.mark.parametrize("command, option", [
        ("opt", "--seed"),
        ("verify", "--outsider-seed"),
    ])
    def test_negative_seed_option_exit_code(self, tmp_path, capsys, command,
                                            option):
        # numpy seeds must be non-negative; numpy's own message names no option
        gpath = str(tmp_path / "g.txt")
        required = {"opt": ["--graph", gpath, "--K", "1"],
                    "verify": ["--players", "3", "--alliance", "2",
                               "--r", "9", "--l", "5"]}
        Graph(3, [(0, 1), (1, 2)]).write(gpath)
        assert main([command, *required[command], f"{option}=-1"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {option} must be non-negative, not -1\n"

    def test_negative_sweep_seed_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(tmp_path, seed=-5)))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'seed'" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "sweep.csv").exists()

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

    @pytest.mark.parametrize("command", ["metrics", "opt", "field"])
    def test_node_count_past_id_range_exit_code(self, tmp_path, capsys,
                                                command):
        # refused before any array is built, so a count past int64 cannot
        # overflow the int64 arc keys nor one past int32 wrap the int32 ids
        path = tmp_path / "huge.txt"
        path.write_text("V 100000000000000000000\n0 1\n")
        argv = {"metrics": [], "opt": ["--K", "1"], "field": ["--zd", "0"]}
        assert main([command, "--graph", str(path), *argv[command]]) == 2
        assert capsys.readouterr().err == (
            "error: node count 100000000000000000000 must lie in "
            "1..2147483647\n")

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
        # a key that is not JSON, and a table that is not an object
        {"leaders": [dict(FULL_TABLE, **{"[0, 0": 0.5})],
         "followers": [[0.5] * 4]},
        {"leaders": [[]], "followers": [[0.5] * 4]},
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

    # pure outsiders at l_max of (3, 3, 2, r 9): on the full 2^N chain from
    # the uniform vector, the first read 2.5e-1 (closed classes of split
    # alliance states) and the second spun for 3 s, then exited 4
    @pytest.mark.parametrize("coop_low", [1, 0], ids=["split-class",
                                                       "periodic"])
    def test_pure_outsider_verifies(self, tmp_path, capsys, coop_low):
        table = {"[0, 0, 0]": 1, "[0, 1, 0]": 0, "[0, 2, 0]": 1,
                 "[1, 0, 0]": coop_low, "[1, 1, 0]": 1, "[1, 2, 0]": 0}
        path = tmp_path / "outsiders.json"
        path.write_text(json.dumps({"leaders": [table], "followers": []}))
        start = time.perf_counter()
        assert main(["verify", "--players", "3", "--leaders", "3",
                     "--alliance", "2", "--r", "9", "--chi", "0", "--l", "7",
                     "--outsider-file", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert err == "" and float(out.split()[-1]) <= 1e-8

    def test_opt_computes_no_betweenness(self, tmp_path, monkeypatch, capsys):
        def refuse(adj, sources):
            raise AssertionError("zdlab opt computed betweenness")

        gpath = str(tmp_path / "mesh30.txt")
        assert main(["topo", "--type", "mesh", "--n", "30",
                     "--out", gpath]) == 0
        monkeypatch.setattr(zdlab.graphs, "_dependencies", refuse)
        assert main(["opt", "--graph", gpath, "--K", "2",
                     "--population", "10", "--generations", "2"]) == 0
        assert "zd_set " in capsys.readouterr().out

    @pytest.mark.parametrize("via", ["topo", "sweep"])
    def test_two_node_mesh_exit_code(self, tmp_path, capsys, via):
        out = tmp_path / "out.txt"
        if via == "topo":
            argv = ["topo", "--type", "mesh", "--n", "2", "--out", str(out)]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(base_config(
                tmp_path, topology={"type": "mesh", "n": 2},
                k_range={"min": 1, "max": 1}, output=str(out))))
            argv = ["sweep", "--config", str(cfg_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: a mesh needs at least three nodes\n"
        assert not out.exists()

    @pytest.mark.parametrize("via", ["topo", "sweep"])
    def test_topology_edge_limit_exit_code(self, tmp_path, capsys, via):
        out = tmp_path / "out.txt"
        if via == "topo":
            argv = ["topo", "--type", "ring", "--n", str(10**12),
                    "--out", str(out)]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(base_config(
                tmp_path, topology={"type": "ring", "n": 10**12},
                output=str(out))))
            argv = ["sweep", "--config", str(cfg_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"error: a ring on {10**12} nodes expects {10**12} "
                       "edges, over the limit of 1000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("tournament_size", 3), ("crossover_rate", 0.9),
        ("mutation_rate", None), ("elitism_count", 2),
    ])
    def test_fixed_ga_operator_exit_code(self, tmp_path, capsys, key, value):
        # the GA's operators are constants: setting one is an unknown field
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            tmp_path, ga={"population_size": 20, "generations": 10,
                          key: value})))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: unknown field(s) in ga: [{key!r}]\n"
        assert not (tmp_path / "sweep.csv").exists()

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

    @pytest.mark.parametrize("via", ["field", "opt", "sweep"])
    def test_scale_without_dilemma_exit_code(self, tmp_path, capsys, via):
        # r(2) = 0.5: the flags refuse what a sweep config refuses
        gpath = str(tmp_path / "ring6.txt")
        Graph(6, [(u, (u + 1) % 6) for u in range(6)]).write(gpath)
        scale = {"a": 0, "k": 1, "b": 0.5}
        if via == "sweep":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(base_config(tmp_path,
                                                       scale=scale)))
            argv, prefix = ["sweep", "--config", str(cfg_path)], "config error"
        else:
            argv = [via, "--graph", gpath, *{"field": ["--zd", "0"],
                                             "opt": ["--K", "2"]}[via],
                    *(f"--scale-{key}={value}"
                      for key, value in scale.items())]
            prefix = "error"
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"{prefix}: payoff scale must exceed 1 for every reachable game "
            "size\n")

    @pytest.mark.parametrize("via", ["field", "opt", "exhaustive", "sweep"])
    def test_overflowing_scale_exit_code(self, tmp_path, capsys, via):
        # r(3) = 9e308 overflows: the ring's nodes play 3-player games
        gpath = str(tmp_path / "ring6.txt")
        Graph(6, [(u, (u + 1) % 6) for u in range(6)]).write(gpath)
        scale = ["--scale-a", "1e308", "--scale-k", "2"]
        argv = {
            "field": ["field", "--graph", gpath, "--zd", "0", *scale],
            "opt": ["opt", "--graph", gpath, "--K", "2", *scale],
            "exhaustive": ["opt", "--graph", gpath, "--K", "2",
                           "--exhaustive", *scale],
        }.get(via)
        if via == "sweep":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(base_config(
                tmp_path, topology={"type": "ring", "n": 6},
                scale={"a": 1e308, "k": 2})))
            argv = ["sweep", "--config", str(cfg_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc == 2 and not caught
        captured = capsys.readouterr()
        assert captured.err == (
            "error: payoff scale PayoffScale(a=1e+308, k=2, b=3.0) overflows "
            "float64 in a 3-player game\n")
        assert "nan" not in captured.out

    @pytest.mark.parametrize("via", ["topo", "sweep"])
    def test_mesh_pair_limit_exit_code(self, tmp_path, capsys, via):
        out = tmp_path / "out.txt"
        topology = {"type": "mesh", "n": 100_000, "density": 1e-4}
        if via == "topo":
            argv = ["topo", "--type", "mesh", "--n", "100000",
                    "--density", "0.0001", "--out", str(out)]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(base_config(
                tmp_path, topology=topology, output=str(out))))
            argv = ["sweep", "--config", str(cfg_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: a mesh on 100000 nodes draws 4999950000 node pairs, "
            "over the limit of 33554432\n")
        assert not out.exists()

    def test_sweep_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(tmp_path)))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert "wrote 4 rows" in capsys.readouterr().out
        assert (tmp_path / "sweep.csv").exists()


# Option values for the property test over `main`: each option has usual
# values and further ones: small sizes, each cap + 1, the float64
# extremes, huge integers and "". An example draws usual values only, or
# one further value, or any values (usual ones three times in four) and
# then drops an option one time in ten. Sizes stay small unless the value
# must be refused before any work: a population is drawn large only over
# its cap on every graph drawn (3 nodes or more), and a sweep graph never,
# since nothing refuses it.
SMALL = ["0", "-1", "1", "2", "3"]
EXTREME = ["", "1e308", "-1e308", str(10**30), str(-10**30), str(10**400)]
SIZE = SMALL + EXTREME
FLOAT = SIZE + ["0.3", "9"]
FILES = ["{graph}", "{trace}", "{config}", "{outsiders}", "{missing}", ""]
SCALE_OPTIONS = {"--scale-a": (["2", "0"], FLOAT + ["1e307"]),
                 "--scale-k": (["1", "2"], SIZE),
                 "--scale-b": (["3"], FLOAT)}
SHAPE_OPTIONS = {
    "--players": (["3", "4"], SIZE + [
        str(zdlab.markov.MAX_OUTSIDERS + 3),
        str(zdlab.markov.MAX_LUMPED_PLAYERS + 1)]),
    "--alliance": (["2", "3"], SIZE), "--leaders": (["3"], SIZE),
    "--r": (["9", "23"], FLOAT), "--chi": (["0", "0.3"], FLOAT),
    "--l": (["5", "9"], FLOAT), "--phi": (["0.1", "-0.1"], FLOAT),
}
# per subcommand: option -> (usual values, further values), or None for a
# flag. A tree or star of MAX_GENERATED_EDGES + 2 nodes has one edge too
# many; 8,193 nodes make the fewest pairs over MAX_MESH_PAIRS.
OPTIONS = {
    "topo": {"--type": (list(zdlab.graphs.TOPOLOGIES), [""]),
             "--n": (["3", "6", "11"], SIZE + [
                 str(zdlab.graphs.MAX_GENERATED_EDGES + 2), "8193"]),
             "--seed": (["0", "1"], SIZE),
             "--density": (["0.5", "0.0001"], FLOAT),
             "--out": (["{out}"], [""])},
    "ingest": {"--trace": (["{trace}"], FILES),
               "--min-contacts": (["1", "2"], SIZE),
               "--out": (["{out}"], [""])},
    "metrics": {"--graph": (["{graph}"], FILES), "--per-node": None},
    "synth": SHAPE_OPTIONS,
    "verify": {**SHAPE_OPTIONS, "--outsider-seed": (["0", "3"], SIZE),
               "--outsider-file": (["{outsiders}"], FILES)},
    "field": {"--graph": (["{graph}"], FILES),
              "--zd": (["0", "0,1", ""], ["-1", "5,1", "99", str(10**30),
                                          "1e308", "a"]),
              **SCALE_OPTIONS},
    "opt": {"--graph": (["{graph}"], FILES),
            "--K": (["1", "2"], SIZE + [
                str(zdlab.optimize.EXHAUSTIVE_CAP + 1)]),
            "--seed": (["0"], SIZE),
            "--population": (["2", "3"], SMALL + [
                str(zdlab.optimize.GA_CAP // 3 + 1)]),
            "--generations": (["1", "2"], SMALL), "--exhaustive": None,
            **SCALE_OPTIONS},
    "sweep": {"--config": (["{config}"], FILES)},
}
# sweep config fields, as above; the sweep graph and the GA stay small
CONFIG_VALUES = {
    ("topology", "type"): (["ring", "mesh", "tree"], ["blob", 3]),
    ("topology", "n"): ([6], [3, 0, -1, 10**30,
                              zdlab.graphs.MAX_GENERATED_EDGES + 2, ""]),
    ("topology", "seed"): ([0], [-1, 10**30]),
    ("topology", "density"): ([0.5, 1e-4], [None, 0, 2, 1e308, ""]),
    ("scale", "a"): ([2], [0, -1, 1e307, 1e308, -1e308, 10**400, ""]),
    ("scale", "k"): ([1, 2], [0, 3, 10**30]),
    ("scale", "b"): ([3], [0.5, 0, -1, 1e308, 10**400]),
    ("k_range", "min"): ([1], [2, 0, -1, 10**30]),
    ("k_range", "max"): ([2], [1, 0, 10**30, ""]),
    ("ga", "population_size"): ([2, 3], [1, 0, -1, "",
                                         zdlab.optimize.GA_CAP // 3 + 1]),
    ("ga", "generations"): ([1, 2], [0, -1, 1.5]),
    ("ratio", "mode"): (["expected", "monte_carlo"], ["", None]),
    ("ratio", "rounds"): ([50], [1, 0, -1, 2**63 - 1, 2**63, 1e308]),
    ("repetitions",): ([1, 2], [0, -1, ""]),
    ("seed",): ([0, 7], [-1, 10**30, 1e308, ""]),
    ("output",): (["{out}"], [""]),
}


def _draw_value(data, label, values, mode):
    """A value of ``values`` for ``mode``: "usual", "further" or "any"."""
    usual, further = values
    if mode == "further":
        return data.draw(st.sampled_from(further), label)
    if mode == "usual" or data.draw(st.integers(0, 3), label + " kind"):
        return data.draw(st.sampled_from(usual), label)
    return data.draw(st.sampled_from(usual + further), label)


def _mode(field, fault):
    return "any" if fault is None else "further" if field == fault else "usual"


@pytest.fixture(scope="module")
def property_files(tmp_path_factory):
    """Input files for the property test, and paths it may write."""
    root = tmp_path_factory.mktemp("main-property")
    paths = {name: str(root / name) for name in
             ("graph", "trace", "config", "outsiders", "missing", "out")}
    Graph(6, [(u, (u + 1) % 6) for u in range(6)] + [(0, 3)]).write(
        paths["graph"])
    Path(paths["trace"]).write_text("a b\nb c 1 2\nc a\n")
    # one outsider, a follower of the two leaders of a 3-player game
    Path(paths["outsiders"]).write_text(json.dumps(
        {"leaders": [], "followers": [[0.5, 1.0, 0.0]]}))
    return paths


def _draw_config(data, files, fault):
    doc = {}
    for keys, values in CONFIG_VALUES.items():
        label = ".".join(keys)
        if fault is None and data.draw(st.integers(0, 9), label) == 0:
            continue  # a missing field: its default, or a refusal
        value = _draw_value(data, label, values, _mode(keys, fault))
        if isinstance(value, str):
            value = value.format(**files)
        *outer, key = keys
        target = doc
        for name in outer:
            target = target.setdefault(name, {})
        target[key] = value
    return doc


class TestMainProperty:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_documented_exit_and_one_line(self, command, data,
                                          property_files):
        """Any command line ends in exit 0, 2, 3 or 4 with at most one line
        on stderr and no traceback, in under 64 MB; argparse's own errors
        keep its usage block and end in one ``error:`` line."""
        options = OPTIONS[command]
        # the field that takes a further value, "" for none, None for any
        fields = [option for option, values in options.items() if values]
        if command == "sweep":
            fields += list(CONFIG_VALUES)
        fault = data.draw(st.sampled_from([None, ""] + fields), "fault")
        argv = [command]
        for option, values in options.items():
            # drop one option in ten, required ones too
            if data.draw(st.integers(0, 9), option) == 0 and (
                    values is None or fault is None):
                continue
            if values is None:
                argv.append(option)
            else:
                value = _draw_value(data, option, values, _mode(option, fault))
                argv.append(f"{option}={value.format(**property_files)}")
        if command == "sweep":
            Path(property_files["config"]).write_text(json.dumps(
                _draw_config(data, property_files, fault)))

        out, err = io.StringIO(), io.StringIO()
        parse_error = False
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:  # argparse refused the argv
                    rc, parse_error = exc.code, True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        text = err.getvalue()
        lines = text.splitlines()
        assert rc in (0, 2, 3, 4), (argv, text)
        assert "Traceback" not in text, argv
        assert peak < 64 * 2**20, argv
        if parse_error:
            assert rc == 2 and lines[0].startswith("usage: zdlab"), argv
            assert lines[-1].startswith("zdlab") and ": error: " in lines[-1]
            assert sum("error:" in line for line in lines) == 1, argv
        else:
            assert len(lines) == (rc != 0), (argv, text)
