"""Command-line interface and experiment orchestration.

Subcommands: topo, ingest, metrics, synth, verify, field, opt, sweep.
Exit codes: 0 success, 2 configuration or input error, 3 infeasibility,
4 numerical failure (the stationary solve missed its residual target or
found no finite nonnegative solution, or the determinant normalization
degenerated), 141 stdout closed by its reader
(a broken pipe; nothing more is printed).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import alliance as zd
from . import graphs
from .errors import (ConfigError, ConvergenceError, DegenerateChainError,
                     InfeasibleError, ZdlabError)
from .field import Deployment, cooperator_ratio, evaluate
from .game import GameShape, PayoffScale
from .markov import FollowerStrategy, LeaderStrategy, leader_table_shape
from .optimize import GAConfig, optimize_exhaustive, optimize_ga

CSV_VERSION = "# zdlab-v1"

SWEEP_COLUMNS = [
    "K", "repetition", "seed", "objective", "mean_regular_coop",
    "expected_ratio", "monte_carlo_ratio", "zd_set", "zd_mean_degree",
    "zd_mean_betweenness", "wall_ms",
]

AGGREGATE_COLUMNS = [
    "objective", "mean_regular_coop", "expected_ratio", "monte_carlo_ratio",
    "zd_mean_degree", "zd_mean_betweenness",
]


@dataclass(frozen=True)
class TopologySpec:
    kind: str | None = None
    n: int = 0
    seed: int = 0
    density: float | None = None
    trace: str | None = None
    min_contacts: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    topology: TopologySpec
    scale: PayoffScale
    k_min: int
    k_max: int
    k_step: int = 1
    ga: GAConfig = GAConfig()
    ratio_rounds: int = 1000
    repetitions: int = 30
    seed: int = 0
    output: str = "sweep.csv"


def _require_keys(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {sorted(unknown)}")


# JSON value types accepted per field; bools never count as numbers.
_INT = (int,)
_NUM = (int, float)
_STR = (str,)
_OBJ = (dict,)
_LIST = (list,)
_NULL = (type(None),)

_GA_TYPES = {"population_size": _INT, "generations": _INT}


def _is_a(value, kinds):
    return not isinstance(value, bool) and isinstance(value, kinds)


def _typed(mapping, key, kinds, where, default=None):
    """``mapping[key]``, or ``default`` when absent, checked against ``kinds``."""
    value = mapping.get(key, default)
    if not _is_a(value, kinds):
        raise ConfigError(f"{where} field {key!r} has the wrong type: {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} field {key!r} must be finite: {value!r}")
    return value


def load_config(doc: dict) -> ExperimentConfig:
    """Strictly validated sweep configuration."""
    _require_keys(doc, ("topology", "scale", "k_range", "ga", "ratio",
                        "repetitions", "seed", "output"), "config")
    for key in ("topology", "scale", "k_range", "output"):
        if key not in doc:
            raise ConfigError(f"config missing required field {key!r}")

    topo_doc = _typed(doc, "topology", _OBJ, "config")
    if "trace" in topo_doc:
        _require_keys(topo_doc, ("trace", "min_contacts"), "topology")
        topology = TopologySpec(
            trace=_typed(topo_doc, "trace", _STR, "topology"),
            min_contacts=_typed(topo_doc, "min_contacts", _INT, "topology", 1))
    else:
        _require_keys(topo_doc, ("type", "n", "seed", "density"), "topology")
        if "type" not in topo_doc or "n" not in topo_doc:
            raise ConfigError("topology needs 'type' and 'n' (or 'trace')")
        kind = _typed(topo_doc, "type", _STR, "topology")
        if kind not in graphs.TOPOLOGIES:
            raise ConfigError(f"unknown topology type {kind!r}")
        topology = TopologySpec(
            kind=kind, n=_typed(topo_doc, "n", _INT, "topology"),
            seed=_typed(topo_doc, "seed", _INT, "topology", 0),
            density=_typed(topo_doc, "density", _NUM + _NULL, "topology"))

    scale_doc = _typed(doc, "scale", _OBJ, "config")
    _require_keys(scale_doc, ("a", "k", "b"), "scale")
    try:
        scale = PayoffScale(float(_typed(scale_doc, "a", _NUM, "scale", 2.0)),
                            _typed(scale_doc, "k", _INT, "scale", 1),
                            float(_typed(scale_doc, "b", _NUM, "scale", 3.0)))
    except (ValueError, OverflowError) as exc:  # an int past float64
        raise ConfigError(str(exc)) from exc

    k_doc = _typed(doc, "k_range", _OBJ, "config")
    _require_keys(k_doc, ("min", "max", "step"), "k_range")
    k_min = _typed(k_doc, "min", _INT, "k_range", 1)
    k_max = _typed(k_doc, "max", _INT, "k_range", k_min)
    k_step = _typed(k_doc, "step", _INT, "k_range", 1)
    if k_min < 1 or k_max < k_min or k_step < 1:
        raise ConfigError("k_range must satisfy 1 <= min <= max, step >= 1")

    ga_doc = _typed(doc, "ga", _OBJ, "config", {})
    _require_keys(ga_doc, _GA_TYPES, "ga")
    for key in ga_doc:
        _typed(ga_doc, key, _GA_TYPES[key], "ga")
    try:
        ga = GAConfig(**ga_doc)
    except ValueError as exc:
        raise ConfigError(f"invalid ga config: {exc}") from exc

    ratio_doc = _typed(doc, "ratio", _OBJ, "config", {})
    _require_keys(ratio_doc, ("mode", "rounds"), "ratio")
    mode = _typed(ratio_doc, "mode", _STR, "ratio", "expected")
    if mode not in ("expected", "monte_carlo"):
        raise ConfigError(f"unknown ratio mode {mode!r}")
    ratio_rounds = _typed(ratio_doc, "rounds", _INT, "ratio", 1000)
    # the Monte Carlo draw takes its round count as a 64-bit integer
    if not 1 <= ratio_rounds <= 2**63 - 1:
        raise ConfigError("ratio rounds must lie in 1..2**63 - 1")

    repetitions = _typed(doc, "repetitions", _INT, "config", 30)
    if repetitions < 1:
        raise ConfigError("repetitions must be positive")
    seed = _typed(doc, "seed", _INT, "config", 0)
    _check_seed("config field 'seed'", seed)

    return ExperimentConfig(topology=topology, scale=scale, k_min=k_min,
                            k_max=k_max, k_step=k_step, ga=ga,
                            ratio_rounds=ratio_rounds,
                            repetitions=repetitions,
                            seed=seed,
                            output=_typed(doc, "output", _STR, "config"))


def _read_json_object(path, what) -> dict:
    """The JSON object in file ``path``; ``what`` names the file in errors."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON text
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} root must be a JSON object")
    return doc


def build_graph(spec: TopologySpec) -> graphs.Graph:
    if spec.trace is not None:
        records = graphs.parse_trace_file(spec.trace)
        return graphs.ingest_trace(records, spec.min_contacts)
    return graphs.generate(spec.kind, spec.n, spec.seed, spec.density)


def _rep_seed(base, k, rep):
    return base * 1_000_003 + k * 1_009 + rep


def run_sweep(cfg: ExperimentConfig):
    """K-sweep over repeated placements; returns the result rows and
    writes the CSV to ``cfg.output``."""
    g = build_graph(cfg.topology)
    if cfg.k_max >= g.n:
        raise ConfigError(f"k_max {cfg.k_max} must be below node count {g.n}")
    cfg.ga.check_size(g)
    # an unwritable output fails here, not after every GA run; "a" leaves
    # an existing file as it is until write_sweep_csv replaces it
    with open(cfg.output, "a"):
        pass
    node_betweenness = graphs.betweenness(g)
    rows = []
    for k in range(cfg.k_min, cfg.k_max + 1, cfg.k_step):
        for rep in range(cfg.repetitions):
            seed = _rep_seed(cfg.seed, k, rep)
            start = time.perf_counter()
            ga = replace(cfg.ga, seed=seed)
            dep, objective, _ = optimize_ga(g, k, cfg.scale, ga)
            result = evaluate(dep)
            expected = cooperator_ratio(dep, "expected")
            mc = cooperator_ratio(dep, "monte_carlo", cfg.ratio_rounds,
                                  seed + 1)
            zd_sorted = sorted(dep.zd_nodes)
            wall_ms = (time.perf_counter() - start) * 1000.0
            rows.append({
                "K": k,
                "repetition": rep,
                "seed": seed,
                "objective": objective,
                "mean_regular_coop": result.mean_regular,
                "expected_ratio": expected,
                "monte_carlo_ratio": mc,
                "zd_set": ";".join(str(u) for u in zd_sorted),
                "zd_mean_degree": int(g.degrees[zd_sorted].sum()) / k,
                "zd_mean_betweenness":
                    sum(node_betweenness[u] for u in zd_sorted) / k,
                "wall_ms": wall_ms,
            })
    write_sweep_csv(cfg.output, rows)
    return rows


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def write_sweep_csv(path, rows):
    """Per-repetition rows followed by mean/std aggregate rows per K."""
    by_k: dict[int, list] = {}
    for row in rows:
        by_k.setdefault(row["K"], []).append(row)
    with open(path, "w", newline="") as fh:
        fh.write(CSV_VERSION + "\n")
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow(_fmt(row[c]) for c in SWEEP_COLUMNS)
        for k in sorted(by_k):
            group = by_k[k]
            for stat_name, stat in (("mean", statistics.fmean),
                                    ("std", _sample_std)):
                agg = {c: "" for c in SWEEP_COLUMNS}
                agg["K"] = k
                agg["repetition"] = stat_name
                for col in AGGREGATE_COLUMNS:
                    agg[col] = _fmt(stat([row[col] for row in group]))
                writer.writerow(agg[c] for c in SWEEP_COLUMNS)


def _sample_std(values):
    if len(values) < 2:
        return 0.0
    return statistics.stdev(values)


def _shape_from_args(args) -> GameShape:
    n_leaders = args.leaders if args.leaders is not None else args.alliance
    return GameShape(args.players, n_leaders, args.alliance, args.r)


def _leader_table(table, shape, where):
    """(2, n_leaders, n_followers + 1) probabilities from a JSON object keyed
    by "[s, x, y]" arrays; every index must appear exactly once."""
    if not isinstance(table, dict):
        raise ConfigError(f"{where} must be an object")
    dims = leader_table_shape(shape)
    probs = np.zeros(dims)
    seen = np.zeros(dims, dtype=int)
    for key in table:
        try:
            index = json.loads(key)
        except json.JSONDecodeError:
            index = None
        if not (isinstance(index, list) and len(index) == 3
                and all(_is_a(i, _INT) and 0 <= i < d
                        for i, d in zip(index, dims))):
            raise ConfigError(
                f"{where} key {key!r} is not an index [s, x, y] with "
                f"s < 2, x < {dims[1]}, y < {dims[2]}")
        probs[tuple(index)] = _typed(table, key, _NUM, where)
        seen[tuple(index)] += 1
    if (seen != 1).any():
        index = np.argwhere(seen != 1)[0]
        raise ConfigError(f"{where} index {index.tolist()} appears "
                          f"{seen[tuple(index)]} times, not once")
    return probs


def _outsiders_from_args(shape, args):
    if getattr(args, "outsider_file", None):
        doc = _read_json_object(args.outsider_file, "outsider file")
        _require_keys(doc, ("leaders", "followers"), "outsider file")
        leader_docs = _typed(doc, "leaders", _LIST, "outsider file", [])
        follower_docs = _typed(doc, "followers", _LIST, "outsider file", [])
        n_out_leaders = shape.n_leaders - shape.n_alliance
        if (len(leader_docs), len(follower_docs)) != (n_out_leaders,
                                                      shape.n_followers):
            raise ConfigError(
                f"outsider file needs {n_out_leaders} leader table(s) and "
                f"{shape.n_followers} follower list(s), not "
                f"{len(leader_docs)} and {len(follower_docs)}")
        leaders = [LeaderStrategy(shape.n_alliance + offset,
                                  _leader_table(table, shape,
                                                f"leaders[{offset}]"))
                   for offset, table in enumerate(leader_docs)]
        followers = []
        for j, probs in enumerate(follower_docs):
            if (not _is_a(probs, _LIST) or len(probs) != shape.n_leaders + 1
                    or not all(_is_a(p, _NUM) for p in probs)):
                raise ConfigError(f"followers[{j}] must be a list of "
                                  f"{shape.n_leaders + 1} numbers")
            followers.append(FollowerStrategy(shape.n_leaders + j, probs))
        return leaders + followers
    rng = np.random.default_rng(args.outsider_seed)
    return zd.random_outsiders(shape, rng)


def cmd_topo(args):
    g = graphs.generate(args.type, args.n, args.seed, args.density)
    g.write(args.out)
    print(f"{args.type} graph: {g.n} nodes, {g.edge_count} edges -> {args.out}")
    return 0


def cmd_ingest(args):
    records = graphs.parse_trace_file(args.trace)
    g = graphs.ingest_trace(records, args.min_contacts)
    g.write(args.out)
    print(f"trace graph: {g.n} nodes, {g.edge_count} edges -> {args.out}")
    return 0


def cmd_metrics(args):
    g = graphs.Graph.read(args.graph)
    scores = graphs.betweenness(g)
    print(f"nodes {g.n} edges {g.edge_count}")
    print(f"mean_degree {_fmt(int(g.degrees.sum()) / g.n)}")
    print(f"mean_betweenness {_fmt(sum(scores) / g.n)}")
    if args.per_node:
        for u in range(g.n):
            print(f"{u} degree={g.degrees[u]} "
                  f"betweenness={_fmt(scores[u])}")
    return 0


def cmd_synth(args):
    shape = _shape_from_args(args)
    params = zd.ZDParams(args.chi, args.l, shape, args.phi)
    result = zd.synthesize(params)
    f, table = result.f_unison, result.strategy.table
    report = {
        "f": {f"{'c' if s else 'd'},{b}": float(f[s, b])
              for s, b in reversed(np.argwhere(~np.isnan(f)).tolist())},
        "phi_interval": list(result.phi_interval),
        "phi": result.phi,
        "strategy": {f"{'c' if s else 'd'},{x},{y}": float(table[s, x, y])
                     for s, x, y in reversed(list(np.ndindex(table.shape)))},
        "residual": result.certificate,
    }
    print(json.dumps(report, indent=2))
    return 0


def cmd_verify(args):
    _check_seed("--outsider-seed", args.outsider_seed)
    shape = _shape_from_args(args)
    params = zd.ZDParams(args.chi, args.l, shape, args.phi)
    result = zd.synthesize(params)
    residual = zd.verify_enforcement(result, _outsiders_from_args(shape, args))
    print(f"residual {residual:.3e}")
    return 0


def _parse_zd_nodes(text):
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok != "")
    except ValueError as exc:
        raise ConfigError(f"bad ZD node list {text!r}") from exc


def cmd_field(args):
    g = graphs.Graph.read(args.graph)
    scale = PayoffScale(args.scale_a, args.scale_k, args.scale_b)
    dep = Deployment(g, _parse_zd_nodes(args.zd), scale)
    result = evaluate(dep)
    for u in np.flatnonzero(~result.zd).tolist():
        print(f"{u} zd_neighbors={result.zd_neighbors[u]} "
              f"delta={_fmt(result.delta[u])} q={_fmt(result.q[u])}")
    print(f"objective {_fmt(result.objective)}")
    print(f"mean_regular {_fmt(result.mean_regular)}")
    print(f"expected_ratio {_fmt(cooperator_ratio(dep))}")
    return 0


def cmd_opt(args):
    _check_seed("--seed", args.seed)
    g = graphs.Graph.read(args.graph)
    scale = PayoffScale(args.scale_a, args.scale_k, args.scale_b)
    if args.exhaustive:
        dep, objective = optimize_exhaustive(g, args.K, scale)
    else:
        cfg = GAConfig(population_size=args.population,
                       generations=args.generations, seed=args.seed)
        dep, objective, _ = optimize_ga(g, args.K, scale, cfg)
    print(f"zd_set {';'.join(str(u) for u in sorted(dep.zd_nodes))}")
    print(f"objective {_fmt(objective)}")
    print(f"mean_regular {_fmt(evaluate(dep).mean_regular)}")
    return 0


def cmd_sweep(args):
    cfg = load_config(_read_json_object(args.config, "config"))
    rows = run_sweep(cfg)
    print(f"wrote {len(rows)} rows -> {cfg.output}")
    return 0


def _add_shape_args(parser):
    parser.add_argument("--players", type=int, required=True)
    parser.add_argument("--alliance", type=int, required=True)
    parser.add_argument("--leaders", type=int, default=None,
                        help="defaults to the alliance size")
    parser.add_argument("--r", type=float, required=True)
    parser.add_argument("--chi", type=float, default=0.0)
    parser.add_argument("--l", type=float, required=True)
    parser.add_argument("--phi", type=float, default=None)


def _add_scale_args(parser):
    parser.add_argument("--scale-a", type=float, default=2.0)
    parser.add_argument("--scale-k", type=int, default=1)
    parser.add_argument("--scale-b", type=float, default=3.0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zdlab",
        description="ZD alliance synthesis and ZD-player placement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topo", help="generate a topology and write it out")
    p.add_argument("--type", choices=graphs.TOPOLOGIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_topo)

    p = sub.add_parser("ingest", help="contact trace to graph file")
    p.add_argument("--trace", required=True)
    p.add_argument("--min-contacts", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("metrics", help="degree and betweenness statistics")
    p.add_argument("--graph", required=True)
    p.add_argument("--per-node", action="store_true")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("synth", help="synthesize a ZD alliance strategy")
    _add_shape_args(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="enforcement residual against outsiders")
    _add_shape_args(p)
    p.add_argument("--outsider-seed", type=int, default=0)
    p.add_argument("--outsider-file", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("field", help="evaluate one deployment")
    p.add_argument("--graph", required=True)
    p.add_argument("--zd", required=True, help="comma-separated ZD node ids")
    _add_scale_args(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("opt", help="optimize a single-K placement")
    p.add_argument("--graph", required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", type=int, default=100)
    p.add_argument("--generations", type=int, default=300)
    p.add_argument("--exhaustive", action="store_true")
    _add_scale_args(p)
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("sweep", help="run a configured K-sweep experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def _check_finite(args):
    """Every float option is an input, so NaN and infinity are input errors."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be a finite "
                              f"number, not {value}")


def _check_seed(option, value):
    """A numpy seed must be non-negative; say so by the option's name."""
    if value < 0:
        raise ConfigError(f"{option} must be non-negative, not {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_finite(args)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, DegenerateChainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader has gone: print nothing, and point stdout at devnull so
        # the interpreter's last flush cannot raise again (128 + SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ZdlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # dense V x V arrays (adjacency, betweenness) outgrow large graphs
        print(f"error: not enough memory ({str(exc) or 'allocation failed'})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
