"""The benchmark's workloads.

A workload builds its inputs from the seed when it is constructed; that is
the set-up ``setup_s`` times. It then runs numbered rounds. A round is a
fixed mix of operations, and each of its legs returns ``(count, seconds)``
so that a rate is taken per round and the median over rounds reported.
Outputs are kept and checked after timing, so checks add no timed work and
call no traced function.

Every call into zdlab goes through a module attribute (``z.cli.run_sweep``)
so the traced run sees it.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import time
import traceback

import numpy as np

SCALE_DOC = {"a": 2, "k": 1, "b": 3}
# Operations are timed in process CPU time: the benchmark is one thread
# (one BLAS thread too), so CPU time equals the uncontended wall time while
# other tenants of a shared machine do not inflate it.
CLOCK = time.process_time
RESIDUAL_LIMIT = 1e-8
OBJECTIVE_RTOL = 1e-9


def _close(a, b, rtol=OBJECTIVE_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class Workload:
    name = ""
    # (leg, named metric) behind primary_per_s, then secondary_per_s
    rates: tuple = ()
    # expected seconds per round on the seed commit; sizes the traced run
    nominal_round_s = 1.0

    def __init__(self, z, seed: int, out_dir: str):
        self.z = z
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args, **kwargs):
        """Call ``fn`` and time it. An exception counts the operation as
        failed and yields ``None``."""
        self.attempted += 1
        start = CLOCK()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # any error of the code under test is a failure
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            out = None
        return out, CLOCK() - start

    def fail(self, what: str):
        print(f"check failed: {what}", file=sys.stderr)
        self.failed += 1

    def trace_rounds(self, seconds: float) -> int:
        return max(1, round(seconds / 2 / self.nominal_round_s))

    def run_round(self, i: int, phase=lambda label: None) -> dict:
        raise NotImplementedError

    def check(self) -> dict:
        """Check the kept outputs; return the workload's named metrics."""
        raise NotImplementedError

    def _check_deployment(self, dep, k, objective, what):
        """A deployment has exactly K nodes and the optimizer's objective
        matches ``evaluate``."""
        if len(dep.zd_nodes) != k:
            self.fail(f"{what}: {len(dep.zd_nodes)} nodes, K={k}")
            return False
        exact = self.z.field.evaluate(dep).objective
        if not _close(objective, exact):
            self.fail(f"{what}: objective {objective!r} != evaluate {exact!r}")
            return False
        return True


def _csv_problem(path, ks, repetitions):
    """Why the sweep CSV at ``path`` is malformed, or ``None``."""
    with open(path, newline="") as fh:
        first = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    if first != "# zdlab-v1":
        return f"version line {first!r}"
    if not rows or rows[0][:2] != ["K", "repetition"]:
        return "missing header"
    keys = [tuple(r[:2]) for r in rows[1:]]
    expected = [(str(k), str(rep)) for k in ks for rep in range(repetitions)]
    expected += [(str(k), stat) for k in ks for stat in ("mean", "std")]
    if sorted(keys) != sorted(expected):
        return f"rows {keys} != expected {expected}"
    return None


class SweepMesh80(Workload):
    """A K-slice of the default sweep through ``cli.run_sweep``."""

    name = "sweep-mesh80"
    rates = (("placements", "placements_per_s"), ("sweeps", "sweeps_per_s"))
    nominal_round_s = 7.5
    K_PAIRS = ((1, 6), (2, 7), (3, 8), (4, 9), (5, 10))

    def __init__(self, z, seed, out_dir):
        super().__init__(z, seed, out_dir)
        self.csv_path = os.path.join(out_dir, "sweep.csv")
        self.configs = []
        for j in range(len(self.K_PAIRS)):
            lo, hi = self.K_PAIRS[(seed + j) % len(self.K_PAIRS)]
            self.configs.append(z.cli.load_config({
                "topology": {"type": "mesh", "n": 80, "seed": seed,
                             "density": 0.49},
                "scale": SCALE_DOC,
                "k_range": {"min": lo, "max": hi, "step": hi - lo},
                "ga": {"population_size": 100, "generations": 300},
                "ratio": {"mode": "monte_carlo", "rounds": 1000},
                "repetitions": 1,
                "seed": seed,
                "output": self.csv_path,
            }))
        self.sweeps = []  # (ks, rows, csv problem)

    def run_round(self, i, phase=lambda label: None):
        cfg = self.configs[i % len(self.configs)]
        ks = list(range(cfg.k_min, cfg.k_max + 1, cfg.k_step))
        rows, dt = self.attempt(self.z.cli.run_sweep, cfg)
        if rows is not None:
            problem = _csv_problem(self.csv_path, ks, cfg.repetitions)
            self.sweeps.append((ks, rows, problem))
        return {"placements": (len(ks) * cfg.repetitions, dt),
                "sweeps": (1, dt)}

    def check(self):
        z = self.z
        cfg = self.configs[0]
        g = z.graphs.generate("mesh", 80, self.seed, 0.49)
        objectives = []
        for ks, rows, problem in self.sweeps:
            if problem is None and [row["K"] for row in rows] != ks:
                problem = f"rows for K {[row['K'] for row in rows]}"
            if problem is not None:
                self.fail(f"sweep: {problem}")
                continue
            for row in rows:  # one failure per sweep at most
                nodes = [int(u) for u in row["zd_set"].split(";")]
                dep = z.field.Deployment(g, frozenset(nodes), cfg.scale)
                if not self._check_deployment(dep, row["K"], row["objective"],
                                              f"sweep K={row['K']}"):
                    break
                objectives.append(row["objective"])
        mean = sum(objectives) / len(objectives) if objectives else math.nan
        return {"objective_mean": (mean, "count", len(objectives))}


class PlacementOracle(Workload):
    """Short GA placements on fresh V=80 graphs, plus exhaustive search and
    GA runs on small meshes (the paper's placement-curve and oracle
    settings)."""

    name = "placement-oracle"
    rates = (("placements", "placements_per_s"),
             ("subsets", "subsets_per_s"))
    nominal_round_s = 1.8
    TOPOLOGIES = ("mesh", "ring", "tree", "star")
    ORACLE_GA_RUNS = 3
    HIT_SHARE = 0.99  # criterion 07: within 1% of the exhaustive optimum

    def __init__(self, z, seed, out_dir):
        super().__init__(z, seed, out_dir)
        self.scale = z.game.PayoffScale(2, 1, 3)
        self.short_ga = dict(population_size=50, generations=40)
        self.placements = []  # (dep, k, objective)
        self.oracles = []     # (exact dep, k, exact objective, [ga runs])

    def _placement(self, topology, graph_seed, k, ga_seed):
        z = self.z
        g = z.graphs.generate(topology, 80, seed=graph_seed)
        cfg = z.optimize.GAConfig(**self.short_ga, seed=ga_seed)
        dep, objective, _ = z.optimize.optimize_ga(g, k, self.scale, cfg)
        z.field.evaluate(dep)
        z.field.cooperator_ratio(dep, "expected")
        z.field.cooperator_ratio(dep, "monte_carlo", 1000, ga_seed + 1)
        return dep, objective

    def run_round(self, i, phase=lambda label: None):
        z = self.z
        base = self.seed * 1000 + 4 * i
        place_s = 0.0
        for j, topology in enumerate(self.TOPOLOGIES):
            k = 1 + (self.seed + 4 * i + j) % 10
            out, dt = self.attempt(self._placement, topology,
                                   self.seed * 1000 + i, k, base + j)
            place_s += dt
            if out is not None:
                self.placements.append((out[0], k, out[1]))

        k = 3 + (self.seed + i) % 2
        g = z.graphs.generate("mesh", 20, seed=self.seed * 1000 + 500 + i,
                              mesh_density=0.3)
        exact, exhaustive_s = self.attempt(z.optimize.optimize_exhaustive,
                                           g, k, self.scale)
        runs = []
        for s in range(self.ORACLE_GA_RUNS):
            cfg = z.optimize.GAConfig(**self.short_ga, seed=base + s)
            out, _ = self.attempt(z.optimize.optimize_ga, g, k, self.scale,
                                  cfg)
            if out is not None:
                runs.append(out[:2])
        if exact is not None:
            self.oracles.append((exact[0], k, exact[1], runs))
        return {"placements": (len(self.TOPOLOGIES), place_s),
                "subsets": (math.comb(g.n, k), exhaustive_s)}

    def check(self):
        for dep, k, objective in self.placements:
            self._check_deployment(dep, k, objective, f"GA placement K={k}")
        hits = runs = 0
        for dep, k, exact, ga_runs in self.oracles:
            self._check_deployment(dep, k, exact, f"exhaustive K={k}")
            for ga_dep, found in ga_runs:
                runs += 1
                if not self._check_deployment(ga_dep, k, found,
                                              f"oracle GA K={k}"):
                    continue
                if found > exact and not _close(found, exact):
                    self.fail(f"GA {found!r} beats exhaustive {exact!r}")
                hits += found >= self.HIT_SHARE * exact - 1e-12
        rate = hits / runs if runs else math.nan
        return {"ga_hit_rate": (rate, "ratio", runs)}


class VerifyLadder(Workload):
    """``synthesize`` then ``verify_enforcement`` on pre-drawn outsider
    profiles: a small rung (N=2..5, also checked by the determinant route)
    and an N=10 rung."""

    name = "verify-ladder"
    rates = (("small", "verifies_small_per_s"),
             ("n10", "verifies_n10_per_s"))
    nominal_round_s = 1.0
    CHIS = (0.0, 0.3, 0.6)
    PAIRS_SMALL, POOL_SMALL = 20, 40
    PAIRS_N10, POOL_N10 = 2, 6
    L_DRAWS = 64  # rounds beyond this reuse the baselines drawn for round % 64

    def __init__(self, z, seed, out_dir):
        super().__init__(z, seed, out_dir)
        GameShape = z.game.GameShape
        rng = np.random.default_rng(seed)
        # the criterion-01 grid
        self.small = [(GameShape(n, n - 1, n - 1, 2.0 * n + 3.0), chi)
                      for n in (2, 3, 4, 5) for chi in self.CHIS]
        self.n10 = [(GameShape(10, 9, 9, 23.0), 0.3),
                    (GameShape(10, 7, 6, 23.0), 0.0)]
        self.baselines = {}
        for shape, chi in self.small + self.n10:
            lo, hi = z.alliance.feasible_l_range(chi, shape)
            self.baselines[shape, chi] = rng.uniform(lo, hi, self.L_DRAWS)
        self.pools = {}
        for shape, _ in self.small + self.n10:
            if shape not in self.pools:
                size = self.POOL_N10 if shape.n_players == 10 else self.POOL_SMALL
                self.pools[shape] = [z.alliance.random_outsiders(shape, rng)
                                     for _ in range(size)]
            z.game.payoff_vectors(shape)
        self.certificates = []
        self.residuals = []  # (rung, stationary residual, determinant residual)

    def _verify_pair(self, result, outsiders, determinant):
        z = self.z
        stat = z.alliance.verify_enforcement(result, outsiders)
        if not determinant:
            return stat, None
        shape = result.params.shape
        n_out_leaders = shape.n_leaders - shape.n_alliance
        leaders = ([result.strategy] * shape.n_alliance
                   + list(outsiders[:n_out_leaders]))
        tm = z.markov.build_transition_matrix(
            shape, leaders, list(outsiders[n_out_leaders:]), coupling=True)
        return stat, abs(z.markov.determinant_dot(tm, result.f_vector, 0))

    def _rung(self, i, rung, cases, pairs, determinant):
        z = self.z
        count, seconds = 0, 0.0
        for shape, chi in cases:
            l = float(self.baselines[shape, chi][i % self.L_DRAWS])
            result, dt = self.attempt(z.alliance.synthesize,
                                      z.alliance.ZDParams(chi, l, shape))
            seconds += dt
            if result is None:
                continue
            self.certificates.append(result.certificate)
            pool = self.pools[shape]
            for p in range(pairs):
                outsiders = pool[(i * pairs + p) % len(pool)]
                out, dt = self.attempt(self._verify_pair, result, outsiders,
                                       determinant)
                seconds += dt
                count += 1
                if out is not None:
                    self.residuals.append((rung, *out))
        return count, seconds

    def run_round(self, i, phase=lambda label: None):
        phase("small")
        small = self._rung(i, "small", self.small, self.PAIRS_SMALL, True)
        phase("n10")
        n10 = self._rung(i, "n10", self.n10, self.PAIRS_N10, False)
        phase("")
        return {"small": small, "n10": n10}

    def check(self):
        for cert in self.certificates:
            if not cert <= RESIDUAL_LIMIT:
                self.fail(f"synthesis certificate {cert:.3e}")
        for rung, stat, det in self.residuals:
            if not stat <= RESIDUAL_LIMIT:
                self.fail(f"{rung} stationary residual {stat:.3e}")
            elif det is not None and not det <= RESIDUAL_LIMIT:
                self.fail(f"{rung} determinant residual {det:.3e}")
        return {}


WORKLOADS = {cls.name: cls for cls in (SweepMesh80, PlacementOracle,
                                       VerifyLadder)}
