"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``)
and asserts the same condition, so the suite gates CI while staying
readable as a checklist.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from zdlab.alliance import (ZDParams, dominance_check, feasible_l_range,
                            random_outsiders, synthesize, verify_enforcement)
from zdlab.errors import InfeasibleError
from zdlab.field import Deployment, cooperator_ratio, evaluate
from zdlab.game import GameShape, PayoffScale, unison_payoffs
from zdlab.graphs import betweenness, generate
from zdlab.markov import (FollowerStrategy, LeaderStrategy,
                          build_transition_matrix, determinant_dot,
                          leader_table_shape, stationary, zd_determinant)
from zdlab.optimize import GAConfig, optimize_exhaustive, optimize_ga

LINEAR = PayoffScale(2, 1, 3)     # r(n) = 2n + 3
QUADRATIC = PayoffScale(2, 2, 3)  # r(n) = 2n^2 + 3


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{name}]: {verdict} ({detail})")
    assert ok, f"criterion {num} [{name}]: {detail}"


def _random_profile(shape, rng):
    # leader tables are drawn cooperate half first
    dims = leader_table_shape(shape)
    leaders = [LeaderStrategy(i, rng.uniform(0.05, 0.95, dims)[::-1])
               for i in range(shape.n_leaders)]
    followers = [FollowerStrategy(j, rng.uniform(0.05, 0.95, shape.n_leaders + 1))
                 for j in range(shape.n_leaders, shape.n_players)]
    return leaders, followers


def test_criterion_01_zd_enforcement():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = 0
    for n in (2, 3, 4, 5):
        shape = GameShape(n, n - 1, n - 1, 2 * n + 3)
        for chi in (0.0, 0.3, 0.6):
            l_min, l_max = feasible_l_range(chi, shape)
            for _ in range(50):
                l = float(rng.uniform(l_min, l_max))
                result = synthesize(ZDParams(chi, l, shape))
                for _ in range(20):
                    residual = verify_enforcement(
                        result, random_outsiders(shape, rng))
                    worst = max(worst, residual)
                    cases += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(1, "zd enforcement", ok,
            f"{cases} cases, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_determinant_equivalence():
    rng = np.random.default_rng(7)
    worst_ratio = 0.0
    for shape, count in ((GameShape(3, 2, 2, 9.0), 500),
                         (GameShape(4, 2, 2, 11.0), 100)):
        for _ in range(count):
            leaders, followers = _random_profile(shape, rng)
            tm = build_transition_matrix(shape, leaders, followers)
            f = rng.uniform(-1.0, 1.0, shape.n_states)
            oracle = float(stationary(tm).vector @ f)
            worst_ratio = max(worst_ratio,
                              abs(determinant_dot(tm, f, 0) - oracle))

    worst_det = 0.0
    for chi in (0.0, 0.4):
        shape = GameShape(3, 2, 2, 9.0)
        l_min, l_max = feasible_l_range(chi, shape)
        result = synthesize(ZDParams(chi, (l_min + l_max) / 2, shape))
        leaders = [result.strategy] * shape.n_alliance
        for _ in range(20):
            outsiders = random_outsiders(shape, rng)
            tm = build_transition_matrix(shape, leaders, outsiders,
                                         coupling=True)
            worst_det = max(worst_det,
                            abs(zd_determinant(tm, result.f_vector, 0)))
    ok = worst_ratio <= 1e-8 and worst_det <= 1e-9
    _report(2, "determinant equivalence", ok,
            f"worst |det ratio - v.f| {worst_ratio:.2e}, "
            f"worst synthesized |det| {worst_det:.2e}")


def test_criterion_03_baseline_boundaries():
    shape = GameShape(3, 2, 2, 9.0)
    inside_ok = True
    for l in (3.0, 7.0):
        try:
            synthesize(ZDParams(0.0, l, shape))
        except InfeasibleError:
            inside_ok = False
    outside_ok = True
    for l in (2.99, 7.01):
        try:
            synthesize(ZDParams(0.0, l, shape))
            outside_ok = False
        except InfeasibleError:
            pass

    single_ok = True
    for n, r in ((2, 3.0), (2, 7.0), (3, 2.0), (3, 2.5)):
        lo, hi = feasible_l_range(0.0, GameShape(n, 1, 1, r))
        single_ok &= math.isclose(lo, r * (n - 1) / n, rel_tol=1e-12)
        single_ok &= math.isclose(hi, r / n + 1.0, rel_tol=1e-12)

    ok = inside_ok and outside_ok and single_ok
    _report(3, "baseline boundaries", ok,
            f"endpoints {inside_ok}, exteriors rejected {outside_ok}, "
            f"single-member interval {single_ok}")


def test_criterion_04_cooperation_dominance():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        na = int(rng.integers(1, 7))
        n = na + 1
        r = float(rng.uniform(n + 1e-6, 4.0 * n))
        shape = GameShape(n, na, na, r)
        # direct oracle: unison payoffs for either outsider action, the
        # cells k = 0 and n_alliance
        unison = unison_payoffs(shape).alliance
        for a in (0, 1):
            coop = unison[1, na + a]
            defect = unison[0, a]
            ok &= coop > defect
        ok &= dominance_check(shape)
    for na in (1, 2, 5):
        threshold = 1.0 + 1.0 / na
        for r in (threshold, 0.9 * threshold):
            ok &= not dominance_check(GameShape(na + 1, na, na, r))
    _report(4, "cooperation dominance", ok,
            "1000 random single-outsider games plus sub-threshold negatives")


def _placement_curve(topology, ks, scale, seeds=(0,), n=80,
                     cfg=None, density=None):
    cfg = cfg or GAConfig(population_size=50, generations=40)
    curve = {}
    for k in ks:
        values = []
        for seed in seeds:
            g = generate(topology, n, seed=seed, mesh_density=density)
            ga = GAConfig(population_size=cfg.population_size,
                          generations=cfg.generations, seed=seed)
            dep, _, _ = optimize_ga(g, k, scale, ga)
            values.append(evaluate(dep).mean_regular)
        curve[k] = sum(values) / len(values)
    return curve


def test_criterion_05_star_plateau():
    start = time.perf_counter()
    g = generate("star", 80)
    dep_ex, _ = optimize_exhaustive(g, 1, LINEAR)
    hub_ok = dep_ex.zd_nodes == {0}
    worst_gap = 0.0
    for k in range(1, 11):
        dep, _, _ = optimize_ga(g, k, LINEAR,
                                GAConfig(population_size=40, generations=30,
                                         seed=k))
        if k == 1:
            hub_ok &= dep.zd_nodes == {0}
        worst_gap = max(worst_gap,
                        abs(evaluate(dep).mean_regular - 0.73106))
    elapsed = time.perf_counter() - start
    ok = hub_ok and worst_gap <= 1e-4 and elapsed < 10.0
    _report(5, "star plateau", ok,
            f"hub chosen {hub_ok}, worst plateau gap {worst_gap:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_06_mesh_emergence():
    ks = range(1, 11)
    mesh = _placement_curve("mesh", ks, LINEAR, seeds=range(30), density=0.49)
    ring = _placement_curve("ring", ks, LINEAR)
    tree = _placement_curve("tree", ks, LINEAR)
    high_k_ok = all(mesh[k] >= 0.95 for k in range(5, 11))
    dominance_ok = all(mesh[k] > ring[k] and mesh[k] > tree[k] for k in ks)
    ok = high_k_ok and dominance_ok
    _report(6, "mesh emergence", ok,
            f"mesh K=5 mean {mesh[5]:.4f}, K=10 mean {mesh[10]:.4f}, "
            f"dominates ring/tree {dominance_ok}")


def test_criterion_07_ga_vs_oracle():
    start = time.perf_counter()
    hits = runs = 0
    for inst in range(20):
        g = generate("mesh", 12, seed=100 + inst, mesh_density=0.3)
        for k in (1, 2, 3):
            _, exact = optimize_exhaustive(g, k, LINEAR)
            for seed in range(5):
                _, found, _ = optimize_ga(
                    g, k, LINEAR,
                    GAConfig(population_size=40, generations=60, seed=seed))
                runs += 1
                hits += found >= 0.99 * exact - 1e-12
    elapsed = time.perf_counter() - start
    ok = hits / runs >= 0.90 and elapsed < 120.0
    _report(7, "ga vs oracle", ok,
            f"{hits}/{runs} runs within 1% of optimum, {elapsed:.1f}s")


def test_criterion_08_scale_robustness():
    ks = range(1, 11)
    mesh = _placement_curve("mesh", ks, QUADRATIC, seeds=range(30),
                            density=0.49)
    ring = _placement_curve("ring", ks, QUADRATIC)
    tree = _placement_curve("tree", ks, QUADRATIC)
    star = _placement_curve("star", ks, QUADRATIC)
    mesh_dominates = all(mesh[k] > ring[k] and mesh[k] > tree[k] for k in ks)
    mesh_over_star = all(mesh[k] >= star[k] for k in range(5, 11))
    star_over_rest = all(star[k] > ring[k] and star[k] > tree[k] for k in ks)
    ok = mesh_dominates and mesh_over_star and star_over_rest
    _report(8, "scale robustness", ok,
            f"mesh>ring/tree {mesh_dominates}, mesh>=star for K>=5 "
            f"{mesh_over_star}, star>ring/tree {star_over_rest}")


def test_criterion_09_monte_carlo_consistency():
    rounds = 100_000
    failures = 0
    trials = 100
    for t in range(trials):
        g = generate("mesh", 40, seed=t % 10)
        rng = np.random.default_rng(t)
        k = 1 + t % 8
        nodes = frozenset(int(u) for u in rng.choice(40, size=k,
                                                     replace=False))
        dep = Deployment(g, nodes, LINEAR)
        p = cooperator_ratio(dep)
        mc = cooperator_ratio(dep, "monte_carlo", rounds=rounds,
                              seed=5000 + t)
        bound = 3.0 * math.sqrt(p * (1.0 - p) / rounds)
        failures += abs(mc - p) > bound
    ok = failures <= trials // 100
    _report(9, "monte carlo consistency", ok,
            f"{trials - failures}/{trials} trials within three standard "
            "errors")


def _brute_betweenness(g):
    scores = [0.0] * g.n

    def shortest_paths(s, t):
        paths, best = [], math.inf
        frontier = [[s]]
        while frontier:
            nxt = []
            for path in frontier:
                u = path[-1]
                if u == t:
                    if len(path) <= best:
                        best = len(path)
                        paths.append(path)
                    continue
                if len(path) >= best:
                    continue
                for v in g.neighbors(u):
                    if v not in path:
                        nxt.append(path + [v])
            frontier = nxt
        return [p for p in paths if len(p) == best]

    for s, t in combinations(range(g.n), 2):
        for path in (paths := shortest_paths(s, t)):
            for mid in path[1:-1]:
                scores[mid] += 1.0 / len(paths)
    return scores


def test_criterion_10_structural_metrics():
    cases = []
    for n in range(3, 11):
        cases += [generate("star", n), generate("ring", n),
                  generate("tree", n)]
    for n in range(4, 11):
        for seed in range(5):
            cases.append(generate("mesh", n, seed=seed))
    match_ok = all(betweenness(g) == pytest.approx(_brute_betweenness(g))
                   for g in cases)
    hub_ok = all(betweenness(generate("star", n))[0] == math.comb(n - 1, 2)
                 for n in range(3, 11))
    ok = match_ok and hub_ok
    _report(10, "structural metrics", ok,
            f"{len(cases)} graphs vs brute-force oracle, star hub closed "
            f"form {hub_ok}")
