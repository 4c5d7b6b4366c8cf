import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdlab import markov
from zdlab.alliance import random_outsiders
from zdlab.errors import (ConvergenceError, DegenerateChainError,
                          StrategyTableError)
from zdlab.game import GameShape, payoff_vectors, state_bits
from zdlab.markov import (FollowerStrategy, LeaderStrategy,
                          build_lumped_matrix, build_transition_matrix,
                          determinant_dot, expected_payoffs,
                          leader_table_shape, splits_transient, stationary,
                          zd_determinant)

FIG_SHAPE = GameShape(3, 2, 2, 9.0)


def state_of(actions):
    return sum(a << i for i, a in enumerate(actions))


def random_profile(shape, rng, low=0.05, high=0.95):
    # leader tables are drawn cooperate half first
    dims = leader_table_shape(shape)
    leaders = [LeaderStrategy(i, rng.uniform(low, high, dims)[::-1])
               for i in range(shape.n_leaders)]
    followers = [FollowerStrategy(j, rng.uniform(low, high, shape.n_leaders + 1))
                 for j in range(shape.n_leaders, shape.n_players)]
    return leaders, followers


class TestBuildMatrix:
    def test_uniform_strategies_give_uniform_rows(self):
        leaders = [LeaderStrategy.constant(i, FIG_SHAPE, 0.5) for i in range(2)]
        followers = [FollowerStrategy.constant(2, FIG_SHAPE, 0.5)]
        tm = build_transition_matrix(FIG_SHAPE, leaders, followers)
        assert np.allclose(tm.matrix, 1 / 8)

    def test_worked_transition_entry(self):
        # from (c, d, c) to (d, d, c): (1-p1[c,0,1]) * (1-p2[d,1,1]) * q[0]
        rng = np.random.default_rng(11)
        leaders, followers = random_profile(FIG_SHAPE, rng)
        tm = build_transition_matrix(FIG_SHAPE, leaders, followers)
        v = state_of((1, 0, 1))
        w = state_of((0, 0, 1))
        expected = ((1 - leaders[0].table[1, 0, 1])
                    * (1 - leaders[1].table[0, 1, 1])
                    * followers[0].probs[0])
        assert tm.matrix[v, w] == pytest.approx(expected)

    @pytest.mark.parametrize("coupling", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_stochastic(self, coupling, seed):
        rng = np.random.default_rng(seed)
        leaders, followers = random_profile(FIG_SHAPE, rng, 0.0, 1.0)
        if coupling:  # identical alliance strategies
            leaders[1] = LeaderStrategy(1, leaders[0].table)
        tm = build_transition_matrix(FIG_SHAPE, leaders, followers, coupling)
        assert np.allclose(tm.matrix.sum(axis=1), 1.0, atol=1e-12)
        assert tm.matrix.min() >= 0.0 and tm.matrix.max() <= 1.0

    def test_coupling_zeroes_split_columns(self):
        rng = np.random.default_rng(5)
        leaders, followers = random_profile(FIG_SHAPE, rng)
        leaders[1] = LeaderStrategy(1, leaders[0].table)
        tm = build_transition_matrix(FIG_SHAPE, leaders, followers, True)
        for v in range(8):
            acts_v = state_bits(3)[v]
            if acts_v[0] != acts_v[1]:
                continue  # unison rows only
            for w in range(8):
                acts_w = state_bits(3)[w]
                if acts_w[0] != acts_w[1]:
                    assert tm.matrix[v, w] == 0.0

    def test_wrong_table_shape(self):
        leaders = [LeaderStrategy.constant(i, FIG_SHAPE, 0.5) for i in range(2)]
        followers = [FollowerStrategy.constant(2, FIG_SHAPE, 0.5)]
        short = [LeaderStrategy(i, np.full((2, 2, 1), 0.5)) for i in range(2)]
        with pytest.raises(StrategyTableError, match="player 0"):
            build_transition_matrix(FIG_SHAPE, short, followers)
        for probs in ([0.5, 0.5], [0.5] * 4):  # too short, too long
            with pytest.raises(StrategyTableError, match="player 2"):
                build_transition_matrix(FIG_SHAPE, leaders,
                                        [FollowerStrategy(2, probs)])

    def test_invalid_probability_rejected_on_construction(self):
        table = np.full(leader_table_shape(FIG_SHAPE), 0.5)
        for bad in (np.nan, -0.1, 1.5):
            table[1, 0, 1] = bad
            with pytest.raises(StrategyTableError, match="leader 0"):
                LeaderStrategy(0, table)
            with pytest.raises(StrategyTableError, match="follower 2"):
                FollowerStrategy(2, [0.5, bad, 0.5])

    def test_tables_are_read_only_copies(self):
        table = np.full(leader_table_shape(FIG_SHAPE), 0.5)
        strat = LeaderStrategy(0, table)
        table[0, 0, 0] = 0.9
        assert strat.table[0, 0, 0] == 0.5
        with pytest.raises(ValueError):
            strat.table[0, 0, 0] = 0.9

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), coupling=st.booleans())
    def test_matches_scalar_oracle(self, data, coupling):
        n = data.draw(st.integers(2, 5), "n_players")
        nl = data.draw(st.integers(1, n), "n_leaders")
        na = data.draw(st.integers(1, min(nl, n - 1)), "n_alliance")
        shape = GameShape(n, nl, na, 2.0 * n + 3.0)
        # a small value set makes ties between alliance members common
        prob = st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0])
        dims = leader_table_shape(shape)
        leaders = [LeaderStrategy(i, np.reshape([data.draw(prob) for _ in
                                                 range(np.prod(dims))],
                                                dims)[::-1])
                   for i in range(nl)]
        if data.draw(st.booleans(), "shared alliance table"):
            leaders[:na] = [leaders[0]] * na
        followers = [FollowerStrategy(j, [data.draw(prob)
                                          for _ in range(nl + 1)])
                     for j in range(nl, n)]
        tm = build_transition_matrix(shape, leaders, followers, coupling)
        expected = [[_oracle_entry(shape, leaders, followers, coupling, v, w)
                     for w in range(shape.n_states)]
                    for v in range(shape.n_states)]
        np.testing.assert_allclose(tm.matrix, expected, rtol=0, atol=1e-15)

    # up to 10 leader movers; (8, 8, 7) and (10, 10, 9) have no followers
    @pytest.mark.parametrize("coupling", [False, True])
    @pytest.mark.parametrize("dims", [(8, 8, 7), (8, 6, 4), (10, 10, 9),
                                      (10, 9, 5), (10, 7, 6)])
    def test_many_movers_match_scalar_oracle(self, dims, coupling):
        n, nl, na = dims
        shape = GameShape(n, nl, na, 2.0 * n + 3.0)
        rng = np.random.default_rng(list(dims))
        values = (0.0, 0.25, 0.5, 0.7, 1.0)
        table = rng.choice(values, leader_table_shape(shape))
        leaders = [LeaderStrategy(i, table if i < na else
                                  rng.choice(values, table.shape))
                   for i in range(nl)]
        followers = [FollowerStrategy(j, rng.choice(values, nl + 1))
                     for j in range(nl, n)]
        tm = build_transition_matrix(shape, leaders, followers, coupling)
        rows = rng.choice(shape.n_states, 8, replace=False)
        expected = [[_oracle_entry(shape, leaders, followers, coupling, v, w)
                     for w in range(shape.n_states)] for v in rows]
        np.testing.assert_allclose(tm.matrix[rows], expected, rtol=0,
                                   atol=1e-15)

    def test_wrong_player_count(self):
        leaders = [LeaderStrategy.constant(0, FIG_SHAPE, 0.5)]
        with pytest.raises(ValueError):
            build_transition_matrix(FIG_SHAPE, leaders, [])


def _oracle_entry(shape, leaders, followers, coupling, v, w):
    """P(v -> w) from the tables one player at a time. Under coupling,
    alliance members with equal conditional probability form one group that
    acts in unison: mass p if all cooperate, 1 - p if all defect, else 0."""
    nl, na = shape.n_leaders, shape.n_alliance
    prev, nxt = state_bits(shape.n_players)[[v, w]].tolist()
    lc, fc = sum(prev[:nl]), sum(prev[nl:])
    cond = [s.table[prev[i], lc - prev[i], fc] for i, s in enumerate(leaders)]
    groups = {}
    for i in range(nl):
        key = cond[i] if coupling and i < na else ("solo", i)
        groups.setdefault(key, []).append(i)
    mass = 1.0
    for members in groups.values():
        p = cond[members[0]]
        acts = {nxt[i] for i in members}
        mass *= 0.0 if len(acts) > 1 else (p if acts == {1} else 1.0 - p)
    for j, s in enumerate(followers):
        q = s.probs[sum(nxt[:nl])]
        mass *= q if nxt[nl + j] else 1.0 - q
    return mass


class TestLumpedChain:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_full_chain_on_unison_states(self, data):
        n = data.draw(st.integers(2, 6), "n_players")
        nl = data.draw(st.integers(1, n), "n_leaders")
        na = data.draw(st.integers(1, min(nl, n - 1)), "n_alliance")
        shape = GameShape(n, nl, na, 2.0 * n + 3.0)
        # 0 and 1 entries make split states that never reunite common
        prob = st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0])
        dims = leader_table_shape(shape)
        movers = [LeaderStrategy(i, np.reshape([data.draw(prob) for _ in
                                                range(np.prod(dims))], dims))
                  for i in range(na - 1, nl)]
        followers = [FollowerStrategy(j, [data.draw(prob)
                                          for _ in range(nl + 1)])
                     for j in range(nl, n)]
        full = build_transition_matrix(shape, [movers[0]] * (na - 1) + movers,
                                       followers, coupling=True).matrix
        lumped = build_lumped_matrix(shape, movers, followers)
        assert lumped.lumped and lumped.matrix.shape == (2 ** (n - na + 1),) * 2
        # lumped state: bit 0 the alliance's action, then the outsiders
        unison = [(s & 1) * ((1 << na) - 1) | (s >> 1) << na
                  for s in range(2 ** (n - na + 1))]
        np.testing.assert_allclose(lumped.matrix, full[np.ix_(unison, unison)],
                                   rtol=0, atol=1e-15)
        split = np.setdiff1d(np.arange(shape.n_states), unison)
        reunites = full[np.ix_(split, unison)].sum(axis=1) > 0
        assert splits_transient(shape, movers[0].table) == reunites.all()

    def test_determinant_needs_full_chain(self):
        leaders = [LeaderStrategy.constant(0, FIG_SHAPE, 0.5)]
        followers = [FollowerStrategy.constant(2, FIG_SHAPE, 0.5)]
        tm = build_lumped_matrix(FIG_SHAPE, leaders, followers)
        with pytest.raises(ValueError, match="full chain"):
            zd_determinant(tm, np.ones(FIG_SHAPE.n_states), 0)

    def test_player_cap(self):
        shape = GameShape(11, 10, 10, 25.0)
        leaders = [LeaderStrategy.constant(0, shape, 0.5)]
        followers = [FollowerStrategy.constant(10, shape, 0.5)]
        with pytest.raises(ValueError, match="capped at 10 players"):
            build_lumped_matrix(shape, leaders, followers)


def reference_stationary(tm, missed=None):
    """Reference for :func:`stationary`: a first-try dense solve on chains
    of up to ``_DIRECT_STATES`` states, then the power loop with one
    convergence check per sweep, reading the module's constants when
    called. ``missed`` collects the sweeps whose step reached ``_TOL`` but
    whose residual did not."""
    m = tm.matrix
    size = m.shape[0]
    if size <= markov._DIRECT_STATES and markov._MAX_ITERS > 0:
        sol = markov._dense_stationary(m)
        if sol is not None:
            resid = float(np.abs(sol @ m - sol).max())
            if resid <= markov._TOL:
                return markov.StationaryVector(sol, resid, "dense", 0)
    v = np.full(size, 1.0 / size)
    for sweep in range(markov._MAX_ITERS):
        if sweep == markov._POWER_BUDGET:
            sol = markov._dense_stationary(m)
            if sol is not None:
                resid = float(np.abs(sol @ m - sol).max())
                if resid <= markov._TOL:
                    return markov.StationaryVector(sol, resid, "dense", sweep)
                v = sol
        nxt = v @ m
        if np.abs(nxt - v).max() <= markov._TOL:
            resid = float(np.abs(nxt @ m - nxt).max())
            if resid <= markov._TOL:
                return markov.StationaryVector(nxt / nxt.sum(), resid,
                                               "power", sweep + 1)
            if missed is not None:
                missed.append(sweep + 1)
        v = nxt
    resid = float(np.abs(v @ m - v).max())
    raise ConvergenceError(
        f"stationary solve did not converge (residual {resid:.3e})", resid
    )


def assert_same_stationary(got, expected):
    assert got.vector.tobytes() == expected.vector.tobytes()
    assert type(got.iterations) is int
    assert (repr(got.residual), got.path, got.iterations) == (
        repr(expected.residual), expected.path, expected.iterations)


def _periodic_chain():
    # leaders cooperate iff no leader cooperated last round; the follower
    # copies the leaders, so the chain cycles all-defect <-> all-cooperate
    # and power iteration never settles
    s, x, _ = np.indices(leader_table_shape(FIG_SHAPE))
    leaders = [LeaderStrategy(i, s + x == 0) for i in range(2)]
    followers = [FollowerStrategy(2, (0.0, 0.0, 1.0))]
    return build_transition_matrix(FIG_SHAPE, leaders, followers)


def _reducible_chain():
    # the leaders repeat their own last moves and the follower copies
    # them, playing 1/2 when they disagree: four closed classes, among
    # them all-defect and all-cooperate, so the direct system is singular
    s = np.indices(leader_table_shape(FIG_SHAPE))[0]
    leaders = [LeaderStrategy(i, s) for i in range(2)]
    followers = [FollowerStrategy(2, (0.0, 0.5, 1.0))]
    return build_transition_matrix(FIG_SHAPE, leaders, followers)


def _failing_first(monkeypatch, count):
    """Patch ``_dense_stationary`` to return None on its first ``count``
    calls and to solve from then on; returns the list of calls made."""
    dense = markov._dense_stationary
    calls = []

    def attempt(m):
        calls.append(1)
        return dense(m) if len(calls) > count else None

    monkeypatch.setattr(markov, "_dense_stationary", attempt)
    return calls


class TestStationary:
    def test_uniform_chain(self, monkeypatch):
        leaders = [LeaderStrategy.constant(i, FIG_SHAPE, 0.5) for i in range(2)]
        followers = [FollowerStrategy.constant(2, FIG_SHAPE, 0.5)]
        tm = build_transition_matrix(FIG_SHAPE, leaders, followers)
        # solved directly; with the first try off, in one power sweep
        for direct, path, iterations in ((markov._DIRECT_STATES, "dense", 0),
                                         (0, "power", 1)):
            monkeypatch.setattr(markov, "_DIRECT_STATES", direct)
            sv = stationary(tm)
            assert np.allclose(sv.vector, 1 / 8)
            assert sv.residual <= 1e-12
            assert sv.path == path and sv.iterations == iterations

    def test_all_defect_absorbing(self):
        leaders = [LeaderStrategy.constant(i, FIG_SHAPE, 0.0) for i in range(2)]
        followers = [FollowerStrategy.constant(2, FIG_SHAPE, 0.0)]
        sv = stationary(build_transition_matrix(FIG_SHAPE, leaders, followers))
        expected = np.zeros(8)
        expected[0] = 1.0  # state 0 is all-defect
        assert np.allclose(sv.vector, expected, atol=1e-12)

    def test_periodic_chain_uses_dense_fallback(self, monkeypatch):
        # solved directly, or by the dense attempt after _POWER_BUDGET
        # sweeps when the first try is off
        tm = _periodic_chain()
        dense = markov._dense_stationary
        expected = np.zeros(8)
        expected[[0, 7]] = 0.5
        for direct, iterations in ((markov._DIRECT_STATES, 0),
                                   (0, markov._POWER_BUDGET)):
            monkeypatch.setattr(markov, "_DIRECT_STATES", direct)
            calls = []
            monkeypatch.setattr(markov, "_dense_stationary",
                                lambda m: calls.append(1) or dense(m))
            sv = stationary(tm)
            assert calls == [1]
            assert sv.path == "dense" and sv.iterations == iterations
            assert np.allclose(sv.vector, expected, atol=1e-12)
            assert sv.residual <= 1e-12

    def test_reducible_chain_reject_the_solve(self):
        # the direct system is singular, so power iteration runs as before
        tm = _reducible_chain()
        assert markov._dense_stationary(tm.matrix) is None
        sv = stationary(tm)
        assert sv.path == "power" and sv.iterations == 2
        assert sv.vector.tolist() == [0.25, 0.125, 0.125, 0.0,
                                      0.0, 0.125, 0.125, 0.25]
        assert_same_stationary(sv, reference_stationary(tm))

    def test_dense_rejects_negative_and_non_finite(self, monkeypatch):
        m = _periodic_chain().matrix
        for bad in ([0.5, -1e-11, 0.5], [np.nan, 0.5, 0.5], [np.inf, 0, 0],
                    [0.0, 0.0, 0.0]):
            monkeypatch.setattr(np.linalg, "solve",
                                lambda a, b, bad=bad: np.array(bad))
            assert markov._dense_stationary(m) is None
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: np.array([0.5, -1e-13, 0.5]))
        assert markov._dense_stationary(m).tolist() == [0.5, 0.0, 0.5]

    @pytest.mark.parametrize("n_players, path", [(6, "dense"), (7, "power")])
    def test_switch_point(self, monkeypatch, n_players, path):
        # 64 states are solved directly, 128 by power iteration
        shape = GameShape(n_players, n_players - 1, 1, 2.0 * n_players + 3.0)
        rng = np.random.default_rng(n_players)
        tm = build_transition_matrix(shape, *random_profile(shape, rng))
        assert len(tm.matrix) == 2 ** n_players
        sv = stationary(tm)
        assert sv.path == path and (sv.iterations == 0) == (path == "dense")
        assert sv.residual <= markov._TOL
        assert_same_stationary(sv, reference_stationary(tm))
        # a chain of exactly _DIRECT_STATES states is solved directly
        for direct, expected in ((len(tm.matrix) - 1, "power"),
                                 (len(tm.matrix), "dense")):
            monkeypatch.setattr(markov, "_DIRECT_STATES", direct)
            assert stationary(tm).path == expected

    # The tests below take the power path on chains of 8 states: either
    # the threshold ``direct`` lies below 8, or the first-try solve is
    # made and misses (``direct`` 16).

    @pytest.mark.parametrize("direct", [1, 2, 3, 5, 16])
    def test_step_below_tol_before_residual(self, monkeypatch, direct):
        # this chain's step first reaches _TOL at a sweep whose residual
        # (the next step) does not, so that sweep must not be returned
        shape = GameShape(3, 3, 1, 9.0)
        tables = ([0.02, 0.5, 0.02, 0.02, 0.02, 0.98],
                  [0.5, 0.98, 0.0, 1.0, 0.0, 0.0],
                  [0.5, 1.0, 0.98, 0.5, 1.0, 0.5])
        leaders = [LeaderStrategy(i, np.reshape(t, (2, 3, 1)))
                   for i, t in enumerate(tables)]
        tm = build_transition_matrix(shape, leaders, [])
        monkeypatch.setattr(markov, "_DIRECT_STATES", direct)
        monkeypatch.setattr(markov, "_dense_stationary", lambda m: None)
        missed = []
        expected = reference_stationary(tm, missed)
        assert missed and expected.path == "power"
        assert_same_stationary(stationary(tm), expected)

    @pytest.mark.parametrize("budget", [37, markov._POWER_BUDGET])
    @pytest.mark.parametrize("direct", [1, 3, 16])
    def test_dense_attempt_at_budget(self, monkeypatch, budget, direct):
        monkeypatch.setattr(markov, "_DIRECT_STATES", direct)
        monkeypatch.setattr(markov, "_POWER_BUDGET", budget)
        first_try = direct >= 8
        calls = _failing_first(monkeypatch, first_try)
        sv = stationary(_periodic_chain())
        assert sv.path == "dense" and sv.iterations == budget
        assert len(calls) == 1 + first_try
        calls.clear()
        assert_same_stationary(sv, reference_stationary(_periodic_chain()))

    @pytest.mark.parametrize("direct", [1, 3, 16])
    def test_power_goes_on_from_a_missed_dense_solve(self, monkeypatch,
                                                     direct):
        # a dense attempt that misses the target restarts power iteration
        # from its vector, here the uniform one
        rng = np.random.default_rng(8)
        tm = build_transition_matrix(FIG_SHAPE, *random_profile(FIG_SHAPE,
                                                                rng))
        monkeypatch.setattr(markov, "_DIRECT_STATES", direct)
        monkeypatch.setattr(markov, "_POWER_BUDGET", 7)
        monkeypatch.setattr(markov, "_dense_stationary",
                            lambda m: np.full(len(m), 1.0 / len(m)))
        sv = stationary(tm)
        assert sv.path == "power" and sv.iterations > 7
        assert_same_stationary(sv, reference_stationary(tm))

    @pytest.mark.parametrize("max_iters", [0, 5, 37, 300])
    @pytest.mark.parametrize("direct", [1, 3, 16])
    def test_convergence_error_residual(self, monkeypatch, max_iters, direct):
        # the periodic chain never settles once its dense attempts fail
        monkeypatch.setattr(markov, "_DIRECT_STATES", direct)
        monkeypatch.setattr(markov, "_MAX_ITERS", max_iters)
        monkeypatch.setattr(markov, "_dense_stationary", lambda m: None)
        tm = _periodic_chain()
        with pytest.raises(ConvergenceError) as expected:
            reference_stationary(tm)
        with pytest.raises(ConvergenceError) as got:
            stationary(tm)
        assert got.value.residual == expected.value.residual > 0.1
        assert str(got.value) == str(expected.value)

    def test_follower_relabel_equivariance(self):
        shape = GameShape(4, 2, 2, 11.0)
        rng = np.random.default_rng(3)
        leaders, followers = random_profile(shape, rng)
        sv = stationary(build_transition_matrix(shape, leaders, followers))
        swapped = [FollowerStrategy(2, followers[1].probs),
                   FollowerStrategy(3, followers[0].probs)]
        sv2 = stationary(build_transition_matrix(shape, leaders, swapped))
        # swapping follower bits 2 and 3 permutes the state space
        for state in range(16):
            acts = state_bits(4)[state].tolist()
            acts[2], acts[3] = acts[3], acts[2]
            assert sv.vector[state] == pytest.approx(
                sv2.vector[state_of(acts)], abs=1e-10)


class TestDeterminant:
    def test_ones_ratio_is_one(self):
        rng = np.random.default_rng(9)
        leaders, followers = random_profile(FIG_SHAPE, rng)
        tm = build_transition_matrix(FIG_SHAPE, leaders, followers)
        assert determinant_dot(tm, np.ones(8), 0) == pytest.approx(1.0)

    @pytest.mark.parametrize("pivot", [0, 1])
    def test_matches_stationary_oracle(self, pivot):
        rng = np.random.default_rng(21)
        pv = payoff_vectors(FIG_SHAPE)
        for _ in range(25):
            leaders, followers = random_profile(FIG_SHAPE, rng)
            tm = build_transition_matrix(FIG_SHAPE, leaders, followers)
            sv = stationary(tm)
            oracle = float(sv.vector @ pv.outsiders)
            assert determinant_dot(tm, pv.outsiders, pivot) == pytest.approx(
                oracle, abs=1e-8)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_dot_is_ratio_of_determinants(self, coupled):
        # the stacked route gives bit for bit the ratio of two single ones
        rng = np.random.default_rng(4)
        for n in range(2, 7):
            for n_leaders in range(1, n + 1):
                shape = GameShape(n, n_leaders, min(2, n_leaders, n - 1),
                                  2.0 * n)
                pv = payoff_vectors(shape)
                leaders, followers = random_profile(shape, rng)
                tm = build_transition_matrix(shape, leaders, followers,
                                             coupled)
                ones = np.ones(shape.n_states)
                for pivot in range(n_leaders):
                    for f in (pv.alliance, pv.outsiders):
                        assert determinant_dot(tm, f, pivot) == (
                            zd_determinant(tm, f, pivot)
                            / zd_determinant(tm, ones, pivot))

    def test_pivot_must_be_leader(self):
        rng = np.random.default_rng(2)
        leaders, followers = random_profile(FIG_SHAPE, rng)
        tm = build_transition_matrix(FIG_SHAPE, leaders, followers)
        with pytest.raises(ValueError):
            zd_determinant(tm, np.ones(8), 2)

    def test_degenerate_normalization(self):
        # a reducible chain with two absorbing halves degenerates
        tm = _reducible_chain()
        with pytest.raises(DegenerateChainError):
            determinant_dot(tm, np.ones(8), 0)


class TestExpectedPayoffs:
    def test_concentrated_states(self):
        pv = payoff_vectors(FIG_SHAPE)

        class Point:
            def __init__(self, state):
                self.vector = np.zeros(8)
                self.vector[state] = 1.0

        all_c = Point(state_of((1, 1, 1)))
        assert expected_payoffs(FIG_SHAPE, all_c, pv) == (9.0, 9.0)
        all_d = Point(0)
        assert expected_payoffs(FIG_SHAPE, all_d, pv) == (1.0, 1.0)

    def test_uniform_over_unison_states(self):
        pv = payoff_vectors(FIG_SHAPE)
        unison = [state_of(a) for a in
                  ((1, 1, 0), (1, 1, 1), (0, 0, 0), (0, 0, 1))]

        class Mixed:
            vector = np.zeros(8)

        Mixed.vector[unison] = 0.25
        pi_a, pi_out = expected_payoffs(FIG_SHAPE, Mixed, pv)
        assert pi_a == pytest.approx((6 + 9 + 1 + 4) / 4)
        assert pi_out == pytest.approx((7 + 9 + 1 + 3) / 4)


# sha256 prefixes, as (uncoupled, coupled, lumped) per (players, leaders,
# alliance) at r = 2N + 3, of a chain's matrix bytes (MATRIX_GOLDEN) and
# of its stationary vector's bytes followed by "repr(residual)|path|
# iterations" (STATIONARY_GOLDEN). The alliance shares one table drawn
# from {0.2, 0.5, 0.8}, so members also tie in split states; the
# outsiders come from ``random_outsiders``. They pin the chain build and
# the stationary solve bit for bit. The stationary digests of the chains
# solved directly were re-pinned with the direct solve of small chains.
# The digests of chains whose entries multiply a follower factor with two
# or more leader coins were re-pinned when rows became an outer product of
# the leaders' coins times the follower factor, which associates those
# products differently.
MATRIX_GOLDEN = {
    (2, 1, 1): ("e5c35c5960632737", "e5c35c5960632737", "e5c35c5960632737"),
    (2, 2, 1): ("b166a4c52779f6d2", "b166a4c52779f6d2", "b166a4c52779f6d2"),
    (3, 2, 2): ("f2de01adc7396d47", "fe58e18d61c24994", "777d46852e8adbeb"),
    (3, 3, 2): ("19d1ae7025168615", "366145eaef151e1c", "368c9cea91cd31bf"),
    (4, 3, 3): ("ce3cfb2fa355971c", "39d2a457d3f6efdc", "bcd58b797a4d0c7e"),
    (4, 4, 2): ("a6647f1b76e62b21", "65dbbf9c5423223e", "ed395b5fbe5da419"),
    (5, 4, 4): ("0fbb45c7e7338986", "bc6d48026c33b483", "c4ab5da4494964b3"),
    (5, 3, 2): ("0370c99527a2ff90", "226d0877c08aed06", "d74b16a846a4097e"),
    (6, 5, 5): ("9e37627e08c3cb59", "ea39d5fbe0a3c4be", "9ab200b3fbe1d19f"),
    (6, 4, 3): ("7e92f69c8b13caf0", "3e33449e6819a383", "39cc259ef8f28a8e"),
    (7, 6, 6): ("3b1cd304cae4ebb4", "309e0e9a53f4b209", "92068f9f33062eaf"),
    (7, 5, 3): ("066056e4ed580c45", "b1bf950bbe87de5b", "d7ccef27fa77d6b3"),
    (8, 7, 7): ("76c1bf6064f7f4b5", "4316c65fe335d540", "021b79c743934e39"),
    (8, 6, 4): ("f5a031c65e42354d", "0289bfa214b826d5", "bb25ace53ab0c4af"),
    (10, 9, 9): ("f09fa468aae49315", "2d75de75295917d6", "9224e1c15aba1923"),
    (10, 7, 6): ("eb41aa2f45b7bf7b", "fe6b3c95fe83957a", "759aed5af901d6b5"),
}

STATIONARY_GOLDEN = {
    (2, 1, 1): ("d2709a55d593d2fc", "d2709a55d593d2fc", "d2709a55d593d2fc"),
    (2, 2, 1): ("5cd6cf754f898c94", "5cd6cf754f898c94", "5cd6cf754f898c94"),
    (3, 2, 2): ("d3d5d01509b70d8e", "1ae53fde8694dd3c", "4f5953aa2194a97c"),
    (3, 3, 2): ("1de941ffac8a8b42", "b80ea508c4e6ead2", "769ce65533319cf5"),
    (4, 3, 3): ("087491691ccc73cf", "6b511131718dc2b6", "21c7ada8b43ebf4a"),
    (4, 4, 2): ("90022d7e2f4be107", "f664a26d2a50a863", "51f6b7df5f219191"),
    (5, 4, 4): ("e3ab772a4a863454", "487a7b18661ed59f", "bfe33d6598487b18"),
    (5, 3, 2): ("18412d3042de09e3", "591c267be317bb48", "bbb81e9faba0114d"),
    (6, 5, 5): ("c9975b455e062585", "704e75321143b1f5", "39965cc18f968560"),
    (6, 4, 3): ("f5d187b11726077d", "da325dc7bab62069", "19f0afc629b87419"),
    (7, 6, 6): ("1e2dd9d631b801d4", "cd2287d5b5f4c9d9", "f1d0d3da1ee65658"),
    (7, 5, 3): ("4f3b27d1a746e185", "3ce2a622c20d9949", "1c67ebaca65838ae"),
    (8, 7, 7): ("3300c2c1e0b3131c", "fe616cdfb9b5a489", "405feba2b9abd9ab"),
    (8, 6, 4): ("79932e5bd37ac6fb", "cac1e56936e843fc", "08989eb2f88d6b58"),
    (10, 9, 9): ("1a9abdfb1ac857f2", "4b9d7dcb8b2906ed", "6ed3856363d9784d"),
    (10, 7, 6): ("b35665a15b49a6c3", "315618161558b2ea", "b4b5079fd194979a"),
}


class TestGolden:
    @pytest.mark.parametrize("kind", ["uncoupled", "coupled", "lumped"])
    @pytest.mark.parametrize("dims", list(MATRIX_GOLDEN))
    def test_chain_and_stationary_bits(self, dims, kind):
        n, nl, na = dims
        shape = GameShape(n, nl, na, 2.0 * n + 3.0)
        rng = np.random.default_rng(list(dims))
        table = rng.choice((0.2, 0.5, 0.8), leader_table_shape(shape))
        outsiders = random_outsiders(shape, rng)
        out_leaders, followers = outsiders[:nl - na], outsiders[nl - na:]
        if kind == "lumped":
            tm = build_lumped_matrix(shape, [LeaderStrategy(0, table)]
                                     + out_leaders, followers)
        else:
            leaders = [LeaderStrategy(i, table) for i in range(na)]
            tm = build_transition_matrix(shape, leaders + out_leaders,
                                         followers, kind == "coupled")
        index = ("uncoupled", "coupled", "lumped").index(kind)
        matrix = hashlib.sha256(tm.matrix.tobytes())
        assert matrix.hexdigest()[:16] == MATRIX_GOLDEN[dims][index]
        sv = stationary(tm)
        h = hashlib.sha256(sv.vector.tobytes())
        h.update(f"{sv.residual!r}|{sv.path}|{sv.iterations}".encode())
        assert h.hexdigest()[:16] == STATIONARY_GOLDEN[dims][index]
