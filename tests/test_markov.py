import hashlib
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

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
                          leader_table_shape, stationary, zd_determinant)

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

    def test_per_shape_indices_are_read_only(self):
        # every chain of one shape reads the same cached arrays
        plan = markov._chain_plan((2, 1), 2)
        assert plan.acted.shape == plan.gathers[2:].shape == (2, 16)
        assert markov._chain_plan((1,), 0).acted.shape == (0, 2)
        for array in (plan.leader_coops, plan.acted, plan.gathers,
                      plan.splits, *markov._pivot_columns(4, 1)):
            assert not array.flags.writeable

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
        # 0 and 1 entries make split states that never reunite common,
        # but the unison states stay closed
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
        assert lumped.matrix.shape == (2 ** (n - na + 1),) * 2
        # lumped state: bit 0 the alliance's action, then the outsiders
        unison = [(s & 1) * ((1 << na) - 1) | (s >> 1) << na
                  for s in range(2 ** (n - na + 1))]
        restricted = full[np.ix_(unison, unison)]
        np.testing.assert_allclose(restricted.sum(axis=1), 1.0, rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(lumped.matrix, restricted, rtol=0,
                                   atol=1e-15)

    def test_determinant_needs_full_chain(self):
        leaders = [LeaderStrategy.constant(0, FIG_SHAPE, 0.5)]
        followers = [FollowerStrategy.constant(2, FIG_SHAPE, 0.5)]
        tm = build_lumped_matrix(FIG_SHAPE, leaders, followers)
        with pytest.raises(ValueError, match="full chain"):
            zd_determinant(tm, np.ones(FIG_SHAPE.n_states), 0)

    def test_player_cap(self):
        # the lumped chain refuses 10 outsiders, then N over the cap with
        # one outsider; the full chain stays capped at 10 players
        cases = [((11, 1, 1), "state space capped at 9 outsiders"),
                 ((1025, 1024, 1024), "game capped at 1024 players"),
                 ((2000, 1999, 1999), "game capped at 1024 players")]
        for dims, message in cases:
            shape = GameShape(*dims, 2.0 * dims[0] + 3.0)
            leaders = [LeaderStrategy.constant(0, shape, 0.5)]
            followers = [FollowerStrategy.constant(j, shape, 0.5)
                         for j in range(shape.n_leaders, shape.n_players)]
            with pytest.raises(ValueError, match=message):
                build_lumped_matrix(shape, leaders, followers)
        shape = GameShape(11, 10, 10, 25.0)
        leaders = [LeaderStrategy.constant(i, shape, 0.5) for i in range(10)]
        followers = [FollowerStrategy.constant(10, shape, 0.5)]
        with pytest.raises(ValueError, match="capped at 10 players"):
            build_transition_matrix(shape, leaders, followers)


def _periodic_chain():
    # leaders cooperate iff no leader cooperated last round; the follower
    # copies the leaders, so the chain cycles all-defect <-> all-cooperate
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


def _system(m):
    """The matrix M^T - I + 11^T that ``stationary`` solves."""
    return m.T - np.eye(len(m)) + 1.0


class TestStationary:
    def test_uniform_chain(self):
        leaders = [LeaderStrategy.constant(i, FIG_SHAPE, 0.5) for i in range(2)]
        followers = [FollowerStrategy.constant(2, FIG_SHAPE, 0.5)]
        sv = stationary(build_transition_matrix(FIG_SHAPE, leaders, followers))
        assert np.allclose(sv.vector, 1 / 8)
        assert sv.residual <= 1e-12
        assert sv.path == "dense"

    def test_all_defect_absorbing(self):
        leaders = [LeaderStrategy.constant(i, FIG_SHAPE, 0.0) for i in range(2)]
        followers = [FollowerStrategy.constant(2, FIG_SHAPE, 0.0)]
        sv = stationary(build_transition_matrix(FIG_SHAPE, leaders, followers))
        expected = np.zeros(8)
        expected[0] = 1.0  # state 0 is all-defect
        assert np.allclose(sv.vector, expected, atol=1e-12)

    def test_periodic_chain_uses_dense_fallback(self, monkeypatch):
        # one closed class with period 2: the dense solve takes it, and
        # the lstsq fallback is not called
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kw: calls.append(1)
                            or lstsq(*args, **kw))
        sv = stationary(_periodic_chain())
        expected = np.zeros(8)
        expected[[0, 7]] = 0.5
        assert sv.path == "dense" and not calls
        assert np.allclose(sv.vector, expected, atol=1e-12)
        assert sv.residual <= 1e-12

    def test_reducible_chain_reject_the_solve(self):
        # the direct system is singular, so the minimum-norm solution
        # weighs each closed class by 1 / |its stationary vector|^2
        tm = _reducible_chain()
        assert markov._solution(_system(tm.matrix), np.ones(8),
                                "dense") is None
        sv = stationary(tm)
        assert sv.path == "lstsq" and sv.residual <= 1e-12
        assert np.allclose(sv.vector, [1 / 6, 1 / 6, 1 / 6, 0.0,
                                       0.0, 1 / 6, 1 / 6, 1 / 6],
                           rtol=0.0, atol=1e-15)

    def test_reducible_periodic_chain(self):
        # state 0 leads into the cycle {1, 2}; {3, 4} and {6, 7} are
        # cycles too and 5 is absorbing: four closed classes, three of
        # them of period 2, which no power sweep settles on
        m = np.zeros((8, 8))
        for state, successor in ((0, 1), (1, 2), (2, 1), (3, 4), (4, 3),
                                 (5, 5), (6, 7), (7, 6)):
            m[state, successor] = 1.0
        start = time.process_time()
        sv = stationary(markov.TransitionMatrix(m, FIG_SHAPE))
        assert time.process_time() - start < 1.0
        assert sv.path == "lstsq" and sv.residual <= 1e-12
        assert np.allclose(sv.vector, [0.0] + [1 / 7] * 7,
                           rtol=0.0, atol=1e-14)

    def test_solution_clips_any_sign_rejects_non_finite(self, monkeypatch):
        # the same checks hold for the solve's and for lstsq's result: a
        # negative entry is clipped whatever its size, and the residual
        # test decides; a vector with no positive finite total is refused
        a = _system(_periodic_chain().matrix)
        ones = np.ones(8)

        def singular(*args, **kw):
            raise np.linalg.LinAlgError("singular")

        for path, name in (("dense", "solve"), ("lstsq", "lstsq")):
            def returning(values, name=name):
                sol = np.array(values)
                return (lambda *args, **kw: sol if name == "solve"
                        else (sol, None, 0, None))

            for bad in ([np.nan, 0.5, 0.5], [np.inf, 0, 0],
                        [0.0, 0.0, 0.0]):
                monkeypatch.setattr(np.linalg, name, returning(bad))
                assert markov._solution(a, ones, path) is None
            for clipped in ([0.5, -1e-13, 0.5], [0.5, -1e-11, 0.5]):
                monkeypatch.setattr(np.linalg, name, returning(clipped))
                assert markov._solution(a, ones, path).tolist() == [
                    0.5, 0.0, 0.5]
            monkeypatch.setattr(np.linalg, name, singular)
            assert markov._solution(a, ones, path) is None

    def test_clip_off_the_chain_falls_to_lstsq(self, monkeypatch):
        # a dense solution whose clipped vector is not stationary misses
        # the residual target, so the real lstsq runs and decides
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "solve", lambda *args, **kw: np.array(
            [0.6, -0.3, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0]))
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kw: calls.append(1)
                            or lstsq(*args, **kw))
        sv = stationary(_periodic_chain())
        assert sv.path == "lstsq" and calls == [1]
        assert sv.residual <= 1e-12
        expected = np.zeros(8)
        expected[[0, 7]] = 0.5
        assert np.allclose(sv.vector, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 5, 37, 300])
    @pytest.mark.parametrize("miss", [1, 3, 16])
    def test_convergence_error_residual(self, monkeypatch, miss, seed):
        # both solves patched to miss: the error carries the residual of
        # the better of the two attempts, here a vector ``miss`` * 1e-9 off
        # the chain's stationary one and a random one drawn from ``seed``
        m = _periodic_chain().matrix
        near = np.zeros(8)
        near[[0, 7]] = 0.5, 0.5 + miss * 1e-9
        far = np.random.default_rng(seed).dirichlet(np.ones(8))
        for dense, fallback in ((near, far), (far, near), (None, far)):
            def solve(*args, dense=dense):
                if dense is None:
                    raise np.linalg.LinAlgError("singular")
                return dense.copy()

            monkeypatch.setattr(np.linalg, "solve", solve)
            monkeypatch.setattr(np.linalg, "lstsq",
                                lambda *args, fallback=fallback, **kw:
                                (fallback.copy(), None, 0, None))
            normed = [v / v.sum() for v in (dense, fallback) if v is not None]
            expected = min(np.abs(v @ m - v).max() for v in normed)
            assert expected > markov._TOL
            with pytest.raises(ConvergenceError,
                               match="missed the residual target") as got:
                stationary(markov.TransitionMatrix(m, FIG_SHAPE))
            assert got.value.residual == expected
        # neither attempt finds a vector, so no residual is measured
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kw: (np.full(8, np.nan),
                                                 None, 0, None))
        with pytest.raises(ConvergenceError) as got:
            stationary(markov.TransitionMatrix(m, FIG_SHAPE))
        assert got.value.residual == np.inf
        assert str(got.value) == ("stationary solve found no finite "
                                  "nonnegative solution")

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
        for _, dot, det_f, det_ones in _determinant_grid(coupled):
            assert dot == det_f / det_ones

    def test_pivot_must_be_leader(self):
        rng = np.random.default_rng(2)
        leaders, followers = random_profile(FIG_SHAPE, rng)
        tm = build_transition_matrix(FIG_SHAPE, leaders, followers)
        with pytest.raises(ValueError):
            zd_determinant(tm, np.ones(8), 2)

    def test_determinant_player_cap(self):
        # 9 players: a 512-state full chain, one player past the cap
        shape = GameShape(9, 2, 2, 19.0)
        leaders, followers = random_profile(shape, np.random.default_rng(3))
        tm = build_transition_matrix(shape, leaders, followers)
        for route in (zd_determinant, determinant_dot):
            with pytest.raises(ValueError, match="capped at 8 players"):
                route(tm, np.ones(shape.n_states), 0)

    def test_payoff_vector_length(self):
        leaders, followers = random_profile(FIG_SHAPE,
                                            np.random.default_rng(2))
        tm = build_transition_matrix(FIG_SHAPE, leaders, followers)
        for route in (zd_determinant, determinant_dot):
            for length in (7, 9):
                with pytest.raises(ValueError, match="length must match"):
                    route(tm, np.ones(length), 0)

    def test_degenerate_normalization(self):
        # a reducible chain with two absorbing halves degenerates
        tm = _reducible_chain()
        with pytest.raises(DegenerateChainError):
            determinant_dot(tm, np.ones(8), 0)


def _determinant_grid(coupled):
    """``(N, determinant_dot, zd_determinant of f, zd_determinant of the
    all-ones vector)`` for N = 2..6, every leader count (an alliance of up
    to two), every pivot leader and f the alliance then the outsider
    payoffs, on chains drawn in that order from one generator."""
    rng = np.random.default_rng(4)
    for n in range(2, 7):
        for n_leaders in range(1, n + 1):
            shape = GameShape(n, n_leaders, min(2, n_leaders, n - 1), 2.0 * n)
            pv = payoff_vectors(shape)
            leaders, followers = random_profile(shape, rng)
            tm = build_transition_matrix(shape, leaders, followers, coupled)
            ones = np.ones(shape.n_states)
            for pivot in range(n_leaders):
                for f in (pv.alliance, pv.outsiders):
                    yield (n, determinant_dot(tm, f, pivot),
                           zd_determinant(tm, f, pivot),
                           zd_determinant(tm, ones, pivot))


class TestExpectedPayoffs:
    def test_concentrated_states(self):
        pv = payoff_vectors(FIG_SHAPE)

        class Point:
            def __init__(self, state):
                self.vector = np.zeros(8)
                self.vector[state] = 1.0

        all_c = Point(state_of((1, 1, 1)))
        assert expected_payoffs(all_c, pv) == (9.0, 9.0)
        all_d = Point(0)
        assert expected_payoffs(all_d, pv) == (1.0, 1.0)

    def test_uniform_over_unison_states(self):
        pv = payoff_vectors(FIG_SHAPE)
        unison = [state_of(a) for a in
                  ((1, 1, 0), (1, 1, 1), (0, 0, 0), (0, 0, 1))]

        class Mixed:
            vector = np.zeros(8)

        Mixed.vector[unison] = 0.25
        pi_a, pi_out = expected_payoffs(Mixed, pv)
        assert pi_a == pytest.approx((6 + 9 + 1 + 4) / 4)
        assert pi_out == pytest.approx((7 + 9 + 1 + 3) / 4)


# sha256 prefixes, as (uncoupled, coupled, lumped) per (players, leaders,
# alliance) at r = 2N + 3, of a chain's matrix bytes (MATRIX_GOLDEN) and
# of its stationary vector's bytes followed by "repr(residual)|path"
# (STATIONARY_GOLDEN). The alliance shares one table drawn from {0.2,
# 0.5, 0.8}, so members also tie in split states; the outsiders come from
# ``random_outsiders``. They pin the chain build and the stationary solve
# bit for bit. The stationary digests of the chains solved directly were
# re-pinned with the direct solve of small chains, and those of the
# 128- to 1,024-state chains, on one BLAS thread, when every chain took
# that solve.
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
    (2, 1, 1): ("dd12abeeac5a1e60", "dd12abeeac5a1e60", "dd12abeeac5a1e60"),
    (2, 2, 1): ("43961d1bb45de6e3", "43961d1bb45de6e3", "43961d1bb45de6e3"),
    (3, 2, 2): ("ef4b8c01cb0d9634", "32b113b9962dc7eb", "b5933fa87665d5cf"),
    (3, 3, 2): ("e7fb92ab1280c6f2", "5d8dcb0a772eee83", "0108346c3a981102"),
    (4, 3, 3): ("1a1407669d410d8f", "561066fc6dc0cf74", "3ec9fc949ee92f10"),
    (4, 4, 2): ("07740123c9112919", "22ef7a22c40438b1", "30d36b16c06e6146"),
    (5, 4, 4): ("b97b054387cbb8bd", "2337958f8aadb813", "5de01520f1ad6da5"),
    (5, 3, 2): ("70a5e6700931f0d0", "e70bb846b9f2784f", "0cf1dfcd9b187f99"),
    (6, 5, 5): ("cbd44ee4087487f2", "c2eea82a358a2f0a", "1ded7e8db89fed9e"),
    (6, 4, 3): ("70a17b928503099a", "a422d42caf355a52", "94b11757b919f13d"),
    (7, 6, 6): ("05658c6126b3266d", "a4d5fb480bd6b3a1", "142e6b5c89d7548b"),
    (7, 5, 3): ("6d2b0e824023ae5d", "74a7e376cb2888a9", "ef159dc6839839b4"),
    (8, 7, 7): ("22a4ec2fc402073c", "eb30b52402e65e1a", "246cae1fb836ad3f"),
    (8, 6, 4): ("2b4bf231330d6986", "e4ba1dd95f0d7bbc", "bb45c5dfc5904410"),
    (10, 9, 9): ("d55acf4624efc004", "b5ca2b08851c045b", "623ff5b9c4ad53bc"),
    (10, 7, 6): ("85ff2725c0a382bd", "cd3804639fa95746", "51726f2ea97557d3"),
}

# sha256 prefixes, per N as (uncoupled, coupled), of the float64 bytes of
# every (determinant_dot, zd_determinant of f, zd_determinant of ones)
# triple of ``_determinant_grid``, in its order. They pin the determinant
# route, chain build included, bit for bit. The grid's members draw their
# own tables, which never tie, so coupling leaves its chains unchanged.
DETERMINANT_GOLDEN = {
    2: ("19ab1445d43e0f0c", "19ab1445d43e0f0c"),
    3: ("ef2531e2482eeb2b", "ef2531e2482eeb2b"),
    4: ("9572c846dd171984", "9572c846dd171984"),
    5: ("9ccb9ff49fd194ac", "9ccb9ff49fd194ac"),
    6: ("19c5557d34beeb0d", "19c5557d34beeb0d"),
}


def _stationary_one_blas_thread(tm):
    """``stationary(tm)`` in a child process with one BLAS thread. LAPACK
    splits the LU of a chain over 64 states across the BLAS threads, and
    the split moves the solution's last bits with the thread count, so
    the digests of those chains are pinned on one thread, which any
    machine reproduces."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(markov.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = ("import pickle, sys; from zdlab import markov; "
            "pickle.dump(markov.stationary(pickle.load(sys.stdin.buffer)), "
            "sys.stdout.buffer)")
    proc = subprocess.run([sys.executable, "-c", code],
                          input=pickle.dumps(tm), capture_output=True,
                          env=env, check=True, timeout=60)
    return pickle.loads(proc.stdout)


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
        if len(tm.matrix) > 64:
            sv = _stationary_one_blas_thread(tm)
        else:
            sv = stationary(tm)
        h = hashlib.sha256(sv.vector.tobytes())
        h.update(f"{sv.residual!r}|{sv.path}".encode())
        assert h.hexdigest()[:16] == STATIONARY_GOLDEN[dims][index]

    @pytest.mark.parametrize("coupled", [False, True])
    def test_determinant_bits(self, coupled):
        digests = {}
        for n, *values in _determinant_grid(coupled):
            h = digests.setdefault(n, hashlib.sha256())
            h.update(np.array(values).tobytes())
        assert {n: h.hexdigest()[:16] for n, h in digests.items()} == {
            n: pair[coupled] for n, pair in DETERMINANT_GOLDEN.items()}
