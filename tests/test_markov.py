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
    """Per-sweep reference for :func:`stationary`: the power loop with one
    convergence check per sweep, reading the module's constants when
    called. ``missed`` collects the sweeps whose step reached ``_TOL`` but
    whose residual did not."""
    m = tm.matrix
    size = m.shape[0]
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


class TestStationary:
    def test_uniform_chain(self):
        leaders = [LeaderStrategy.constant(i, FIG_SHAPE, 0.5) for i in range(2)]
        followers = [FollowerStrategy.constant(2, FIG_SHAPE, 0.5)]
        sv = stationary(build_transition_matrix(FIG_SHAPE, leaders, followers))
        assert np.allclose(sv.vector, 1 / 8)
        assert sv.residual <= 1e-12
        assert sv.path == "power" and sv.iterations == 1

    def test_all_defect_absorbing(self):
        leaders = [LeaderStrategy.constant(i, FIG_SHAPE, 0.0) for i in range(2)]
        followers = [FollowerStrategy.constant(2, FIG_SHAPE, 0.0)]
        sv = stationary(build_transition_matrix(FIG_SHAPE, leaders, followers))
        expected = np.zeros(8)
        expected[0] = 1.0  # state 0 is all-defect
        assert np.allclose(sv.vector, expected, atol=1e-12)

    def test_periodic_chain_uses_dense_fallback(self, monkeypatch):
        tm = _periodic_chain()
        calls = []
        dense = markov._dense_stationary
        monkeypatch.setattr(markov, "_dense_stationary",
                            lambda m: calls.append(1) or dense(m))
        sv = stationary(tm)
        assert calls == [1]
        assert sv.path == "dense" and sv.iterations == markov._POWER_BUDGET
        expected = np.zeros(8)
        expected[[0, 7]] = 0.5
        assert np.allclose(sv.vector, expected, atol=1e-12)
        assert sv.residual <= 1e-12

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 16])
    def test_step_below_tol_before_residual(self, monkeypatch, block):
        # this chain's step first reaches _TOL at a sweep whose residual
        # (the next step) does not, so that sweep must not be returned
        shape = GameShape(3, 3, 1, 9.0)
        tables = ([0.02, 0.5, 0.02, 0.02, 0.02, 0.98],
                  [0.5, 0.98, 0.0, 1.0, 0.0, 0.0],
                  [0.5, 1.0, 0.98, 0.5, 1.0, 0.5])
        leaders = [LeaderStrategy(i, np.reshape(t, (2, 3, 1)))
                   for i, t in enumerate(tables)]
        tm = build_transition_matrix(shape, leaders, [])
        monkeypatch.setattr(markov, "_BLOCK", block)
        missed = []
        expected = reference_stationary(tm, missed)
        assert missed and expected.path == "power"
        assert_same_stationary(stationary(tm), expected)

    @pytest.mark.parametrize("budget", [37, markov._POWER_BUDGET])
    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_dense_attempt_at_budget(self, monkeypatch, budget, block):
        monkeypatch.setattr(markov, "_BLOCK", block)
        monkeypatch.setattr(markov, "_POWER_BUDGET", budget)
        sv = stationary(_periodic_chain())
        assert sv.path == "dense" and sv.iterations == budget
        assert_same_stationary(sv, reference_stationary(_periodic_chain()))

    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_power_goes_on_from_a_missed_dense_solve(self, monkeypatch,
                                                     block):
        # a dense attempt that misses the target restarts power iteration
        # from its vector, here the uniform one
        rng = np.random.default_rng(8)
        tm = build_transition_matrix(FIG_SHAPE, *random_profile(FIG_SHAPE,
                                                                rng))
        monkeypatch.setattr(markov, "_BLOCK", block)
        monkeypatch.setattr(markov, "_POWER_BUDGET", 7)
        monkeypatch.setattr(markov, "_dense_stationary",
                            lambda m: np.full(len(m), 1.0 / len(m)))
        sv = stationary(tm)
        assert sv.path == "power" and sv.iterations > 7
        assert_same_stationary(sv, reference_stationary(tm))

    @pytest.mark.parametrize("max_iters", [0, 5, 37, 300])
    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_convergence_error_residual(self, monkeypatch, max_iters, block):
        # the periodic chain never settles once its dense attempt fails
        monkeypatch.setattr(markov, "_BLOCK", block)
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
        s = np.indices(leader_table_shape(FIG_SHAPE))[0]
        leaders = [LeaderStrategy(i, s) for i in range(2)]
        followers = [FollowerStrategy(2, (0.0, 0.5, 1.0))]
        tm = build_transition_matrix(FIG_SHAPE, leaders, followers)
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


# sha256 prefixes of a chain's matrix bytes followed by its stationary
# vector's bytes and "repr(residual)|path|iterations", as (uncoupled,
# coupled, lumped) per (players, leaders, alliance) at r = 2N + 3. The
# alliance shares one table drawn from {0.2, 0.5, 0.8}, so members also
# tie in split states; the outsiders come from ``random_outsiders``. They
# pin the chain build and the stationary solve bit for bit.
CHAIN_GOLDEN = {
    (2, 1, 1): ("38b8f9f5c8d8b223", "38b8f9f5c8d8b223", "38b8f9f5c8d8b223"),
    (2, 2, 1): ("d402baa0e6091b96", "d402baa0e6091b96", "d402baa0e6091b96"),
    (3, 2, 2): ("5c0a98cd345cc77b", "9e8324103010aa13", "221f72940734eba4"),
    (3, 3, 2): ("909600363a2bb581", "03d4b50262c60a49", "355cb9a1b0f4229c"),
    (4, 3, 3): ("f2a70b606996f4ca", "06b081b505d7e5ef", "6fd43efd6eebe2c1"),
    (4, 4, 2): ("78690c540572c74d", "9683a05943a65af6", "57837a8068d356e8"),
    (5, 4, 4): ("680ac5352abc775c", "47eb983642986ec6", "b3858e9144fd146c"),
    (5, 3, 2): ("6f2b442fc8c78ab8", "cdc28164a4808a04", "05cd71001ab6f9af"),
    (6, 5, 5): ("c00b02396259d54d", "17e4a6d68521e2e0", "916a5e38316d850d"),
    (6, 4, 3): ("917a464c355f2945", "8a3d5f1c53508289", "ec5cce505e1c33c9"),
    (7, 6, 6): ("cf42aebc92dbae94", "290f5146cd0bbce2", "ff058e391a234c54"),
    (7, 5, 3): ("52086085c420d381", "0852055e1ac4c4a3", "f1a7468cd4d3d93f"),
    (8, 7, 7): ("e7db347ffb31627e", "8eabb56967a1f11f", "8c6d51b16da4c597"),
    (8, 6, 4): ("6f6d58d6c02a9cfa", "27df79a8fe3e0547", "39bf1c995a931152"),
    (10, 9, 9): ("e48ae3df442f8ede", "ffa4ff6b7db5da8f", "7ad5ad025fa98e72"),
    (10, 7, 6): ("02b3c06e4caebf0b", "c74709ffcad7c966", "b6ee5838e386cc06"),
}


class TestGolden:
    @pytest.mark.parametrize("kind", ["uncoupled", "coupled", "lumped"])
    @pytest.mark.parametrize("dims", list(CHAIN_GOLDEN))
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
        sv = stationary(tm)
        h = hashlib.sha256(tm.matrix.tobytes())
        h.update(sv.vector.tobytes())
        h.update(f"{sv.residual!r}|{sv.path}|{sv.iterations}".encode())
        expected = CHAIN_GOLDEN[dims][("uncoupled", "coupled",
                                       "lumped").index(kind)]
        assert h.hexdigest()[:16] == expected
