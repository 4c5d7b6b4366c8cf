import dataclasses
import hashlib
import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zdlab import alliance, game, markov
from zdlab.alliance import (ZDParams, _default_outsiders, _phi_interval,
                            _zero_band, alliance_admissible, dominance_check,
                            feasible_l_range, incentive_menu,
                            random_outsiders, stationary_payoffs, synthesize,
                            verify_enforcement)
from zdlab.errors import InfeasibleError
from zdlab.game import (GameShape, count_cells, count_payoffs, payoff_vectors,
                        state_bits, unison_payoffs)
from zdlab.markov import (FollowerStrategy, LeaderStrategy, TransitionMatrix,
                          build_transition_matrix, stationary, zd_determinant)

FIG_SHAPE = GameShape(3, 2, 2, 9.0)

# every admissible shape with N <= 7 at two payoff factors
SMALL_SHAPES = [shape for n in range(2, 8) for r in (2.0 * n + 3.0, 4.0 * n)
                for nl in range(1, n + 1) for na in range(1, min(nl, n - 1) + 1)
                if alliance_admissible(shape := GameShape(n, nl, na, r))]

# every admissible split of N = 2..10 players at four payoff factors (r = 9
# appears twice at N = 3)
GRID_SHAPES = [shape for n in range(2, 11)
               for r in (2.0 * n + 3, n + 0.5, 1.5 * n, 3.0 * n)
               for nl in range(1, n + 1) for na in range(1, min(nl, n - 1) + 1)
               if alliance_admissible(shape := GameShape(n, nl, na, r))]

# every admissible split of N = 2..10 players at r = 2N + 3
PAYOFF_SHAPES = [shape for n in range(2, 11) for nl in range(1, n + 1)
                 for na in range(1, min(nl, n - 1) + 1)
                 if alliance_admissible(
                     shape := GameShape(n, nl, na, 2.0 * n + 3.0))]

# sha256 prefix over PAYOFF_SHAPES of, per shape, the full-chain and
# lumped payoff vectors and the unison rows k = 0 and n_alliance of the
# count payoffs, then per chi in (0, 0.3) and l at l_min, the midpoint and
# l_max, synthesize's f_unison, strategy table, f_vector, phi and
# certificate (or the InfeasibleError message). It pins the payoff rule
# and every synthesis output on it bit for bit; the lumped chains have at
# most 64 states, so no solve depends on the BLAS thread count.
PAYOFF_GOLDEN = "df6e9fbdce9fa6ca"


def count_f(shape, chi, l):
    """f = chi (g_A - l) - (g_O - l) on the whole count grid: an
    (n_alliance + 1, N + 1) array indexed [k, b]."""
    n, na = shape.n_players, shape.n_alliance
    counts = count_payoffs(shape, np.arange(na + 1)[:, None], np.arange(n + 1))
    return chi * (counts.alliance - l) - (counts.outsiders - l)


def reference_phi_interval(f, zero):
    """Scalar loop over the unison outcomes (s, b) of the (2, N + 1) table
    ``f``, cooperation first and b ascending, skipping impossible (NaN)
    outcomes and entries within ``zero`` of 0: the feasible scaling
    interval ``(pos_hi, neg_lo, violator)`` of ``_phi_interval``."""
    pos_hi, neg_lo = math.inf, -math.inf
    violator = None
    for s in (1, 0):
        for b in range(f.shape[1]):
            fv = float(f[s, b])
            if math.isnan(fv) or abs(fv) < zero[s, b]:
                continue
            lo, hi = (-1.0, 0.0) if s == 1 else (0.0, 1.0)
            a1, a2 = sorted((lo / fv, hi / fv))
            pos_hi = min(pos_hi, a2 if a2 > 0 else 0.0)
            neg_lo = max(neg_lo, a1 if a1 < 0 else 0.0)
            if pos_hi == 0.0 and neg_lo == 0.0 and violator is None:
                violator = (s, b)
    return pos_hi, neg_lo, violator


@st.composite
def f_tables(draw):
    """A unison table of f values with its zero band. Each possible
    outcome holds 0, a value strictly within the band, a value at the
    band's edge or an ordinary value; a row may be held to one sign."""
    n = draw(st.integers(2, 10))
    na = draw(st.integers(1, n - 1))
    shape = GameShape(n, na, na, draw(st.sampled_from([n + 0.5, 2.0 * n + 3])))
    # the unison outcomes are the cells k = 0 and n_alliance
    unison = unison_payoffs(shape)
    zero = _zero_band(draw(st.sampled_from([0.0, 0.3, 0.9])),
                      draw(st.floats(0.5, 4.0 * n)), unison)
    f = np.full((2, n + 1), np.nan)
    for s, b in np.argwhere(~np.isnan(unison.alliance)).tolist():
        kind = draw(st.sampled_from(["zero", "inside", "edge", "value"]))
        if kind == "zero":
            f[s, b] = 0.0
        elif kind == "inside":
            f[s, b] = draw(st.floats(0.0, 0.99)) * zero[s, b]
        elif kind == "edge":
            f[s, b] = zero[s, b]
        else:
            f[s, b] = draw(st.floats(1e-3, 50.0))
    for s in (0, 1):
        sign = draw(st.sampled_from(["mixed", "positive", "negative"]))
        if sign == "mixed":
            f[s] *= draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                  min_size=n + 1, max_size=n + 1))
        elif sign == "negative":
            f[s] *= -1.0
    return f, zero


def full_chain_payoffs(result, outsiders):
    """Expected payoffs on the full 2^N coupled chain started in unison:
    the chain restricted to its unison states, whose rows are first
    checked to sum to 1 (the alliance never leaves them)."""
    shape = result.params.shape
    n_out_leaders = shape.n_leaders - shape.n_alliance
    leaders = ([result.strategy] * shape.n_alliance
               + list(outsiders[:n_out_leaders]))
    full = build_transition_matrix(shape, leaders,
                                   list(outsiders[n_out_leaders:]),
                                   coupling=True).matrix
    low = (1 << shape.n_alliance) - 1
    unison = [s for s in range(shape.n_states) if s & low in (0, low)]
    m = full[np.ix_(unison, unison)]
    np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    v = stationary(TransitionMatrix(m, shape)).vector
    pv = payoff_vectors(shape)
    return float(v @ pv.alliance[unison]), float(v @ pv.outsiders[unison])


def pure_outsiders(outsiders):
    """``outsiders`` with every probability rounded to 0 or 1."""
    return [LeaderStrategy(s.owner, np.round(s.table))
            if isinstance(s, LeaderStrategy)
            else FollowerStrategy(s.owner, np.round(s.probs))
            for s in outsiders]


def test_payoff_golden():
    h = hashlib.sha256()
    for shape in PAYOFF_SHAPES:
        for pv in (game.payoff_vectors(shape),
                   game.lumped_payoff_vectors(shape)):
            h.update(pv.alliance.tobytes() + pv.outsiders.tobytes())
        unison = unison_payoffs(shape)
        h.update(unison.alliance.tobytes() + unison.outsiders.tobytes())
        for chi in (0.0, 0.3):
            lo, hi = feasible_l_range(chi, shape)
            for l in (lo, (lo + hi) / 2, hi):
                try:
                    result = synthesize(ZDParams(chi, l, shape))
                except InfeasibleError as exc:
                    h.update(str(exc).encode())
                    continue
                for array in (result.f_unison, result.strategy.table,
                              result.f_vector):
                    h.update(array.tobytes())
                h.update(f"{result.phi!r}|{result.certificate!r}".encode())
    assert h.hexdigest()[:16] == PAYOFF_GOLDEN


class TestAdmissibility:
    def test_examples(self):
        assert alliance_admissible(FIG_SHAPE)
        assert not alliance_admissible(GameShape(2, 1, 1, 2.0))

    def test_single_outsider_reduces_to_r_above_n(self):
        assert not alliance_admissible(GameShape(3, 2, 2, 3.0))
        assert alliance_admissible(GameShape(3, 2, 2, 3.01))
        for n in range(2, 7):
            shape_lo = GameShape(n, n - 1, n - 1, float(n))
            shape_hi = GameShape(n, n - 1, n - 1, n + 0.5)
            assert not alliance_admissible(shape_lo)
            assert alliance_admissible(shape_hi)

    def test_matches_exact_reference_at_huge_and_boundary_r(self):
        # float64 rounds (r - 1) / r to 1 above 2**53 and 2 r overflows
        # above about 9e307; the boundaries N / (N - 2 n_alliance) and
        # N / (N - n_alliance) are admissible on neither side
        huge = (2.0 ** 53, 2.0 ** 54, 1e305, 1e307, 8.9e307,
                1.7976931348623157e308)
        for n in range(2, 11):
            for na in range(1, n):
                edges = [n / (n - 2 * na)] if n > 2 * na else []
                for r in (*huge, *edges, n / (n - na)):
                    exact = Fraction(r)
                    expected = ((exact - 1) / (2 * exact) * n < na
                                < (exact - 1) / exact * n)
                    for nl in range(na, n + 1):
                        shape = GameShape(n, nl, na, r)
                        assert alliance_admissible(shape) == expected, shape


class TestFeasibleRange:
    def test_fair_baseline_range(self):
        l_min, l_max = feasible_l_range(0.0, FIG_SHAPE)
        assert l_min == pytest.approx(3.0)
        assert l_max == pytest.approx(7.0)

    def test_range_oracle_from_strategy_feasibility(self):
        # the reported interval must agree with a direct probe: synthesis
        # succeeds just inside both endpoints and fails just outside
        for shape in (FIG_SHAPE, GameShape(4, 3, 3, 11.0),
                      GameShape(5, 3, 3, 13.0)):
            for chi in (0.0, 0.25, 0.6):
                l_min, l_max = feasible_l_range(chi, shape)
                eps = 1e-6
                for l in (l_min + eps, l_max - eps):
                    synthesize(ZDParams(chi, l, shape))
                for l in (l_min - 1e-3, l_max + 1e-3):
                    with pytest.raises(InfeasibleError):
                        synthesize(ZDParams(chi, l, shape))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_range_ends_enforceable_on_grid(self, n):
        # every end of the feasible range synthesizes (76 of the grid's
        # 2,560 ends once failed on an f entry that rounds to 1-2e-15
        # instead of 0), and 1e-3 beyond either end still fails
        for shape in (s for s in GRID_SHAPES if s.n_players == n):
            for chi in (0.0, 0.3, 0.6, 0.9):
                l_min, l_max = feasible_l_range(chi, shape)
                for l in (l_min, l_max):
                    result = synthesize(ZDParams(chi, l, shape))
                    assert result.certificate <= 1e-8
                for l in (l_min - 1e-3, l_max + 1e-3):
                    with pytest.raises(InfeasibleError):
                        synthesize(ZDParams(chi, l, shape))

    def test_baseline_just_beyond_an_end(self):
        # within 1e-9 of an end the baseline is synthesized at that end;
        # further out it is outside the range, with one message either way
        shape, chi = GameShape(6, 4, 4, 15.0), 0.3
        l_min, l_max = feasible_l_range(chi, shape)
        for end, beyond in ((l_max, 5e-10), (l_min, -5e-10),
                            (l_max, 1e-15)):
            result = synthesize(ZDParams(chi, end + beyond, shape))
            at_end = synthesize(ZDParams(chi, end, shape))
            assert (result.strategy.table.tobytes()
                    == at_end.strategy.table.tobytes())
            assert result.certificate <= (1 - chi) * abs(beyond) + 1e-13
        # the CI's l_max, as printed
        assert synthesize(ZDParams(chi, 11.42857142857143, shape))
        for l in (l_max + 2e-9, l_min - 2e-9):
            with pytest.raises(InfeasibleError,
                               match="outside enforceable range"):
                synthesize(ZDParams(chi, l, shape))

    def test_inadmissible_shape_rejected(self):
        with pytest.raises(InfeasibleError):
            feasible_l_range(0.0, GameShape(3, 2, 2, 2.0))

    def test_bad_chi(self):
        with pytest.raises(ValueError):
            feasible_l_range(1.0, FIG_SHAPE)


class TestSynthesis:
    def test_worked_example_table(self):
        result = synthesize(ZDParams(0.0, 3.0, FIG_SHAPE, phi=1 / 6))
        table = result.strategy.table
        assert table.shape == (2, 2, 2)
        assert table[1, 1, 0] == pytest.approx(1 / 3)  # unison c, b = 2
        assert table[1, 1, 1] == pytest.approx(0.0)    # unison c, b = 3
        assert table[0, 0, 0] == pytest.approx(1 / 3)  # unison d, b = 0
        assert table[0, 0, 1] == pytest.approx(0.0)    # unison d, b = 1
        assert table[1, 0, 0] == 0.0                   # split-only index
        assert table[1, 0, 1] == 0.0

    def test_phi_interval_upper_bound(self):
        result = synthesize(ZDParams(0.0, 3.0, FIG_SHAPE))
        assert result.phi_interval == pytest.approx((0.0, 1 / 6))
        assert 0.0 < result.phi <= 1 / 6

    def test_forced_phi_out_of_interval(self):
        with pytest.raises(InfeasibleError):
            synthesize(ZDParams(0.0, 3.0, FIG_SHAPE, phi=0.2))
        with pytest.raises(InfeasibleError):
            synthesize(ZDParams(0.0, 3.0, FIG_SHAPE, phi=-0.2))

    def test_certificate_small(self):
        result = synthesize(ZDParams(0.3, 4.0, FIG_SHAPE))
        assert result.certificate <= 1e-9

    def test_f_vector_matches_table_on_unison_states(self):
        result = synthesize(ZDParams(0.2, 5.0, FIG_SHAPE))
        # unison states: alliance bits equal; b from total cooperators
        state_cases = {0b011: (1, 2), 0b111: (1, 3),
                       0b000: (0, 0), 0b100: (0, 1)}
        for state, key in state_cases.items():
            assert result.f_vector[state] == pytest.approx(result.f_unison[key])

    def test_f_vector_built_only_when_read(self, monkeypatch):
        # the certificate runs on the lumped chain: nothing in synthesize
        # needs the 2^N states
        shape, chi, l = GameShape(6, 5, 4, 15.0), 0.3, 9.0
        sizes, cells, vectors = [], [], []

        def spy_bits(n_players):
            sizes.append(n_players)
            return state_bits(n_players)

        def spy_cells(*layout):
            cells.append(layout)
            return count_cells(*layout)

        def spy_vectors(shape):
            vectors.append(shape)
            return payoff_vectors(shape)

        game.payoff_vectors.cache_clear()
        monkeypatch.setattr(game, "state_bits", spy_bits)
        monkeypatch.setattr(markov, "state_bits", spy_bits)
        monkeypatch.setattr(game, "count_cells", spy_cells)
        monkeypatch.setattr(alliance, "payoff_vectors", spy_vectors)
        result = synthesize(ZDParams(chi, l, shape))
        assert shape.n_players not in sizes and not vectors
        assert all(n_bits < shape.n_players for n_bits, _, _ in cells)
        before = len(cells)
        f = result.f_vector
        assert cells[before:] == [(shape.n_players, shape.n_alliance, 1)]
        assert vectors == [shape]
        assert result.f_vector is f and not f.flags.writeable
        monkeypatch.undo()
        pv = payoff_vectors(shape)
        assert f.tobytes() == (chi * (pv.alliance - l)
                               - (pv.outsiders - l)).tobytes()

    def test_f_vector_refused_over_player_cap(self):
        # at N = 200 the full chain's f would take 2^200 entries: refused
        # by the full chain's cap before any table is built
        result = synthesize(ZDParams(0.0, 200.0,
                                     GameShape(200, 199, 199, 403.0)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="capped at 10 players"):
                result.f_vector
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_f_vector_gathers_count_table(self):
        # every admissible split of N <= 10: f per state is f on the count
        # grid at the state's popcounts (cooperating members, all
        # cooperators)
        for shape in GRID_SHAPES:
            try:
                lo, hi = feasible_l_range(0.3, shape)
                l = (lo + hi) / 2
                result = synthesize(ZDParams(0.3, l, shape))
            except InfeasibleError:
                continue
            f_counts = count_f(shape, 0.3, l)
            states = range(shape.n_states)
            low = (1 << shape.n_alliance) - 1
            k = [bin(state & low).count("1") for state in states]
            b = [bin(state).count("1") for state in states]
            assert result.f_vector.tobytes() == f_counts[k, b].tobytes()

    def test_f_tables_share_one_count_table(self):
        for shape in SMALL_SHAPES:
            lo, hi = feasible_l_range(0.4, shape)
            for l in (lo, (lo + hi) / 2, hi):
                try:
                    result = synthesize(ZDParams(0.4, l, shape))
                except InfeasibleError:
                    continue
                counts = count_f(shape, 0.4, result.baseline)
                assert counts.shape == (shape.n_alliance + 1,
                                        shape.n_players + 1)
                assert not result.f_unison.flags.writeable
                assert result.f_unison.tobytes() == (
                    counts[[0, shape.n_alliance]].tobytes())

    def test_f_unison_is_read_only_table(self):
        shape = GameShape(5, 4, 3, 13.0)
        result = synthesize(ZDParams(0.3, 6.0, shape))
        f = result.f_unison
        assert f.shape == (2, 6)
        assert not f.flags.writeable
        unison = unison_payoffs(shape)
        np.testing.assert_array_equal(
            f, 0.3 * (unison.alliance - 6.0) - (unison.outsiders - 6.0))
        assert np.isnan(f[1, :3]).all() and np.isnan(f[0, 3:]).all()
        assert not np.isnan(f[1, 3:]).any() and not np.isnan(f[0, :3]).any()
        assert "payoffs" not in inspect.signature(synthesize).parameters

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(table=f_tables())
    def test_phi_interval_matches_reference_loop(self, table):
        f, zero = table
        assert _phi_interval(f, zero) == reference_phi_interval(f, zero)

    def test_phi_interval_names_first_violator(self):
        # positive cooperation entries empty the positive branch, and the
        # positive defection entry b = 0 then empties the negative one
        f = np.array([[2.0, 1.0, np.nan], [np.nan, 4.0, 5.0]])
        zero = np.full(f.shape, 1e-12)
        assert _phi_interval(f, zero) == (0.0, 0.0, (0, 0))
        assert reference_phi_interval(f, zero) == (0.0, 0.0, (0, 0))
        f[0, 0] = 1e-13  # within the band: no bound, the violator moves on
        assert _phi_interval(f, zero) == (0.0, 0.0, (0, 1))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ZDParams(-0.1, 5.0, FIG_SHAPE)
        with pytest.raises(ValueError):
            ZDParams(0.0, 5.0, FIG_SHAPE, phi=0.0)


class TestEnforcement:
    @pytest.mark.parametrize("chi", [0.0, 0.4, 0.8])
    def test_relation_holds_against_random_outsiders(self, chi):
        rng = np.random.default_rng(7)
        for shape in (FIG_SHAPE, GameShape(4, 2, 2, 11.0),
                      GameShape(5, 3, 3, 13.0)):
            l_min, l_max = feasible_l_range(chi, shape)
            for frac in (0.25, 0.75):
                l = l_min + frac * (l_max - l_min)
                result = synthesize(ZDParams(chi, l, shape))
                for _ in range(3):
                    residual = verify_enforcement(
                        result, random_outsiders(shape, rng))
                    assert residual <= 1e-8

    def test_small_lumped_chains_solved_to_rounding(self):
        # lumped verifies on chains of up to 64 states: the direct solve
        # keeps every residual at rounding level, where power iteration
        # left up to about 1e-10 on slow-mixing chains
        checked = 0
        for shape in dict.fromkeys(
                s for s in GRID_SHAPES if s.r == 2 * s.n_players + 3
                and s.n_players - s.n_alliance <= 5):
            for chi in (0.0, 0.3, 0.6, 0.9):
                l_min, l_max = feasible_l_range(chi, shape)
                for l in (l_min, (l_min + l_max) / 2, l_max):
                    result = synthesize(ZDParams(chi, l, shape))
                    assert result.certificate <= 1e-12
                    rng = np.random.default_rng([shape.n_players,
                                                 shape.n_leaders,
                                                 shape.n_alliance, checked])
                    for _ in range(3):
                        assert verify_enforcement(
                            result, random_outsiders(shape, rng)) <= 1e-12
                    checked += 1
        assert checked == 960

    @pytest.mark.parametrize("n", [20, 200, 1024])
    def test_nine_outsiders_certified_at_range_ends(self, n):
        # 1,024 lumped states, solved directly: a power loop stopped at an
        # absolute step of 1e-12 left certificates that grew with the
        # payoff scale, 9.9e-9 at N = 20 and 1.7e-7 at N = 200
        shape = GameShape(n, n - 5, n - 9, 2.0 * n + 3.0)
        for chi in (0.0, 0.3):
            for l in feasible_l_range(chi, shape):
                assert synthesize(ZDParams(chi, l, shape)).certificate <= 1e-8

    def test_wrong_target_detected(self):
        result = synthesize(ZDParams(0.0, 4.0, FIG_SHAPE))
        rng = np.random.default_rng(1)
        wrong = dataclasses.replace(
            result, params=dataclasses.replace(result.params, l=6.0))
        residual = verify_enforcement(wrong, random_outsiders(FIG_SHAPE, rng))
        assert residual > 0.1

    @pytest.mark.parametrize("dims, digest", [
        ((3, 2, 2),
         "75887f0a119e91fb72dd568e4f6381fb0a0d05ddec0239cf3e81bbc38169c483"),
        ((5, 4, 2),
         "aa1635934f3b9885e91681075cd1170bdf828bf1150c95b229e71b9aa32c103d"),
        ((10, 7, 6),
         "49e50cdd0c75dcc7c03b5adef907b266376c522e2a7337517386bd7596d8a3e9"),
    ])
    def test_random_outsiders_golden(self, dims, digest):
        # sha256 of two draws of float64 tables, leaders in
        # [own_prev_action, coop_other_leaders, coop_followers] order
        shape = GameShape(*dims, 2.0 * dims[0] + 3)
        rng = np.random.default_rng(2024)
        n_out_leaders = shape.n_leaders - shape.n_alliance
        h = hashlib.sha256()
        for _ in range(2):
            outsiders = random_outsiders(shape, rng)
            for strat in outsiders[:n_out_leaders]:
                h.update(strat.table.tobytes())
            for strat in outsiders[n_out_leaders:]:
                h.update(strat.probs.tobytes())
        assert h.hexdigest() == digest

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(SMALL_SHAPES),
           chi=st.sampled_from([0.0, 0.3, 0.6]),
           frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_lumped_chain_matches_full_chain(self, shape, chi, frac, seed):
        try:
            l_min, l_max = feasible_l_range(chi, shape)
            result = synthesize(ZDParams(chi, l_min + frac * (l_max - l_min),
                                         shape))
        except InfeasibleError:
            assume(False)
        outsiders = random_outsiders(shape, np.random.default_rng(seed))
        np.testing.assert_allclose(stationary_payoffs(result, outsiders),
                                   full_chain_payoffs(result, outsiders),
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("dims, chi", [((10, 9, 9), 0.3),
                                           ((10, 7, 6), 0.0)])
    def test_lumped_chain_matches_full_chain_n10(self, dims, chi):
        shape = GameShape(*dims, 23.0)
        rng = np.random.default_rng(10)
        l_min, l_max = feasible_l_range(chi, shape)
        for frac in (0.25, 0.75):
            result = synthesize(ZDParams(chi, l_min + frac * (l_max - l_min),
                                         shape))
            outsiders = random_outsiders(shape, rng)
            np.testing.assert_allclose(stationary_payoffs(result, outsiders),
                                       full_chain_payoffs(result, outsiders),
                                       rtol=0, atol=1e-9)

    def test_matches_unison_oracle_on_every_split(self):
        # every admissible split of N <= 8 at r = 2N + 3, at both ends and
        # the middle of the range: the lumped chain against the full
        # coupled chain from a unison start, for an interior outsider draw
        # and a pure one (rounded to 0s and 1s), whose 2^N chain can hold
        # closed classes of split states
        checked = 0
        for shape in dict.fromkeys(s for s in GRID_SHAPES if s.n_players <= 8
                                   and s.r == 2 * s.n_players + 3):
            rng = np.random.default_rng([shape.n_players, shape.n_leaders,
                                         shape.n_alliance])
            for chi in (0.0, 0.3):
                l_min, l_max = feasible_l_range(chi, shape)
                for l in (l_min, (l_min + l_max) / 2, l_max):
                    result = synthesize(ZDParams(chi, l, shape))
                    interior = random_outsiders(shape, rng)
                    for outsiders in (interior, pure_outsiders(interior)):
                        np.testing.assert_allclose(
                            stationary_payoffs(result, outsiders),
                            full_chain_payoffs(result, outsiders),
                            rtol=0, atol=1e-12)
                        checked += 1
        assert checked == 552

    def test_default_outsiders_cached(self):
        shape = GameShape(5, 4, 3, 13.0)
        first = _default_outsiders(shape)
        assert _default_outsiders(shape) is first
        assert len(first) == 2
        assert all(s.owner == i for i, s in enumerate(first, start=3))
        tables = [first[0].table, first[1].probs]
        assert all((t == 0.5).all() and not t.flags.writeable for t in tables)

    def test_shape_caches_bounded_across_r(self):
        # a shape includes r, so a scan over r must not keep every table;
        # the lumped chain's plan and cells are keyed by the alliance size,
        # so neither may a scan over alliance sizes up to N = 200
        for i in range(200):
            shape = GameShape(4, 3, 3, 10.0 + 0.25 * i)
            lo, hi = feasible_l_range(0.0, shape)
            synthesize(ZDParams(0.0, (lo + hi) / 2, shape))
        for na in range(100, 200):
            shape = GameShape(na + 1, na, na, 2.0 * na + 5.0)
            lo, hi = feasible_l_range(0.0, shape)
            synthesize(ZDParams(0.0, (lo + hi) / 2, shape))
        for cached in (game.payoff_vectors, game.lumped_payoff_vectors,
                       game.unison_payoffs, markov._chain_plan,
                       alliance._strategy_indices,
                       alliance._default_outsiders):
            assert cached.cache_info().currsize <= 64, cached.__name__

    def test_scan_over_r_keeps_no_count_grid(self):
        # synthesize reads the 2 (N + 1) unison cells and the lumped cells,
        # so a scan over r at N = 1,024 keeps no (n_alliance + 1, N + 1)
        # table per shape
        tracemalloc.start()
        try:
            for r in range(2051, 2060):
                shape = GameShape(1024, 1015, 1015, float(r))
                lo, hi = feasible_l_range(0.0, shape)
                synthesize(ZDParams(0.0, (lo + hi) / 2, shape))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 8 * 2**20

    def test_largest_game_builds_no_count_grid(self):
        # one outsider of 1,024 players: a 4-state lumped chain and
        # 2 * 1,025 unison cells, where the grid would take 16 MB
        shape = GameShape(1024, 1023, 1023, 2051.0)
        tracemalloc.start()
        try:
            synthesize(ZDParams(0.0, 1026.0, shape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("dims", [(40, 36, 35), (200, 199, 199)])
    def test_large_games_without_full_chain(self, monkeypatch, dims):
        # the lumped chain of 2^(outsiders + 1) states is all that synth
        # and verify build: no table of the 2^N states is made
        n = dims[0]
        shape = GameShape(*dims, 2.0 * n + 3.0)
        sizes = []

        def spy_bits(n_bits):
            sizes.append(n_bits)
            return state_bits(n_bits)

        monkeypatch.setattr(game, "state_bits", spy_bits)
        monkeypatch.setattr(markov, "state_bits", spy_bits)
        game.lumped_payoff_vectors.cache_clear()
        markov._chain_plan.cache_clear()
        rng = np.random.default_rng(n)
        for chi in (0.0, 0.3):
            l_min, l_max = feasible_l_range(chi, shape)
            for l in (l_min, (l_min + l_max) / 2, l_max):
                result = synthesize(ZDParams(chi, l, shape))
                assert result.certificate <= 1e-8
                assert verify_enforcement(
                    result, random_outsiders(shape, rng)) <= 1e-8
        assert sizes and max(sizes) <= 10

    def test_outsider_count_checked(self):
        result = synthesize(ZDParams(0.0, 4.0, FIG_SHAPE))
        with pytest.raises(ValueError):
            verify_enforcement(result, [])

    def test_determinant_annihilates_f(self):
        rng = np.random.default_rng(13)
        result = synthesize(ZDParams(0.25, 4.5, FIG_SHAPE))
        shape = FIG_SHAPE
        for _ in range(5):
            outsiders = random_outsiders(shape, rng)
            leaders = [result.strategy] * shape.n_alliance
            tm = build_transition_matrix(shape, leaders, outsiders,
                                         coupling=True)
            det_f = zd_determinant(tm, result.f_vector, 0)
            det_one = zd_determinant(tm, np.ones(shape.n_states), 0)
            assert abs(det_f) <= 1e-9 * max(1.0, abs(det_one))


class TestSingleOutsider:
    def test_menu_example(self):
        reward, punishment = incentive_menu(2, 9.0)
        assert reward == pytest.approx(7.0)
        assert punishment == pytest.approx(3.0)

    def test_menu_needs_control(self):
        with pytest.raises(InfeasibleError):
            incentive_menu(2, 3.0)

    def test_menu_matches_feasible_range(self):
        for na in (1, 2, 3):
            for r in (na + 2.0, 2 * na + 3.0):
                shape = GameShape(na + 1, na, na, r)
                l_min, l_max = feasible_l_range(0.0, shape)
                reward, punishment = incentive_menu(na, r)
                assert punishment == pytest.approx(l_min)
                assert reward == pytest.approx(l_max)

    def test_dominance(self):
        assert dominance_check(FIG_SHAPE)
        assert not dominance_check(GameShape(3, 2, 2, 1.4))
        with pytest.raises(ValueError):
            dominance_check(GameShape(4, 2, 2, 9.0))
