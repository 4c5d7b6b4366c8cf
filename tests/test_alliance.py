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
from zdlab.alliance import (ZDParams, _phi_bound, _zero_band,
                            alliance_admissible, dominance_check,
                            enforcement_bound, feasible_l_range,
                            incentive_menu, random_outsiders,
                            stationary_payoffs, synthesize,
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

# shapes (N, N - o + n_ol, N - o, r 2N + 3) for N = 3..40 with o = 1..9
# outsiders, n_ol of them leaders: lumped chains of up to 1,024 states
LUMPED_SHAPES = [shape for n in range(3, 41) for o in range(1, min(9, n - 1) + 1)
                 for n_ol in range(o + 1)
                 if alliance_admissible(shape := GameShape(
                     n, n - o + n_ol, n - o, 2.0 * n + 3.0))]

# sha256 prefix over PAYOFF_SHAPES of, per shape, the full-chain and
# lumped payoff vectors and the unison rows k = 0 and n_alliance of the
# count payoffs, then per chi in (0, 0.3) and l at l_min, the midpoint and
# l_max, synthesize's f_unison, strategy table, f_vector, phi and
# certificate (or the InfeasibleError message). It pins the payoff rule
# and every synthesis output on it bit for bit; synthesize solves no
# chain, so nothing in it depends on the BLAS thread count.
PAYOFF_GOLDEN = "b220a2cfa7f6b355"


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
    interval on each sign branch, ``(pos_hi, neg_lo, violator)``, where a
    zero bound marks an empty branch and ``violator`` is the outcome from
    which both are empty. ``_phi_bound`` keeps the positive branch."""
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


def hand_built_table(shape, f, phi):
    """The ZD table e_C + phi f[s, b] by a scalar loop over the leader
    indices (s, x, y), with b = s + x + y cooperators, and 0 where the
    alliance is split. Returns the table and its reachable unison indices:
    the other alliance members all cooperated (s = 1) or all defected."""
    table = np.zeros(markov.leader_table_shape(shape))
    unison = np.zeros(table.shape, dtype=bool)
    for s, x, y in np.ndindex(table.shape):
        if (x >= shape.n_alliance - 1 if s
                else x <= shape.n_leaders - shape.n_alliance):
            unison[s, x, y] = True
            table[s, x, y] = min(max(s + phi * f[s, s + x + y], 0.0), 1.0)
    return table, unison


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
        # the certificate reads the strategy table: nothing in synthesize
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
    def test_phi_bound_matches_reference_loop(self, table):
        # phi_max is the reference's positive branch; the wrong outcome is
        # the first whose own bound, alone in the table, empties that branch
        f, zero = table
        pos_hi = reference_phi_interval(f, zero)[0]
        wrong = None
        for s, b in ((s, b) for s in (1, 0) for b in range(f.shape[1])):
            alone = np.full(f.shape, np.nan)
            alone[s, b] = f[s, b]
            if reference_phi_interval(alone, zero)[0] == 0.0:
                wrong = (s, b)
                break
        assert _phi_bound(f, zero) == (pos_hi, wrong)
        assert (wrong is None) == (pos_hi > 0.0)

    def test_phi_bound_names_first_wrong_sign(self):
        # the positive cooperation entry b = 1 fits no phi > 0, while the
        # defection entries (positive) and the cooperation entry b = 2
        # (negative) do
        f = np.array([[2.0, 1.0, np.nan], [np.nan, 4.0, -5.0]])
        zero = np.full(f.shape, 1e-12)
        assert _phi_bound(f, zero) == (0.0, (1, 1))
        assert reference_phi_interval(f, zero)[0] == 0.0
        f[1, 1] = 1e-13  # within the band: no bound, and no wrong sign
        assert _phi_bound(f, zero) == (0.2, None)
        f[0, 0] = -2.0  # a negative defection entry is the first wrong one
        assert _phi_bound(f, zero) == (0.0, (0, 0))
        f[:] = np.nan
        assert _phi_bound(f, zero) == (math.inf, None)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 40),
           chi=st.sampled_from([0.0, 0.3, 0.9, 1 - 1e-15, 1 - 2.0**-53]),
           where=st.sampled_from(["min", "mid", "max"]))
    def test_admissible_games_need_no_negative_phi(self, data, n, chi,
                                                   where):
        # every admissible game with up to 9 outsiders: the negative branch
        # is empty wherever some outcome bounds phi, and synthesize takes
        # the positive one
        na = data.draw(st.integers(max(1, n - 9), n - 1))
        nl = data.draw(st.integers(na, n))
        r_low = n / (n - na)
        r_high = n / (n - 2 * na) if n > 2 * na else 1e6 * n
        r = data.draw(st.floats(r_low, min(r_high, 1e6 * n),
                                exclude_min=True, exclude_max=True))
        shape = GameShape(n, nl, na, r)
        assume(alliance_admissible(shape))
        try:
            l_min, l_max = feasible_l_range(chi, shape)
        except InfeasibleError:
            assume(False)
        l = {"min": l_min, "mid": (l_min + l_max) / 2, "max": l_max}[where]
        unison = unison_payoffs(shape)
        f = chi * (unison.alliance - l) - (unison.outsiders - l)
        pos_hi, neg_lo, _ = reference_phi_interval(
            f, _zero_band(chi, l, unison))
        if math.isinf(pos_hi):
            with pytest.raises(ValueError, match="within rounding of 0"):
                synthesize(ZDParams(chi, l, shape))
            return
        assert neg_lo == 0.0
        result = synthesize(ZDParams(chi, l, shape))
        assert result.phi > 0.0 and result.phi_interval == (0.0, pos_hi)

    def test_unbounded_phi_refused_unless_given(self):
        # at 1 - chi = 1e-15 and r = 1e15 every f entry is within rounding
        # of 0, so no outcome bounds phi: the auto phi would be inf
        shape, chi = GameShape(2, 1, 1, 1e15), 0.999999999999999
        with pytest.raises(ValueError, match="no outcome bounds phi"):
            synthesize(ZDParams(chi, 1.0, shape))
        result = synthesize(ZDParams(chi, 1.0, shape, phi=1e-3))
        assert result.phi_interval == (0.0, math.inf)
        assert result.certificate <= 1e-8
        with pytest.raises(InfeasibleError, match="outside feasible interval"):
            synthesize(ZDParams(chi, 1.0, shape, phi=-1e-3))

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

    def test_synthesized_at_top_of_phi_interval(self):
        # phi = phi_max sets some strategy entry at 0 or 1; the relation
        # still holds, on criterion 01's grid and two N = 10 shapes
        rng = np.random.default_rng(34)
        shapes = [GameShape(n, n - 1, n - 1, 2.0 * n + 3.0)
                  for n in (2, 3, 4, 5)]
        for shape in [*shapes, GameShape(10, 9, 9, 23.0),
                      GameShape(10, 7, 6, 23.0)]:
            for chi in (0.0, 0.3, 0.6):
                l_min, l_max = feasible_l_range(chi, shape)
                for l in (l_min, (l_min + l_max) / 2, l_max,
                          float(rng.uniform(l_min, l_max))):
                    top = synthesize(ZDParams(chi, l, shape)).phi_interval[1]
                    result = synthesize(ZDParams(chi, l, shape, phi=top))
                    assert result.phi == top
                    assert result.certificate <= 1e-12
                    for _ in range(3):
                        assert verify_enforcement(
                            result, random_outsiders(shape, rng)) <= 1e-8

    @pytest.mark.parametrize("n", [20, 200, 1024])
    def test_nine_outsiders_certified_at_range_ends(self, n):
        # 1,024 lumped states, solved directly: a power loop stopped at an
        # absolute step of 1e-12 left residuals that grew with the payoff
        # scale, 9.9e-9 at N = 20 and 1.7e-7 at N = 200
        shape = GameShape(n, n - 5, n - 9, 2.0 * n + 3.0)
        rng = np.random.default_rng(n)
        for chi in (0.0, 0.3):
            for l in feasible_l_range(chi, shape):
                result = synthesize(ZDParams(chi, l, shape))
                assert result.certificate <= 1e-8
                assert verify_enforcement(
                    result, random_outsiders(shape, rng)) <= 1e-8

    # pure outsiders (random draws rounded to 0/1) whose direct solutions
    # have entries just below zero: the clipped vector meets the residual
    # target, which alone decides, so each verifies
    @pytest.mark.parametrize("dims, chi, end, seed", [
        ((19, 15, 10), 0.3, 0, 3), ((19, 15, 10), 0.3, 1, 3),
        ((24, 24, 16), 0.0, 1, 2), ((34, 32, 26), 0.0, 1, 1),
        ((34, 34, 25), 0.0, 0, 1), ((40, 34, 31), 0.3, 0, 2)])
    def test_pure_outsiders_verify_whatever_the_signs(self, dims, chi, end,
                                                      seed):
        shape = GameShape(*dims, 2.0 * dims[0] + 3.0)
        l = feasible_l_range(chi, shape)[end]
        outsiders = random_outsiders(shape, np.random.default_rng(seed))
        assert verify_enforcement(synthesize(ZDParams(chi, l, shape)),
                                  pure_outsiders(outsiders)) <= 1e-8

    def test_several_classes_kept_on_dense_path(self):
        # an 8-state unison chain with two closed classes, {0, 6, 7} and
        # {2, 3}: the singular direct system still solves, to an entry
        # below -1, and the clipped vector is a stationary one (on the
        # first class), so the dense path keeps it; the relation holds on
        # any stationary vector
        shape = GameShape(10, 10, 8, 23.0)
        result = synthesize(ZDParams(0.3, feasible_l_range(0.3, shape)[0],
                                     shape))
        outsiders = pure_outsiders(random_outsiders(
            shape, np.random.default_rng(0)))
        tm = markov.build_lumped_matrix(shape, [result.strategy, *outsiders],
                                        [])
        raw = np.linalg.solve(tm.matrix.T - np.eye(8) + 1.0, np.ones(8))
        assert raw.min() < -1.0
        sv = stationary(tm)
        assert sv.path == "dense" and sv.residual <= 1e-12
        assert verify_enforcement(result, outsiders) <= 1e-8

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(LUMPED_SHAPES),
           chi=st.sampled_from([0.0, 0.3]), end=st.sampled_from([0, 1]),
           seed=st.integers(0, 3))
    def test_pure_outsiders_verify_at_range_ends(self, shape, chi, end,
                                                  seed):
        l = feasible_l_range(chi, shape)[end]
        outsiders = random_outsiders(shape, np.random.default_rng(seed))
        assert verify_enforcement(synthesize(ZDParams(chi, l, shape)),
                                  pure_outsiders(outsiders)) <= 1e-8

    def test_certificate_bounds_chain_on_every_split(self):
        # the certificate bounds the relation whatever the outsiders play:
        # every admissible split of N = 2..10 at r = 2N + 3, both range
        # ends and the midpoint, against an interior draw and a pure one
        checked = 0
        for shape in PAYOFF_SHAPES:
            rng = np.random.default_rng([shape.n_players, shape.n_leaders,
                                         shape.n_alliance])
            for chi in (0.0, 0.3):
                l_min, l_max = feasible_l_range(chi, shape)
                for l in (l_min, (l_min + l_max) / 2, l_max):
                    result = synthesize(ZDParams(chi, l, shape))
                    interior = random_outsiders(shape, rng)
                    for outsiders in (interior, pure_outsiders(interior)):
                        assert (verify_enforcement(result, outsiders)
                                <= result.certificate + 1e-12)
                        checked += 1
        assert checked == 960

    @pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-3])
    def test_certificate_catches_moved_entry(self, delta):
        # a hand-built ZD table with one reachable unison entry moved by
        # delta: the bound grows to |delta| / |phi|, and the chain's
        # residual stays within it against interior and pure outsiders
        for shape in (FIG_SHAPE, GameShape(5, 4, 3, 13.0),
                      GameShape(10, 7, 6, 23.0)):
            rng = np.random.default_rng([shape.n_players, shape.n_alliance])
            for chi in (0.0, 0.3):
                l_min, l_max = feasible_l_range(chi, shape)
                result = synthesize(ZDParams(chi, (l_min + l_max) / 2, shape))
                phi = result.phi
                table, unison = hand_built_table(shape, result.f_unison, phi)
                exact = dataclasses.replace(
                    result, strategy=LeaderStrategy(0, table))
                assert enforcement_bound(exact) <= 1e-13
                for index in rng.permutation(np.argwhere(unison))[:3]:
                    moved, index = table.copy(), tuple(index)
                    moved[index] += (delta if moved[index] + delta <= 1.0
                                     else -delta)
                    wrong = dataclasses.replace(
                        result, strategy=LeaderStrategy(0, moved))
                    bound = enforcement_bound(wrong)
                    assert bound >= (delta - 1e-15) / abs(phi)
                    interior = random_outsiders(shape, rng)
                    for outsiders in (interior, pure_outsiders(interior)):
                        assert (verify_enforcement(wrong, outsiders)
                                <= bound + 1e-12)

    def test_synthesize_solves_no_chain(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a chain was built or solved")

        monkeypatch.setattr(alliance, "build_lumped_matrix", refuse)
        monkeypatch.setattr(alliance, "stationary", refuse)
        for shape in (FIG_SHAPE, GameShape(10, 9, 9, 23.0),
                      GameShape(1024, 1019, 1015, 2051.0)):
            for chi in (0.0, 0.3):
                for l in feasible_l_range(chi, shape):
                    result = synthesize(ZDParams(chi, l, shape))
                    assert result.certificate <= 1e-8
        # verify still solves the chain, so the patch is in effect
        with pytest.raises(AssertionError, match="a chain was built"):
            verify_enforcement(result, random_outsiders(
                shape, np.random.default_rng(0)))

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
                       alliance._strategy_indices):
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
        # the lumped chain of 2^(outsiders + 1) states is all that verify
        # builds, and synth builds no chain: no table of the 2^N states is
        # made
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
