import math

import numpy as np
import pytest

from zdlab.game import (GameShape, PayoffScale, alliance_unison_payoff,
                        is_social_dilemma, lumped_payoff_vectors,
                        outsider_unison_payoff, payoff_vectors, state_bits,
                        unison_payoffs, utility)

R = 9.0
FIG_SHAPE = GameShape(3, 2, 2, R)

# every split of N = 2..8 players at two payoff factors
SPLIT_SHAPES = [GameShape(n, nl, na, r) for n in range(2, 9)
                for r in (2.0 * n + 3.0, n + 0.5) for nl in range(1, n + 1)
                for na in range(1, min(nl, n - 1) + 1)]


def state_of(actions):
    return sum(a << i for i, a in enumerate(actions))


def reference_unison(s, b, shape):
    """Scalar closed forms of the (alliance, outsider) average payoffs of
    unison outcome (s, b), in the operation order of
    :func:`zdlab.game.unison_payoffs`."""
    n, na = shape.n_players, shape.n_alliance
    base = shape.r * b / n
    if s == 1:
        return base, ((b - na) * base + (n - b) * (base + 1.0)) / (n - na)
    return base + 1.0, (b * base + (n - na - b) * (base + 1.0)) / (n - na)


class TestUtility:
    def test_two_cooperators_one_defector(self):
        # cooperator alongside one cooperating and one defecting neighbor
        assert utility(1, 1, 2, R) == pytest.approx(2 * R / 3)

    def test_lone_defector(self):
        assert utility(0, 0, 2, R) == 1.0

    def test_full_cooperation(self):
        assert utility(1, 2, 2, 9.0) == pytest.approx(9.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            utility(1, 3, 2, R)
        with pytest.raises(ValueError):
            utility(1, 0, 0, R)
        with pytest.raises(ValueError):
            utility(2, 0, 2, R)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 9.0])
    def test_monotone_in_cooperating_neighbors(self, r):
        for ni in range(1, 5):
            for a in (0, 1):
                values = [utility(a, j, ni, r) for j in range(ni + 1)]
                assert values == sorted(values)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 9.0])
    def test_defector_beats_cooperator(self, r):
        for ni in range(1, 5):
            for j in range(ni):
                assert utility(0, j + 1, ni, r) > utility(1, j, ni, r)

    @pytest.mark.parametrize("r,expected", [(0.5, False), (1.0, False),
                                            (1.001, True), (5.0, True)])
    def test_mutual_cooperation_vs_defection(self, r, expected):
        for ni in range(1, 5):
            better = utility(1, ni, ni, r) > utility(0, 0, ni, r)
            assert better is expected


class TestSocialDilemma:
    def test_examples(self):
        assert is_social_dilemma(2.0)
        assert not is_social_dilemma(1.0)
        assert not is_social_dilemma(0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_social_dilemma(0.0)


class TestPayoffScale:
    def test_linear_and_quadratic(self):
        assert PayoffScale(2, 1, 3)(3) == 9
        assert PayoffScale(2, 2, 3)(3) == 21

    def test_validation(self):
        with pytest.raises(ValueError):
            PayoffScale(-1, 1, 3)
        with pytest.raises(ValueError):
            PayoffScale(2, 3, 3)


class TestGameShape:
    def test_needs_outsider(self):
        with pytest.raises(ValueError):
            GameShape(3, 3, 3, R)

    def test_alliance_within_leaders(self):
        with pytest.raises(ValueError):
            GameShape(4, 2, 3, R)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            GameShape(1, 1, 1, R)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.0])
    def test_payoff_factor_positive_and_finite(self, r):
        with pytest.raises(ValueError, match="positive and finite"):
            GameShape(3, 2, 2, r)


class TestPayoffVectors:
    def test_worked_example_symbolic(self):
        # alliance unison outcomes (s, b): values 2r/3, r, 1, r/3 + 1
        assert alliance_unison_payoff(1, 2, FIG_SHAPE) == pytest.approx(2 * R / 3)
        assert alliance_unison_payoff(1, 3, FIG_SHAPE) == pytest.approx(R)
        assert alliance_unison_payoff(0, 0, FIG_SHAPE) == pytest.approx(1.0)
        assert alliance_unison_payoff(0, 1, FIG_SHAPE) == pytest.approx(R / 3 + 1)
        assert outsider_unison_payoff(1, 2, FIG_SHAPE) == pytest.approx(2 * R / 3 + 1)
        assert outsider_unison_payoff(1, 3, FIG_SHAPE) == pytest.approx(R)
        assert outsider_unison_payoff(0, 0, FIG_SHAPE) == pytest.approx(1.0)
        assert outsider_unison_payoff(0, 1, FIG_SHAPE) == pytest.approx(R / 3)

    def test_worked_example_r9(self):
        pv = payoff_vectors(FIG_SHAPE)
        cases = {  # (alliance bits, outsider bit) -> (g_all, g_out)
            (1, 1, 1): (9.0, 9.0),
            (1, 1, 0): (6.0, 7.0),
            (0, 0, 0): (1.0, 1.0),
            (0, 0, 1): (4.0, 3.0),
        }
        for acts, (ga, go) in cases.items():
            s = state_of(acts)
            assert pv.alliance[s] == pytest.approx(ga)
            assert pv.outsiders[s] == pytest.approx(go)

    def test_general_matches_unison_closed_form(self):
        for n in range(2, 6):
            for nl in range(1, n):
                for na in range(1, min(nl, n - 1) + 1):
                    shape = GameShape(n, nl, na, 2 * n + 3)
                    pv = payoff_vectors(shape)
                    for state in range(shape.n_states):
                        acts = state_bits(n)[state].tolist()
                        if len(set(acts[:na])) != 1:
                            continue
                        s, b = acts[0], sum(acts)
                        assert pv.alliance[state] == pytest.approx(
                            alliance_unison_payoff(s, b, shape))
                        assert pv.outsiders[state] == pytest.approx(
                            outsider_unison_payoff(s, b, shape))

    def test_total_payoff_identity(self):
        # group averages recombine to the sum of individual payoffs
        for n in range(2, 7):
            shape = GameShape(n, max(1, n - 1), max(1, n - 2) or 1, 2 * n + 3)
            na = shape.n_alliance
            pv = payoff_vectors(shape)
            for state in range(shape.n_states):
                acts = state_bits(n)[state].tolist()
                b = sum(acts)
                total = sum(utility(a, b - a, n - 1, shape.r) for a in acts)
                recombined = na * pv.alliance[state] + (n - na) * pv.outsiders[state]
                assert recombined == pytest.approx(total)

    def test_split_state_rejected_by_closed_form(self):
        with pytest.raises(ValueError):
            alliance_unison_payoff(1, 1, FIG_SHAPE)
        with pytest.raises(ValueError):
            outsider_unison_payoff(0, 2, FIG_SHAPE)
        with pytest.raises(ValueError):
            outsider_unison_payoff(2, 2, FIG_SHAPE)


class TestUnisonPayoffs:
    def test_table_equals_closed_forms(self):
        for shape in SPLIT_SHAPES:
            n, na = shape.n_players, shape.n_alliance
            table = unison_payoffs(shape)
            assert unison_payoffs(shape) is table
            for array in (table.alliance, table.outsiders):
                assert array.shape == (2, n + 1)
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0, 0] = 0.0
            for s in (0, 1):
                for b in range(n + 1):
                    if (s == 1 and b < na) or (s == 0 and b > n - na):
                        assert np.isnan(table.alliance[s, b])
                        assert np.isnan(table.outsiders[s, b])
                        continue
                    ga, go = reference_unison(s, b, shape)
                    assert table.alliance[s, b] == ga
                    assert table.outsiders[s, b] == go
                    assert alliance_unison_payoff(s, b, shape) == ga
                    assert outsider_unison_payoff(s, b, shape) == go

    def test_lumped_vectors_equal_closed_forms(self):
        # lumped state: bit 0 is the alliance's action, the other bits are
        # the outsiders
        for shape in SPLIT_SHAPES:
            na = shape.n_alliance
            lumped = lumped_payoff_vectors(shape)
            bits = state_bits(shape.n_players - na + 1)
            assert lumped.alliance.shape == lumped.outsiders.shape == (
                len(bits),)
            assert not lumped.alliance.flags.writeable
            assert not lumped.outsiders.flags.writeable
            for state, acts in enumerate(bits.tolist()):
                s = acts[0]
                ga, go = reference_unison(s, na * s + sum(acts[1:]), shape)
                assert lumped.alliance[state] == ga
                assert lumped.outsiders[state] == go
