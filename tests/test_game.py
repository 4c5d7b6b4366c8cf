import math

import numpy as np
import pytest

from zdlab.game import (GameShape, PayoffScale, count_cells, count_payoffs,
                        is_social_dilemma, lumped_payoff_vectors,
                        payoff_vectors, state_bits, unison_payoffs, utility)

R = 9.0
FIG_SHAPE = GameShape(3, 2, 2, R)

# every split of N = 2..8 players at two payoff factors
SPLIT_SHAPES = [GameShape(n, nl, na, r) for n in range(2, 9)
                for r in (2.0 * n + 3.0, n + 0.5) for nl in range(1, n + 1)
                for na in range(1, min(nl, n - 1) + 1)]

# every split of N = 2..10 players at three payoff factors, the last one
# large enough that a defector's extra 1 sits near the rounding of r * b / N
COUNT_SHAPES = [GameShape(n, nl, na, r) for n in range(2, 11)
                for r in (2.0 * n + 3.0, n + 0.5, 1e6 + 0.1)
                for nl in range(1, n + 1)
                for na in range(1, min(nl, n - 1) + 1)]


def state_of(actions):
    return sum(a << i for i, a in enumerate(actions))


def count_grid(shape):
    """:func:`zdlab.game.count_payoffs` at every cell (k, b): (n_alliance +
    1, N + 1) arrays indexed [k, b]."""
    return count_payoffs(shape, np.arange(shape.n_alliance + 1)[:, None],
                         np.arange(shape.n_players + 1))


def unison_rows(shape):
    """:func:`zdlab.game.unison_payoffs`, the unison outcomes (s, b):
    (2, N + 1) arrays indexed [s, b]."""
    unison = unison_payoffs(shape)
    return unison.alliance, unison.outsiders


def reference_unison(s, b, shape):
    """Scalar closed forms of the (alliance, outsider) average payoffs of
    unison outcome (s, b), in the operation order of
    :func:`zdlab.game.count_payoffs`."""
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
        for r in (0.0, -1.0):
            with pytest.raises(ValueError, match="factor must be positive"):
                utility(1, 1, 2, r)

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

    @pytest.mark.parametrize("a, k, b", [
        (math.nan, 1, 3.0), (math.inf, 2, 3.0), (2.0, 1, -math.inf),
        (2.0, 1, math.nan),
    ])
    def test_rejects_non_finite_coefficients(self, a, k, b):
        with pytest.raises(ValueError, match="must be finite"):
            PayoffScale(a, k, b)

    @pytest.mark.parametrize("a, k, b", [
        (0.0, 1, 0.5), (0.0, 2, 1.0), (0.25, 1, 0.5), (0.0, 1, -3.0),
    ])
    def test_rejects_scale_without_dilemma(self, a, k, b):
        # r(2) <= 1; r(n) grows with n, so r(2) > 1 covers every game
        with pytest.raises(ValueError, match="must exceed 1"):
            PayoffScale(a, k, b)

    def test_smallest_dilemma_scale_accepted(self):
        assert PayoffScale(0.0, 1, math.nextafter(1.0, 2.0))(2) > 1.0
        assert PayoffScale(0.125, 2, 0.5 + 2**-52)(2) > 1.0


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
        alliance, outsiders = unison_rows(FIG_SHAPE)
        assert alliance[1, 2] == pytest.approx(2 * R / 3)
        assert alliance[1, 3] == pytest.approx(R)
        assert alliance[0, 0] == pytest.approx(1.0)
        assert alliance[0, 1] == pytest.approx(R / 3 + 1)
        assert outsiders[1, 2] == pytest.approx(2 * R / 3 + 1)
        assert outsiders[1, 3] == pytest.approx(R)
        assert outsiders[0, 0] == pytest.approx(1.0)
        assert outsiders[0, 1] == pytest.approx(R / 3)

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
                    alliance, outsiders = unison_rows(shape)
                    for state in range(shape.n_states):
                        acts = state_bits(n)[state].tolist()
                        if len(set(acts[:na])) != 1:
                            continue
                        s, b = acts[0], sum(acts)
                        assert pv.alliance[state] == pytest.approx(
                            alliance[s, b])
                        assert pv.outsiders[state] == pytest.approx(
                            outsiders[s, b])

    def test_total_payoff_identity(self):
        # group averages recombine to the sum of individual payoffs
        for n in range(2, 11):
            shape = GameShape(n, max(1, n - 1), max(1, n - 2) or 1, 2 * n + 3)
            na = shape.n_alliance
            pv = payoff_vectors(shape)
            for state in range(shape.n_states):
                acts = state_bits(n)[state].tolist()
                b = sum(acts)
                total = sum(utility(a, b - a, n - 1, shape.r) for a in acts)
                recombined = na * pv.alliance[state] + (n - na) * pv.outsiders[state]
                assert recombined == pytest.approx(total)


class TestUnisonPayoffs:
    def test_table_equals_closed_forms(self):
        for shape in SPLIT_SHAPES:
            n, na = shape.n_players, shape.n_alliance
            table = count_grid(shape)
            for array in (table.alliance, table.outsiders):
                with pytest.raises(ValueError):
                    array[0, 0] = 0.0
            alliance, outsiders = unison_rows(shape)
            for got, rows in zip((alliance, outsiders),
                                 (table.alliance, table.outsiders)):
                assert not got.flags.writeable
                assert got.tobytes() == rows[[0, na]].tobytes()
            assert alliance.shape == outsiders.shape == (2, n + 1)
            for s in (0, 1):
                for b in range(n + 1):
                    if (s == 1 and b < na) or (s == 0 and b > n - na):
                        assert np.isnan(alliance[s, b])
                        assert np.isnan(outsiders[s, b])
                        continue
                    ga, go = reference_unison(s, b, shape)
                    assert alliance[s, b] == ga
                    assert outsiders[s, b] == go

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


def reference_counts(k, b, shape):
    """Means of :func:`zdlab.game.utility` over the alliance's and the
    outsiders' players when k members and b players in all cooperate, or
    None where (k, b) cannot occur."""
    n, na = shape.n_players, shape.n_alliance
    if not 0 <= b - k <= n - na:
        return None
    coop = utility(1, b - 1, n - 1, shape.r) if b else None
    defect = utility(0, b, n - 1, shape.r) if b < n else None
    alliance = [coop] * k + [defect] * (na - k)
    outsiders = [coop] * (b - k) + [defect] * (n - na - b + k)
    return (math.fsum(alliance) / na, math.fsum(outsiders) / (n - na))


class TestCountPayoffs:
    def test_table_matches_utility_means(self):
        for shape in COUNT_SHAPES:
            n, na = shape.n_players, shape.n_alliance
            table = count_grid(shape)
            for array in (table.alliance, table.outsiders):
                assert array.shape == (na + 1, n + 1)
                assert not array.flags.writeable
            for k in range(na + 1):
                for b in range(n + 1):
                    got = table.alliance[k, b], table.outsiders[k, b]
                    want = reference_counts(k, b, shape)
                    if want is None:
                        assert np.isnan(got).all()
                        continue
                    for g, w in zip(got, want):
                        assert math.isclose(g, w, rel_tol=1e-15), (shape, k, b)

    def test_views_are_exact_entries(self):
        # a lumped state gathers (n_alliance * s, n_alliance * s + outsider
        # cooperators)
        for shape in COUNT_SHAPES:
            na = shape.n_alliance
            table = count_grid(shape)
            bits = state_bits(shape.n_players - na + 1)
            k = na * bits[:, 0]
            lumped = lumped_payoff_vectors(shape)
            for side in ("alliance", "outsiders"):
                full = getattr(table, side)
                assert (getattr(lumped, side).tobytes()
                        == full[k, k + bits[:, 1:].sum(axis=1)].tobytes())


def reference_cells(n_bits, n_members, weight):
    """Per-state popcounts: ``weight`` times the cooperators among the low
    ``n_members`` bits, and that plus the cooperators among the rest."""
    low = (1 << n_members) - 1
    k = [weight * bin(state & low).count("1") for state in range(1 << n_bits)]
    b = [kk + bin(state >> n_members).count("1") for state, kk in enumerate(k)]
    return np.array(k), np.array(b)


class TestCountCells:
    def test_layouts_match_popcounts(self):
        # the full chain (N, n_alliance, 1) and the alliance-lumped chain
        # (N - n_alliance + 1, 1, n_alliance) of every split with N <= 10
        layouts = {layout for shape in COUNT_SHAPES for layout in (
            (shape.n_players, shape.n_alliance, 1),
            (shape.n_players - shape.n_alliance + 1, 1, shape.n_alliance))}
        for layout in sorted(layouts):
            for got, want in zip(count_cells(*layout),
                                 reference_cells(*layout)):
                np.testing.assert_array_equal(got, want)

    def test_views_gather_the_count_table(self):
        for shape in COUNT_SHAPES:
            n, na = shape.n_players, shape.n_alliance
            table = count_grid(shape)
            for view, layout in ((payoff_vectors, (n, na, 1)),
                                 (lumped_payoff_vectors, (n - na + 1, 1, na))):
                k, b = reference_cells(*layout)
                vectors = view(shape)
                for side in ("alliance", "outsiders"):
                    got = getattr(vectors, side)
                    assert not got.flags.writeable
                    assert got.tobytes() == getattr(table, side)[k, b].tobytes()
