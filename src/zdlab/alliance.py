"""Synthesis and verification of ZD alliance strategies.

An alliance of leaders sharing one strategy can pin the outsiders'
expected payoff to a chosen baseline, or more generally enforce a linear
relation between its own expected payoff and the outsiders' one,
regardless of how the outsiders play.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleError
from .game import (COOPERATE, GameShape, lumped_payoff_vectors,
                   payoff_vectors, unison_payoffs)
from .markov import (FollowerStrategy, LeaderStrategy, build_lumped_matrix,
                     build_transition_matrix, expected_payoffs,
                     leader_table_shape, splits_transient, stationary)


@dataclass(frozen=True)
class ZDParams:
    """Target linear relation: outsiders = slope * alliance + (1 - slope) * baseline."""

    chi: float
    l: float
    shape: GameShape
    phi: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.chi < 1.0:
            raise ValueError("slope chi must lie in [0, 1)")
        if self.phi is not None and self.phi == 0.0:
            raise ValueError("scaling phi must be nonzero")


@dataclass(frozen=True)
class SynthesisResult:
    strategy: LeaderStrategy
    f_unison: np.ndarray
    f_vector: np.ndarray
    phi: float
    phi_interval: tuple
    certificate: float
    params: ZDParams


def alliance_admissible(shape: GameShape) -> bool:
    """Alliance-size condition under which the payoff range is controllable.

    For a single outsider this reduces to r > N. Tested exactly, with r =
    p / q, as r (N - 2 n_alliance) < N < r (N - n_alliance): in float64,
    (r - 1) / r rounds to 1 for r above 2**53.
    """
    n, na = shape.n_players, shape.n_alliance
    p, q = float(shape.r).as_integer_ratio()
    return p * (n - 2 * na) < n * q < p * (n - na)


def feasible_l_range(chi: float, shape: GameShape):
    """Enforceable baseline-payoff interval (l_min, l_max). Raises
    ValueError when the payoffs or the interval overflow float64."""
    if not 0.0 <= chi < 1.0:
        raise ValueError("slope chi must lie in [0, 1)")
    if not alliance_admissible(shape):
        raise InfeasibleError(
            f"alliance of {shape.n_alliance} cannot control {shape.n_players} "
            f"players at r={shape.r}"
        )
    n, na, r = shape.n_players, shape.n_alliance, shape.r
    theta = r * (n - na) * (1 - chi) - n
    denom = n * (n - na) * (1 - chi)
    l_min = max(theta * b / denom + 1.0 for b in range(0, n - na + 1))
    l_max = min((theta * b + n * n) / denom for b in range(na, n + 1))
    # the payoffs multiply r by up to n cooperators
    if not all(map(math.isfinite, (r * n, l_min, l_max))):
        raise ValueError(f"payoff factor r={r} overflows float64 in a "
                         f"{n}-player game")
    if l_min > l_max:
        raise InfeasibleError(
            f"empty baseline range [{l_min}, {l_max}] at chi={chi}"
        )
    return l_min, l_max


def _zero_band(chi, l, unison):
    """Magnitude below which each ``f`` entry counts as 0: 2**-48 S, where
    S = chi g_A + g_O + (1 + chi) |l| sums the magnitudes of the terms of
    f = chi (g_A - l) - (g_O - l) (chi and the payoffs are nonnegative).
    With u = 2**-53, to first order, evaluating f adds at most 3 u S, the
    closed forms' rounding 6 u S and that of an end of ``feasible_l_range``
    (eight operations) 11 u S: at either end of the range the boundary
    outcome, whose real f is 0, stays within the band."""
    scale = 2.0 ** -48  # applied to each term, as S can exceed float64
    return (chi * (scale * unison.alliance) + scale * unison.outsiders
            + (1.0 + chi) * (scale * abs(l)))


def _phi_interval(f, zero):
    """Feasible scaling interval on each sign branch of the (2, N + 1)
    unison table ``f`` (NaN where impossible); entries within ``zero`` of 0
    set no bound. Cooperation outcomes need ``phi * f`` in [-1, 0],
    defection outcomes in [0, 1]. Returns ``(pos_hi, neg_lo, violator)``:
    a zero bound marks an empty branch, and ``violator`` is the outcome,
    cooperation first and b ascending, from which both are empty.
    """
    # each entry's bound on phi, cooperation first: -1/f or 1/f; NaN if none
    bound = ([[-1.0], [1.0]]
             / np.where(np.abs(f) >= zero, f, np.nan)[::-1]).ravel()
    # running bound of each branch; fmin and fmax pass over NaN
    pos = np.fmin.accumulate(np.maximum(bound, 0.0))
    neg = np.fmax.accumulate(np.minimum(bound, 0.0))
    pos_hi, neg_lo = float(pos[-1]), float(neg[-1])
    if math.isnan(pos_hi):  # no entry sets a bound
        return math.inf, -math.inf, None
    if pos_hi > 0.0 or neg_lo < 0.0:
        return pos_hi, neg_lo, None
    # pos >= 0 >= neg, so both branches are empty from where they meet
    s, b = divmod(int(np.argmax(pos == neg)), f.shape[1])
    return pos_hi, neg_lo, (1 - s, b)


def synthesize(params: ZDParams) -> SynthesisResult:
    """Derive the shared alliance strategy enforcing the requested relation.

    The strategy table covers every leader index; indices reachable only
    when the alliance is split default to 0 (unreachable under coupling).
    A baseline up to 1e-9 beyond an end of ``feasible_l_range`` is
    synthesized at that end; the certificate still measures the relation
    at the baseline asked for.
    """
    shape = params.shape
    chi, l = params.chi, params.l
    l_min, l_max = feasible_l_range(chi, shape)
    if not l_min - 1e-9 <= l <= l_max + 1e-9:
        raise InfeasibleError(
            f"baseline {l} outside enforceable range [{l_min}, {l_max}]"
        )
    l = min(max(l, l_min), l_max)

    unison = unison_payoffs(shape)
    f = chi * (unison.alliance - l) - (unison.outsiders - l)
    f.flags.writeable = False
    pos_hi, neg_lo, violator = _phi_interval(f, _zero_band(chi, l, unison))
    if pos_hi <= 0.0 and neg_lo >= 0.0:
        where = f"outcome {violator}" if violator else "conflicting outcomes"
        raise InfeasibleError(f"no nonzero scaling satisfies {where}")

    if params.phi is not None:
        phi = params.phi
        ok = (0.0 < phi <= pos_hi) if phi > 0 else (neg_lo <= phi < 0.0)
        if not ok:
            raise InfeasibleError(f"scaling {phi} outside feasible interval")
        interval = (0.0, pos_hi) if phi > 0 else (neg_lo, 0.0)
    else:
        interval = (0.0, pos_hi) if pos_hi >= -neg_lo else (neg_lo, 0.0)
        phi = (interval[0] + interval[1]) / 2.0

    strategy = _alliance_strategy(shape, f, phi)
    payoffs = payoff_vectors(shape)
    f_vector = chi * (payoffs.alliance - l) - (payoffs.outsiders - l)
    result = SynthesisResult(strategy, f, f_vector, phi, interval, math.nan,
                             params)
    return replace(result, certificate=verify_enforcement(
        result, _default_outsiders(shape)))


@functools.lru_cache(maxsize=None)
def _strategy_indices(shape):
    """Per-shape arrays of ``_alliance_strategy``, each shaped like a
    leader table: the flat index into the (2, N + 1) ``f`` array of the
    unison outcome (s, b) behind each index, whether the index is
    reachable in unison, and whether it is a cooperate index."""
    nl, na, n = shape.n_leaders, shape.n_alliance, shape.n_players
    s, x, y = np.indices(leader_table_shape(shape))
    cooperate = s == COOPERATE
    outcome = s * (n + 1) + x + y + s
    unison = np.where(cooperate, x >= na - 1, x <= nl - na)
    for array in (outcome, unison, cooperate):
        array.flags.writeable = False
    return outcome, unison, cooperate


def _alliance_strategy(shape, f, phi):
    # unison outcome (s, b) behind each index; other indices are reachable
    # only when the alliance splits and get probability 0
    outcome, unison, cooperate = _strategy_indices(shape)
    step = phi * f.take(outcome)
    p = np.where(unison, np.where(cooperate, step + 1.0, step), 0.0)
    escaped = ~((p >= -1e-9) & (p <= 1.0 + 1e-9))
    if escaped.any():
        # report the first escape in cooperate-first order
        s0, x0, y0 = np.argwhere(escaped[::-1])[0]
        raise InfeasibleError(
            f"strategy entry {float(p[1 - s0, x0, y0])} for index "
            f"({1 - s0}, {x0}, {y0}) escapes [0, 1]"
        )
    return LeaderStrategy(0, np.clip(p, 0.0, 1.0))


@functools.lru_cache(maxsize=None)
def _default_outsiders(shape):
    # shared between calls: the strategy tables are read-only
    leaders = [LeaderStrategy.constant(i, shape, 0.5)
               for i in range(shape.n_alliance, shape.n_leaders)]
    followers = [FollowerStrategy.constant(j, shape, 0.5)
                 for j in range(shape.n_leaders, shape.n_players)]
    return tuple(leaders + followers)


def random_outsiders(shape: GameShape, rng):
    """Arbitrary strategies for all non-alliance players."""
    leaders = [LeaderStrategy.random(i, shape, rng)
               for i in range(shape.n_alliance, shape.n_leaders)]
    followers = [FollowerStrategy.random(j, shape, rng)
                 for j in range(shape.n_leaders, shape.n_players)]
    return leaders + followers


def stationary_payoffs(result: SynthesisResult, outsider_strategies):
    """Expected per-round payoffs (alliance, outsiders) of the coupled
    chain at stationarity.

    ``outsider_strategies`` lists strategies for players n_alliance..N-1
    in order: non-alliance leaders first, then followers. The chain is
    solved lumped onto unison alliance states when its split states are
    transient, and in full otherwise.
    """
    shape = result.params.shape
    n_out_leaders = shape.n_leaders - shape.n_alliance
    if len(outsider_strategies) != shape.n_players - shape.n_alliance:
        raise ValueError("need one strategy per outsider")
    out_leaders = list(outsider_strategies[:n_out_leaders])
    followers = list(outsider_strategies[n_out_leaders:])

    if splits_transient(shape, result.strategy.table):
        tm = build_lumped_matrix(shape, [result.strategy] + out_leaders,
                                 followers)
        payoffs = lumped_payoff_vectors(shape)
    else:
        leaders = [result.strategy] * shape.n_alliance + out_leaders
        tm = build_transition_matrix(shape, leaders, followers, coupling=True)
        payoffs = payoff_vectors(shape)
    return expected_payoffs(shape, stationary(tm), payoffs)


def verify_enforcement(result: SynthesisResult, outsider_strategies,
                       chi: float | None = None, l: float | None = None) -> float:
    """Residual of the enforced relation against the stationary oracle
    (``stationary_payoffs``)."""
    if chi is None:
        chi = result.params.chi
    if l is None:
        l = result.params.l
    pi_a, pi_out = stationary_payoffs(result, outsider_strategies)
    return abs(pi_out - chi * pi_a - (1 - chi) * l)


def incentive_menu(n_alliance: int, r: float):
    """Enforceable outsider payoffs (reward for cooperating, punishment
    for defecting) in the single-outsider game."""
    n = n_alliance + 1
    if not r > n:
        raise InfeasibleError(
            f"r={r} gives the alliance no control over a {n}-player game"
        )
    return r * n_alliance / n + 1.0, r / n


def dominance_check(shape: GameShape) -> bool:
    """Whether cooperating beats defecting for the alliance against a
    single outsider, whichever action the outsider takes."""
    n, na, r = shape.n_players, shape.n_alliance, shape.r
    if n - na != 1:
        raise ValueError("dominance analysis applies to a single outsider")
    return all(r * (na + a) / n > r * a / n + 1 for a in (0, 1))
