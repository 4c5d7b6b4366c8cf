"""Markov chain machinery for the sequential game.

Leaders move first, conditioning on the full previous-round state;
followers then condition on the leaders' current-round actions. The
chain lives on all 2^N action profiles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DegenerateChainError, StrategyTableError
from .game import GameShape, PayoffVectors

MAX_PLAYERS = 10
MAX_DETERMINANT_PLAYERS = 8

# Power-iteration sweeps attempted before the dense linear-solve fallback.
_POWER_BUDGET = 256
# Stationary residual target and the total sweep limit.
_TOL = 1e-12
_MAX_ITERS = 1_000_000


@dataclass(frozen=True)
class LeaderStrategy:
    """Memory-one strategy of a leader.

    ``probs`` maps ``(own_prev_action, coop_other_leaders, coop_followers)``
    to a cooperation probability. The table must cover every index that can
    occur for the game shape it is used with.
    """

    owner: int
    probs: dict = field(hash=False)

    def prob(self, prev_action, coop_other_leaders, coop_followers):
        try:
            p = self.probs[(prev_action, coop_other_leaders, coop_followers)]
        except KeyError:
            raise StrategyTableError(
                f"leader {self.owner} has no entry for state "
                f"({prev_action}, {coop_other_leaders}, {coop_followers})"
            ) from None
        if not 0.0 <= p <= 1.0:
            raise StrategyTableError(
                f"leader {self.owner} probability {p} outside [0, 1]"
            )
        return p

    @classmethod
    def constant(cls, owner, shape, p):
        return cls(owner, {key: p for key in leader_index_space(shape)})

    @classmethod
    def random(cls, owner, shape, rng):
        return cls(owner, {key: float(rng.uniform(0.0, 1.0))
                           for key in leader_index_space(shape)})


@dataclass(frozen=True)
class FollowerStrategy:
    """Strategy of a follower: cooperation probability per number of
    cooperating leaders in the current round (length n_leaders + 1)."""

    owner: int
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if any(not 0.0 <= p <= 1.0 for p in self.probs):
            raise StrategyTableError(
                f"follower {self.owner} has a probability outside [0, 1]"
            )

    def prob(self, coop_leaders):
        try:
            return self.probs[coop_leaders]
        except IndexError:
            raise StrategyTableError(
                f"follower {self.owner} table too short for {coop_leaders} "
                "cooperating leaders"
            ) from None

    @classmethod
    def constant(cls, owner, shape, p):
        return cls(owner, (p,) * (shape.n_leaders + 1))

    @classmethod
    def random(cls, owner, shape, rng):
        return cls(owner, tuple(rng.uniform(0.0, 1.0)
                                for _ in range(shape.n_leaders + 1)))


def leader_index_space(shape: GameShape):
    """All (prev_action, coop_other_leaders, coop_followers) indices."""
    for s in (1, 0):
        for x in range(shape.n_leaders):
            for y in range(shape.n_followers + 1):
                yield (s, x, y)


@dataclass(frozen=True)
class TransitionMatrix:
    matrix: np.ndarray
    shape: GameShape
    coupled: bool


@dataclass(frozen=True)
class StationaryVector:
    vector: np.ndarray
    residual: float


@functools.lru_cache(maxsize=None)
def _state_bits(n_players):
    size = 1 << n_players
    bits = ((np.arange(size)[:, None] >> np.arange(n_players)[None, :]) & 1)
    bits.flags.writeable = False
    return bits


def _leader_table(strat: LeaderStrategy, shape: GameShape):
    """``strat.prob`` over the (prev_action, coop_other_leaders,
    coop_followers) index space, as a (2, n_leaders, n_followers + 1) array."""
    return np.array([[[strat.prob(s, x, y)
                       for y in range(shape.n_followers + 1)]
                      for x in range(shape.n_leaders)]
                     for s in (0, 1)])


def build_transition_matrix(shape: GameShape, leaders, followers,
                            coupling: bool = False) -> TransitionMatrix:
    """One-step transition matrix of the chain.

    With ``coupling`` on, alliance members that share the same conditional
    cooperation probability draw one coin together, so they realize
    identical actions and split alliance outcomes get zero mass.
    """
    if shape.n_players > MAX_PLAYERS:
        raise ValueError(f"state space capped at {MAX_PLAYERS} players")
    if len(leaders) != shape.n_leaders or len(followers) != shape.n_followers:
        raise ValueError("need exactly one strategy per player")

    n, nl, na = shape.n_players, shape.n_leaders, shape.n_alliance
    size = shape.n_states
    bits = _state_bits(n)
    leader_coops = bits[:, :nl].sum(axis=1)
    follower_coops = bits[:, nl:].sum(axis=1)

    # Follower factor depends only on the successor column.
    fol = np.ones(size)
    for j, strat in enumerate(followers):
        q = np.array([strat.prob(z) for z in range(nl + 1)])[leader_coops]
        acted = bits[:, nl + j] == 1
        fol *= np.where(acted, q, 1.0 - q)

    # Leader factors are multiplied in place, one leader at a time, into
    # the follower factor broadcast over the rows.
    matrix = np.tile(fol, (size, 1))
    cond = np.empty((size, nl))
    for i, strat in enumerate(leaders):
        own = bits[:, i]
        p = cond[:, i] = _leader_table(strat, shape)[own, leader_coops - own,
                                                    follower_coops]
        coin = np.stack([1.0 - p, p], axis=1)
        if coupling and 0 < i < na:
            # a member tied with an earlier member copies its action
            same = cond[:, :i] == p[:, None]
            tied = same.any(axis=1)
            first = same.argmax(axis=1)
            for j in range(i):
                rows = tied & (first == j)
                # columns split as (higher bits, bit i, .., bit j, lower bits)
                pair = matrix.reshape(size, -1, 2, 1 << (i - 1 - j), 2, 1 << j)
                pair[rows, :, 0, :, 1] = 0.0
                pair[rows, :, 1, :, 0] = 0.0
            coin[tied] = 1.0
        # columns split as (higher bits, bit i, lower bits)
        act = matrix.reshape(size, -1, 2, 1 << i)
        act *= coin[:, None, :, None]

    sums = matrix.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("transition rows do not sum to one")
    matrix /= sums[:, None]
    return TransitionMatrix(matrix, shape, coupling)


def stationary(tm: TransitionMatrix) -> StationaryVector:
    """Stationary distribution with residual ``max|vM - v| <= _TOL``.

    Power iteration, with one dense linear-solve attempt after
    ``_POWER_BUDGET`` sweeps for slow-mixing chains. Deterministic given
    identical inputs.
    """
    m = tm.matrix
    size = m.shape[0]
    v = np.full(size, 1.0 / size)
    for sweep in range(_MAX_ITERS):
        if sweep == _POWER_BUDGET:
            sol = _dense_stationary(m)
            if sol is not None:
                resid = float(np.abs(sol @ m - sol).max())
                if resid <= _TOL:
                    return StationaryVector(sol, resid)
                v = sol
        nxt = v @ m
        if np.abs(nxt - v).max() <= _TOL:
            resid = float(np.abs(nxt @ m - nxt).max())
            if resid <= _TOL:
                return StationaryVector(nxt / nxt.sum(), resid)
        v = nxt
    resid = float(np.abs(v @ m - v).max())
    raise ConvergenceError(
        f"stationary solve did not converge (residual {resid:.3e})", resid
    )


def _dense_stationary(m):
    size = m.shape[0]
    a = np.vstack([m.T - np.eye(size), np.ones((1, size))])
    b = np.zeros(size + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    if sol.min() < -1e-9:
        return None
    sol = np.clip(sol, 0.0, None)
    total = sol.sum()
    if total <= 0:
        return None
    return sol / total


def zd_determinant(tm: TransitionMatrix, f, pivot_leader: int) -> float:
    """Determinant whose ratio against the all-ones vector equals v . f.

    Column of the state where only ``pivot_leader`` cooperates is replaced
    by the pivot leader's net-cooperation column (its conditional
    cooperation probability, minus one on rows where it cooperated); the
    all-defect column carries ``f``.
    """
    shape = tm.shape
    if shape.n_players > MAX_DETERMINANT_PLAYERS:
        raise ValueError(
            f"determinant evaluation capped at {MAX_DETERMINANT_PLAYERS} players"
        )
    if not 0 <= pivot_leader < shape.n_leaders:
        raise ValueError("pivot must be a leader index")
    f = np.asarray(f, dtype=float)
    if f.shape != (shape.n_states,):
        raise ValueError("payoff vector length must match the state space")

    pivot_state = 1 << pivot_leader
    bits = _state_bits(shape.n_players)
    coop = bits[:, pivot_leader] == 1
    a = tm.matrix - np.eye(shape.n_states)
    a[:, pivot_state] = tm.matrix[:, coop].sum(axis=1) - coop
    a[:, 0] = f
    return float(np.linalg.det(a))


def determinant_dot(tm: TransitionMatrix, f, pivot_leader: int) -> float:
    """v . f computed through the determinant route."""
    norm = zd_determinant(tm, np.ones(tm.shape.n_states), pivot_leader)
    if abs(norm) < 1e-12:
        raise DegenerateChainError(
            f"determinant normalization {norm:.3e} too small"
        )
    return zd_determinant(tm, f, pivot_leader) / norm


def expected_payoffs(shape: GameShape, sv: StationaryVector,
                     payoffs: PayoffVectors):
    """Expected per-round payoffs (alliance, outsiders) at stationarity."""
    v = sv.vector
    return float(v @ payoffs.alliance), float(v @ payoffs.outsiders)
