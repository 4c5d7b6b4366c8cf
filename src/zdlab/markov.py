"""Markov chain machinery for the sequential game.

Leaders move first, conditioning on the full previous-round state;
followers then condition on the leaders' current-round actions. The
full chain lives on all 2^N action profiles; the lumped chain of a
coupled alliance lives on its 2^(N - n_alliance + 1) unison profiles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateChainError, StrategyTableError
from .game import GameShape, PayoffVectors, state_bits

MAX_PLAYERS = 10
MAX_DETERMINANT_PLAYERS = 8

# Power-iteration sweeps attempted before the dense linear-solve fallback.
_POWER_BUDGET = 256
# Stationary residual target and the total sweep limit.
_TOL = 1e-12
_MAX_ITERS = 1_000_000


def leader_table_shape(shape: GameShape):
    """Shape of a leader's table: (own_prev_action, coop_other_leaders,
    coop_followers)."""
    return (2, shape.n_leaders, shape.n_followers + 1)


def _probabilities(values, what, owner):
    """``values`` as a read-only float array, checked to lie in [0, 1]."""
    table = np.array(values, dtype=float)
    if not ((table >= 0.0) & (table <= 1.0)).all():
        raise StrategyTableError(
            f"{what} {owner} has a probability outside [0, 1]"
        )
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class LeaderStrategy:
    """Memory-one strategy of a leader.

    ``table[own_prev_action, coop_other_leaders, coop_followers]`` is the
    cooperation probability; its shape is (2, n_leaders, n_followers + 1)
    for the game it is used with.
    """

    owner: int
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table",
                           _probabilities(self.table, "leader", self.owner))

    @classmethod
    def constant(cls, owner, shape, p):
        return cls(owner, np.full(leader_table_shape(shape), p))

    @classmethod
    def random(cls, owner, shape, rng):
        # the first half of the draws fills the cooperate half (s = 1)
        draws = rng.uniform(0.0, 1.0, leader_table_shape(shape))
        return cls(owner, draws[::-1])


@dataclass(frozen=True, eq=False)
class FollowerStrategy:
    """Strategy of a follower: ``probs[z]`` is its cooperation probability
    when ``z`` leaders cooperate in the current round (n_leaders + 1
    entries)."""

    owner: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs",
                           _probabilities(self.probs, "follower", self.owner))

    @classmethod
    def constant(cls, owner, shape, p):
        return cls(owner, np.full(shape.n_leaders + 1, p))

    @classmethod
    def random(cls, owner, shape, rng):
        return cls(owner, rng.uniform(0.0, 1.0, shape.n_leaders + 1))


@dataclass(frozen=True)
class TransitionMatrix:
    matrix: np.ndarray
    shape: GameShape
    coupled: bool
    lumped: bool = False


@dataclass(frozen=True)
class StationaryVector:
    """Stationary distribution and how it was reached: ``path`` is
    ``"power"`` or ``"dense"`` (the linear-solve fallback), ``iterations``
    the number of power sweeps made."""

    vector: np.ndarray
    residual: float
    path: str
    iterations: int


def _check_strategies(shape, leaders, followers, n_leaders):
    if shape.n_players > MAX_PLAYERS:
        raise ValueError(f"state space capped at {MAX_PLAYERS} players")
    if len(leaders) != n_leaders or len(followers) != shape.n_followers:
        raise ValueError("need exactly one strategy per player")
    dims = leader_table_shape(shape)
    tables = [(s.owner, s.table, dims) for s in leaders]
    tables += [(s.owner, s.probs, (shape.n_leaders + 1,)) for s in followers]
    for owner, table, dims in tables:
        if table.shape != dims:
            raise StrategyTableError(
                f"player {owner} has a table of shape {table.shape}, "
                f"the game needs {dims}"
            )


def build_transition_matrix(shape: GameShape, leaders, followers,
                            coupling: bool = False) -> TransitionMatrix:
    """One-step transition matrix of the chain.

    With ``coupling`` on, alliance members that share the same conditional
    cooperation probability draw one coin together, so they realize
    identical actions and split alliance outcomes get zero mass.
    """
    _check_strategies(shape, leaders, followers, shape.n_leaders)
    weights = np.ones(shape.n_leaders, dtype=int)
    n_tied = shape.n_alliance if coupling else 0
    matrix = _chain(weights, leaders, followers, n_tied)
    return TransitionMatrix(matrix, shape, coupling)


def build_lumped_matrix(shape: GameShape, leaders,
                        followers) -> TransitionMatrix:
    """Transition matrix of the coupled chain lumped onto unison alliance
    states, 2^(N - n_alliance + 1) of them.

    ``leaders[0]`` is the strategy the alliance shares and moves on bit 0
    of a lumped state as one mover counting n_alliance cooperators;
    ``leaders[1:]`` are the outsider leaders. Exact when the split states
    of the coupled chain are transient (``splits_transient``).
    """
    n_movers = shape.n_leaders - shape.n_alliance + 1
    _check_strategies(shape, leaders, followers, n_movers)
    weights = np.ones(n_movers, dtype=int)
    weights[0] = shape.n_alliance
    matrix = _chain(weights, leaders, followers, 0)
    return TransitionMatrix(matrix, shape, True, lumped=True)


def splits_transient(shape: GameShape, table) -> bool:
    """Whether every split alliance state of the coupled chain reunites in
    one step with positive probability, for alliance table ``table``.

    With k members cooperating, u outsider leaders cooperating and y
    followers cooperating, the cooperating members draw one coin with
    ``table[1, k-1+u, y]`` and the defecting ones one with
    ``table[0, k+u, y]``; they can only stay split if one coin is 0 and
    the other 1.
    """
    na = shape.n_alliance
    k = np.arange(1, na)[:, None, None]
    u = np.arange(shape.n_leaders - na + 1)[None, :, None]
    y = np.arange(shape.n_followers + 1)[None, None, :]
    p_c, p_d = table[1, k - 1 + u, y], table[0, k + u, y]
    return not ((p_c == 0.0) & (p_d == 1.0) | (p_c == 1.0) & (p_d == 0.0)).any()


def _chain(weights, leaders, followers, n_tied):
    """Transition matrix over the states of leader movers then followers.

    Leader mover i stands for ``weights[i]`` players acting alike; movers
    0..n_tied-1 are alliance members, coupled as in
    ``build_transition_matrix``.
    """
    nl = len(weights)
    n = nl + len(followers)
    size = 1 << n
    bits = state_bits(n)
    leader_coops = bits[:, :nl] @ weights
    follower_coops = bits[:, nl:].sum(axis=1)

    # Follower factor depends only on the successor column.
    fol = np.ones(size)
    for j, strat in enumerate(followers):
        q = strat.probs[leader_coops]
        acted = bits[:, nl + j] == 1
        fol *= np.where(acted, q, 1.0 - q)

    # Leader factors are multiplied in place, one leader at a time, into
    # the follower factor broadcast over the rows.
    matrix = np.tile(fol, (size, 1))
    cond = np.empty((size, nl))
    for i, strat in enumerate(leaders):
        own = bits[:, i]
        p = cond[:, i] = strat.table[own, leader_coops - own, follower_coops]
        coin = np.stack([1.0 - p, p], axis=1)
        if 0 < i < n_tied:
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
    return matrix


def stationary(tm: TransitionMatrix) -> StationaryVector:
    """Stationary distribution with residual ``max|vM - v| <= _TOL``.

    Power iteration, with one dense linear-solve attempt after
    ``_POWER_BUDGET`` sweeps for slow-mixing chains; if that solve misses
    the target, power iteration goes on from it. Deterministic given
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
                    return StationaryVector(sol, resid, "dense", sweep)
                v = sol
        nxt = v @ m
        if np.abs(nxt - v).max() <= _TOL:
            resid = float(np.abs(nxt @ m - nxt).max())
            if resid <= _TOL:
                return StationaryVector(nxt / nxt.sum(), resid, "power",
                                        sweep + 1)
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


@functools.lru_cache(maxsize=None)
def _pivot_cooperates(n_players: int, pivot_leader: int) -> np.ndarray:
    """Read-only mask of the states in which the pivot leader cooperated."""
    coop = state_bits(n_players)[:, pivot_leader] == 1
    coop.flags.writeable = False
    return coop


def _zd_matrices(tm: TransitionMatrix, columns, pivot_leader: int):
    """The matrices of :func:`zd_determinant`, one per row of ``columns``
    (a (B, n_states) stack of f vectors), as a (B, n_states, n_states)
    array."""
    shape = tm.shape
    if tm.lumped:
        raise ValueError("determinant evaluation needs the full chain")
    if shape.n_players > MAX_DETERMINANT_PLAYERS:
        raise ValueError(
            f"determinant evaluation capped at {MAX_DETERMINANT_PLAYERS} players"
        )
    if not 0 <= pivot_leader < shape.n_leaders:
        raise ValueError("pivot must be a leader index")
    if columns.shape[1:] != (shape.n_states,):
        raise ValueError("payoff vector length must match the state space")

    coop = _pivot_cooperates(shape.n_players, pivot_leader)
    a = np.repeat(tm.matrix[None], len(columns), axis=0)
    diagonal = np.arange(shape.n_states)
    a[:, diagonal, diagonal] -= 1.0
    a[:, :, 1 << pivot_leader] = tm.matrix[:, coop].sum(axis=1) - coop
    a[:, :, 0] = columns
    return a


def zd_determinant(tm: TransitionMatrix, f, pivot_leader: int) -> float:
    """Determinant whose ratio against the all-ones vector equals v . f.

    Column of the state where only ``pivot_leader`` cooperates is replaced
    by the pivot leader's net-cooperation column (its conditional
    cooperation probability, minus one on rows where it cooperated); the
    all-defect column carries ``f``.
    """
    columns = np.asarray(f, dtype=float)[None]
    return float(np.linalg.det(_zd_matrices(tm, columns, pivot_leader))[0])


def determinant_dot(tm: TransitionMatrix, f, pivot_leader: int) -> float:
    """v . f computed through the determinant route: the all-ones
    normalization and the f determinant in one stacked ``det``."""
    f = np.asarray(f, dtype=float)
    columns = np.stack([np.ones_like(f), f])
    norm, det_f = np.linalg.det(_zd_matrices(tm, columns, pivot_leader))
    if abs(norm) < 1e-12:
        raise DegenerateChainError(
            f"determinant normalization {norm:.3e} too small"
        )
    return float(det_f / norm)


def expected_payoffs(shape: GameShape, sv: StationaryVector,
                     payoffs: PayoffVectors):
    """Expected per-round payoffs (alliance, outsiders) at stationarity."""
    v = sv.vector
    return float(v @ payoffs.alliance), float(v @ payoffs.outsiders)
