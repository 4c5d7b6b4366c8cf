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

# Largest chain solved directly before any power sweep: above it one
# dense solve costs more than power iteration (timings in README.md).
_DIRECT_STATES = 64
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
    ``"power"`` or ``"dense"`` (a direct linear solve), ``iterations`` the
    number of power sweeps made before it; ``"dense"`` with 0 iterations is
    a small chain solved on the first try."""

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
    weights = (1,) * shape.n_leaders
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
    weights = (shape.n_alliance,) + (1,) * (n_movers - 1)
    matrix = _chain(weights, leaders, followers, 0)
    return TransitionMatrix(matrix, shape, True, lumped=True)


def _read_only(array):
    array.flags.writeable = False
    return array


def splits_transient(shape: GameShape, table) -> bool:
    """Whether every split alliance state of the coupled chain reunites in
    one step with positive probability, for alliance table ``table``.

    With k members cooperating (0 < k < n_alliance), u outsider leaders
    cooperating and y followers cooperating, the cooperating members draw
    one coin with ``table[1, k-1+u, y]`` and the defecting ones one with
    ``table[0, k+u, y]``; they can only stay split if one coin is 0 and
    the other 1. As k - 1 + u runs over 0..n_leaders-2, the coin pairs are
    ``table[1, x, y]`` against ``table[0, x+1, y]`` for every such x and
    every y: the slices ``table[1, :-1]`` and ``table[0, 1:]``. An
    alliance of one has no split states.
    """
    if shape.n_alliance < 2:
        return True
    p_c, p_d = table[1, :-1], table[0, 1:]
    return not ((p_c == 0.0) & (p_d == 1.0) | (p_c == 1.0) & (p_d == 0.0)).any()


@dataclass(frozen=True, eq=False)
class _ChainPlan:
    """The strategy-independent index arrays of one chain (see
    ``_chain_plan``)."""

    leader_coops: np.ndarray
    acted: tuple
    gathers: np.ndarray
    splits: np.ndarray


@functools.lru_cache(maxsize=None)
def _chain_plan(weights: tuple, n_followers: int) -> _ChainPlan:
    """Index arrays of the chain over leader movers with ``weights``, then
    ``n_followers`` followers:

    - ``leader_coops[state]``, the number of cooperating leaders;
    - ``acted[j][state]``, whether follower j cooperated;
    - ``gathers[i, state]``, the index of mover i's entry ``[own,
      leader_coops - own, cooperating followers]`` (``own`` being its
      action) into the movers' tables laid end to end;
    - ``splits[i, j, pattern]``, whether movers i and j act differently
      in a pattern of the leader bits, which are the low bits of a state.
    """
    nl = len(weights)
    bits = state_bits(nl + n_followers)
    leader_coops = bits[:, :nl] @ np.array(weights)
    follower_coops = bits[:, nl:].sum(axis=1)
    dims = (2, sum(weights), n_followers + 1)
    gathers = np.stack([
        i * np.prod(dims) + np.ravel_multi_index(
            (own, leader_coops - own, follower_coops), dims)
        for i, own in enumerate(bits[:, :nl].T)])
    acted = tuple(_read_only(bits[:, nl + j] == 1)
                  for j in range(n_followers))
    pattern = state_bits(nl).T
    splits = pattern[:, None, :] != pattern[None, :, :]
    return _ChainPlan(_read_only(leader_coops), acted, _read_only(gathers),
                      _read_only(splits))


def _chain(weights, leaders, followers, n_tied):
    """Transition matrix over the states of leader movers then followers.

    Leader mover i stands for ``weights[i]`` players acting alike; movers
    0..n_tied-1 are alliance members, coupled as in
    ``build_transition_matrix``. An entry is the product of the movers'
    coins for the column's leader bits, times the column's follower factor.
    """
    plan = _chain_plan(weights, len(followers))
    size = len(plan.leader_coops)

    # Follower factor depends only on the successor column.
    fol = np.ones(size)
    for strat, acted in zip(followers, plan.acted):
        q = strat.probs.take(plan.leader_coops)
        fol *= np.where(acted, q, 1.0 - q)

    # coins[i, state] = (1 - p, p), p being leader mover i's cooperation
    # probability in that state
    cond = np.concatenate([s.table.ravel() for s in leaders]).take(
        plan.gathers)
    coins = np.stack([1.0 - cond, cond], axis=-1)
    if n_tied > 1:
        tied, split = _ties(plan.splits, cond[:n_tied])
        coins[:n_tied][tied] = 1.0  # a copying member draws no coin

    # lead[state, pattern], the movers' factor for a leader-bit pattern:
    # each further mover's coin is an outer product on a new high bit
    lead = coins[0]
    for coin in coins[1:]:
        lead = (coin[:, :, None] * lead[:, None, :]).reshape(size, -1)
    if n_tied > 1:
        lead[split] = 0.0
    # columns split as (follower bits, leader bits)
    matrix = (lead[:, None, :] * fol.reshape(-1, lead.shape[1])).reshape(
        size, size)

    sums = matrix.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("transition rows do not sum to one")
    matrix /= sums[:, None]
    return matrix


def _ties(splits, cond):
    """Coupling of alliance members with probabilities ``cond`` (members,
    states).

    A member whose probability equals an earlier member's draws no coin
    of its own and copies the action of the first such member. Returns
    ``tied[i, state]``, whether member i copies another, and
    ``split[state, pattern]``, whether some copy disagrees with its
    original in that leader-bit pattern (``_chain_plan.splits``).
    """
    # the first member, i itself included, with member i's probability
    copied = (cond[:, None] == cond[None, :]).argmax(axis=1)
    members = np.arange(len(cond))[:, None]
    n_movers = len(splits)
    pairs = splits.reshape(n_movers * n_movers, -1)
    split = pairs.take(members * n_movers + copied, axis=0).any(axis=0)
    return copied != members, split


def stationary(tm: TransitionMatrix) -> StationaryVector:
    """Stationary distribution with residual ``max|vM - v| <= _TOL``.

    A chain of up to ``_DIRECT_STATES`` states is first solved directly
    (``_dense_stationary``); a solve that meets the target is returned as
    path ``"dense"`` with 0 iterations. Otherwise power iteration runs from
    the uniform vector, checked every sweep: the first sweep whose step
    ``max|vM - v|`` and residual both reach ``_TOL`` is returned, with its
    number as ``iterations``. After ``_POWER_BUDGET`` sweeps, slow-mixing
    chains get one more dense attempt; if it misses the target, power
    iteration goes on from its vector. Deterministic given identical
    inputs.
    """
    m = tm.matrix
    size = m.shape[0]
    v = np.full(size, 1.0 / size)
    for sweep in range(_MAX_ITERS):
        if sweep == _POWER_BUDGET or sweep == 0 and size <= _DIRECT_STATES:
            sol = _dense_stationary(m)
            if sol is not None:
                resid = float(np.abs(sol @ m - sol).max())
                if resid <= _TOL:
                    return StationaryVector(sol, resid, "dense", sweep)
                if sweep == _POWER_BUDGET:  # not after the first-try solve
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
    """Solution of (M^T - I + 11^T) v = 1, which is the stationary vector
    of a chain with one closed class; None if the system is singular or the
    solution is not finite and nonnegative within 1e-12."""
    a = m.T + 1.0
    a.flat[::len(m) + 1] -= 1.0
    try:
        sol = np.linalg.solve(a, np.ones(len(m)))
    except np.linalg.LinAlgError:
        return None
    if not sol.min() >= -1e-12:  # also true on NaN
        return None
    total = np.maximum(sol, 0.0, out=sol).sum()
    return sol / total if 0.0 < total < np.inf else None


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
