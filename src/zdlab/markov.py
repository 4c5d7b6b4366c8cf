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
# Caps of the alliance-lumped chain: 2^(outsiders + 1) states, and the
# player range in which its certificates were measured (at most 6.5e-10 at
# N = 1,024); synthesis reads only 2 (N + 1) unison payoffs.
MAX_OUTSIDERS = 9
MAX_LUMPED_PLAYERS = 1024

# Stationary residual target.
_TOL = 1e-12


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


@dataclass(frozen=True)
class StationaryVector:
    """Stationary distribution and the solve that found it: ``path`` is
    ``"dense"`` (``np.linalg.solve``, whose clipped vector met the target)
    or ``"lstsq"`` (the minimum-norm solution, when the dense one missed)."""

    vector: np.ndarray
    residual: float
    path: str


def check_players(shape: GameShape):
    """Refuse a full chain of over ``MAX_PLAYERS`` players."""
    if shape.n_players > MAX_PLAYERS:
        raise ValueError(f"state space capped at {MAX_PLAYERS} players")


def check_lumped(shape: GameShape):
    """Refuse a lumped chain of over ``MAX_OUTSIDERS`` outsiders, or a game
    of over ``MAX_LUMPED_PLAYERS`` players."""
    if shape.n_players - shape.n_alliance > MAX_OUTSIDERS:
        raise ValueError(f"state space capped at {MAX_OUTSIDERS} outsiders")
    if shape.n_players > MAX_LUMPED_PLAYERS:
        raise ValueError(f"game capped at {MAX_LUMPED_PLAYERS} players")


def _check_strategies(shape, leaders, followers, n_leaders):
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
    check_players(shape)
    _check_strategies(shape, leaders, followers, shape.n_leaders)
    weights = (1,) * shape.n_leaders
    n_tied = shape.n_alliance if coupling else 0
    matrix = _chain(weights, leaders, followers, n_tied)
    return TransitionMatrix(matrix, shape)


def build_lumped_matrix(shape: GameShape, leaders,
                        followers) -> TransitionMatrix:
    """Transition matrix of the coupled chain lumped onto unison alliance
    states, 2^(N - n_alliance + 1) of them.

    ``leaders[0]`` is the strategy the alliance shares and moves on bit 0
    of a lumped state as one mover counting n_alliance cooperators;
    ``leaders[1:]`` are the outsider leaders. Exact from any unison start:
    coupled members in a unison state draw one coin, so the coupled chain
    never leaves its unison states.
    """
    check_lumped(shape)
    n_movers = shape.n_leaders - shape.n_alliance + 1
    _check_strategies(shape, leaders, followers, n_movers)
    weights = (shape.n_alliance,) + (1,) * (n_movers - 1)
    matrix = _chain(weights, leaders, followers, 0)
    return TransitionMatrix(matrix, shape)


@dataclass(frozen=True, eq=False)
class _ChainPlan:
    """The strategy-independent index arrays of one chain (see
    ``_chain_plan``)."""

    leader_coops: np.ndarray
    acted: np.ndarray
    gathers: np.ndarray
    splits: np.ndarray


@functools.lru_cache(maxsize=64)
def _chain_plan(weights: tuple, n_followers: int) -> _ChainPlan:
    """Index arrays of the chain over leader movers with ``weights``, then
    ``n_followers`` followers:

    - ``leader_coops[state]``, the number of cooperating leaders;
    - ``acted[j, state]``, whether follower j cooperated;
    - ``gathers[i, state]``, the index of mover i's entry ``[own,
      leader_coops - own, cooperating followers]`` (``own`` being its
      action) into the movers' tables laid end to end; row ``len(weights)
      + j`` holds follower j's entry ``leader_coops`` in its ``probs``,
      laid after those tables;
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
        for i, own in enumerate(bits[:, :nl].T)] + [
        nl * np.prod(dims) + j * (dims[1] + 1) + leader_coops
        for j in range(n_followers)])
    acted = bits[:, nl:].T == 1
    pattern = state_bits(nl).T
    splits = pattern[:, None, :] != pattern[None, :, :]
    for array in (leader_coops, acted, gathers, splits):
        array.flags.writeable = False
    return _ChainPlan(leader_coops, acted, gathers, splits)


def _chain(weights, leaders, followers, n_tied):
    """Transition matrix over the states of leader movers then followers.

    Leader mover i stands for ``weights[i]`` players acting alike; movers
    0..n_tied-1 are alliance members, coupled as in
    ``build_transition_matrix``. An entry is the product of the movers'
    coins for the column's leader bits, times the column's follower factor.
    """
    plan = _chain_plan(weights, len(followers))
    size, nl = len(plan.leader_coops), len(weights)

    # coins[i, state] = (1 - p, p), p being leader mover i's cooperation
    # probability in that state, then in row nl + j follower j's
    cond = np.concatenate([s.table.ravel() for s in leaders]
                          + [s.probs for s in followers]).take(plan.gathers)
    coins = np.empty(cond.shape + (2,))
    np.subtract(1.0, cond, out=coins[..., 0])
    coins[..., 1] = cond
    # Follower factor depends only on the successor column; with no
    # followers it is the empty product, all ones.
    fol = np.where(plan.acted, cond[nl:], coins[nl:, :, 0]).prod(axis=0)
    if n_tied > 1:
        tied, split = _ties(plan.splits, cond[:n_tied])
        coins[:n_tied][tied] = 1.0  # a copying member draws no coin

    # lead[state, pattern], the movers' factor for a leader-bit pattern:
    # each further mover's coin is an outer product on a new high bit
    lead = coins[0]
    for coin in coins[1:nl]:
        lead = (coin[:, :, None] * lead[:, None, :]).reshape(size, -1)
    if n_tied > 1:
        lead[split] = 0.0
    # columns split as (follower bits, leader bits)
    matrix = (lead[:, None, :] * fol.reshape(-1, lead.shape[1])).reshape(
        size, size)

    sums = matrix.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-9:
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

    One direct solve of (M^T - I + 11^T) v = 1, whose solutions are exactly
    the chain's stationary distributions; clipped at 0 and normalized, it
    is kept when it meets the target, as path ``"dense"`` (on a singular
    system, a stationary vector but not the minimum-norm one). A chain with
    several closed classes makes the system singular but consistent: the
    one fallback is the minimum-norm solution of ``np.linalg.lstsq`` on the
    same system, a positive mix of the closed classes' stationary vectors
    (their supports are disjoint), with the same test, as path ``"lstsq"``.
    The residual test is the only acceptance rule. Raises
    ConvergenceError with the better attempt's residual when both miss,
    and with residual inf when neither yields a vector to measure.
    """
    m = tm.matrix
    a = m.T + 1.0
    a.flat[::len(m) + 1] -= 1.0
    ones = np.ones(len(m))
    best = np.inf
    for path in ("dense", "lstsq"):
        sol = _solution(a, ones, path)
        if sol is not None:
            resid = float(np.abs(sol @ m - sol).max())
            if resid <= _TOL:
                return StationaryVector(sol, resid, path)
            best = min(best, resid)
    if best == np.inf:
        raise ConvergenceError(
            "stationary solve found no finite nonnegative solution", best)
    raise ConvergenceError(
        f"stationary solve missed the residual target (best residual "
        f"{best:.3e})", best
    )


def _solution(a, ones, path):
    """Solution of ``a v = ones`` by ``np.linalg.solve`` (path ``"dense"``)
    or ``np.linalg.lstsq``, clipped at 0 and normalized whatever its signs;
    None if the solve fails or the clipped total is not positive and finite."""
    try:
        if path == "dense":
            sol = np.linalg.solve(a, ones)
        else:
            sol = np.linalg.lstsq(a, ones, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    total = np.maximum(sol, 0.0, out=sol).sum()
    return sol / total if 0.0 < total < np.inf else None


def _zd_matrices(tm: TransitionMatrix, columns, pivot_leader: int):
    """The matrices of :func:`zd_determinant`, one per row of ``columns``
    (a (B, n_states) stack of f vectors), as a (B, n_states, n_states)
    array."""
    shape = tm.shape
    if len(tm.matrix) != shape.n_states:
        raise ValueError("determinant evaluation needs the full chain")
    if shape.n_players > MAX_DETERMINANT_PLAYERS:
        raise ValueError(
            f"determinant evaluation capped at {MAX_DETERMINANT_PLAYERS} players"
        )
    if not 0 <= pivot_leader < shape.n_leaders:
        raise ValueError("pivot must be a leader index")
    if columns.shape[1:] != (shape.n_states,):
        raise ValueError("payoff vector length must match the state space")

    coop, cooperated = _pivot_columns(shape.n_players, pivot_leader)
    a = np.repeat(tm.matrix[None], len(columns), axis=0)
    a.reshape(len(columns), -1)[:, ::shape.n_states + 1] -= 1.0
    a[:, :, 1 << pivot_leader] = tm.matrix[:, cooperated].sum(axis=1) - coop
    a[:, :, 0] = columns
    return a


@functools.lru_cache(maxsize=None)
def _pivot_columns(n_players: int, pivot_leader: int):
    """Read-only float column of whether ``pivot_leader`` cooperated in
    each state, and the states where it did."""
    coop = state_bits(n_players)[:, pivot_leader]
    columns = coop.astype(float), np.flatnonzero(coop)
    for array in columns:
        array.flags.writeable = False
    return columns


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
    columns = np.ones((2,) + np.shape(f))
    columns[1] = f
    norm, det_f = np.linalg.det(_zd_matrices(tm, columns, pivot_leader))
    if abs(norm) < 1e-12:
        raise DegenerateChainError(
            f"determinant normalization {norm:.3e} too small"
        )
    return float(det_f / norm)


def expected_payoffs(sv: StationaryVector, payoffs: PayoffVectors):
    """Expected per-round payoffs (alliance, outsiders) at stationarity."""
    v = sv.vector
    return float(v @ payoffs.alliance), float(v @ payoffs.outsiders)
