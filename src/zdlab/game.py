"""Payoff arithmetic for the multi-player social-dilemma game.

Players choose cooperate (1) or defect (0) each round. A full action
profile of ``n`` players is packed into an integer state: bit ``i`` is
the action of player ``i``, so state 0 is all-defect. Players are
ordered alliance members first, then the remaining leaders, then the
followers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

COOPERATE = 1


@dataclass(frozen=True)
class PayoffScale:
    """Per-game payoff factor ``r(n) = a * n**k + b`` for an n-player game."""

    a: float = 2.0
    k: int = 1
    b: float = 3.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("coefficients a and b must be finite")
        if self.a < 0:
            raise ValueError("coefficient a must be nonnegative")
        if self.k not in (1, 2):
            raise ValueError("exponent k must be 1 or 2")
        if self(2) <= 1.0:  # r grows with n: r(2) > 1 covers every game
            raise ValueError(
                "payoff scale must exceed 1 for every reachable game size")

    def __call__(self, n):
        return self.a * n ** self.k + self.b


@dataclass(frozen=True)
class GameShape:
    """Static parameters of one sequential game.

    n_players
        Total player count N.
    n_leaders
        First movers; the remaining players are followers.
    n_alliance
        Alliance size; alliance members are the lowest-indexed leaders.
    r
        Payoff factor of this game.
    """

    n_players: int
    n_leaders: int
    n_alliance: int
    r: float

    def __post_init__(self):
        if self.n_players < 2:
            raise ValueError("need at least two players")
        if not 1 <= self.n_leaders <= self.n_players:
            raise ValueError("leader count out of range")
        if not 1 <= self.n_alliance <= self.n_leaders:
            raise ValueError("alliance must be a nonempty subset of the leaders")
        if self.n_players - self.n_alliance < 1:
            raise ValueError("at least one outsider is required")
        if not 0 < self.r < math.inf:  # NaN fails both comparisons
            raise ValueError("payoff factor must be positive and finite")

    @property
    def n_followers(self):
        return self.n_players - self.n_leaders

    @property
    def n_states(self):
        return 1 << self.n_players


@functools.lru_cache(maxsize=None)
def state_bits(n_players: int) -> np.ndarray:
    """Read-only (2^n, n) table of every state's actions: entry
    ``[state, i]`` is bit i of ``state``, the action of player i."""
    bits = (np.arange(1 << n_players)[:, None] >> np.arange(n_players)) & 1
    bits.flags.writeable = False
    return bits


def utility(action: int, coop_neighbors: int, neighbor_count: int, r: float) -> float:
    """Single-round payoff of one player.

    ``coop_neighbors`` is the number of cooperators among the player's
    ``neighbor_count`` co-players.
    """
    if action not in (0, 1):
        raise ValueError("action must be 0 or 1")
    if neighbor_count < 1:
        raise ValueError("a game needs at least one co-player")
    if not 0 <= coop_neighbors <= neighbor_count:
        raise ValueError("cooperating-neighbor count out of range")
    if r <= 0:
        raise ValueError("payoff factor must be positive")
    return r * (coop_neighbors + action) / (neighbor_count + 1) + (1 - action)


def is_social_dilemma(r: float) -> bool:
    """Whether the game with factor ``r`` is a social dilemma (r > 1)."""
    if r <= 0:
        raise ValueError("payoff factor must be positive")
    return r > 1


@dataclass(frozen=True)
class PayoffVectors:
    """Average alliance and outsider payoffs at cells of
    :func:`count_payoffs`."""

    alliance: np.ndarray
    outsiders: np.ndarray


def count_payoffs(shape: GameShape, k, b) -> PayoffVectors:
    """Average payoffs of the alliance and the outsiders when k alliance
    members and b players in all cooperate, at the broadcast integer cells
    ``(k, b)``: read-only arrays, NaN where (k, b) cannot occur.

    Each player earns ``r * b / N`` and a defector 1 more, as in
    :func:`utility`; this is the only place that rule is written.
    """
    n, na = shape.n_players, shape.n_alliance
    base = shape.r * b / n
    impossible = (b < k) | (b - k > n - na)
    tables = [np.where(impossible, np.nan, table) for table in (
        base + (na - k) / na,
        ((b - k) * base + (n - na - b + k) * (base + 1.0)) / (n - na))]
    for table in tables:
        table.flags.writeable = False
    return PayoffVectors(*tables)


def count_cells(n_bits: int, n_members: int, weight: int):
    """Cells ``(k, b)`` of :func:`count_payoffs` of the states of ``n_bits``
    bits whose low ``n_members`` bits count ``weight`` members each:
    ``(N, n_alliance, 1)`` for the full chain and ``(N - n_alliance + 1, 1,
    n_alliance)`` for the alliance-lumped chain."""
    bits = state_bits(n_bits)
    k = weight * bits[:, :n_members].sum(axis=1)
    return k, k + bits[:, n_members:].sum(axis=1)


@functools.lru_cache(maxsize=64)
def payoff_vectors(shape: GameShape) -> PayoffVectors:
    """Average payoffs of the alliance group and the outsider group per
    state of the full chain, split states included."""
    return count_payoffs(shape,
                         *count_cells(shape.n_players, shape.n_alliance, 1))


@functools.lru_cache(maxsize=64)
def lumped_payoff_vectors(shape: GameShape) -> PayoffVectors:
    """The payoffs per state of the alliance-lumped chain: bit 0 is the
    alliance's unison action, the other bits are the outsiders (leaders,
    then followers)."""
    na = shape.n_alliance
    return count_payoffs(shape, *count_cells(shape.n_players - na + 1, 1, na))


@functools.lru_cache(maxsize=64)
def unison_payoffs(shape: GameShape) -> PayoffVectors:
    """The payoffs of the unison outcomes (s, b), s the alliance's action:
    (2, N + 1) arrays indexed [s, b], the cells k = s * n_alliance."""
    return count_payoffs(shape, np.array([[0], [shape.n_alliance]]),
                         np.arange(shape.n_players + 1))
