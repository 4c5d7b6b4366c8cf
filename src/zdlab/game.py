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
    """Average alliance and outsider payoffs: by cooperator counts
    (:func:`count_payoffs`), or gathered from them by state, by unison
    outcome or by alliance-lumped state."""

    alliance: np.ndarray
    outsiders: np.ndarray


@functools.lru_cache(maxsize=64)
def count_payoffs(shape: GameShape) -> PayoffVectors:
    """Average payoffs of the alliance and the outsiders when k alliance
    members and b players in all cooperate: read-only (n_alliance + 1,
    N + 1) arrays indexed [k, b], NaN where (k, b) cannot occur.

    Each player earns ``r * b / N`` and a defector 1 more, as in
    :func:`utility`; this is the only place that rule is written.
    """
    n, na = shape.n_players, shape.n_alliance
    k, b = np.arange(na + 1)[:, None], np.arange(n + 1)
    base = shape.r * b / n
    tables = (base + (na - k) / na,
              ((b - k) * base + (n - na - b + k) * (base + 1.0)) / (n - na))
    for table in tables:
        table[(b < k) | (b - k > n - na)] = np.nan
        table.flags.writeable = False
    return PayoffVectors(*tables)


def _gather(shape, k, b):
    """Read-only entries [k, b] of :func:`count_payoffs`."""
    table = count_payoffs(shape)
    vectors = table.alliance[k, b], table.outsiders[k, b]
    for vec in vectors:
        vec.flags.writeable = False
    return PayoffVectors(*vectors)


def state_counts(shape: GameShape):
    """Each state's indices ``(k, b)`` into :func:`count_payoffs`."""
    bits = state_bits(shape.n_players)
    return bits[:, :shape.n_alliance].sum(axis=1), bits.sum(axis=1)


@functools.lru_cache(maxsize=64)
def payoff_vectors(shape: GameShape) -> PayoffVectors:
    """Average payoffs of the alliance group and the outsider group per
    state, split states included: the :func:`count_payoffs` entries at
    :func:`state_counts`."""
    return _gather(shape, *state_counts(shape))


@functools.lru_cache(maxsize=64)
def unison_payoffs(shape: GameShape) -> PayoffVectors:
    """Average payoffs of the unison outcomes: read-only (2, N + 1) arrays
    indexed [s, b] by the alliance's common action s and the total
    cooperator count b, NaN where b cannot occur with s; rows 0 and
    n_alliance of :func:`count_payoffs`."""
    return _gather(shape, [0, shape.n_alliance], slice(None))


@functools.lru_cache(maxsize=64)
def lumped_payoff_vectors(shape: GameShape) -> PayoffVectors:
    """The unison payoffs on the alliance-lumped states: bit 0 is the
    alliance's unison action, the other bits are the outsiders (leaders,
    then followers)."""
    bits = state_bits(shape.n_players - shape.n_alliance + 1)
    k = shape.n_alliance * bits[:, 0]
    return _gather(shape, k, k + bits[:, 1:].sum(axis=1))
