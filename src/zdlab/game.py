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
DEFECT = 0


@dataclass(frozen=True)
class PayoffScale:
    """Per-game payoff factor ``r(n) = a * n**k + b`` for an n-player game."""

    a: float = 2.0
    k: int = 1
    b: float = 3.0

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("coefficient a must be nonnegative")
        if self.k not in (1, 2):
            raise ValueError("exponent k must be 1 or 2")

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


def alliance_unison_payoff(unison_action: int, total_cooperators: int,
                           shape: GameShape) -> float:
    """Average alliance payoff when the alliance acts in unison."""
    return _unison_entry(unison_payoffs(shape).alliance, unison_action,
                         total_cooperators)


def outsider_unison_payoff(unison_action: int, total_cooperators: int,
                           shape: GameShape) -> float:
    """Average outsider payoff when the alliance acts in unison."""
    return _unison_entry(unison_payoffs(shape).outsiders, unison_action,
                         total_cooperators)


def _unison_entry(table, s, b):
    """Entry [s, b] of a :func:`unison_payoffs` table, if it can occur."""
    if s not in (COOPERATE, DEFECT):
        raise ValueError("unison action must be 0 or 1")
    if not 0 <= b < table.shape[1] or np.isnan(table[s, b]):
        side = "cooperating" if s == COOPERATE else "defecting"
        raise ValueError(f"cooperator count impossible for a {side} alliance")
    return float(table[s, b])


@dataclass(frozen=True)
class PayoffVectors:
    """Average alliance and outsider payoffs, by state or by unison outcome."""

    alliance: np.ndarray
    outsiders: np.ndarray
    shape: GameShape


@functools.lru_cache(maxsize=None)
def payoff_vectors(shape: GameShape) -> PayoffVectors:
    """Average payoffs of the alliance group and the outsider group per state.

    Every state is covered: on alliance-unison states the values reduce to
    the closed forms above; split states use the same per-group averages of
    the individual payoffs.
    """
    n, na = shape.n_players, shape.n_alliance
    bits = state_bits(n)
    # utility(a, b - a, n - 1, r) of every player in every state
    pays = shape.r * bits.sum(axis=1)[:, None] / n + (1 - bits)

    def group_mean(players):
        acc = np.zeros(shape.n_states)
        for i in players:
            acc += pays[:, i]
        acc /= len(players)
        acc.flags.writeable = False
        return acc

    return PayoffVectors(group_mean(range(na)), group_mean(range(na, n)),
                         shape)


@functools.lru_cache(maxsize=None)
def unison_payoffs(shape: GameShape) -> PayoffVectors:
    """Closed-form average payoffs of the unison outcomes: read-only
    (2, N + 1) arrays indexed [s, b] by the alliance's common action s and
    the total cooperator count b, NaN where b cannot occur with s."""
    n, na = shape.n_players, shape.n_alliance
    b = np.arange(n + 1)
    base = shape.r * b / n
    tables = (np.stack([base + 1.0, base]),
              np.stack([(b * base + (n - na - b) * (base + 1.0)) / (n - na),
                        ((b - na) * base + (n - b) * (base + 1.0)) / (n - na)]))
    for table in tables:
        table[0, n - na + 1:] = table[1, :na] = np.nan
        table.flags.writeable = False
    return PayoffVectors(*tables, shape)


@functools.lru_cache(maxsize=None)
def lumped_payoff_vectors(shape: GameShape) -> PayoffVectors:
    """The unison payoffs on the alliance-lumped states: bit 0 is the
    alliance's unison action, the other bits are the outsiders (leaders,
    then followers)."""
    bits = state_bits(shape.n_players - shape.n_alliance + 1)
    s, b = bits[:, 0], shape.n_alliance * bits[:, 0] + bits[:, 1:].sum(axis=1)
    table = unison_payoffs(shape)
    vectors = table.alliance[s, b], table.outsiders[s, b]
    for vec in vectors:
        vec.flags.writeable = False
    return PayoffVectors(*vectors, shape)
