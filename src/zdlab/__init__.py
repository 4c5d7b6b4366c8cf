"""zdlab: ZD alliance strategies for sequential games and their optimal
placement on networks."""

from .alliance import (SynthesisResult, ZDParams, alliance_admissible,
                       dominance_check, feasible_l_range, incentive_menu,
                       random_outsiders, synthesize, verify_enforcement)
from .field import (Deployment, FieldResult, cooperator_ratio, evaluate,
                    node_delta)
from .game import (GameShape, PayoffScale, PayoffVectors, is_social_dilemma,
                   payoff_vectors, utility)
from .graphs import (Graph, TraceRecord, betweenness, generate, ingest_trace,
                     parse_trace)
from .markov import (FollowerStrategy, LeaderStrategy, StationaryVector,
                     TransitionMatrix, build_transition_matrix,
                     determinant_dot, expected_payoffs, stationary,
                     zd_determinant)
from .optimize import GAConfig, optimize_exhaustive, optimize_ga

__version__ = "0.1.0"

__all__ = [
    "Deployment", "FieldResult", "FollowerStrategy", "GAConfig", "GameShape",
    "Graph", "LeaderStrategy", "PayoffScale", "PayoffVectors",
    "StationaryVector", "SynthesisResult", "TraceRecord", "TransitionMatrix",
    "ZDParams", "alliance_admissible", "betweenness",
    "build_transition_matrix", "cooperator_ratio",
    "determinant_dot", "dominance_check", "evaluate", "expected_payoffs",
    "feasible_l_range", "generate", "incentive_menu", "ingest_trace",
    "is_social_dilemma", "node_delta", "optimize_exhaustive", "optimize_ga",
    "parse_trace", "payoff_vectors", "random_outsiders", "stationary",
    "synthesize", "utility", "verify_enforcement", "zd_determinant",
]
