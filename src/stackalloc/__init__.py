"""Leader-commitment (Stackelberg) solvers for budget allocation over
bipartite influence graphs: exact LP-based equilibria, an MWU
approximation with a certificate, a fictitious-play heuristic, and a
benchmark harness."""

from .bench import (ExperimentRow, ExperimentSpec, parse_spec, parse_specs,
                    run_experiment)
from .exact import (EquilibriumResult, decompose_allocation, enumerate_leader,
                    solve_disjoint_lp, solve_multi_lp)
from .follower import (BestResponseResult, FollowerOracle, best_response,
                       enumerate_follower, follower_oracle)
from .heuristic import greedy_baseline, solve_heuristic
from .lp import LinearProgram, LpOutcome, PivotLimitError, solve_lp
from .model import (BipartiteInfluenceGame, CapExceededError, InstanceFormatError,
                    MixedStrategy, PureStrategy, allocation_of, dump_instance,
                    generate_instance, is_disjoint, load_instance)
from .mwu import (ApproxCertificate, MwuConfig, certify,
                  greedy_weighted_submodular, solve_mwu)
from .payoff import activation_vector, mixed_activation_vector

__all__ = [
    "ApproxCertificate", "BestResponseResult", "BipartiteInfluenceGame",
    "CapExceededError", "EquilibriumResult", "ExperimentRow", "ExperimentSpec",
    "FollowerOracle", "InstanceFormatError",
    "LinearProgram", "LpOutcome", "MixedStrategy", "MwuConfig",
    "PivotLimitError", "PureStrategy",
    "activation_vector", "allocation_of", "best_response",
    "certify", "decompose_allocation", "dump_instance", "enumerate_follower",
    "enumerate_leader", "follower_oracle",
    "generate_instance", "greedy_baseline", "greedy_weighted_submodular",
    "is_disjoint", "load_instance",
    "mixed_activation_vector", "parse_spec", "parse_specs", "run_experiment",
    "solve_disjoint_lp", "solve_heuristic", "solve_lp", "solve_multi_lp",
    "solve_mwu",
]
