import stackalloc

PUBLIC_NAMES = [
    "ApproxCertificate", "BestResponseResult", "BipartiteInfluenceGame", "CapExceededError",
    "EquilibriumResult", "ExperimentRow", "ExperimentSpec", "FollowerOracle",
    "InstanceFormatError", "LinearProgram", "LpOutcome", "MixedStrategy", "MwuConfig",
    "PivotLimitError", "PureStrategy", "activation_vector", "allocation_of", "best_response",
    "certify", "decompose_allocation", "dump_instance", "enumerate_follower", "enumerate_leader",
    "follower_oracle", "generate_instance", "greedy_baseline", "greedy_weighted_submodular",
    "is_disjoint", "load_instance", "mixed_activation_vector", "parse_spec", "parse_specs",
    "run_experiment", "solve_disjoint_lp", "solve_heuristic", "solve_lp", "solve_multi_lp",
    "solve_mwu",
]


def test_public_surface_is_pinned():
    # Adding or removing an export is a deliberate change to this list.
    assert len(PUBLIC_NAMES) == 38 and PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert stackalloc.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(stackalloc, name) is not None
