import inspect
from pathlib import Path

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

# Lines of ``src/stackalloc/*.py``, counted as ``wc -l`` counts them.
SOURCE_LINES = 2247

# Parameter names of every exported function and of the oracle's constructor.
PARAMETERS = {
    "FollowerOracle.__init__": "self game",
    "activation_vector": "game media",
    "allocation_of": "x n",
    "best_response": "game x",
    "certify": "game x_prime exact epsilon",
    "decompose_allocation": "r k_L",
    "dump_instance": "game stream comment",
    "enumerate_follower": "game",
    "enumerate_leader": "game",
    "follower_oracle": "game",
    "generate_instance": "n m mean_degree p_dist pf_dist seed k_L k_F",
    "greedy_baseline": "game",
    "greedy_weighted_submodular": "game weights",
    "is_disjoint": "game",
    "load_instance": "stream",
    "mixed_activation_vector": "game x",
    "parse_spec": "data",
    "parse_specs": "data",
    "run_experiment": "spec",
    "solve_disjoint_lp": "game",
    "solve_heuristic": "game ell",
    "solve_lp": "lp",
    "solve_multi_lp": "game",
    "solve_mwu": "game config",
}


def test_public_surface_is_pinned():
    # Adding or removing an export is a deliberate change to this list.
    assert len(PUBLIC_NAMES) == 38 and PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert stackalloc.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(stackalloc, name) is not None


def test_public_parameters_are_pinned():
    # Adding or removing a parameter is a deliberate change to this table.
    functions = {name: getattr(stackalloc, name) for name in PUBLIC_NAMES
                 if inspect.isfunction(getattr(stackalloc, name))}
    functions["FollowerOracle.__init__"] = stackalloc.FollowerOracle.__init__
    assert sorted(functions) == sorted(PARAMETERS)
    for name, function in functions.items():
        assert " ".join(inspect.signature(function).parameters) == PARAMETERS[name], name
    assert sum(len(names.split()) for names in PARAMETERS.values()) == 45


def test_source_lines_are_capped():
    # Adding lines is a deliberate change to this ceiling.
    sources = Path(stackalloc.__file__).parent.glob("*.py")
    assert sum(path.read_bytes().count(b"\n") for path in sources) <= SOURCE_LINES
