"""Exact analysis of finite discrete-time Markov reward chains.

The package couples a validated chain core (`chain`, `modelfile`) with an
exact rational analysis engine (`analysis`), a seeded Monte Carlo oracle
(`simulate`), discrete information measures (`info`), and two fully
worked protocol case studies (`zeroconf`, `crowds`). The `cli` module
exposes everything on the command line.

The package loads lazily: ``import exactchain`` runs no submodule, and a
name below is imported from its home module when it is first used, so a
program (the CLI above all) compiles and runs only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Home module -> the public names the package re-exports from it.
_EXPORTS = {
    "analysis": (
        "Distribution", "EdgeDistribution", "INFINITY", "certify_ae_until",
        "conditional_probability", "entry_edge_distribution", "expected_cost_until",
        "expected_hitting_time", "first_entry_distribution", "reachable", "until_prob_is_zero",
        "until_probabilities", "until_probability",
    ),
    "chain": (
        "EXACT", "FLOAT", "MarkovChain", "RewardChain", "format_scalar", "parse_scalar",
        "validate_chain", "validate_reward",
    ),
    "info": ("entropy", "mutual_information"),
    "modelfile": ("load_model", "loads_model", "model_to_dict", "save_model"),
    "simulate": (
        "Estimate", "JointCounts", "PathRng", "PathSample", "SimConfig", "estimate_cost",
        "estimate_joint_first_last", "estimate_until", "sample_path",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Read from the home module on every use, so a name is always the
    # object its home module holds now.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
