"""Exact small-scale laboratory for decision-tree query complexity:
distributional and randomized complexity, composed problems, a
block-structured simulator, and exhaustive verification sweeps.

``import qclab`` imports no submodule.  Each public name is resolved on
access from the submodule that defines it (PEP 562), so ``qclab.Dist``
loads ``qclab.core`` alone and ``qclab.Simulation`` loads the simulator.
A resolved name is never stored in the package namespace: every access
reads the defining module's binding, whatever has rebound it since.
"""

from importlib import import_module as _import_module

# each public name by the submodule that defines it
_EXPORTS = {
    "core": (
        "ArityMismatch", "CapExceeded", "Dist", "HypothesisViolated",
        "InnerComplexityZero", "ParseError", "QclabError", "Relation", "Subcube",
        "TruthTable", "ZeroConditioningMass", "and_fn", "constant_fn", "identity1",
        "maj3", "or_fn", "subcube_prob", "xor_fn",
    ),
    "dtree": ("DecisionTree", "InternalNode", "Leaf"),
    "complexity": (
        "DPResult", "GameResult", "best_success", "dist_complexity", "dist_solution",
        "rand_complexity",
    ),
    "compose": (
        "ComposedInstance", "build_instance", "compose_relation", "default_epsilon",
        "default_theta", "xor_stack",
    ),
    "simulate": (
        "AprimeSimulator", "ChainReport", "LilsnipReport", "SimileafReport",
        "Simulation", "SimulationTrace",
    ),
    "sweeps": ("SweepReport", "sweep_fullbias", "sweep_rbias", "sweep_unbias"),
}
_SUBMODULES = ("complexity", "compose", "core", "dtree", "lattice", "simulate", "sweeps", "walk")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
