"""Exact small-scale laboratory for decision-tree query complexity:
distributional and randomized complexity, composed problems, a
block-structured simulator, and exhaustive verification sweeps.
"""

from .core import (
    Dist,
    Relation,
    Subcube,
    TruthTable,
    QclabError,
    ArityMismatch,
    CapExceeded,
    ZeroConditioningMass,
    HypothesisViolated,
    InnerComplexityZero,
    ParseError,
    and_fn,
    constant_fn,
    identity1,
    maj3,
    or_fn,
    subcube_prob,
    xor_fn,
)
from .dtree import (
    DecisionTree,
    InternalNode,
    Leaf,
)
from .complexity import (
    DPResult,
    GameResult,
    best_success,
    dist_complexity,
    dist_solution,
    rand_complexity,
)
from .compose import (
    ComposedInstance,
    build_instance,
    compose_relation,
    default_epsilon,
    default_theta,
    xor_stack,
)
from .simulate import (
    AprimeSimulator,
    ChainReport,
    LilsnipReport,
    SimileafReport,
    Simulation,
    SimulationTrace,
)
from .sweeps import (
    SweepReport,
    sweep_fullbias,
    sweep_rbias,
    sweep_unbias,
)

__all__ = [name for name in dir() if not name.startswith("_")]
