"""Weighted-sum scalarization toolkit for multiobjective optimization.

Approximates minimization problems through exact or sigma-approximate
weighted-sum solves and verifies every produced guarantee with brute-force
oracles over exact rational arithmetic.
"""

from .core import (
    Bounds,
    ContractViolation,
    Direction,
    FactorVector,
    FamilyKind,
    GuaranteeFamily,
    MaximizationUnsupported,
    ObjectiveVector,
    WeightVector,
    approximates,
    as_rational,
    factor_vector,
    format_rational,
    parse_rational,
)
from .instances import (
    Arc,
    DisconnectedGraph,
    ExplicitInstance,
    GraphInstance,
    GraphKind,
    InstanceFormatError,
    Solution,
    UnreachableTarget,
    gen_max_counterexample,
    gen_random_explicit,
    gen_random_graph,
    gen_tightness_min,
    instance_from_json,
)
from .solvers import (
    SolveAnswer,
    SolverHandle,
    adversarial_solver,
    compute_bounds,
    exact_solver,
)
from .algorithms import (
    BiobjectiveRun,
    GridRun,
    approximate_biobjective,
    approximate_grid,
    approximate_with_ptas,
)
from .oracles import (
    EnumerationLimit,
    SupportCertificate,
    VerificationReport,
    enumerate_graph_solutions,
    pareto_front,
    support_certificates,
    verify_approximation,
    verify_max_impossibility,
)

__all__ = [name for name in dir() if not name.startswith("_")]
