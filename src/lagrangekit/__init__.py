"""Framework-independent Lagrangian constrained optimization.

Constrained minimization problems declare named constraint groups; first-order
primal-dual schemes descend the primal Lagrangian while multipliers ascend
their dual signals under projection. Ships formulations (plain Lagrangian,
augmented Lagrangian, quadratic penalty), proxy-constraint support, certified
benchmark problems, finite-difference gradient checking, deterministic text
checkpoints, and a CSV trace CLI. All numerics are plain numpy.
"""

from . import checkpoint
from .core import (
    CMPState,
    ConstrainedMinimizationProblem,
    ConstraintGroup,
    ConstraintState,
    ConstraintType,
    Evaluation,
    EvaluationError,
    Formulation,
)
from .formulations import (
    ContributionPair,
    PenaltyCoefficient,
    PenaltyScheduler,
    assemble_lagrangian,
    augmented_lagrangian_contribution,
    group_contribution,
    lagrangian_contribution,
    quadratic_penalty_contribution,
    schedule_penalty,
)
from .gradients import (
    DifferentiableFunction,
    GradientCheckEntry,
    GradientCheckReport,
    check_gradients,
    compose_primal_gradient,
    finite_difference_gradient,
    with_finite_difference_gradient,
)
from .multipliers import (
    DenseMultiplier,
    IndexedMultiplier,
    Multiplier,
    multiplier_values_for,
)
from .optim import (
    SCHEMES,
    AdamLike,
    AssembledLagrangian,
    DualOptimizer,
    GradientAscent,
    GradientDescent,
    Momentum,
    NuPI,
    PrimalDualOptimizers,
    PrimalOptimizer,
    RollOut,
    assemble,
    dual_step,
    make_dual_optimizers,
    primal_step,
    roll,
    roll_alternating_dual_primal,
    roll_alternating_primal_dual,
    roll_extragradient,
    roll_simultaneous,
)
from .problems import (
    PROBLEM_NAMES,
    BenchmarkProblem,
    CertifiedSolution,
    ConstraintBlock,
    KKTResidual,
    current_kkt_residual,
    kkt_residual,
    normal_stream,
    problem_bilinear_game,
    problem_equality_qp,
    problem_norm_constrained_logreg,
    problem_projection_ball,
    splitmix64,
    two_gaussian_dataset,
)

__version__ = "0.1.0"

# The only backend. Kept as a name because perfbench/run.py prints it on its
# environment line.
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "__version__",
    "checkpoint",
    # core
    "CMPState",
    "ConstrainedMinimizationProblem",
    "ConstraintGroup",
    "ConstraintState",
    "ConstraintType",
    "Evaluation",
    "EvaluationError",
    "Formulation",
    # formulations
    "ContributionPair",
    "PenaltyCoefficient",
    "PenaltyScheduler",
    "assemble_lagrangian",
    "augmented_lagrangian_contribution",
    "group_contribution",
    "lagrangian_contribution",
    "quadratic_penalty_contribution",
    "schedule_penalty",
    # gradients
    "DifferentiableFunction",
    "GradientCheckEntry",
    "GradientCheckReport",
    "check_gradients",
    "compose_primal_gradient",
    "finite_difference_gradient",
    "with_finite_difference_gradient",
    # multipliers
    "DenseMultiplier",
    "IndexedMultiplier",
    "Multiplier",
    "multiplier_values_for",
    # optim
    "SCHEMES",
    "AdamLike",
    "AssembledLagrangian",
    "DualOptimizer",
    "GradientAscent",
    "GradientDescent",
    "Momentum",
    "NuPI",
    "PrimalDualOptimizers",
    "PrimalOptimizer",
    "RollOut",
    "assemble",
    "dual_step",
    "make_dual_optimizers",
    "primal_step",
    "roll",
    "roll_alternating_dual_primal",
    "roll_alternating_primal_dual",
    "roll_extragradient",
    "roll_simultaneous",
    # problems
    "PROBLEM_NAMES",
    "BenchmarkProblem",
    "CertifiedSolution",
    "ConstraintBlock",
    "KKTResidual",
    "current_kkt_residual",
    "kkt_residual",
    "normal_stream",
    "problem_bilinear_game",
    "problem_equality_qp",
    "problem_norm_constrained_logreg",
    "problem_projection_ball",
    "splitmix64",
    "two_gaussian_dataset",
]
