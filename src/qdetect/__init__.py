"""Numerical toolkit for quantum detection relations and value assignment.

The core objects are finite-dimensional projections and density operators.
On top of them the package implements the detection relation (a detector
property standing in for a measured one at a fixed state), the unique
consistent joint probability assignment for arbitrary projection pairs, a
four-qubit no-go construction showing detector outcomes cannot be read as
pre-existing measured values, and a counter-based Monte Carlo sampler that
certifies the correlation statements on concrete specimen ensembles.
"""

from .errors import (
    CoMeasurabilityError,
    DimensionError,
    LemmaViolationError,
    PreconditionError,
    ScenarioFormatError,
    ToolkitError,
    UndefinedConditionalError,
    UnknownObservableError,
    ValidationError,
)
from .numerics import (
    CMatrix,
    DEFAULT_TOL,
    EIG_CUT,
    MAX_DIM,
    Tolerance,
    dist,
    eigh,
    identity,
    kernel_projector,
    kron,
    mul,
    outer,
    trace,
    zeros,
)
from .observables import (
    DensityOperator,
    Projection,
    commutation_projection,
    commutator_defect,
    commutes,
    complement,
    derived_projection,
)
from .detection import (
    DetectionCheck,
    complement_lemma_check,
    detects,
    refinement_check,
)
from .assignment import (
    AssignmentProbabilities,
    JointDistribution,
    SimulationEquality,
    assignment_probs,
    check_C3,
    cond_prob,
    joint_distribution,
    simulation_equalities,
)
from .scenarios import (
    AdditivityClaim,
    CommonDetectorClaim,
    CommutationClaim,
    ConstraintClaim,
    ConstraintSet,
    CzClaim,
    DetectionClaim,
    FormEqualityClaim,
    Scenario,
    SignEquation,
    SumRuleClaim,
    build_example_44,
    build_ghsz,
    build_rt_analogue,
    ghsz_sign_constraints,
    load_scenario,
    save_scenario,
    verify_example_44,
    verify_ghsz,
    verify_scenario,
)
from .ensemble import (
    Ensemble,
    check_support_statements,
    detection_frequency_audit,
    sample_ensemble,
)
from .reporting import CheckResult, Report

__version__ = "0.1.0"
