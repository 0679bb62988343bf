"""Randomized block-coordinate primal-dual solver for finite-sum saddle problems.

The public surface mirrors the module layout: block/problem containers in
:mod:`rbpda.blocks`, Bregman prox machinery in :mod:`rbpda.bregman`, step-size
formulas and their validator in :mod:`rbpda.stepsize`, seeded sampling in
:mod:`rbpda.sampling`, the solver in :mod:`rbpda.solver`, convergence metrics
in :mod:`rbpda.metrics`, benchmark problems in :mod:`rbpda.problems`, and the
experiment runner in :mod:`rbpda.experiments`.
"""

from .blocks import (
    BlockLayout,
    BlockStructure,
    ProxSpec,
    SaddleProblem,
    validate_problem,
)
from .bregman import EUCLIDEAN, NEGATIVE_ENTROPY, BregmanGeometry, bregman_distance, prox_step
from .metrics import ConvergenceTrace, RateFit, certified_gap, fit_rate, lagrangian_gap, sup_gap
from .sampling import BatchSchedule, BlockCounters, expected_inverse_batch, make_rng
from .solver import (
    ErgodicAccumulator,
    RunResult,
    SolverConfig,
    deterministic_baseline_run,
    rbpda_step,
    run,
)
from .stepsize import (
    AggregateConstants,
    BlockLipschitz,
    FreeParams,
    StepSchedule,
    aggregate_constants,
    constant_stepsizes,
    default_free_params,
    validate_stepsize_condition,
)

__version__ = "0.1.0"
