#!/usr/bin/env python3
"""Worst-case-weighted logistic regression at desk scale.

Builds the synthetic classification dataset, assembles the saddle problem
(box-constrained classifier against an adversarial reweighting of the
per-datum losses), produces a reference whose distance from the saddle is
certified by a Frank-Wolfe gap, and runs the randomized solver with
block-specific growing batches.
"""

import numpy as np

from rbpda.experiments import baseline_stepsizes, erm_reference
from rbpda.metrics import certified_gap, lagrangian_gap
from rbpda.problems import generate_robust_erm, robust_erm_problem
from rbpda.solver import SolverConfig, run

n, m = 80, 160
data = generate_robust_erm(7, n, m, flip_prob=0.1)
print(f"dataset: {n} samples x {m} features, 10% labels flipped, seed {data.seed}")

# Single entropy-simplex dual block: the adversary's weights live on the
# probability simplex and update multiplicatively.
entropy_problem = robust_erm_problem(data, radius=10.0, m_blocks=1, n_blocks=1)
print(f"\nentropy configuration: {entropy_problem.name}")
tau, sigma = baseline_stepsizes(entropy_problem)
print(f"baseline step sizes: tau = {tau:.3e}, sigma = {sigma:.3e}")
# Its reference smooths the worst-case loss max_l loss_l(x) into
# mu * logsumexp(loss / mu) and minimizes that by FISTA with a backtracking
# step; the adversary's weights are softmax(loss / mu).
entropy_ref = erm_reference(entropy_problem, iters=10_000)
entropy_start = certified_gap(entropy_problem, (entropy_problem.start_x, entropy_problem.start_y))
print(
    f"smoothed-FISTA reference: certified gap {certified_gap(entropy_problem, entropy_ref):.3e}, "
    f"start point {entropy_start:.3f}, largest weight {entropy_ref[1].max():.3f}"
)

# Per-coordinate [0, 1] boxes let the dual split into n blocks of size one
# (the simplex does not separate across blocks); this is the configuration
# the randomized solver exercises.
problem = robust_erm_problem(data, radius=10.0, m_blocks=4, n_blocks=n)
print(f"\nblocked configuration: {problem.name}")
print(f"dual box relaxation recorded: {problem.notes['dual_box_relaxation']}")

# With dual boxes the saddle's weights are all 1 (every loss is positive), so
# the reference minimizes the total loss over the primal box by FISTA and
# stops once its certified gap is 1e-4 of the start point's.
reference = erm_reference(problem, iters=10_000)
losses_at = lambda x: np.logaddexp(0.0, -data.b * (data.A @ x))
print(f"FISTA reference: |x*| = {np.linalg.norm(reference[0]):.3f}, total loss {losses_at(reference[0]).sum():.4f}")
start_cert = certified_gap(problem, (problem.start_x, problem.start_y))
print(
    f"certified gap (upper bound): reference {certified_gap(problem, reference):.3e}, "
    f"start point {start_cert:.3f}"
)

gap0 = lagrangian_gap(problem, (problem.start_x, problem.start_y), reference)
print(f"initial gap vs reference: {gap0:.3f}")

cfg = SolverConfig(
    mode="increasing_batch",
    max_iters=4000,
    seed=1,
    restart_enabled=True,
    checkpoint_every=400,
    compute_sup_gap=False,
)
result = run(problem, cfg, reference=reference)
print("\nrandomized run (one primal block + one dual coordinate per iteration):")
print(f"{'k':>6} {'batch budget':>14} {'gap':>12}")
for row in result.trace.rows:
    print(f"{row.k:6d} {row.grad_budget:14d} {row.gap_ref:12.4f}")
print(f"\ncomponent-gradient budget: {result.grad_budget}")
print(f"dual partial-gradient evaluations (logged separately): {result.dual_grad_evals}")
print(f"restarts triggered: {result.restarts}")
print(
    "\nNote: the certified worst-case step sizes are extremely conservative at"
    "\nthis block count, so randomized progress per unit budget is slow; the"
    "\naccelerated full-gradient solve above is the fast way to a reference point."
)
