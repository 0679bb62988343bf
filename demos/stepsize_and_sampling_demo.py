#!/usr/bin/env python3
"""The step-size machinery and the block-specific sampling rule, in isolation.

Shows: aggregating block Lipschitz constants, the two step regimes, the
numeric validator for the step-size condition, and the statistics of the
growing batch rule (the expected inverse batch size has a closed binomial
form that the empirical counters reproduce).
"""

import numpy as np

from rbpda.sampling import BatchSchedule, BlockCounters, expected_inverse_batch, make_rng, next_batch_size
from rbpda.stepsize import (
    BlockLipschitz,
    StepSchedule,
    aggregate_constants,
    default_free_params,
    validate_stepsize_condition,
)

rng = np.random.default_rng(0)
M, N = 3, 2
lip = BlockLipschitz(
    Lxx=rng.uniform(0, 4, (M, M)),
    Lxy=rng.uniform(0.5, 4, (M, N)),
    Lyy=np.zeros((N, N)),
    Lyx=rng.uniform(0.5, 4, (N, M)),
)
agg = aggregate_constants(lip)
print(f"aggregates: C_x = {np.round(agg.C_x, 3)}, L_yx = {np.round(agg.L_yx, 3)}")

for mode in ("constant", "diminishing"):
    fp = default_free_params(agg, mode)
    sched = StepSchedule(mode=mode, agg=agg, fp=fp, eta=0.0)
    report = validate_stepsize_condition(sched, k_max=200)
    name, slack = report.worst()
    print(f"\n{mode} schedule:")
    print(f"  tau(0)   = {np.round(sched.tau(0), 5)}")
    print(f"  sigma(0) = {np.round(sched.sigma(0), 5)}")
    if mode == "diminishing":
        print(f"  tau(100) = {np.round(sched.tau(100), 5)}  (t(100) = {sched.t(100):.4f})")
    print(f"  condition check over k <= 200: passed = {report.passed}, tightest = {name} ({slack:.2e})")

# An inadmissibly aggressive schedule is caught numerically.
fp = default_free_params(agg, "constant")
bad = StepSchedule(mode="constant", agg=agg, fp=fp)
bad._tau0 = 3.0 * bad._tau0
report = validate_stepsize_condition(bad, k_max=5)
print(f"\ntripled primal steps: passed = {report.passed}, min slack = {min(report.min_slacks.values()):.3f}")

# Batch sizes grow with each block's own selection count, not the global clock.
print("\ngrowing batches on a p = 40 problem, 3 primal blocks:")
sched = BatchSchedule.increasing(eta=0.0)
counters = BlockCounters.zeros(M)
stream = make_rng(42)
draws = []
for k in range(12):
    i = int(stream.integers(M))
    v = next_batch_size(sched, counters, i, k, p=40)
    draws.append((k, i, v))
print("  (k, block, batch):", draws)
print("  selection counts:", counters.counts.tolist())

exact, bound = expected_inverse_batch(M=3, k=30, eta=0.0)
picks = make_rng(7).integers(0, 3, size=(20_000, 30))
empirical = float(np.mean(1.0 / (np.sum(picks == 0, axis=1) + 1.0)))
print(f"\nexpected inverse batch at k = 30: exact {exact:.5f} <= bound {bound:.5f}; empirical {empirical:.5f}")
