"""Seeded draws, batch schedules, counters, and the gradient estimator."""

import numpy as np
import pytest

from rbpda.problems import generate_robust_erm, robust_erm_problem
from rbpda.sampling import (
    BatchSchedule,
    BlockCounters,
    draw_block,
    expected_inverse_batch,
    make_rng,
    next_batch_size,
    sample_indices,
    estimate_partial_grad_x,
)


class TestRngContract:
    def test_bitwise_reproducibility(self):
        rng1 = make_rng(42)
        rng2 = make_rng(42)
        a = [draw_block(rng1, 7) for _ in range(50)]
        b = [draw_block(rng2, 7) for _ in range(50)]
        assert a == b

    def test_single_index_draw_matches_size_one(self):
        # v = 1 takes a scalar draw; indices, dtype and generator state must
        # match rng.integers(0, p, size=1) exactly
        for p in (1, 2, 3, 7, 200, 1000):
            for seed in range(200):
                rng, ref = make_rng(seed), make_rng(seed)
                got = np.concatenate([sample_indices(rng, 1, p) for _ in range(200)])
                want = np.concatenate([ref.integers(0, p, size=1) for _ in range(200)])
                assert got.dtype == want.dtype and np.array_equal(got, want), (p, seed)
                assert rng.bit_generator.state == ref.bit_generator.state, (p, seed)

    def test_streams_independent(self):
        s0 = sample_indices(make_rng(1, 0), 100, 1000).tolist()
        s1 = sample_indices(make_rng(1, 1), 100, 1000).tolist()
        assert s0 != s1
        assert s0 == sample_indices(make_rng(1, 0), 100, 1000).tolist()


class TestDrawBlock:
    def test_count_one(self):
        rng = make_rng(0)
        assert all(draw_block(rng, 1) == 0 for _ in range(20))

    def test_uniformity_four_sigma(self):
        rng = make_rng(123)
        n, count = 100_000, 4
        draws = np.array([draw_block(rng, count) for _ in range(n)])
        freq = np.bincount(draws, minlength=count) / n
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(freq - 0.25) <= 4 * sigma)
        # chi-square with 3 dof; 16.27 is the 0.001 tail
        expected = n / count
        chi2 = np.sum((np.bincount(draws, minlength=count) - expected) ** 2 / expected)
        assert chi2 <= 16.27


class TestBatchSchedule:
    def test_increasing_eta0_first_pick(self):
        sched = BatchSchedule.increasing(0.0)
        counters = BlockCounters.zeros(3)
        assert next_batch_size(sched, counters, 1, k=17, p=100) == 1
        assert counters.counts.tolist() == [0, 1, 0]

    def test_cap_at_p(self):
        sched = BatchSchedule.increasing(0.0)
        counters = BlockCounters(np.array([105, 0]))
        assert next_batch_size(sched, counters, 0, k=200, p=100) == 100

    def test_eta1_formula(self):
        sched = BatchSchedule.increasing(1.0)
        counters = BlockCounters(np.array([2]))
        assert next_batch_size(sched, counters, 0, k=3, p=100) == 12

    def test_saturation_cap(self):
        sched = BatchSchedule.increasing(0.0, saturation_fraction=0.9)
        counters = BlockCounters(np.array([99]))
        assert next_batch_size(sched, counters, 0, k=99, p=10) == 9

    def test_constant_over_p_rejected(self):
        with pytest.raises(ValueError):
            BatchSchedule.constant(11, 10)
        sched = BatchSchedule.constant(3, 10)
        counters = BlockCounters.zeros(2)
        assert next_batch_size(sched, counters, 0, k=5, p=10) == 3
        # constant mode leaves the counters alone
        assert counters.total == 0

    def test_counter_conservation(self):
        rng = make_rng(9)
        sched = BatchSchedule.increasing(0.0)
        counters = BlockCounters.zeros(5)
        for k in range(500):
            i = draw_block(rng, 5)
            next_batch_size(sched, counters, i, k, p=10**6)
            assert counters.total == k + 1


class TestSampleIndices:
    def test_p_one(self):
        assert set(sample_indices(make_rng(0), 50, 1).tolist()) == {0}

    def test_uniform_frequencies(self):
        idx = sample_indices(make_rng(5), 100_000, 10)
        freq = np.bincount(idx, minlength=10) / idx.size
        sigma = np.sqrt(0.1 * 0.9 / idx.size)
        assert np.all(np.abs(freq - 0.1) <= 4 * sigma)

    def test_seed_determinism(self):
        assert sample_indices(make_rng(7), 64, 99).tolist() == sample_indices(make_rng(7), 64, 99).tolist()


@pytest.fixture(scope="module")
def small_erm():
    data = generate_robust_erm(21, 16, 6, 0.1)
    return robust_erm_problem(data, radius=2.0, m_blocks=2, n_blocks=16)


class TestEstimator:
    def test_enumeration_equals_full_gradient(self, small_erm):
        prob = small_erm
        rng = make_rng(3)
        x = rng.uniform(-1, 1, 6)
        y = np.abs(rng.standard_normal(16))
        y /= y.sum()
        for i in range(2):
            est = estimate_partial_grad_x(prob, np.arange(prob.p), i, [(x, y)])
            np.testing.assert_allclose(est[0], prob.grad_x(i, x, y), atol=1e-12)

    def test_single_index_exact(self, small_erm):
        prob = small_erm
        x = np.zeros(6)
        y = np.full(16, 1 / 16)
        est = estimate_partial_grad_x(prob, np.array([4]), 0, [(x, y)])
        np.testing.assert_allclose(est[0], prob.component_grad_x(4, 0, x, y))
        assert est.shape == (1, 3)  # one point, one primal block of dimension 3

    def test_monte_carlo_unbiased(self, small_erm):
        prob = small_erm
        rng = make_rng(11)
        x = rng.uniform(-1, 1, 6)
        y = np.abs(rng.standard_normal(16))
        y /= y.sum()
        full = prob.grad_x(0, x, y)
        draws = np.stack(
            [
                estimate_partial_grad_x(prob, sample_indices(rng, 1, prob.p), 0, [(x, y)])[0]
                for _ in range(10_000)
            ]
        )
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - full) <= 4 * stderr + 1e-12)


class TestExpectedInverseBatch:
    def test_hand_value_m2_k9(self):
        exact, bound = expected_inverse_batch(2, 9, 0.0)
        assert exact == pytest.approx(0.1998046875, abs=1e-10)
        assert exact == pytest.approx(0.1998047, abs=1e-6)
        assert exact <= bound == pytest.approx(0.2)

    def test_m1_every_iteration(self):
        for k in (0, 3, 10):
            exact, bound = expected_inverse_batch(1, k, 0.0)
            assert exact == pytest.approx(1.0 / (k + 1))
            assert bound == pytest.approx(1.0 / (k + 1))

    def test_k0(self):
        exact, bound = expected_inverse_batch(5, 0, 0.0)
        assert exact == pytest.approx(1.0)
        assert exact <= bound

    def test_exact_below_bound_generally(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            M = int(rng.integers(1, 10))
            k = int(rng.integers(0, 200))
            eta = float(rng.uniform(0, 2))
            exact, bound = expected_inverse_batch(M, k, eta)
            assert exact <= bound + 1e-15

    def test_empirical_bound(self):
        # simulated selection sequences against the analytic bound
        for M in (2, 4):
            for k in (9, 99):
                rng = make_rng(1000 + 10 * M + k)
                invs = np.empty(10_000)
                for t in range(invs.size):
                    picks = rng.integers(0, M, size=k)
                    I = int(np.sum(picks == 0))
                    invs[t] = 1.0 / (I + 1)
                stderr = invs.std(ddof=1) / np.sqrt(invs.size)
                assert invs.mean() <= M / (k + 1) + 3 * stderr

    def test_simulation_matches_exact_binomial(self):
        rng = make_rng(77)
        M, k = 2, 9
        invs = np.empty(20_000)
        for t in range(invs.size):
            picks = rng.integers(0, M, size=k)
            invs[t] = 1.0 / (int(np.sum(picks == 0)) + 1)
        exact, _ = expected_inverse_batch(M, k, 0.0)
        stderr = invs.std(ddof=1) / np.sqrt(invs.size)
        assert abs(invs.mean() - exact) <= 4 * stderr
