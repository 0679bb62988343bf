"""Aggregate constants, theorem step-size formulas, and the condition validator."""

import numpy as np
import pytest

from rbpda.stepsize import (
    AggregateConstants,
    BlockLipschitz,
    FreeParams,
    StepSchedule,
    aggregate_constants,
    constant_stepsizes,
    default_free_params,
    diminishing_stepsizes,
    schedule_t,
    schedule_theta,
    validate_stepsize_condition,
)


def _lip(Lxx, Lxy, Lyy, Lyx):
    return BlockLipschitz(np.asarray(Lxx, float), np.asarray(Lxy, float), np.asarray(Lyy, float), np.asarray(Lyx, float))


class TestAggregates:
    def test_single_block_single_entry(self):
        lip = _lip([[0.0]], [[1.0]], [[0.0]], [[2.0]])
        agg = aggregate_constants(lip, 1, 1)
        assert agg.L_yx[0] == pytest.approx(2.0)

    def test_hand_rms(self):
        lip = _lip([[3.0, 0.5], [4.0, 0.5]], np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 2)))
        agg = aggregate_constants(lip, 2, 2)
        assert agg.C_x[0] == pytest.approx(np.sqrt(12.5))

    def test_zero_family(self):
        lip = _lip(np.zeros((2, 2)), np.ones((2, 3)), np.zeros((3, 3)), np.ones((3, 2)))
        agg = aggregate_constants(lip, 2, 3)
        np.testing.assert_allclose(agg.C_y, 0.0)

    def test_direct_recomputation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            M, N = rng.integers(1, 5), rng.integers(1, 5)
            lip = _lip(
                rng.uniform(0, 5, (M, M)),
                rng.uniform(0.1, 5, (M, N)),
                rng.uniform(0, 5, (N, N)),
                rng.uniform(0.1, 5, (N, M)),
            )
            agg = aggregate_constants(lip, M, N)
            for i in range(M):
                assert agg.L_yx[i] == pytest.approx(
                    np.sqrt(np.mean(lip.Lyx[:, i] ** 2)), abs=1e-12
                )
                assert agg.C_x[i] == pytest.approx(np.sqrt(np.mean(lip.Lxx[:, i] ** 2)), abs=1e-12)
            for j in range(N):
                assert agg.L_xy[j] == pytest.approx(np.sqrt(np.mean(lip.Lxy[:, j] ** 2)), abs=1e-12)
                assert agg.C_y[j] == pytest.approx(np.sqrt(np.mean(lip.Lyy[:, j] ** 2)), abs=1e-12)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            _lip([[-1.0]], [[1.0]], [[0.0]], [[1.0]])

    def test_broadcast(self):
        lip = BlockLipschitz.broadcast(2, 3, lxx=1.0, lxy=2.0, lyy=0.0, lyx=4.0)
        assert lip.Lxy.shape == (2, 3) and lip.Lyx[0, 0] == 4.0


class TestDefaultFreeParams:
    def test_gamma1_from_mean(self):
        agg = aggregate_constants(_lip(np.ones((2, 2)), np.ones((2, 1)), [[0.0]], np.ones((1, 2))), 2, 1)
        fp = default_free_params(agg, 2, 1)
        assert fp.gamma1 == pytest.approx(2.0 / (agg.C_x.sum()))

    def test_zero_group_fallback(self):
        agg = aggregate_constants(_lip([[0.0]], [[1.0]], [[0.0]], [[1.0]]), 1, 1)
        fp = default_free_params(agg, 1, 1)
        assert fp.lambda1 == 1.0 and fp.gamma1 == 1.0

    def test_lambda2_hand_value(self):
        agg = aggregate_constants(_lip([[0.0]], [[1.0]], [[0.0]], [[2.0]]), 1, 1)
        fp = default_free_params(agg, 1, 1)
        assert fp.lambda2 == pytest.approx(0.5)

    def test_alpha_scaling_per_mode(self):
        agg = aggregate_constants(_lip(np.ones((3, 3)), np.ones((3, 4)), np.zeros((4, 4)), np.ones((4, 3))), 3, 4)
        assert default_free_params(agg, 3, 4, "constant").alpha[0] == 12.0
        assert default_free_params(agg, 3, 4, "diminishing").alpha[0] == 4.0


class TestConstantStepsizes:
    def test_single_block_hand_tau(self):
        # L_xx = 1, lambda2 = 1, L_yx = 1, alpha = 1, delta = 0 -> tau = 1/3
        agg = aggregate_constants(_lip([[1.0]], [[1.0]], [[0.0]], [[1.0]]), 1, 1)
        fp = FreeParams(1.0, 1.0, 1.0, 1.0, np.array([1.0]))
        tau, _ = constant_stepsizes(agg, fp, 1, 1)
        assert tau[0] == pytest.approx(1.0 / 3.0)

    def test_single_block_hand_sigma(self):
        agg = aggregate_constants(_lip([[0.0]], [[1.0]], [[0.0]], [[1.0]]), 1, 1)
        fp = FreeParams(1.0, 1.0, 1.0, 1.0, np.array([1.0]))
        _, sigma = constant_stepsizes(agg, fp, 1, 1)
        assert sigma[0] == pytest.approx(0.5)

    def test_alpha_monotonicity(self):
        agg = aggregate_constants(_lip([[1.0]], [[1.0]], [[0.0]], [[1.0]]), 1, 1)
        t1, _ = constant_stepsizes(agg, FreeParams(1, 1, 1, 1, np.array([1.0])), 1, 1)
        t2, _ = constant_stepsizes(agg, FreeParams(1, 1, 1, 1, np.array([2.0])), 1, 1)
        assert t2[0] < t1[0]

    def test_scale_factor(self):
        agg = aggregate_constants(_lip([[1.0]], [[1.0]], [[0.0]], [[1.0]]), 1, 1)
        fp = FreeParams(1, 1, 1, 1, np.array([1.0]))
        tau_full, _ = constant_stepsizes(agg, fp, 1, 1)
        tau_half, _ = constant_stepsizes(agg, fp, 1, 1, scale=0.5)
        assert tau_half[0] == pytest.approx(0.5 * tau_full[0])
        with pytest.raises(ValueError):
            constant_stepsizes(agg, fp, 1, 1, scale=1.5)


class TestDiminishingSchedule:
    def test_anchor_values(self):
        assert schedule_t(0, 0.0) == 1.0
        assert schedule_theta(0, 0.7) == 1.0

    def test_k1_eta0_values(self):
        assert schedule_t(1, 0.0) == pytest.approx(2.0**-0.5)
        assert schedule_theta(1, 0.0) == pytest.approx(2.0**0.5)

    def test_t_theta_identity(self):
        for eta in (0.0, 0.5):
            for k in range(11):
                assert abs(schedule_t(k, eta) - schedule_t(k + 1, eta) * schedule_theta(k + 1, eta)) <= 1e-14

    def test_eta_range_rejected(self):
        agg = aggregate_constants(_lip([[1.0]], [[1.0]], [[0.0]], [[1.0]]), 1, 1)
        fp = default_free_params(agg, 1, 1, "diminishing")
        with pytest.raises(ValueError):
            diminishing_stepsizes(agg, fp, 1, 1, 1.0, 0)

    def test_scaled_monotonicity(self):
        # the guaranteed form: t^k / tau^k and t^k / sigma^k are nonincreasing
        rng = np.random.default_rng(3)
        for _ in range(10):
            M, N = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            lip = _lip(
                rng.uniform(0, 5, (M, M)),
                rng.uniform(0.1, 5, (M, N)),
                rng.uniform(0, 5, (N, N)),
                rng.uniform(0.1, 5, (N, M)),
            )
            agg = aggregate_constants(lip, M, N)
            fp = default_free_params(agg, M, N, "diminishing")
            for eta in (0.0, 0.5):
                prev_tau = prev_sigma = None
                for k in range(0, 60):
                    tau, sigma, _, t = diminishing_stepsizes(agg, fp, M, N, eta, k)
                    if prev_tau is not None:
                        assert np.all(t_prev / prev_tau >= t / tau * (1 - 1e-12) - 1e-15)
                        assert np.all(t_prev / prev_sigma >= t / sigma * (1 - 1e-12) - 1e-15)
                    prev_tau, prev_sigma, t_prev = tau, sigma, t

    def test_large_k_plain_monotonicity(self):
        # once the 1/t^k noise term dominates the decaying momentum term the raw
        # steps themselves shrink monotonically
        rng = np.random.default_rng(4)
        for _ in range(10):
            M, N = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            lip = _lip(
                rng.uniform(0, 5, (M, M)),
                rng.uniform(0.1, 5, (M, N)),
                rng.uniform(0, 5, (N, N)),
                rng.uniform(0.1, 5, (N, M)),
            )
            agg = aggregate_constants(lip, M, N)
            fp = default_free_params(agg, M, N, "diminishing")
            taus = np.array([diminishing_stepsizes(agg, fp, M, N, 0.0, k)[0] for k in range(32, 200)])
            sigmas = np.array([diminishing_stepsizes(agg, fp, M, N, 0.0, k)[1] for k in range(32, 200)])
            assert np.all(np.diff(taus, axis=0) <= 1e-15)
            assert np.all(np.diff(sigmas, axis=0) <= 1e-15)


def _random_lip(rng, M, N):
    return _lip(
        rng.uniform(0, 5, (M, M)),
        rng.uniform(0.05, 5, (M, N)),
        rng.uniform(0, 5, (N, N)),
        rng.uniform(0.05, 5, (N, M)),
    )


class TestStepsizeCondition:
    def test_constant_schedule_passes_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            M, N = int(rng.choice([1, 2, 4])), int(rng.choice([1, 2, 4]))
            agg = aggregate_constants(_random_lip(rng, M, N), M, N)
            fp = default_free_params(agg, M, N, "constant")
            sched = StepSchedule(mode="constant", M=M, N=N, agg=agg, fp=fp)
            report = validate_stepsize_condition(sched, agg, fp, M, N, k_max=5)
            assert report.passed, report.min_slacks

    def test_diminishing_schedule_passes_random_draws(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            M, N = int(rng.choice([1, 2, 4])), int(rng.choice([1, 2, 4]))
            eta = float(rng.choice([0.0, 0.25, 0.5]))
            agg = aggregate_constants(_random_lip(rng, M, N), M, N)
            fp = default_free_params(agg, M, N, "diminishing")
            sched = StepSchedule(mode="diminishing", M=M, N=N, agg=agg, fp=fp, eta=eta)
            report = validate_stepsize_condition(sched, agg, fp, M, N, k_max=200)
            assert report.passed, report.min_slacks

    def test_doubled_tau_violates(self):
        rng = np.random.default_rng(7)
        agg = aggregate_constants(_random_lip(rng, 2, 2), 2, 2)
        fp = default_free_params(agg, 2, 2, "constant")
        sched = StepSchedule(mode="constant", M=2, N=2, agg=agg, fp=fp)
        sched._tau0 = 2.0 * sched._tau0
        report = validate_stepsize_condition(sched, agg, fp, 2, 2, k_max=2)
        assert not report.passed
        assert report.min_slacks["primal_lipschitz"] < 0

    def test_zero_coupling_alpha_margin(self):
        # all coupling constants zero, tau = sigma = 1/alpha: only the alpha
        # margin binds and the validator passes with zero slack
        agg = AggregateConstants(
            L_yx=np.zeros(1), C_x=np.zeros(1), L_xy=np.zeros(1), C_y=np.zeros(1),
            Lxx_diag=np.zeros(1), Lyy_diag=np.zeros(1),
        )
        fp = FreeParams(1.0, 1.0, 1.0, 1.0, np.array([2.0]))
        sched = StepSchedule(mode="constant", M=1, N=1, agg=agg, fp=fp)
        np.testing.assert_allclose(sched.tau(0), [0.5])
        report = validate_stepsize_condition(sched, agg, fp, 1, 1, k_max=3)
        assert report.passed

    def test_delta_bar_adds_slack(self):
        rng = np.random.default_rng(8)
        agg = aggregate_constants(_random_lip(rng, 2, 3), 2, 3)
        fp = default_free_params(agg, 2, 3, "constant", delta_bar=0.1)
        sched = StepSchedule(mode="constant", M=2, N=3, agg=agg, fp=fp)
        report = validate_stepsize_condition(sched, agg, fp, 2, 3, k_max=2)
        assert report.min_slacks["primal_lipschitz"] >= 0.1 - 1e-9
        assert report.min_slacks["dual_lipschitz"] >= 0.1 - 1e-9


def _explicit_diminishing(agg, fp, M, N, eta, k, scale):
    # Reference: the diminishing step formula written out as one expression.
    g1, g2, l1, l2, db = fp.gamma1, fp.gamma2, fp.lambda1, fp.lambda2, fp.delta_bar
    th = schedule_theta(k, eta)
    t = schedule_t(k, eta)
    tau_den = (
        agg.Lxx_diag
        + (N - 1) * th * (1.0 / g1 + 1.0 / g2)
        + N * l2 * agg.L_yx**2
        + g1 * (N - 1) * agg.C_x**2
        + ((N - 1) / M) / g2
        + ((fp.alpha + db) / M) / t
    )
    sigma_den = (
        agg.Lyy_diag
        + M * th * (1.0 / l1 + 1.0 / l2)
        + M * l1 * agg.C_y**2
        + (M + 1) * ((N - 1) / N) * g2 * agg.L_xy**2
        + ((fp.beta + db) / N) / t
    )
    return scale / (M * tau_den), scale / (N * sigma_den)


class TestPerBlockSteps:
    @pytest.mark.parametrize("M,N", [(1, 1), (3, 5), (10, 200)])
    def test_block_steps_equal_vector_entries(self, M, N):
        # the solver reads one step per side; each must be the exact float of
        # the vector formula, for every k, eta, scale and delta_bar
        rng = np.random.default_rng(10 * M + N)
        agg = aggregate_constants(_random_lip(rng, M, N), M, N)
        for delta_bar in (0.0, 0.1):
            fp_c = default_free_params(agg, M, N, "constant", delta_bar=delta_bar)
            fp_d = default_free_params(agg, M, N, "diminishing", delta_bar=delta_bar)
            for scale in (1.0, 0.37):
                sched = StepSchedule(mode="constant", M=M, N=N, agg=agg, fp=fp_c, scale=scale)
                tau, sigma = constant_stepsizes(agg, fp_c, M, N, scale)
                for k in (0, 300):
                    assert [sched.tau(k, i) for i in range(M)] == tau.tolist()
                    assert [sched.sigma(k, j) for j in range(N)] == sigma.tolist()
                for eta in (0.0, 0.3, 0.9):
                    sched = StepSchedule(
                        mode="diminishing", M=M, N=N, agg=agg, fp=fp_d, eta=eta, scale=scale
                    )
                    for k in range(301):
                        tau, sigma, th, t = diminishing_stepsizes(agg, fp_d, M, N, eta, k, scale)
                        ref_tau, ref_sigma = _explicit_diminishing(agg, fp_d, M, N, eta, k, scale)
                        assert tau.tolist() == ref_tau.tolist()
                        assert sigma.tolist() == ref_sigma.tolist()
                        assert [sched.tau(k, i) for i in range(M)] == tau.tolist()
                        assert [sched.sigma(k, j) for j in range(N)] == sigma.tolist()
                        assert (sched.theta(k), sched.t(k)) == (th, t)
                    assert type(sched.tau(0, 0)) is float and type(sched.sigma(0, 0)) is float
                    assert np.array_equal(sched.tau(7), diminishing_stepsizes(agg, fp_d, M, N, eta, 7, scale)[0])

    def test_block_index_out_of_range(self):
        agg = aggregate_constants(_lip([[1.0]], [[1.0]], [[0.0]], [[1.0]]), 1, 1)
        fp = default_free_params(agg, 1, 1, "diminishing")
        sched = StepSchedule(mode="diminishing", M=1, N=1, agg=agg, fp=fp)
        with pytest.raises(IndexError):
            sched.tau(0, 1)
