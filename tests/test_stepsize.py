"""Aggregate constants, theorem step-size formulas, and the condition validator."""

import numpy as np
import pytest

from rbpda import stepsize
from rbpda.problems import generate_robust_erm, robust_erm_problem
from rbpda.solver import SolverConfig, build_schedule
from rbpda.stepsize import (
    AggregateConstants,
    BlockLipschitz,
    FreeParams,
    StepSchedule,
    aggregate_constants,
    constant_stepsizes,
    default_free_params,
    schedule_t,
    schedule_theta,
    validate_stepsize_condition,
)


def _lip(Lxx, Lxy, Lyy, Lyx):
    return BlockLipschitz(np.asarray(Lxx, float), np.asarray(Lxy, float), np.asarray(Lyy, float), np.asarray(Lyx, float))


class TestAggregates:
    def test_single_block_single_entry(self):
        lip = _lip([[0.0]], [[1.0]], [[0.0]], [[2.0]])
        agg = aggregate_constants(lip)
        assert agg.L_yx[0] == pytest.approx(2.0)

    def test_hand_rms(self):
        lip = _lip([[3.0, 0.5], [4.0, 0.5]], np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 2)))
        agg = aggregate_constants(lip)
        assert agg.C_x[0] == pytest.approx(np.sqrt(12.5))

    def test_zero_family(self):
        lip = _lip(np.zeros((2, 2)), np.ones((2, 3)), np.zeros((3, 3)), np.ones((3, 2)))
        agg = aggregate_constants(lip)
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
            agg = aggregate_constants(lip)
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

    def test_whole_primal_bound(self):
        lxx = [[3.0, 4.0], [4.0, 3.0]]
        folded = _lip(lxx, [[1.0], [1.0]], [[0.0]], [[1.0, 1.0]])
        assert folded.Lxx_whole is None and folded.primal_whole() == pytest.approx(7.0, rel=1e-12)
        given = BlockLipschitz(folded.Lxx, folded.Lxy, folded.Lyy, folded.Lyx, Lxx_whole=2)
        assert given.primal_whole() == 2.0
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="Lxx_whole"):
                BlockLipschitz(folded.Lxx, folded.Lxy, folded.Lyy, folded.Lyx, Lxx_whole=bad)


class TestDefaultFreeParams:
    def test_gamma1_from_mean(self):
        agg = aggregate_constants(_lip(np.ones((2, 2)), np.ones((2, 1)), [[0.0]], np.ones((1, 2))))
        fp = default_free_params(agg)
        assert fp.gamma1 == pytest.approx(2.0 / (agg.C_x.sum()))

    def test_zero_group_fallback(self):
        agg = aggregate_constants(_lip([[0.0]], [[1.0]], [[0.0]], [[1.0]]))
        fp = default_free_params(agg)
        assert fp.lambda1 == 1.0 and fp.gamma1 == 1.0

    def test_lambda2_hand_value(self):
        agg = aggregate_constants(_lip([[0.0]], [[1.0]], [[0.0]], [[2.0]]))
        fp = default_free_params(agg)
        assert fp.lambda2 == pytest.approx(0.5)

    def test_alpha_scaling_per_mode(self):
        agg = aggregate_constants(_lip(np.ones((3, 3)), np.ones((3, 4)), np.zeros((4, 4)), np.ones((4, 3))))
        assert default_free_params(agg, "constant").alpha[0] == 12.0
        assert default_free_params(agg, "diminishing").alpha[0] == 4.0


class TestConstantStepsizes:
    def test_single_block_hand_tau(self):
        # L_xx = 1, lambda2 = 1, L_yx = 1, alpha = 1, delta = 0 -> tau = 1/3
        agg = aggregate_constants(_lip([[1.0]], [[1.0]], [[0.0]], [[1.0]]))
        fp = FreeParams(1.0, 1.0, 1.0, 1.0, np.array([1.0]))
        tau, _ = constant_stepsizes(agg, fp)
        assert tau[0] == pytest.approx(1.0 / 3.0)

    def test_single_block_hand_sigma(self):
        agg = aggregate_constants(_lip([[0.0]], [[1.0]], [[0.0]], [[1.0]]))
        fp = FreeParams(1.0, 1.0, 1.0, 1.0, np.array([1.0]))
        _, sigma = constant_stepsizes(agg, fp)
        assert sigma[0] == pytest.approx(0.5)

    def test_alpha_monotonicity(self):
        agg = aggregate_constants(_lip([[1.0]], [[1.0]], [[0.0]], [[1.0]]))
        t1, _ = constant_stepsizes(agg, FreeParams(1, 1, 1, 1, np.array([1.0])))
        t2, _ = constant_stepsizes(agg, FreeParams(1, 1, 1, 1, np.array([2.0])))
        assert t2[0] < t1[0]


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
        # also without constants, where theta(k) and t(k) used to take any eta
        agg = aggregate_constants(_lip([[1.0]], [[1.0]], [[0.0]], [[1.0]]))
        fp = default_free_params(agg, "diminishing")
        with pytest.raises(ValueError):
            StepSchedule(mode="diminishing", agg=agg, fp=fp, eta=1.0)
        for eta in (1.5, -3.0, np.nan):
            with pytest.raises(ValueError, match=f"got eta = {eta}"):
                StepSchedule(mode="diminishing", eta=eta)

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
            agg = aggregate_constants(lip)
            fp = default_free_params(agg, "diminishing")
            for eta in (0.0, 0.5):
                sched = StepSchedule(mode="diminishing", agg=agg, fp=fp, eta=eta)
                prev_tau = prev_sigma = None
                for k in range(0, 60):
                    tau, sigma, t = sched.tau(k), sched.sigma(k), sched.t(k)
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
            agg = aggregate_constants(lip)
            fp = default_free_params(agg, "diminishing")
            sched = StepSchedule(mode="diminishing", agg=agg, fp=fp, eta=0.0)
            taus = np.array([sched.tau(k) for k in range(32, 200)])
            sigmas = np.array([sched.sigma(k) for k in range(32, 200)])
            assert np.all(np.diff(taus, axis=0) <= 1e-15)
            assert np.all(np.diff(sigmas, axis=0) <= 1e-15)


class TestScheduleInputs:
    # a schedule that lacks an input, or has one of the wrong length, fails by name
    def test_constant_schedule_needs_agg_and_fp(self):
        agg = aggregate_constants(_lip([[1.0]], [[1.0]], [[0.0]], [[1.0]]))
        with pytest.raises(ValueError, match="a constant schedule needs agg and fp"):
            StepSchedule("constant")
        with pytest.raises(ValueError, match="a constant schedule needs fp"):
            StepSchedule("constant", agg=agg)

    def test_diminishing_schedule_without_constants_has_no_steps(self):
        sched = StepSchedule("diminishing", eta=0.25)
        assert (sched.theta(3), sched.t(3)) == (schedule_theta(3, 0.25), schedule_t(3, 0.25))
        for name, call in (
            ("tau", lambda: sched.tau(3)),
            ("sigma", lambda: sched.sigma(3)),
            ("validate_stepsize_condition", lambda: validate_stepsize_condition(sched, k_max=3)),
        ):
            with pytest.raises(ValueError, match=rf"^{name}(\(k\))? needs a schedule with agg and fp$"):
                call()

    @pytest.mark.parametrize("mode", ["constant", "diminishing"])
    def test_alpha_and_beta_lengths(self, mode):
        # alpha has 1 or M entries; beta, which only the diminishing steps read, 1 or N
        agg = aggregate_constants(_random_lip(np.random.default_rng(11), 2, 3))
        fp = default_free_params(agg, mode)
        fp.alpha = np.ones(3)
        with pytest.raises(ValueError, match=r"alpha has shape \(3,\); it needs 1 or M = 2 entries"):
            StepSchedule(mode, agg, fp)
        fp.alpha, fp.beta = np.ones(1), np.ones(2)
        if mode == "diminishing":
            with pytest.raises(ValueError, match=r"beta has shape \(2,\); it needs 1 or N = 3 entries"):
                StepSchedule(mode, agg, fp)
            fp.beta = np.ones(1)
        sched = StepSchedule(mode, agg, fp)
        assert sched.tau(0).shape == (2,) and sched.sigma(0).shape == (3,)

    def test_constant_steps_are_read_only(self):
        # tau(k) and sigma(k) return the schedule's own vectors, which every
        # later step and validation reads
        agg = aggregate_constants(_random_lip(np.random.default_rng(12), 2, 3))
        sched = StepSchedule("constant", agg, default_free_params(agg, "constant"))
        want = sched.tau(0).tolist(), sched.sigma(0).tolist()
        for v in (sched.tau(3), sched.sigma(3)):
            with pytest.raises(ValueError, match="read-only"):
                v *= 100
        assert (sched.tau(0).tolist(), sched.sigma(0).tolist()) == want

    @pytest.mark.parametrize("mode", ["constant", "diminishing"])
    def test_writes_to_agg_and_fp_after_construction_change_neither_steps_nor_verdict(self, mode):
        # the steps are built from agg and fp at construction; the validator
        # must judge those same inputs, so a later write to the caller's
        # objects, by assignment or in place, reaches neither
        agg = aggregate_constants(_random_lip(np.random.default_rng(13), 2, 3))
        sched = StepSchedule(mode, agg, default_free_params(agg, mode), eta=0.25 if mode == "diminishing" else 0.0)

        def observed():
            steps = [v.tobytes() for k in (0, 1, 7) for v in (np.asarray(sched.tau(k)), np.asarray(sched.sigma(k)))]
            report = validate_stepsize_condition(sched, k_max=50)
            return steps, {key: v.hex() for key, v in report.min_slacks.items()}, report.passed

        before = observed()
        assert before[2]
        sched.fp.alpha = sched.fp.alpha * 100.0  # alone, it would turn primal_lipschitz negative
        sched.fp.gamma1 *= 3.0
        sched.fp.beta[:] = 1e-3
        sched.agg.Lxx_diag[:] = 0.0
        sched.agg.C_x[:] *= 4.0
        assert observed() == before
        # the caller's objects did change: a schedule built from them now takes other steps
        rebuilt = StepSchedule(mode, sched.agg, sched.fp, eta=sched.eta)
        assert np.asarray(rebuilt.tau(1)).tobytes() != np.asarray(sched.tau(1)).tobytes()


def _random_lip(rng, M, N):
    return _lip(
        rng.uniform(0, 5, (M, M)),
        rng.uniform(0.05, 5, (M, N)),
        rng.uniform(0, 5, (N, N)),
        rng.uniform(0.05, 5, (N, M)),
    )


@pytest.fixture(scope="module")
def c09_problem():
    # the acceptance check's desk-scale robust ERM: M = 10 primal blocks, N = 200 dual boxes
    return robust_erm_problem(generate_robust_erm(7, 200, 500, 0.1), radius=10.0, m_blocks=10, n_blocks=200)


class TestStepsizeCondition:
    def test_constant_schedule_passes_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            M, N = int(rng.choice([1, 2, 4])), int(rng.choice([1, 2, 4]))
            agg = aggregate_constants(_random_lip(rng, M, N))
            fp = default_free_params(agg, "constant")
            sched = StepSchedule(mode="constant", agg=agg, fp=fp)
            report = validate_stepsize_condition(sched, k_max=5)
            assert report.passed, report.min_slacks

    def test_diminishing_schedule_passes_random_draws(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            M, N = int(rng.choice([1, 2, 4])), int(rng.choice([1, 2, 4]))
            eta = float(rng.choice([0.0, 0.25, 0.5]))
            agg = aggregate_constants(_random_lip(rng, M, N))
            fp = default_free_params(agg, "diminishing")
            sched = StepSchedule(mode="diminishing", agg=agg, fp=fp, eta=eta)
            report = validate_stepsize_condition(sched, k_max=200)
            assert report.passed, report.min_slacks

    def test_doubled_tau_violates(self):
        rng = np.random.default_rng(7)
        agg = aggregate_constants(_random_lip(rng, 2, 2))
        fp = default_free_params(agg, "constant")
        sched = StepSchedule(mode="constant", agg=agg, fp=fp)
        sched._tau0 = 2.0 * sched._tau0
        report = validate_stepsize_condition(sched, k_max=2)
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
        sched = StepSchedule(mode="constant", agg=agg, fp=fp)
        np.testing.assert_allclose(sched.tau(0), [0.5])
        report = validate_stepsize_condition(sched, k_max=3)
        assert report.passed

    def test_delta_bar_adds_slack(self):
        rng = np.random.default_rng(8)
        agg = aggregate_constants(_random_lip(rng, 2, 3))
        fp = default_free_params(agg, "constant", delta_bar=0.1)
        sched = StepSchedule(mode="constant", agg=agg, fp=fp)
        report = validate_stepsize_condition(sched, k_max=2)
        assert report.min_slacks["primal_lipschitz"] >= 0.1 - 1e-9
        assert report.min_slacks["dual_lipschitz"] >= 0.1 - 1e-9

    @pytest.mark.parametrize("k_max", [-1, -200])
    def test_negative_k_max_raises(self, k_max):
        # an empty range used to pass with every slack inf
        agg = aggregate_constants(_random_lip(np.random.default_rng(9), 2, 2))
        sched = StepSchedule(mode="constant", agg=agg, fp=default_free_params(agg, "constant"))
        with pytest.raises(ValueError, match=f"got k_max = {k_max}"):
            validate_stepsize_condition(sched, k_max=k_max)

    def test_nan_step_fails(self):
        # C_x overflows to inf and (N - 1) * C_x**2 is 0 * inf, so tau is NaN;
        # the per-k loop's running min skipped NaN slacks and passed this
        with np.errstate(over="ignore", invalid="ignore"):
            agg = aggregate_constants(_lip([[1e200]], [[1.0]], [[0.0]], [[1.0]]))
            sched = StepSchedule("diminishing", agg, FreeParams(1.0, 1.0, 1.0, 1.0, [1.0], [1.0]))
            assert np.isnan(sched.tau(0)).all()
            report = validate_stepsize_condition(sched, k_max=3)
        assert np.isnan(report.min_slacks["primal_lipschitz"])
        assert not report.passed

    @pytest.mark.parametrize("k_max", [0, 5, 200])
    @pytest.mark.parametrize("M,N", [(1, 3), (3, 1), (2, 4)])
    def test_slacks_equal_the_per_k_loop_bitwise(self, M, N, k_max, monkeypatch):
        # the validator's whole-table slacks are the exact floats of the
        # per-k loop; it calls neither tau(k) nor sigma(k), and a diminishing
        # schedule's steps bound to arrays once per side per chunk (4 chunks
        # of 64 values of k at k_max = 200)
        monkeypatch.setattr(stepsize, "_K_CHUNK", 64)
        agg = aggregate_constants(_random_lip(np.random.default_rng(10 * M + N), M, N))
        for mode, eta in (("constant", 0.0), ("diminishing", 0.25)):
            for delta_bar in (0.0, 0.1):
                sched = StepSchedule(mode, agg, default_free_params(agg, mode, delta_bar), eta=eta)
                want = _per_k_slacks(sched, k_max)
                calls = {"tau": 0, "sigma": 0, "_tau_of": 0, "_sigma_of": 0}
                for name in calls:
                    if hasattr(sched, name):
                        def counted(*args, _name=name, _fn=getattr(sched, name)):
                            calls[_name] += 1
                            return _fn(*args)
                        setattr(sched, name, counted)
                got = validate_stepsize_condition(sched, k_max=k_max)
                chunks = -(-(k_max + 1) // 64) if mode == "diminishing" else 0
                assert calls == {"tau": 0, "sigma": 0, "_tau_of": chunks, "_sigma_of": chunks}
                assert list(got.min_slacks) == list(want)
                assert [v.hex() for v in got.min_slacks.values()] == [v.hex() for v in want.values()]
                if mode == "constant":
                    assert got.min_slacks["t_theta_identity"].hex() == "0x0.0p+0"

    @pytest.mark.parametrize("mode,k_max", [("single_sample", 66_666), ("increasing_batch", 1_400)])
    def test_c09_schedules_pass_over_whole_runs(self, c09_problem, mode, k_max):
        # the schedules of the acceptance check's N = 200 runs are certified
        # over every step those runs take
        sched = build_schedule(c09_problem, SolverConfig(mode=mode, eta=0.0, max_iters=k_max))
        report = validate_stepsize_condition(sched, k_max=k_max)
        assert report.passed, report.min_slacks

    @pytest.mark.parametrize("k_max", [0, 200])
    def test_chunked_slacks_equal_the_one_table_result(self, k_max, monkeypatch):
        # the tables are filled chunk by chunk, consecutive chunks sharing a row;
        # every slack is the one-table float, over 3 or more chunks, an
        # uneven last chunk and chunks of one k, still one row per k
        agg = aggregate_constants(_random_lip(np.random.default_rng(7), 3, 4))
        for mode, eta in (("constant", 0.0), ("diminishing", 0.25)):
            sched = StepSchedule(mode, agg, default_free_params(agg, mode, 0.1), eta=eta)
            monkeypatch.setattr(stepsize, "_K_CHUNK", k_max + 2)
            whole = validate_stepsize_condition(sched, k_max=k_max)
            want = [v.hex() for v in whole.min_slacks.values()]
            assert want == [v.hex() for v in _per_k_slacks(sched, k_max).values()]
            for chunk in (1, 7, 64, k_max + 1):  # 201, 29, 4 and 1 chunks at k_max = 200
                monkeypatch.setattr(stepsize, "_K_CHUNK", chunk)
                got = validate_stepsize_condition(sched, k_max=k_max)
                assert [v.hex() for v in got.min_slacks.values()] == want, chunk

    def test_chunked_nan_slack_fails(self, monkeypatch):
        # a NaN in any chunk propagates through the minimum over chunks
        monkeypatch.setattr(stepsize, "_K_CHUNK", 3)
        with np.errstate(over="ignore", invalid="ignore"):
            agg = aggregate_constants(_lip([[1e200]], [[1.0]], [[0.0]], [[1.0]]))
            sched = StepSchedule("diminishing", agg, FreeParams(1.0, 1.0, 1.0, 1.0, [1.0], [1.0]))
            report = validate_stepsize_condition(sched, k_max=10)
        assert np.isnan(report.min_slacks["primal_lipschitz"]) and not report.passed


def _per_k_slacks(schedule, k_max):
    # Reference: the validator written as one loop over k, every step size
    # recomputed where a term needs it and each minimum kept as it goes.
    agg, fp, M, N = schedule.agg, schedule.fp, schedule.M, schedule.N

    def m_matrices(k):
        th, tau, sigma = schedule.theta(k), schedule.tau(k), schedule.sigma(k)
        m1 = M * th * (fp.lambda2 * N * agg.L_yx**2 + (N - 1) * fp.gamma1 * agg.C_x**2)
        m2 = M * th * (fp.gamma2 * (N - 1) * agg.L_xy**2 + fp.lambda1 * N * agg.C_y**2)
        m3 = (1.0 / tau - M * agg.Lxx_diag - M * (N - 1) * th * (1.0 / fp.gamma1 + 1.0 / fp.gamma2)
              - (N - 1) / fp.gamma2)
        m4 = (1.0 / sigma - N * agg.Lyy_diag - M * N * th * (1.0 / fp.lambda1 + 1.0 / fp.lambda2)
              - fp.gamma2 * (N - 1) * agg.L_xy**2)
        return m1, m2, m3, m4

    slacks = dict.fromkeys(
        ("primal_lipschitz", "dual_lipschitz", "tau_scaled_monotone", "sigma_scaled_monotone"), np.inf
    )
    slacks["t_theta_identity"] = 0.0
    slacks["m_matrices_psd"] = np.inf
    for k in range(k_max + 1):
        t_k, t_next = schedule.t(k), schedule.t(k + 1)
        m1_k, m2_k, m3_k, m4_k = m_matrices(k)
        m1_next, m2_next, _, _ = m_matrices(k + 1)
        b_k = fp.beta / t_k if schedule.mode == "diminishing" else 0.0
        terms = {
            "primal_lipschitz": np.min(t_k * (m3_k - fp.alpha / t_k) - t_next * m1_next),
            "dual_lipschitz": np.min(t_k * (m4_k - b_k) - t_next * m2_next),
            "tau_scaled_monotone": np.min(t_k / schedule.tau(k) - t_next / schedule.tau(k + 1)),
            "sigma_scaled_monotone": np.min(t_k / schedule.sigma(k) - t_next / schedule.sigma(k + 1)),
            "t_theta_identity": -abs(t_k - t_next * schedule.theta(k + 1)),
            "m_matrices_psd": min(np.min(m1_k), np.min(m2_k), np.min(m3_k), np.min(m4_k)),
        }
        for key, value in terms.items():
            slacks[key] = min(slacks[key], float(value))
    return slacks


def _validator_tables(schedule, name, k_max):
    # the tables the validator fills through the schedule's side ``name``
    # ("_tau_of" or "_sigma_of"), one per chunk, in order
    tables, bound = [], getattr(schedule, name)

    def recorded(blocks):
        def step(th, t):
            tables.append(bound(blocks)(th, t))
            return tables[-1]
        return step

    setattr(schedule, name, recorded)
    try:
        validate_stepsize_condition(schedule, k_max=k_max)
    finally:
        setattr(schedule, name, bound)
    return tables


def _explicit_diminishing(agg, fp, M, N, eta, k):
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
    return 1.0 / (M * tau_den), 1.0 / (N * sigma_den)


def one_block_steps(sched, M, N, th, t):
    # steps_at at one block per side, every block of both sides in turn, as (tau, sigma) lists
    ones = [sched.steps_at(b % M, b % N, th, t) for b in range(max(M, N))]
    return [a.item() for a, _ in ones[:M]], [b.item() for _, b in ones[:N]]


class TestPerBlockSteps:
    @pytest.mark.parametrize("M,N", [(1, 1), (3, 5), (10, 200)])
    def test_block_steps_equal_vector_entries(self, M, N, monkeypatch):
        # the solver reads one step per side; each must be the exact float of
        # the vector formula, of steps_at at one block or at every block, and
        # of the validator's table row, for every k, eta and delta_bar
        monkeypatch.setattr(stepsize, "_K_CHUNK", 128)  # k in [0, 301] over 3 chunks
        rng = np.random.default_rng(10 * M + N)
        agg = aggregate_constants(_random_lip(rng, M, N))
        for delta_bar in (0.0, 0.1):
            fp_c = default_free_params(agg, "constant", delta_bar=delta_bar)
            fp_d = default_free_params(agg, "diminishing", delta_bar=delta_bar)
            sched = StepSchedule(mode="constant", agg=agg, fp=fp_c)
            tau, sigma = constant_stepsizes(agg, fp_c)
            for k in (0, 300):
                assert sched.tau(k).tolist() == tau.tolist() and sched.sigma(k).tolist() == sigma.tolist()
                assert one_block_steps(sched, M, N, None, None) == (tau.tolist(), sigma.tolist())
            for eta in (0.0, 0.3, 0.9):
                sched = StepSchedule(mode="diminishing", agg=agg, fp=fp_d, eta=eta)
                for k in range(301):
                    tau, sigma = sched.tau(k), sched.sigma(k)
                    ref_tau, ref_sigma = _explicit_diminishing(agg, fp_d, M, N, eta, k)
                    assert tau.tolist() == ref_tau.tolist()
                    assert sigma.tolist() == ref_sigma.tolist()
                    th, t = sched.theta(k), sched.t(k)
                    assert (th, t) == (schedule_theta(k, eta), schedule_t(k, eta))
                    assert [v.tolist() for v in sched.steps_at(np.arange(M), np.arange(N), th, t)] == [
                        tau.tolist(), sigma.tolist()]
                    assert one_block_steps(sched, M, N, th, t) == (tau.tolist(), sigma.tolist())
                assert np.array_equal(sched.tau(7), _explicit_diminishing(agg, fp_d, M, N, eta, 7)[0])
                for name, at in (("_tau_of", sched.tau), ("_sigma_of", sched.sigma)):
                    tables = _validator_tables(sched, name, k_max=300)
                    assert len(tables) == 3
                    # consecutive chunks share a row: k = 0..128, 128..256, 256..301
                    rows = np.concatenate([tables[0]] + [table[1:] for table in tables[1:]])
                    assert rows.shape == (302, M if name == "_tau_of" else N)
                    for k in range(302):
                        assert rows[k].tolist() == at(k).tolist(), (name, k)

    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.3, 0.999])
    def test_columns_and_gathered_steps_equal_the_per_step_floats(self, eta):
        # a chunk of control rows takes theta^k, t^k and the drawn blocks'
        # steps as arrays; each entry is the float of theta(k), t(k),
        # tau(k)[i] and sigma(k)[j], also far into a run, where (k+1)/k rounds
        rng = np.random.default_rng(int(eta * 1000))
        agg = aggregate_constants(_random_lip(rng, 4, 6))
        sched = StepSchedule(mode="diminishing", agg=agg, fp=default_free_params(agg, "diminishing"), eta=eta)
        for ks in (range(0, 300), range(1, 2), range(65_000, 66_000), range(10**9, 10**9 + 257)):
            theta, t = sched.columns(ks)
            assert theta.tolist() == [sched.theta(k) for k in ks] and t.tolist() == [sched.t(k) for k in ks], ks
            js, is_ = rng.integers(0, 6, len(ks)), rng.integers(0, 4, len(ks))
            tau, sigma = sched.steps_at(is_, js, theta, t)
            assert tau.tolist() == [sched.tau(k)[i] for k, i in zip(ks, is_)]
            assert sigma.tolist() == [sched.sigma(k)[j] for k, j in zip(ks, js)]
        const = StepSchedule(mode="constant", agg=agg, fp=default_free_params(agg, "constant"))
        assert [v.tolist() for v in const.columns(range(3, 6))] == [[1.0] * 3] * 2
        tau, sigma = const.steps_at(np.array([3, 0]), np.array([5]), None, None)
        assert tau.tolist() == [const.tau(0)[3], const.tau(0)[0]] and sigma.tolist() == [const.sigma(0)[5]]
        for negative in (lambda: sched.columns(range(-1, 3)), lambda: sched.theta(-1), lambda: sched.t(-2),
                         lambda: sched.tau(-1)):
            with pytest.raises(ValueError, match="nonnegative"):
                negative()

    def test_block_index_out_of_range(self):
        agg = aggregate_constants(_lip([[1.0]], [[1.0]], [[0.0]], [[1.0]]))
        for mode in ("constant", "diminishing"):
            sched = StepSchedule(mode=mode, agg=agg, fp=default_free_params(agg, mode))
            th, t = sched.theta(0), sched.t(0)
            for blocks in ((1, 0), (0, 1), (np.array([0, 1]), np.array([0]))):
                with pytest.raises(IndexError):
                    sched.steps_at(*blocks, th, t)
