"""Gap functions, constrained metrics, rate fitting, and trace serialization."""

import numpy as np
import pytest

from rbpda.metrics import (
    ConvergenceTrace,
    TraceRow,
    best_response_candidates,
    certified_gap,
    constrained_metrics,
    evaluate_checkpoint,
    estimate_component_noise,
    fit_rate,
    lagrangian_gap,
    sup_gap,
)
from rbpda.blocks import _probe_points
from rbpda.problems import (
    ConstrainedSpec,
    MatrixGameSpec,
    box_game_problem,
    constrained_qp_problem,
    game_saddle_oracle,
    generate_robust_erm,
    matrix_game_problem,
    robust_erm_problem,
)


@pytest.fixture(scope="module")
def diag_game():
    return matrix_game_problem(MatrixGameSpec(np.diag([1.0, 2.0])))


class TestLagrangianGap:
    def test_zero_at_identical_saddle_args(self, diag_game):
        prob, ref = diag_game
        z = (ref.x, ref.y)
        assert lagrangian_gap(prob, z, z) == pytest.approx(0.0, abs=1e-12)

    def test_identity_game_hand_values(self):
        prob, _ = matrix_game_problem(MatrixGameSpec(np.eye(2)))
        z_bar = (np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        z_ref = (np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        # x_bar' A y_ref - x_ref' A y_bar = 0.5 - 0.5
        assert lagrangian_gap(prob, z_bar, z_ref) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_at_saddle_reference(self, diag_game):
        prob, ref = diag_game
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.dirichlet(np.ones(2))
            y = rng.dirichlet(np.ones(2))
            gap = lagrangian_gap(prob, (x, y), (ref.x, ref.y))
            assert gap >= -1e-9

    def test_missing_phi_degrades(self, diag_game):
        prob, ref = diag_game
        import dataclasses

        crippled = dataclasses.replace(prob, phi_value=None, phi_component=None)
        assert crippled.lagrangian(ref.x, ref.y) is None
        assert lagrangian_gap(crippled, (ref.x, ref.y), (ref.x, ref.y)) is None


class TestSupGap:
    def test_zero_when_candidates_are_saddle(self, diag_game):
        prob, ref = diag_game
        z = (ref.x, ref.y)
        assert sup_gap(prob, z, [z], auto_best_response=False) == pytest.approx(0.0, abs=1e-12)

    def test_vertex_best_response_exact_for_bilinear(self, diag_game):
        prob, ref = diag_game
        A = np.diag([1.0, 2.0])
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.dirichlet(np.ones(2))
            y = rng.dirichlet(np.ones(2))
            got = sup_gap(prob, (x, y), [])
            exact = float(np.max(A.T @ x) - np.min(A @ y))
            assert got == pytest.approx(exact, abs=1e-12)

    def test_more_candidates_never_decrease(self, diag_game):
        prob, ref = diag_game
        z_bar = (np.array([0.9, 0.1]), np.array([0.2, 0.8]))
        base = sup_gap(prob, z_bar, [], auto_best_response=True)
        more = sup_gap(
            prob,
            z_bar,
            [(np.array([0.1, 0.9]), np.array([0.7, 0.3])), (ref.x, ref.y)],
            auto_best_response=True,
        )
        assert more >= base - 1e-15

    def test_lower_bounds_single_candidate_gap(self, diag_game):
        prob, ref = diag_game
        z_bar = (np.array([0.9, 0.1]), np.array([0.2, 0.8]))
        ref_z = (ref.x, ref.y)
        assert sup_gap(prob, z_bar, [ref_z]) >= lagrangian_gap(prob, z_bar, ref_z) - 1e-15


class TestBestResponses:
    @staticmethod
    def _counting(prob):
        calls = {"full_grad_x": 0, "full_grad_y": 0}
        for name in calls:
            oracle = getattr(prob, name)

            def counted(x, y, name=name, oracle=oracle):
                calls[name] += 1
                return oracle(x, y)

            setattr(prob, name, counted)

        def no_block_oracle(*args, **kwargs):
            raise AssertionError("best responses take whole-side gradients only")

        prob.grad_y = no_block_oracle
        return calls

    def test_robust_erm_box_dual(self):
        # Phi is linear in y with positive logistic losses as coefficients, so
        # the dual best response is the upper corner; the primal one is the
        # box corner against the gradient's sign
        radius = 2.0
        data = generate_robust_erm(4, 12, 6, 0.1)
        prob = robust_erm_problem(data, radius=radius, m_blocks=3, n_blocks=12)
        rng = np.random.default_rng(3)
        x = rng.uniform(-radius, radius, 6)
        y = rng.uniform(0.0, 1.0, 12)
        g = prob.full_grad_x(x, y)
        calls = self._counting(prob)
        x_br, y_br = best_response_candidates(prob, (x, y))
        assert calls == {"full_grad_x": 1, "full_grad_y": 1}
        assert np.array_equal(y_br, np.ones(12))
        assert np.all(g != 0) and np.array_equal(x_br, -radius * np.sign(g))

    def test_unbounded_sides_compute_no_gradient(self):
        # the QP's primal is free and its dual an orthant: no candidate, no gradient
        spec = ConstrainedSpec(Q=[[2.0, 0.3], [0.3, 1.0]], c=[0.5, -1.0], G=[[1.0, -1.0]], d=[0.5])
        prob, _, _ = constrained_qp_problem(spec)
        calls = self._counting(prob)
        assert best_response_candidates(prob, (np.zeros(2), np.zeros(1))) == (None, None)
        assert calls == {"full_grad_x": 0, "full_grad_y": 0}


A3 = np.array([[1.0, -0.5, 0.2], [0.3, 2.0, -1.0], [-0.4, 0.1, 1.5]])
A4 = np.array(
    [[1.0, 0.3, 0.2, 0.1], [0.3, 2.0, 0.1, 0.2], [0.2, 0.1, 1.0, 0.3], [0.1, 0.2, 0.3, 2.0]]
)


def _bounded_builtin(name):
    data = generate_robust_erm(5, 12, 6, 0.1)
    builders = {
        "game_euclidean": lambda: matrix_game_problem(MatrixGameSpec(A3))[0],
        "game_entropy": lambda: matrix_game_problem(MatrixGameSpec(A3, "negative_entropy"))[0],
        "box_game": lambda: box_game_problem(A4, m_blocks=2, n_blocks=2)[0],
        "erm_box": lambda: robust_erm_problem(data, radius=2.0, m_blocks=3, n_blocks=12),
        "erm_simplex": lambda: robust_erm_problem(data, radius=2.0, m_blocks=3, n_blocks=1),
    }
    return builders[name]()


class TestCertifiedGap:
    @pytest.mark.parametrize("name", ["game_euclidean", "game_entropy", "box_game", "erm_box", "erm_simplex"])
    def test_bounds_sup_gap_on_random_points(self, name):
        prob = _bounded_builtin(name)
        for x, y in _probe_points(prob, np.random.default_rng(11), 20):
            lower = sup_gap(prob, (x, y), [])
            upper = certified_gap(prob, (x, y))
            assert lower >= 0.0
            assert upper >= lower - 1e-12 * (1.0 + abs(lower))

    def test_bilinear_bound_is_the_exact_gap(self):
        # x' A y over simplices: the linearization is L itself, so the bound
        # equals max_j (A' x)_j - min_i (A y)_i
        prob, _ = matrix_game_problem(MatrixGameSpec(A3))
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
            exact = float(np.max(A3.T @ x) - np.min(A3 @ y))
            assert certified_gap(prob, (x, y)) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("geometry", ["euclidean", "negative_entropy"])
    def test_zero_at_matrix_game_saddle(self, geometry):
        prob, ref = matrix_game_problem(MatrixGameSpec(A3, geometry))
        assert abs(certified_gap(prob, (ref.x, ref.y))) <= 1e-9

    def test_zero_at_box_game_saddle(self):
        prob, ref = box_game_problem(A4, m_blocks=2, n_blocks=2)
        assert abs(certified_gap(prob, (ref.x, ref.y))) <= 1e-9

    def test_unbounded_multipliers_give_none(self):
        spec = ConstrainedSpec(Q=[[2.0, 0.3], [0.3, 1.0]], c=[0.5, -1.0], G=[[1.0, -1.0]], d=[0.5])
        prob, (x_star, y_star), _ = constrained_qp_problem(spec)
        assert certified_gap(prob, (x_star, y_star)) is None
        assert certified_gap(prob, (np.zeros(2), np.zeros(1))) is None


class TestConstrainedMetrics:
    def test_qp_hand_values(self):
        # min x^2 s.t. x >= 1: reference x* = 1, y* = 2, f* = 1
        spec = ConstrainedSpec(Q=[[2.0]], c=[0.0], G=[[-1.0]], d=[-1.0])
        prob, (x_star, y_star), f_star = constrained_qp_problem(spec)
        assert x_star[0] == pytest.approx(1.0, abs=1e-10)
        assert y_star[0] == pytest.approx(2.0, abs=1e-10)
        assert f_star == pytest.approx(1.0, abs=1e-10)
        subopt, infeas = constrained_metrics(prob, np.array([2.0]), f_star)
        assert (subopt, infeas) == (pytest.approx(3.0), pytest.approx(0.0))
        subopt, infeas = constrained_metrics(prob, np.array([0.0]), f_star)
        assert (subopt, infeas) == (pytest.approx(1.0), pytest.approx(1.0))
        subopt, infeas = constrained_metrics(prob, x_star, f_star)
        assert subopt <= 1e-10 and infeas == 0.0


class TestFitRate:
    def test_exact_power_law(self):
        rows = [(k, 1.0 / k) for k in range(1, 2001, 10)]
        fit = fit_rate(rows, (1, 2000))
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)
        assert fit.r_squared > 0.999999

    def test_log_over_k_window(self):
        ks = np.unique(np.logspace(2, 4, 60).astype(int))
        rows = [(k, np.log(k) / k) for k in ks]
        fit = fit_rate(rows, (100, 10_000))
        assert -1.0 <= fit.slope <= -0.85

    def test_constant_gap(self):
        rows = [(k, 3.14) for k in range(10, 200, 10)]
        fit = fit_rate(rows, (10, 200))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        ks = np.arange(10, 500, 7)
        gaps = np.exp(rng.standard_normal(ks.size)) / ks
        f1 = fit_rate(list(zip(ks, gaps)), (10, 500))
        f2 = fit_rate(list(zip(ks, 17.3 * gaps)), (10, 500))
        assert f1.slope == pytest.approx(f2.slope, abs=1e-12)

    def test_insufficient_points_unavailable(self):
        rows = [(k, 1.0 / k) for k in (10, 20, 30, 40)]
        assert fit_rate(rows, (10, 40)) is None
        rows = [(k, -1.0) for k in range(10, 200, 10)]
        assert fit_rate(rows, (10, 200)) is None


class TestTrace:
    def test_append_invariants(self):
        trace = ConvergenceTrace()
        trace.append(TraceRow(k=0, grad_budget=0, gap_ref=1.0))
        with pytest.raises(ValueError):
            trace.append(TraceRow(k=0, grad_budget=3))
        trace.append(TraceRow(k=5, grad_budget=15))
        with pytest.raises(ValueError):
            trace.append(TraceRow(k=9, grad_budget=2))

    def test_csv_round_trip(self, tmp_path):
        trace = ConvergenceTrace()
        trace.append(TraceRow(k=0, grad_budget=0, gap_ref=1.25, sup_gap=None, dist_ref=0.5))
        trace.append(TraceRow(k=10, grad_budget=30, gap_ref=0.5, sup_gap=0.75, subopt=0.1, infeas=0.0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "k,grad_budget,gap_ref,sup_gap,dist_ref,subopt,infeas"
        back = ConvergenceTrace.from_csv(path)
        assert len(back) == 2
        assert back.rows[0].gap_ref == 1.25
        assert back.rows[0].sup_gap is None
        assert back.rows[1].subopt == 0.1


def test_evaluate_checkpoint_missing_inputs():
    prob, ref = matrix_game_problem(MatrixGameSpec(np.diag([1.0, 2.0])))
    row = evaluate_checkpoint(prob, 3, 9, ref.x, ref.y, reference=None, auto_best_response=False)
    assert row.gap_ref is None and row.subopt is None
    row = evaluate_checkpoint(prob, 3, 9, ref.x, ref.y, reference=(ref.x, ref.y))
    assert row.gap_ref == pytest.approx(0.0, abs=1e-12)
    assert row.dist_ref == pytest.approx(0.0, abs=1e-12)


def test_component_noise_estimate_positive():
    data = generate_robust_erm(3, 12, 6, 0.1)
    prob = robust_erm_problem(data, radius=2.0, m_blocks=2, n_blocks=12)
    delta = estimate_component_noise(prob, np.random.default_rng(0), n_points=2)
    assert delta > 0
