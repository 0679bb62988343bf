"""Benchmark problem construction: data generation, gradients, Lipschitz bounds, oracles."""

import warnings

import numpy as np
import pytest

from rbpda.bregman import project_simplex
from rbpda.problems import (
    ConstrainedSpec,
    _sigmoid,
    MatrixGameSpec,
    box_game_problem,
    constrained_qp_problem,
    game_saddle_oracle,
    generate_robust_erm,
    load_robust_erm_csv,
    matrix_game_problem,
    qp_reference,
    robust_erm_problem,
    save_robust_erm_csv,
)
from rbpda.sampling import make_rng


class TestGenerateRobustErm:
    def test_no_flips(self):
        data = generate_robust_erm(0, 30, 10, 0.0)
        np.testing.assert_array_equal(data.b, np.where(data.A @ data.x_true >= 0, 1.0, -1.0))

    def test_all_flips(self):
        data = generate_robust_erm(0, 30, 10, 1.0)
        np.testing.assert_array_equal(data.b, -np.where(data.A @ data.x_true >= 0, 1.0, -1.0))

    def test_flip_fraction_four_sigma(self):
        n = 10_000
        data = generate_robust_erm(1, n, 3, 0.1)
        clean = np.where(data.A @ data.x_true >= 0, 1.0, -1.0)
        frac = np.mean(data.b != clean)
        sigma = np.sqrt(0.1 * 0.9 / n)
        assert abs(frac - 0.1) <= 4 * sigma

    def test_deterministic_per_seed(self):
        d1 = generate_robust_erm(5, 8, 4, 0.2)
        d2 = generate_robust_erm(5, 8, 4, 0.2)
        np.testing.assert_array_equal(d1.A, d2.A)
        np.testing.assert_array_equal(d1.b, d2.b)

    def test_csv_round_trip(self, tmp_path):
        data = generate_robust_erm(9, 6, 4, 0.25)
        path = tmp_path / "erm.csv"
        save_robust_erm_csv(data, path)
        first = path.read_text().splitlines()[0]
        assert first == "6,4,9,0.25"
        back = load_robust_erm_csv(path)
        np.testing.assert_allclose(back.A, data.A)
        np.testing.assert_array_equal(back.b, data.b)
        assert back.seed == 9 and back.flip_prob == 0.25


class TestRobustErmProblem:
    def test_losses_at_zero_are_log2(self):
        data = generate_robust_erm(2, 12, 6, 0.1)
        prob = robust_erm_problem(data, radius=2.0, m_blocks=2, n_blocks=4)
        x = np.zeros(6)
        y = np.full(12, 1.0 / 12)
        for j in range(4):
            np.testing.assert_allclose(prob.grad_y(j, [(x, y)]), np.log(2.0), atol=1e-12)

    def test_single_datum_gradient(self):
        # a = (1), b = +1, x = 0, P = (1): gradient is -sigmoid(0) = -0.5
        data = generate_robust_erm(0, 1, 1, 0.0)
        data.A[:] = 1.0
        data.b[:] = 1.0
        prob = robust_erm_problem(data, radius=1.0, m_blocks=1, n_blocks=1)
        g = prob.component_grad_x(0, 0, np.zeros(1), np.ones(1))
        assert g[0] == pytest.approx(-0.5)

    def test_estimator_mean_equals_full_gradient(self):
        data = generate_robust_erm(3, 10, 8, 0.1)
        prob = robust_erm_problem(data, radius=2.0, m_blocks=2, n_blocks=10)
        rng = make_rng(0)
        x = rng.uniform(-1, 1, 8)
        y = np.abs(rng.standard_normal(10))
        y /= y.sum()
        full = prob.full_grad_x(x, y)
        for i in range(2):
            mean = prob.batch_grad_x(np.arange(10), i, [(x, y)], (1.0,))
            np.testing.assert_allclose(mean, full[prob.structure.primal.block_range(i)], atol=1e-12)

    def test_block_divisibility_rejected(self):
        data = generate_robust_erm(1, 10, 8, 0.1)
        with pytest.raises(ValueError):
            robust_erm_problem(data, m_blocks=3)
        with pytest.raises(ValueError):
            robust_erm_problem(data, n_blocks=3)

    @pytest.mark.parametrize("n_blocks", [1, 10])
    @pytest.mark.parametrize("name,value,message", [
        ("A", np.nan, "A has non-finite entries"),
        ("A", -np.inf, "A has non-finite entries"),
        ("b", np.nan, "b has non-finite entries"),
        ("b", np.inf, "b has non-finite entries"),
        ("A", 1e200, "A's squared norms to be finite: A has an entry of 1e\\+200"),
    ])
    def test_non_finite_data_refused_by_name(self, name, value, message, n_blocks):
        # one bad entry used to surface as a LinAlgError from the Lipschitz
        # constants ("SVD did not converge", "Eigenvalues did not converge")
        data = generate_robust_erm(1, 10, 8, 0.1)
        getattr(data, name)[3] = value
        with pytest.raises(ValueError, match=message):
            robust_erm_problem(data, n_blocks=n_blocks)

    def test_row_bound_is_the_largest_entry(self):
        data = generate_robust_erm(1, 10, 8, 0.1)
        prob = robust_erm_problem(data, m_blocks=2, n_blocks=10)
        assert prob.row_bound == np.abs(data.A).max()

    def test_box_relaxation_recorded(self):
        data = generate_robust_erm(1, 10, 8, 0.1)
        split = robust_erm_problem(data, n_blocks=10)
        single = robust_erm_problem(data, n_blocks=1)
        assert split.notes["dual_box_relaxation"] is True
        assert single.notes["dual_box_relaxation"] is False
        assert single.dual_prox[0].geometry.is_entropy

    def _lipschitz_certification(self, prob, dual_sampler, seed):
        # entropy dual blocks are measured in their own l1 geometry (so the
        # gradient deltas in the dual norm, l-infinity); Euclidean blocks in l2
        rng = np.random.default_rng(seed)
        st = prob.structure
        lip = prob.lipschitz
        entropy = [spec.geometry.is_entropy for spec in prob.dual_prox]
        for _ in range(1000):
            x = rng.uniform(-prob.notes["radius"], prob.notes["radius"], st.m)
            y = dual_sampler(rng)
            i = int(rng.integers(st.M))
            blk_i = st.primal.block_range(i)
            g0 = prob.full_grad_x(x, y)[blk_i]
            # primal-primal curvature along a random block direction
            l = int(rng.integers(st.M))
            v = rng.standard_normal(st.primal.dims[l])
            v *= 10 ** rng.uniform(-3, -1) / np.linalg.norm(v)
            x2 = x.copy()
            x2[st.primal.block_range(l)] += v
            lhs = np.linalg.norm(prob.full_grad_x(x2, y)[blk_i] - g0)
            assert lhs <= lip.Lxx[l, i] * np.linalg.norm(v) * (1 + 1e-7) + 1e-12
            # dual-primal coupling
            j = int(rng.integers(st.N))
            dual_ord = np.inf if entropy[j] else 2
            gy0, gy1 = prob.grad_y(j, [(x, y), (x2, y)])
            lhs = np.linalg.norm(gy1 - gy0, ord=dual_ord)
            assert lhs <= lip.Lyx[j, l] * np.linalg.norm(v) * (1 + 1e-7) + 1e-12
            # primal-dual coupling
            u = rng.standard_normal(st.dual.dims[j])
            u *= 10 ** rng.uniform(-3, -1) / np.linalg.norm(u)
            y2 = y.copy()
            y2[st.dual.block_range(j)] += u
            u_norm = np.abs(u).sum() if entropy[j] else np.linalg.norm(u)
            lhs = np.linalg.norm(prob.full_grad_x(x, y2)[blk_i] - g0)
            assert lhs <= lip.Lxy[i, j] * u_norm * (1 + 1e-7) + 1e-12

    def test_lipschitz_certification_entropy_config(self):
        data = generate_robust_erm(4, 12, 8, 0.1)
        prob = robust_erm_problem(data, radius=2.0, m_blocks=2, n_blocks=1)

        def sampler(rng):
            return project_simplex(rng.standard_normal(12))

        self._lipschitz_certification(prob, sampler, seed=10)

    def test_lipschitz_certification_box_config(self):
        # constants must hold on the whole dual domain [0, 1]^n, corner included
        data = generate_robust_erm(4, 12, 8, 0.1)
        prob = robust_erm_problem(data, radius=2.0, m_blocks=4, n_blocks=12)

        def sampler(rng):
            return np.ones(12) if rng.random() < 0.1 else rng.uniform(0.0, 1.0, 12)

        self._lipschitz_certification(prob, sampler, seed=11)

    @pytest.mark.parametrize(
        "n,m,m_blocks,n_blocks",
        [(12, 8, 4, 12), (12, 8, 1, 12), (6, 10, 2, 3), (12, 8, 2, 1), (12, 8, 1, 1), (1, 4, 2, 1)],
    )
    def test_whole_vector_curvature_certification(self, n, m, m_blocks, n_blocks):
        # Lxx_whole bounds ||grad_x(x1, y) - grad_x(x2, y)|| / ||x1 - x2|| over
        # the primal box, at y = 1 in the dual boxes and at simplex points
        # (vertices included) on the entropy dual.  The bound is met near
        # x = 0, where every logistic curvature is 1/4, along the top right
        # singular vector of A (boxes) or the largest row (a simplex vertex).
        data = generate_robust_erm(n + m, n, m, 0.1)
        prob = robust_erm_problem(data, radius=2.0, m_blocks=m_blocks, n_blocks=n_blocks)
        whole = prob.lipschitz.Lxx_whole
        assert whole <= np.linalg.norm(prob.lipschitz.Lxx, 2) * (1 + 1e-12)
        A = data.A
        rng = np.random.default_rng(n * m)
        if n_blocks > 1:
            tight_y, tight_dir = np.ones(n), np.linalg.svd(A)[2][0]
        else:
            r = int(np.argmax(np.sum(A**2, axis=1)))
            tight_y, tight_dir = np.eye(n)[r], A[r] / np.linalg.norm(A[r])
        worst = 0.0
        for k in range(200):
            if k == 0:
                y, x1, d = tight_y, np.zeros(m), 1e-6 * tight_dir
            else:
                y = np.ones(n) if n_blocks > 1 else project_simplex(rng.standard_normal(n) * 3)
                x1 = rng.uniform(-2.0, 2.0, m)
                d = rng.standard_normal(m) * 10 ** rng.uniform(-3, 0)
            x2 = np.clip(x1 + d, -2.0, 2.0)
            lhs = np.linalg.norm(prob.full_grad_x(x2, y) - prob.full_grad_x(x1, y))
            rhs = np.linalg.norm(x2 - x1)
            assert lhs <= whole * rhs * (1 + 1e-7) + 1e-12
            worst = max(worst, lhs / rhs)
        assert worst >= 0.99 * whole  # the bound is tight, not merely valid


class TestGameOracle:
    def test_identity_game(self):
        x, y, v, exact = game_saddle_oracle(np.eye(2))
        assert exact
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(y, [0.5, 0.5], atol=1e-12)
        assert v == pytest.approx(0.5)

    def test_diag_game(self):
        x, y, v, exact = game_saddle_oracle(np.diag([1.0, 2.0]))
        assert exact
        np.testing.assert_allclose(x, [2 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(y, [2 / 3, 1 / 3], atol=1e-12)
        assert v == pytest.approx(2 / 3)

    def test_zero_game(self):
        prob, ref = matrix_game_problem(MatrixGameSpec(np.zeros((2, 2))))
        from rbpda.metrics import lagrangian_gap

        rng = np.random.default_rng(1)
        for _ in range(20):
            z = (rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2)))
            assert lagrangian_gap(prob, z, (ref.x, ref.y)) == pytest.approx(0.0, abs=1e-12)

    def test_saddle_inequalities_random_games(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            A = rng.uniform(-3, 3, (n1, n2))
            x_s, y_s, v, exact = game_saddle_oracle(A)
            if not exact:
                continue
            for _ in range(50):
                x = rng.dirichlet(np.ones(n1))
                y = rng.dirichlet(np.ones(n2))
                assert float(x_s @ A @ y) <= v + 1e-9
                assert float(x @ A @ y_s) >= v - 1e-9

    def test_rock_paper_scissors(self):
        A = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
        x, y, v, exact = game_saddle_oracle(A)
        assert exact
        np.testing.assert_allclose(x, np.ones(3) / 3, atol=1e-10)
        assert v == pytest.approx(0.0, abs=1e-12)


class TestBoxGame:
    def test_origin_is_saddle(self):
        A4 = np.array(
            [[1.0, 0.3, 0.2, 0.1], [0.3, 2.0, 0.1, 0.2], [0.2, 0.1, 1.0, 0.3], [0.1, 0.2, 0.3, 2.0]]
        )
        prob, ref = box_game_problem(A4, m_blocks=2, n_blocks=2)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(-1, 1, 4)
            y = rng.uniform(-1, 1, 4)
            assert prob.phi_value(ref.x, y) <= prob.phi_value(ref.x, ref.y) + 1e-12
            assert prob.phi_value(x, ref.y) >= prob.phi_value(ref.x, ref.y) - 1e-12

    def test_block_coupling_norms(self):
        A = np.arange(16.0).reshape(4, 4)
        prob, _ = box_game_problem(A, m_blocks=2, n_blocks=2)
        assert prob.lipschitz.Lxy[0, 1] == pytest.approx(np.linalg.norm(A[:2, 2:], 2))
        assert prob.lipschitz.Lyx[1, 0] == pytest.approx(np.linalg.norm(A[:2, 2:], 2))

    def test_a_nan_half_width_is_refused(self):
        # it used to build boxes of NaN bounds, which contain no point
        with pytest.raises(ValueError, match="box lower bound has a NaN entry"):
            box_game_problem(np.eye(2), half_width=np.nan)


@pytest.mark.parametrize("blocks", [0, -2])
@pytest.mark.parametrize("build, name", [
    (lambda b: robust_erm_problem(generate_robust_erm(1, 6, 4), m_blocks=b), "m_blocks"),
    (lambda b: robust_erm_problem(generate_robust_erm(1, 6, 4), n_blocks=b), "n_blocks"),
    (lambda b: box_game_problem(np.eye(4), m_blocks=b), "m_blocks"),
    (lambda b: box_game_problem(np.eye(4), n_blocks=b), "n_blocks"),
    (lambda b: constrained_qp_problem(ConstrainedSpec(Q=np.eye(2), c=[0.0, 0.0], G=[[1.0, 1.0]], d=[1.0]),
                                      m_blocks=b), "m_blocks"),
], ids=["erm_m", "erm_n", "box_game_m", "box_game_n", "qp_m"])
def test_block_counts_below_one_are_refused_by_name(build, name, blocks):
    # 0 used to raise ZeroDivisionError, and -2 divides the dimensions
    with pytest.raises(ValueError, match=f"{name}={blocks} is below 1"):
        build(blocks)


class TestQpProblems:
    def test_reference_x_ge_one(self):
        x, y = qp_reference([[2.0]], [0.0], [[-1.0]], [-1.0])
        assert x[0] == pytest.approx(1.0) and y[0] == pytest.approx(2.0)

    def test_unconstrained(self):
        Q = np.array([[2.0, 0.0], [0.0, 4.0]])
        c = np.array([-2.0, -4.0])
        x, y = qp_reference(Q, c, np.zeros((0, 2)), [])
        np.testing.assert_allclose(x, [1.0, 1.0])
        assert y.size == 0

    def test_inactive_constraint(self):
        x, y = qp_reference([[2.0]], [0.0], [[-1.0]], [1.0])  # x >= -1
        assert x[0] == pytest.approx(0.0) and y[0] == pytest.approx(0.0)

    def test_kkt_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            n_con = int(rng.integers(1, 5))
            B = rng.standard_normal((m, m))
            Q = B @ B.T + 0.5 * np.eye(m)
            c = rng.standard_normal(m)
            G = rng.standard_normal((n_con, m))
            d = G @ rng.standard_normal(m) + rng.uniform(0.1, 1.0, n_con)
            x, y = qp_reference(Q, c, G, d)
            stationarity = Q @ x + c + G.T @ y
            assert np.linalg.norm(stationarity) <= 1e-9
            assert np.all(G @ x - d <= 1e-9)
            assert np.all(y >= -1e-12)
            assert abs(y @ (G @ x - d)) <= 1e-8

    def test_problem_consistency(self):
        spec = ConstrainedSpec(Q=[[2.0, 0.0], [0.0, 2.0]], c=[1.0, -1.0], G=[[1.0, 1.0], [-1.0, 0.0]], d=[1.0, 0.5])
        prob, (x_s, y_s), f_star = constrained_qp_problem(spec)
        from rbpda.blocks import validate_problem

        report = validate_problem(prob)
        assert report.ok, report.failures
        # the reference is a saddle of the Lagrangian
        rng = np.random.default_rng(5)
        L = prob.phi_value
        for _ in range(200):
            x = rng.uniform(-2, 2, 2)
            y = np.abs(rng.standard_normal(2))
            assert L(x_s, y) <= L(x_s, y_s) + 1e-9
            assert L(x, y_s) >= L(x_s, y_s) - 1e-9

    def test_slater_validation(self):
        with pytest.raises(ValueError):
            ConstrainedSpec(Q=[[2.0]], c=[0.0], G=[[1.0]], d=[-1.0], slater=[0.0])

    @pytest.mark.parametrize("name,value,message", [
        ("c", [np.nan, -1.0], "c has non-finite entries"),
        ("d", [0.5, np.nan], "d has non-finite entries"),
        ("Q", [[2.0, np.nan], [np.nan, 1.0]], "Q has non-finite entries"),
        ("G", [[1.0, -1.0], [np.inf, 1.0]], "G has non-finite entries"),
        ("Q", [[-1.0, 0.0], [0.0, 1.0]], "positive semidefinite Q: Q has the eigenvalue -1"),
        ("Q", [[2.0, 0.3], [-0.3, 1.0]], "symmetric Q"),
    ], ids=["nan_c", "nan_d", "nan_Q", "inf_G", "indefinite_Q", "nonsymmetric_Q"])
    def test_bad_data_refused_by_name(self, name, value, message):
        # each used to build: NaN in c gave a NaN x* and f*, NaN in d a
        # reference that counted the constraint as met, NaN in Q numpy's
        # "SVD did not converge", an indefinite Q the finite f* of an
        # unbounded problem, a nonsymmetric Q a Q x + c that is not the
        # objective's gradient
        data = dict(Q=[[2.0, 0.3], [0.3, 1.0]], c=[0.5, -1.0], G=[[1.0, -1.0], [0.5, 1.0]], d=[0.5, 0.2])
        data[name] = value
        with pytest.raises(ValueError, match=message):
            constrained_qp_problem(ConstrainedSpec(**data))

    def test_semidefinite_q_within_the_tolerance_is_accepted(self):
        # a singular Q (an LP's zero, a rank-one Q whose computed smallest
        # eigenvalue may be a rounding below 0) builds; x <= 0 binds both
        # coordinates, so the active-set reference has a regular system
        for Q in ([[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]):
            spec = ConstrainedSpec(Q=Q, c=[-1.0, -1.0], G=np.eye(2), d=[0.0, 0.0])
            prob, (x_star, _), _ = constrained_qp_problem(spec)
            np.testing.assert_allclose(x_star, [0.0, 0.0], atol=1e-12)
            assert prob.lipschitz.Lxx_whole == pytest.approx(max(np.linalg.eigvalsh(Q)))

    @pytest.mark.parametrize("Q", [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]], ids=["rank_one", "zero"])
    def test_singular_kkt_systems_give_a_reference(self, Q):
        # every KKT system of x1 + x2 <= 1 is singular with this Q; both
        # problems are minimised at f* = 0 (x = 0 among others), which the
        # reference used to miss ("no feasible active set found")
        Q, c, G, d = np.array(Q), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0])
        prob, (x, y), f_star = constrained_qp_problem(ConstrainedSpec(Q=Q, c=c, G=G, d=d))
        assert f_star == 0.0 and prob.structure.N == 1
        assert np.linalg.norm(Q @ x + c + G.T @ y) <= 1e-9
        assert np.all(G @ x - d <= 1e-9) and np.all(y >= 0.0)
        assert abs(y @ (G @ x - d)) <= 1e-9

    @pytest.mark.parametrize("m_blocks", [1, 3])
    def test_whole_vector_curvature_certification(self, m_blocks):
        # Lxx_whole = lambda_max(Q) bounds ||grad_x(x1, y) - grad_x(x2, y)|| /
        # ||x1 - x2|| over random pairs, and is met along Q's top eigenvector
        rng = np.random.default_rng(12)
        B = rng.standard_normal((6, 4))
        Q = B @ B.T
        G = rng.standard_normal((3, 6))
        spec = ConstrainedSpec(Q=Q, c=rng.standard_normal(6), G=G, d=G @ rng.standard_normal(6) + 1.0)
        prob, _, _ = constrained_qp_problem(spec, m_blocks=m_blocks)
        whole = prob.lipschitz.Lxx_whole
        top = np.linalg.eigh(Q)[1][:, -1]
        worst = 0.0
        for k in range(200):
            x1, y = rng.standard_normal(6), np.abs(rng.standard_normal(3))
            d = top if k == 0 else rng.standard_normal(6) * 10 ** rng.uniform(-3, 1)
            lhs = np.linalg.norm(prob.full_grad_x(x1 + d, y) - prob.full_grad_x(x1, y))
            rhs = np.linalg.norm(d)
            assert lhs <= whole * rhs * (1 + 1e-9)
            worst = max(worst, lhs / rhs)
        assert worst >= 0.99 * whole

    def test_empty_index_set_is_refused_by_name(self):
        # the mean over no constraints is refused by name, not by a ZeroDivisionError
        spec = ConstrainedSpec(Q=[[2.0, 0.3], [0.3, 1.0]], c=[0.5, -1.0], G=[[1.0, -1.0], [0.5, 1.0]], d=[0.5, 0.2])
        prob, _, _ = constrained_qp_problem(spec, m_blocks=2)
        x, y = np.zeros(2), np.ones(2)
        for indices in ([], np.array([], dtype=int)):
            with pytest.raises(ValueError, match="nonempty index set"):
                prob.batch_grad_x(indices, 0, [(x, y)], (1.0,))


def test_component_fd_on_game_and_qp():
    # central finite differences of the component values reproduce the
    # component gradients on every built-in exposing analytic values
    h = 1e-6
    rng = np.random.default_rng(8)
    game, _ = matrix_game_problem(MatrixGameSpec(np.array([[1.0, -0.5], [0.3, 2.0]])))
    spec = ConstrainedSpec(Q=[[2.0, 0.3], [0.3, 1.0]], c=[0.5, -1.0], G=[[1.0, -1.0]], d=[0.5])
    qp, _, _ = constrained_qp_problem(spec)
    for prob, x, y in (
        (game, rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))),
        (qp, rng.standard_normal(2), np.abs(rng.standard_normal(1))),
    ):
        for l in range(prob.p):
            g = prob.component_grad_x(l, 0, x, y)
            for c in range(x.size):
                e = np.zeros(x.size)
                e[c] = h
                fd = (prob.phi_component(l, x + e, y) - prob.phi_component(l, x - e, y)) / (2 * h)
                assert fd == pytest.approx(g[c], rel=1e-5, abs=1e-6)


def test_validate_problem_on_builtins():
    from rbpda.blocks import validate_problem

    data = generate_robust_erm(6, 9, 6, 0.1)
    for n_blocks in (1, 3, 9):
        prob = robust_erm_problem(data, radius=2.0, m_blocks=3, n_blocks=n_blocks)
        assert validate_problem(prob).ok
    game, _ = matrix_game_problem(MatrixGameSpec(np.diag([1.0, 2.0])))
    assert validate_problem(game).ok
    box, _ = box_game_problem(np.arange(16.0).reshape(4, 4) + np.eye(4), m_blocks=2, n_blocks=2)
    assert validate_problem(box).ok
    # the QP's one_row_grad_y is checked against its grad_y, bit for bit
    spec = ConstrainedSpec(Q=[[2.0, 0.3], [0.3, 1.0]], c=[0.5, -1.0], G=[[1.0, -1.0], [0.5, 1.0]], d=[0.5, 0.2])
    for m_blocks in (1, 2):
        qp, _, _ = constrained_qp_problem(spec, m_blocks=m_blocks)
        assert qp.one_row_grad_y is not None
        assert validate_problem(qp).ok, m_blocks


def _masked_sigmoid(z):
    # Reference logistic: one exp per sign of z through boolean masks.
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bitwise_matches_masked_form():
    special = np.array([0.0, 1e-300, 1.0, 30.0, 700.0, 745.0, 800.0])
    special = np.concatenate([special, -special])
    rng = np.random.default_rng(0)
    inputs = [np.array(v) for v in special]  # 0-d, as component_grad_x passes
    for n in range(1, 10):
        for _ in range(40):
            inputs.append(rng.choice(special, size=n))
            inputs.append(rng.standard_normal(n) * 40.0)
    for z in inputs:
        got, want = _sigmoid(z), _masked_sigmoid(z)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), z


def test_erm_batch_grad_matches_single_point_formula_bitwise():
    # a point of weight 1 keeps the summation order of the one-point formula
    # at every batch size, up to the full batch, also inside a call whose
    # weights select it from the solver's three points
    data = generate_robust_erm(8, 200, 30, 0.1)
    prob = robust_erm_problem(data, radius=2.0, m_blocks=3, n_blocks=200)
    p, mb = prob.p, 10
    rng = np.random.default_rng(5)
    x_k, x_prev = rng.uniform(-2, 2, (2, 30))
    y_next, y_k, y_prev = rng.uniform(0, 1, (3, 200))
    points = ((x_k, y_next), (x_k, y_k), (x_prev, y_prev))
    for v in (1, 2, 7, 95, 200):
        rows = np.arange(p) if v == p else rng.integers(0, p, size=v)
        sub = data.A[rows]
        neg_b = -data.b[rows]
        for i in range(3):
            for k, (x, y) in enumerate(points):
                coef = p * y[rows] * (neg_b * _sigmoid(neg_b * (sub @ x)))
                want = (coef @ sub[:, i * mb : (i + 1) * mb]) / v
                assert np.array_equal(prob.batch_grad_x(rows, i, [(x, y)], (1.0,)), want), (v, i)
                select = tuple(float(k == q) for q in range(3))
                assert np.array_equal(prob.batch_grad_x(rows, i, points, select), want), (v, i, k)


def _grouped_cached_grad_x(A, neg_b, p, mb, indices, i, points, weights, cache):
    # the cached branch of robust ERM's batch_grad_x as the grouped loop
    # computes it: one coefficient over all rows from each group's slopes,
    # gathered once, times the rows of A on primal block i; the slopes are
    # the formula on the cache's margins
    n = A.shape[0]
    rows = np.asarray(indices, dtype=int)
    count = rows.size
    if count == n and np.array_equal(rows, np.arange(n)):
        rows = slice(None)
    xs, which = [points[0][0]], []
    for x, _ in points:
        if x is not xs[-1]:
            xs.append(x)
        which.append(len(xs) - 1)
    slopes = [neg_b * _sigmoid(neg_b * cache.margins(x)) for x in xs]
    coef = None
    for (_, y), w, r in zip(points, weights, which):
        term = y * (w * p)
        term *= slopes[r]
        coef = term if coef is None else np.add(coef, term, out=coef)
    coef = coef[rows]
    sub_i = A[rows, i * mb : (i + 1) * mb]
    out = coef @ sub_i
    out /= count
    return out


def test_erm_cached_coefficient_equals_the_grouped_formula_bitwise():
    # the cached branch sums one term per point, with each point's slopes
    # from the cache; it has the bits of the grouped loop it replaced on the
    # step's three points, the first two at x^k, whatever the rows (a few,
    # all but one, all of them, repeated, unsorted, a list), the cache's
    # state (fresh, moved, synced after a move, which drops the slopes of
    # x^(k-1)) and with x^(k-1) the same array as x^k; and on one point,
    # two, the three in another order and four
    data = generate_robust_erm(8, 40, 12, 0.1)
    prob = robust_erm_problem(data, radius=2.0, m_blocks=3, n_blocks=40)
    A, neg_b, p, mb = data.A, -data.b, prob.p, 4
    rng = np.random.default_rng(11)
    x_k, x_prev = rng.uniform(-2, 2, (2, 12))
    y_next, y_k, y_prev = rng.uniform(0, 1, (3, 40))
    cache = prob.coupling_cache(x_k, y_k, x_prev, y_prev, p)
    assert cache is not None
    row_sets = [
        rng.integers(0, p, size=2),
        rng.permutation(p)[:7],
        np.delete(np.arange(p), 17),
        np.arange(p),
        np.array([5, 3, 5, 39, 0, 3]),
        [9, 2, 2, 30],
    ]

    def check(points, weights):
        for rows in row_sets:
            for i in range(3):
                got = prob.batch_grad_x(rows, i, points, weights, cache=cache)
                want = _grouped_cached_grad_x(A, neg_b, p, mb, rows, i, points, weights, cache)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (rows, i, len(points))

    for state in ("fresh", "moved", "synced"):
        if state == "moved":
            cache.slopes(x_k)
            dx = rng.uniform(-0.5, 0.5, mb)
            x_prev[:] = x_k
            x_k[mb : 2 * mb] += dx
            cache.move(1, dx)
            assert cache.s_prev is not None and cache.s is None
        elif state == "synced":
            cache.sync()
            assert cache.s_prev is None and cache.s is None
        for weights in ((1.0, 2.5, -2.5), (1.0, 0.0, -0.0)):
            check(((x_k, y_next), (x_k, y_k), (x_prev, y_prev)), weights)
            check(((x_k, y_next), (x_k, y_k), (x_k, y_prev)), weights)
        check(((x_k, y_k),), (1.0,))
        check(((x_k, y_k), (x_prev, y_prev)), (1.0, -0.5))
        check(((x_prev, y_prev), (x_k, y_next), (x_k, y_k)), (-2.5, 1.0, 2.5))
        check(((x_k, y_next), (x_prev, y_k), (x_k, y_prev)), (1.0, 2.5, -2.5))
        check(((x_k, y_next), (x_k, y_k), (x_prev, y_prev), (x_prev, y_k)), (1.0, 2.5, -2.5, 0.5))


@pytest.mark.parametrize("cached", [False, True])
def test_erm_empty_index_set_is_refused_by_name(cached):
    # an empty batch has no mean: ValueError names it, with no warning and
    # no NaN row first
    data = generate_robust_erm(8, 40, 12, 0.1)
    prob = robust_erm_problem(data, radius=2.0, m_blocks=3, n_blocks=40)
    x, x_prev = np.zeros(12), np.ones(12)
    y = prob.start_y
    kw = {"cache": prob.coupling_cache(x, y, x_prev, y, prob.p)} if cached else {}
    points = ((x, y), (x, y), (x_prev, y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for indices in ([], np.array([], dtype=int), np.zeros(0)):
            with pytest.raises(ValueError, match="nonempty index set"):
                prob.batch_grad_x(indices, 0, points, (1.0, 0.5, -0.5), **kw)


def test_erm_one_row_scalar_paths_agree_with_array_paths():
    # batch size 1 and one-row dual blocks run in Python floats; they agree
    # with the array formulas to 1e-12
    data = generate_robust_erm(9, 60, 12, 0.1)
    prob = robust_erm_problem(data, radius=3.0, m_blocks=4, n_blocks=60)
    A, b, p, mb = data.A, data.b, prob.p, 3
    rng = np.random.default_rng(7)
    x_k, x_prev = rng.uniform(-3, 3, (2, 12))
    y_next, y_k, y_prev = rng.uniform(0, 1, (3, 60))
    points = ((x_k, y_next), (x_k, y_k), (x_prev, y_prev))
    weights = (1.0, 2.5, -2.5)  # the solver's (1, c, -c)
    cache = prob.coupling_cache(x_k, y_k, x_prev, y_prev, p)

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))

    for l in range(60):
        for i in range(4):
            one = prob.batch_grad_x(np.array([l]), i, points, weights)
            # a repeated index takes the array path and has the same mean
            close(one, prob.batch_grad_x(np.array([l, l]), i, points, weights))
            close(one, prob.batch_grad_x(np.array([l]), i, points, weights, cache=cache))
            want = 0.0
            for w, (x, y) in zip(weights, points):
                row = prob.batch_grad_x(np.array([l]), i, [(x, y)], (1.0,))
                close(row, prob.component_grad_x(l, i, x, y))
                t = -b[l] * _sigmoid(-b[l] * (A[l] @ x))
                close(row, p * y[l] * t * A[l, i * mb : (i + 1) * mb])
                want = want + w * row
            close(one, want)
        got = prob.grad_y(l, ((x_k, y_k), (x_prev, y_prev)))
        want = [[np.logaddexp(0.0, -b[l] * (A[l] @ x))] for x in (x_k, x_prev)]
        close(got, np.array(want))
        close(got, prob.grad_y(l, ((x_k, y_k), (x_prev, y_prev)), cache=cache))


@pytest.mark.parametrize("n_blocks", [1, 4])
@pytest.mark.parametrize("cached", [False, True])
def test_erm_grad_y_equals_the_loss_formula_bitwise(cached, n_blocks):
    # each point's row of a dual block of several rows is logaddexp(0, -b (A x))
    # on the block's rows, bit for bit, whether the margins come from the
    # synced cache (A x, then the rows) or from the block's rows of A; at
    # N = 1 both are -b * (A @ x); one point (the step's usual call) and two
    data = generate_robust_erm(5, 40, 12, 0.1)
    prob = robust_erm_problem(data, radius=2.0, m_blocks=3, n_blocks=n_blocks)
    A, b, nb = data.A, data.b, 40 // n_blocks
    rng = np.random.default_rng(4)
    x_k, x_prev = rng.uniform(-2, 2, (2, 12))
    y = prob.start_y
    kw = {}
    if cached:
        kw["cache"] = prob.coupling_cache(x_k, y, x_prev, y, 40)
        assert kw["cache"] is not None
    for j in range(n_blocks):
        rows = slice(j * nb, (j + 1) * nb)
        want = [np.logaddexp(0.0, -b[rows] * ((A @ x)[rows] if cached else A[rows] @ x)) for x in (x_k, x_prev)]
        for points in (((x_k, y),), ((x_k, y), (x_prev, y))):
            got = prob.grad_y(j, points, **kw)
            assert got.shape == (len(points), nb)
            assert np.array_equal(got.view(np.int64), np.array(want[: len(points)]).view(np.int64))


@pytest.mark.parametrize("cached", [False, True])
def test_erm_grad_y_calls_return_arrays_of_their_own(cached):
    # the step keeps a row of one call's result while it makes the next
    # call, so no two calls may share an output buffer
    data = generate_robust_erm(5, 40, 12, 0.1)
    prob = robust_erm_problem(data, radius=2.0, m_blocks=3, n_blocks=1)
    x = np.random.default_rng(4).uniform(-2, 2, 12)
    y = prob.start_y
    kw = {"cache": prob.coupling_cache(x, y, x.copy(), y, 40)} if cached else {}
    first = prob.grad_y(0, ((x, y),), **kw)
    kept = first.copy()
    second = prob.grad_y(0, ((x, y),), **kw)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first.view(np.int64), kept.view(np.int64))
    assert np.array_equal(first.view(np.int64), second.view(np.int64))
