"""Block layout plumbing, prox specs, and problem consistency validation."""

import numpy as np
import pytest

from rbpda.blocks import (
    BlockLayout,
    BlockStructure,
    ProxSpec,
    SaddleProblem,
    validate_problem,
)
from rbpda.bregman import prox_step
from rbpda.problems import (
    MatrixGameSpec,
    box_game_problem,
    generate_robust_erm,
    matrix_game_problem,
    robust_erm_problem,
)
from rbpda.stepsize import BlockLipschitz


class TestBlockLayout:
    def test_block_slice_offsets(self):
        assert BlockLayout((2, 3)).block_range(1) == slice(2, 5)

    def test_single_block_is_whole_vector(self):
        layout = BlockLayout((1,))
        assert layout.ranges == (slice(0, 1),) and layout.n_blocks == layout.total_dim == 1

    def test_out_of_range_hard_failure(self):
        with pytest.raises(IndexError):
            BlockLayout((2, 3)).block_range(2)

    def test_views_write_through(self):
        # block ranges are basic slices, so a block of a side's array is a view
        v = np.zeros(4)
        block = v[BlockLayout((2, 2)).block_range(1)]
        block[:] = 9.0
        np.testing.assert_allclose(v, [0, 0, 9, 9])

    def test_round_trip_concatenation(self):
        rng = np.random.default_rng(0)
        for dims in [(1,), (3, 2), (2, 5, 1, 4)]:
            layout = BlockLayout(dims)
            data = rng.standard_normal(layout.total_dim)
            rebuilt = np.concatenate([data[layout.block_range(i)] for i in range(layout.n_blocks)])
            np.testing.assert_array_equal(rebuilt, data)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BlockLayout((2, 0))
        with pytest.raises(ValueError):
            BlockLayout(())


class TestProxSpec:
    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            ProxSpec.box([1.0], [0.0])

    def test_simplex_geometry_restriction(self):
        with pytest.raises(ValueError):
            ProxSpec("nonneg", geometry=__import__("rbpda.bregman", fromlist=["NEGATIVE_ENTROPY"]).NEGATIVE_ENTROPY)

    def test_membership_slack(self):
        spec = ProxSpec.simplex()
        assert spec.contains(np.array([0.5, 0.5 + 5e-13]))
        assert not spec.contains(np.array([0.7, 0.7]))


def _bilinear_problem(A):
    st = BlockStructure.from_dims([A.shape[0]], [A.shape[1]])
    lip = BlockLipschitz(
        np.zeros((1, 1)), np.array([[1.0]]), np.zeros((1, 1)), np.array([[1.0]])
    )
    return SaddleProblem(
        structure=st,
        p=1,
        primal_prox=[ProxSpec.simplex()],
        dual_prox=[ProxSpec.simplex()],
        component_grad_x=lambda l, i, x, y: A @ y,
        grad_y=lambda j, points: np.array([A.T @ x for x, _ in points]),
        lipschitz=lip,
        phi_value=lambda x, y: float(x @ A @ y),
        phi_component=lambda l, x, y: float(x @ A @ y),
    )


class TestValidateProblem:
    def test_bilinear_game_clean(self):
        report = validate_problem(_bilinear_problem(np.eye(2)))
        assert report.ok and report.failures == []

    def test_finite_sum_mismatch_flagged(self):
        data = generate_robust_erm(5, 8, 6, 0.0)
        good = robust_erm_problem(data, radius=1.0, m_blocks=2, n_blocks=1)
        bad = robust_erm_problem(data, radius=1.0, m_blocks=2, n_blocks=1)
        # component oracle returning the full gradient scaled by p at block 0
        orig = bad.component_grad_x
        blk_0 = good.structure.primal.block_range(0)
        bad.component_grad_x = lambda l, i, x, y: (
            bad.p * good.full_grad_x(x, y)[blk_0] if i == 0 else orig(l, i, x, y)
        )
        bad.batch_grad_x = bad._batch_grad_x_looped
        report = validate_problem(bad, tolerance=1e-8)
        assert not report.ok
        assert any("finite-sum mismatch" in msg for msg in report.failures)

    def test_shifted_full_grad_y_flagged(self):
        # the sup-gap best responses read full_grad_y; it must agree with grad_y
        data = generate_robust_erm(5, 8, 6, 0.0)
        prob = robust_erm_problem(data, radius=1.0, m_blocks=2, n_blocks=4)
        assert validate_problem(prob).ok
        full_grad_y = prob.full_grad_y
        prob.full_grad_y = lambda x, y, cache=None: full_grad_y(x, y) + 1e-3
        report = validate_problem(prob)
        assert [msg for msg in report.failures if "full_grad_y mismatch at dual block" in msg]
        assert not [msg for msg in report.failures if "full_grad_y" not in msg]

    def test_batch_grad_x_of_the_wrong_shape_flagged(self):
        # the per-point rows of the earlier contract are not a (dim_i,) array
        prob = _bilinear_problem(np.eye(2))
        looped = prob._batch_grad_x_looped
        prob.batch_grad_x = lambda idx, i, points, weights: np.stack(
            [looped(idx, i, [point], (1.0,)) for point in points]
        )
        report = validate_problem(prob)
        assert any("batch_grad_x block 0: shape (1, 2) != (2,)" in msg for msg in report.failures)

    def test_batch_grad_x_that_ignores_its_weights_flagged(self):
        prob = _bilinear_problem(np.eye(2))
        looped = prob._batch_grad_x_looped
        prob.batch_grad_x = lambda idx, i, points, weights: looped(idx, i, points, [1.0] * len(points))
        report = validate_problem(prob)
        assert any("batch_grad_x mismatch at primal block 0" in msg for msg in report.failures)

    def test_never_raises_on_broken_oracle(self):
        prob = _bilinear_problem(np.eye(2))

        def broken(l, i, x, y):
            raise RuntimeError("oracle exploded")

        prob.component_grad_x = broken
        report = validate_problem(prob)
        assert not report.ok

    def test_finite_sum_identity_builtins(self):
        # mean of component gradients equals the full partial gradient
        rng = np.random.default_rng(1)
        data = generate_robust_erm(2, 12, 8, 0.1)
        for n_blocks in (1, 12):
            prob = robust_erm_problem(data, radius=2.0, m_blocks=4, n_blocks=n_blocks)
            for _ in range(5):
                x = rng.uniform(-2, 2, 8)
                y = np.abs(rng.standard_normal(12))
                y /= y.sum()
                for i in range(4):
                    mean = np.mean(
                        [prob.component_grad_x(l, i, x, y) for l in range(prob.p)], axis=0
                    )
                    full = prob.full_grad_x(x, y)[prob.structure.primal.block_range(i)]
                    assert np.linalg.norm(mean - full) <= 1e-10 * (1 + np.linalg.norm(full))

    def test_component_grads_match_finite_differences(self):
        data = generate_robust_erm(3, 6, 4, 0.2)
        prob = robust_erm_problem(data, radius=2.0, m_blocks=2, n_blocks=1)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 4)
        y = np.abs(rng.standard_normal(6))
        y /= y.sum()
        h = 1e-6
        for l in range(prob.p):
            for i in range(2):
                g = prob.component_grad_x(l, i, x, y)
                for c in range(2):
                    e = np.zeros(4)
                    e[i * 2 + c] = h
                    fd = (prob.phi_component(l, x + e, y) - prob.phi_component(l, x - e, y)) / (2 * h)
                    assert fd == pytest.approx(g[c], rel=1e-5, abs=1e-7)


class TestGradYOracle:
    @staticmethod
    def _game(A):
        st = BlockStructure.from_dims([A.shape[0]], [A.shape[1]])
        lip = BlockLipschitz(np.zeros((1, 1)), np.array([[2.0]]), np.zeros((1, 1)), np.array([[2.0]]))
        return SaddleProblem(
            structure=st,
            p=1,
            primal_prox=[ProxSpec.simplex()],
            dual_prox=[ProxSpec.simplex()],
            component_grad_x=lambda l, i, x, y: A @ y,
            lipschitz=lip,
            grad_y=lambda j, points: np.array([A.T @ x for x, _ in points]),
            phi_value=lambda x, y: float(x @ A @ y),
            phi_component=lambda l, x, y: float(x @ A @ y),
        )

    def test_problem_with_grad_y_runs_and_validates(self):
        from rbpda import SolverConfig, run

        A = np.diag([1.0, 2.0])
        prob = self._game(A)
        report = validate_problem(prob)
        assert report.ok, report.failures
        res = run(prob, SolverConfig(max_iters=200, seed=1, checkpoint_every=100))
        ref, _ = matrix_game_problem(MatrixGameSpec(A))
        same = run(ref, SolverConfig(max_iters=200, seed=1, checkpoint_every=100))
        assert np.array_equal(res.x, same.x) and np.array_equal(res.y, same.y)

    def test_needs_grad_y(self):
        prob = self._game(np.eye(2))
        with pytest.raises(ValueError, match="need grad_y"):
            SaddleProblem(
                structure=prob.structure,
                p=1,
                primal_prox=prob.primal_prox,
                dual_prox=prob.dual_prox,
                component_grad_x=prob.component_grad_x,
                lipschitz=prob.lipschitz,
            )

    def test_wrong_row_length_is_a_failure_not_a_raise(self):
        # one column too many used to make the full_grad_y comparison raise
        # "operands could not be broadcast together"
        prob, _ = box_game_problem(np.eye(2))
        A = prob.notes["payoff"]
        prob.grad_y = lambda j, points: np.array([np.append(A.T @ x, 0.0) for x, _ in points])
        report = validate_problem(prob)
        assert not report.ok
        assert "grad_y block 0: shape (1, 3) != (1, 2)" in report.failures


def test_lagrangian_on_indicators_equals_phi():
    prob, _ = matrix_game_problem(MatrixGameSpec(np.diag([1.0, 2.0])))
    x = np.array([0.3, 0.7])
    y = np.array([0.6, 0.4])
    assert prob.lagrangian(x, y) == pytest.approx(float(x @ np.diag([1.0, 2.0]) @ y))


def _sided_problem(primal, dual):
    """A problem with the given (spec, dim) lists per side and inert oracles."""
    st = BlockStructure.from_dims([d for _, d in primal], [d for _, d in dual])
    return SaddleProblem(
        structure=st,
        p=1,
        primal_prox=[spec for spec, _ in primal],
        dual_prox=[spec for spec, _ in dual],
        component_grad_x=lambda l, i, x, y: np.zeros(st.primal.dims[i]),
        grad_y=lambda j, points: np.zeros((len(points), st.dual.dims[j])),
    )


def _loop_contains(specs, layout, v, slack):
    return all(spec.contains(v[layout.block_range(b)], slack) for b, spec in enumerate(specs))


def _loop_value(specs, layout, v):
    total = sum(spec.value(v[layout.block_range(b)]) for b, spec in enumerate(specs))
    return float(total / layout.n_blocks)


def _loop_best_response(spec, grad_block, maximize):
    g = grad_block if maximize else -grad_block
    if spec.kind == "box":
        lo = np.broadcast_to(spec.lower, g.shape)
        hi = np.broadcast_to(spec.upper, g.shape)
        return np.where(g > 0, hi, lo).astype(float)
    out = np.zeros_like(g)
    out[int(np.argmax(g))] = 1.0
    return out


def _adversarial_points(specs, layout, slack):
    """A feasible point, then one coordinate set to NaN, +-inf or a bound +- slack."""
    base = np.concatenate([spec.feasible_point(d) for spec, d in zip(specs, layout.dims)])
    yield base
    for b, spec in enumerate(specs):
        blk = layout.block_range(b)
        for c in range(blk.start, blk.stop):
            values = [np.nan, np.inf, -np.inf, -1e300, 1e300]
            if spec.kind == "box":
                lo = float(np.broadcast_to(spec.lower, (layout.dims[b],))[c - blk.start])
                hi = float(np.broadcast_to(spec.upper, (layout.dims[b],))[c - blk.start])
            else:
                lo, hi = 0.0, 1.0
            for edge in (lo - slack, hi + slack):
                values += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
            values += [lo - 2 * slack, hi + 2 * slack, lo - 1e-9, hi + 1e-9, -0.0]
            for value in values:
                v = base.copy()
                v[c] = value
                yield v


SIDES = {
    "box": [(ProxSpec.box([-1.0, 0.0], [1.0, 0.5]), 2), (ProxSpec.box([2.0], [3.0]), 1)],
    "scalar_box": [(ProxSpec.box(-1.0, 2.0), 3), (ProxSpec.box(0.0, 0.0), 2)],
    "box_nonneg": [(ProxSpec.box(-1.0, 1.0), 2), (ProxSpec.nonneg(), 2), (ProxSpec.box([0.5], [4.0]), 1)],
    "nonneg": [(ProxSpec.nonneg(), 2), (ProxSpec.nonneg(), 1)],
    "zero": [(ProxSpec.zero(), 2), (ProxSpec.zero(), 1)],
    "simplex": [(ProxSpec.simplex(), 3), (ProxSpec.simplex(), 2)],
    "simplex_box": [(ProxSpec.simplex(), 2), (ProxSpec.box(-1.0, 1.0), 2)],
    "l1_zero": [(ProxSpec.scaled_l1(0.5), 2), (ProxSpec.zero(), 1)],
}
LOOPED = ("simplex", "simplex_box", "l1_zero")


class TestStackedDomain:
    @pytest.mark.parametrize("name", sorted(SIDES))
    def test_matches_per_block_loop(self, name):
        # the whole-side check gives exactly the per-block result on both
        # sides, for the membership test and the indicator values
        side, other = SIDES[name], SIDES["box"]
        for prob, which in ((_sided_problem(side, other), 0), (_sided_problem(other, side), 1)):
            side = prob.sides[which]
            specs, layout = side.specs, side.layout
            assert side.stacks == (name not in LOOPED)
            fixed = prob.start_x if which else prob.start_y
            for slack in (0.0, 1e-12, 1e-9):
                for v in _adversarial_points(specs, layout, slack):
                    x, y = (fixed, v) if which else (v, fixed)
                    assert prob.in_domain(x, y, slack) == _loop_contains(specs, layout, v, slack)
                    value = prob.h_value(v) if which else prob.f_value(v)
                    assert np.array_equal(value, _loop_value(specs, layout, v), equal_nan=True)
                    assert type(value) is float

    @pytest.mark.parametrize("name", sorted(set(SIDES) - set(LOOPED)))
    def test_stacked_prox_matches_per_block_prox(self, name):
        # the whole-vector prox of a side with stacked bounds (one clip for
        # a mixed box and nonneg side) gives the per-block prox_step bits,
        # NaN, +-inf, -0.0 and points on and past the bounds included
        side, other = SIDES[name], SIDES["box"]
        rng = np.random.default_rng(5)
        for prob, which in ((_sided_problem(side, other), 0), (_sided_problem(other, side), 1)):
            side = prob.sides[which]
            specs, layout = side.specs, side.layout
            apply = side.prox
            for base in _adversarial_points(specs, layout, 1e-9):
                for linear in (np.zeros(base.size), rng.standard_normal(base.size), np.full(base.size, -0.0)):
                    for step in (0.5, 3.0):
                        want = np.concatenate(
                            [
                                prox_step(spec.geometry, spec, linear[blk], step, base[blk])
                                for spec, blk in zip(specs, layout.ranges)
                            ]
                        )
                        assert apply(linear, step, base).tobytes() == want.tobytes()

    def test_bounds_rebuilt_after_post_init(self):
        prob = _sided_problem(SIDES["box"], SIDES["nonneg"])
        assert prob.in_domain(np.array([0.0, 0.0, 2.5]), np.zeros(3))
        prob.primal_prox = [ProxSpec.box([-1.0, 0.0], [1.0, 0.5]), ProxSpec.box([5.0], [6.0])]
        prob.__post_init__()
        assert not prob.in_domain(np.array([0.0, 0.0, 2.5]), np.zeros(3))
        np.testing.assert_array_equal(prob.sides[0].lower, [-1.0, 0.0, 5.0])

    @pytest.mark.parametrize("name", ["box", "scalar_box", "simplex", "simplex_box"])
    def test_best_response_matches_per_block_loop(self, name):
        # the whole-side best response (one select on a box side) gives the
        # per-block corners and vertices bit for bit, for gradients with
        # signed zeros, infinities, NaN and tied simplex entries
        side, other = SIDES[name], SIDES["box"]
        specials = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0)
        rng = np.random.default_rng(3)
        for prob, which in ((_sided_problem(side, other), 0), (_sided_problem(other, side), 1)):
            s = prob.sides[which]
            assert s.responds
            dim = s.layout.total_dim
            grads = [np.zeros(dim), np.full(dim, -0.0), np.ones(dim), rng.standard_normal(dim)]
            grads += [rng.choice(specials, size=dim) for _ in range(200)]
            for g in grads:
                for maximize in (False, True):
                    want = np.concatenate(
                        [_loop_best_response(spec, g[blk], maximize) for spec, blk in zip(s.specs, s.layout.ranges)]
                    )
                    assert s.best_response(g, maximize).tobytes() == want.tobytes()
