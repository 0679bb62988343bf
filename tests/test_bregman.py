"""Bregman distances and proximal steps: closed forms against independent oracles."""

import numpy as np
import pytest

from rbpda.blocks import ProxSpec
from rbpda.bregman import (
    EUCLIDEAN,
    NEGATIVE_ENTROPY,
    BregmanGeometry,
    DomainError,
    _checked,
    bregman_distance,
    project_simplex,
    prox_kernel,
    prox_step,
)
from rbpda.solver import SMALL


class TestBregmanDistance:
    def test_euclidean_half_squared_norm(self):
        assert bregman_distance(EUCLIDEAN, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)

    def test_entropy_identity_is_zero(self):
        assert bregman_distance(NEGATIVE_ENTROPY, [0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0)

    def test_entropy_hand_value(self):
        # 0.75*log(1.5) + 0.25*log(0.5), evaluated by hand
        expected = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        got = bregman_distance(NEGATIVE_ENTROPY, [0.75, 0.25], [0.5, 0.5])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.130812, abs=1e-6)

    def test_entropy_boundary_reference_rejected(self):
        with pytest.raises(DomainError):
            bregman_distance(NEGATIVE_ENTROPY, [0.5, 0.5], [1.0, 0.0])

    def test_nonnegative_and_zero_at_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = project_simplex(rng.standard_normal(5))
            x_bar = project_simplex(rng.standard_normal(5)) + 1e-3
            x_bar /= x_bar.sum()
            assert bregman_distance(NEGATIVE_ENTROPY, x, x_bar) >= -1e-15
            y = rng.standard_normal(5)
            assert bregman_distance(EUCLIDEAN, y, y) == 0.0

    def test_pinsker_direction(self):
        # entropy distance dominates half the squared l1 distance on the simplex
        rng = np.random.default_rng(1)
        for _ in range(300):
            x = project_simplex(rng.standard_normal(6))
            x_bar = project_simplex(rng.standard_normal(6)) + 1e-6
            x_bar /= x_bar.sum()
            lhs = bregman_distance(NEGATIVE_ENTROPY, x, x_bar)
            rhs = 0.5 * np.abs(x - x_bar).sum() ** 2
            assert lhs >= rhs - 1e-12


class TestProxStep:
    def test_box_interior_fixed_point(self):
        spec = ProxSpec.box([-10.0, -10.0], [10.0, 10.0])
        out = prox_step(EUCLIDEAN, spec, np.zeros(2), 1.0, np.array([2.0, -3.0]))
        np.testing.assert_allclose(out, [2.0, -3.0])

    def test_box_clipped_gradient_step(self):
        spec = ProxSpec.box([-10.0, -10.0], [10.0, 10.0])
        out = prox_step(EUCLIDEAN, spec, np.array([5.0, 0.0]), 1.0, np.array([8.0, 0.0]))
        np.testing.assert_allclose(out, [3.0, 0.0])

    def test_entropy_exponentiated_gradient(self):
        spec = ProxSpec.simplex(geometry=NEGATIVE_ENTROPY)
        out = prox_step(NEGATIVE_ENTROPY, spec, np.array([np.log(2.0), 0.0]), 1.0, np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_zero_and_nonneg_and_l1(self):
        out = prox_step(EUCLIDEAN, ProxSpec.zero(), np.array([1.0]), 0.5, np.array([2.0]))
        np.testing.assert_allclose(out, [1.5])
        out = prox_step(EUCLIDEAN, ProxSpec.nonneg(), np.array([3.0]), 1.0, np.array([2.0]))
        np.testing.assert_allclose(out, [0.0])
        out = prox_step(EUCLIDEAN, ProxSpec.scaled_l1(1.0), np.zeros(3), 0.5, np.array([2.0, -0.2, 0.4]))
        np.testing.assert_allclose(out, [1.5, 0.0, 0.0])

    def test_entropy_overflow_stabilized(self):
        spec = ProxSpec.simplex(geometry=NEGATIVE_ENTROPY)
        out = prox_step(NEGATIVE_ENTROPY, spec, np.array([-2000.0, 0.0]), 1.0, np.array([0.5, 0.5]))
        assert np.isfinite(out).all()
        assert out.sum() == pytest.approx(1.0)
        assert out[0] == pytest.approx(1.0)

    def test_nonfinite_linear_rejected(self):
        with pytest.raises(ValueError):
            prox_step(EUCLIDEAN, ProxSpec.zero(), np.array([np.nan]), 1.0, np.array([0.0]))

    def test_output_in_domain(self):
        rng = np.random.default_rng(2)
        specs = [
            ProxSpec.box(-np.ones(4), np.ones(4)),
            ProxSpec.simplex(),
            ProxSpec.simplex(geometry=NEGATIVE_ENTROPY),
            ProxSpec.nonneg(),
        ]
        for spec in specs:
            geom = spec.geometry
            for _ in range(300):
                x_bar = (
                    project_simplex(rng.standard_normal(4))
                    if spec.kind == "simplex"
                    else np.clip(rng.standard_normal(4), -1, 1)
                )
                if geom.is_entropy:
                    x_bar = x_bar + 1e-6
                    x_bar /= x_bar.sum()
                out = prox_step(geom, spec, rng.standard_normal(4) * 3, 10 ** rng.uniform(-2, 1), x_bar)
                assert spec.contains(out, slack=1e-12)

    def test_euclidean_simplex_matches_grid_search(self):
        # brute-force grid over the 2-simplex, step 1e-3
        grid = []
        steps = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        for a in steps:
            for bb in steps:
                if a + bb <= 1.0 + 1e-12:
                    grid.append((a, bb, 1.0 - a - bb))
        grid = np.array(grid)
        rng = np.random.default_rng(3)
        spec = ProxSpec.simplex()
        for _ in range(10):
            x_bar = project_simplex(rng.standard_normal(3))
            r = rng.standard_normal(3)
            t = 10 ** rng.uniform(-1, 0.5)
            out = prox_step(EUCLIDEAN, spec, r, t, x_bar)
            point = x_bar - t * r
            obj = np.sum((grid - point) ** 2, axis=1)
            best = grid[int(np.argmin(obj))]
            assert np.max(np.abs(out - best)) <= 2e-3

    def test_prox_optimality_inequality(self):
        # g(x) + <r,x> + D(x,xb)/t >= g(x+) + <r,x+> + D(x+,xb)/t + D(x,x+)/t
        rng = np.random.default_rng(4)
        cases = [
            (ProxSpec.box(-np.ones(5), np.ones(5)), EUCLIDEAN),
            (ProxSpec.simplex(), EUCLIDEAN),
            (ProxSpec.simplex(geometry=NEGATIVE_ENTROPY), NEGATIVE_ENTROPY),
            (ProxSpec.nonneg(), EUCLIDEAN),
            (ProxSpec.zero(), EUCLIDEAN),
            (ProxSpec.scaled_l1(0.7), EUCLIDEAN),
        ]
        for spec, geom in cases:
            for _ in range(1000):
                if spec.kind == "simplex":
                    x_bar = project_simplex(rng.standard_normal(5)) + 1e-9
                    x_bar /= x_bar.sum()
                    x = project_simplex(rng.standard_normal(5))
                    if geom.is_entropy:
                        x = x + 1e-9
                        x /= x.sum()
                elif spec.kind == "box":
                    x_bar = rng.uniform(-1, 1, 5)
                    x = rng.uniform(-1, 1, 5)
                elif spec.kind == "nonneg":
                    x_bar = np.abs(rng.standard_normal(5))
                    x = np.abs(rng.standard_normal(5))
                else:
                    x_bar = rng.standard_normal(5)
                    x = rng.standard_normal(5)
                r = rng.standard_normal(5)
                t = 10 ** rng.uniform(-2, 0.5)
                plus = prox_step(geom, spec, r, t, x_bar)
                lhs = spec.value(x) + r @ x + bregman_distance(geom, x, x_bar) / t
                rhs = (
                    spec.value(plus)
                    + r @ plus
                    + bregman_distance(geom, plus, x_bar) / t
                    + bregman_distance(geom, x, np.maximum(plus, 1e-300) if geom.is_entropy else plus) / t
                )
                assert lhs >= rhs - 1e-9


def test_geometry_validation():
    with pytest.raises(ValueError):
        BregmanGeometry("spherical")
    with pytest.raises(ValueError):
        prox_step(NEGATIVE_ENTROPY, ProxSpec.box([0.0], [1.0]), np.zeros(1), 1.0, np.array([0.5]))


SCALAR_SPECS = [
    ProxSpec.box([0.0], [1.0]),
    ProxSpec.box([-0.0], [0.0]),
    ProxSpec.box([-1e300], [1e300]),
    ProxSpec.box([-2.5], [-0.5]),
    ProxSpec.nonneg(),
    ProxSpec.zero(),
]
SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.5, -0.5, 1e-300, -1e-300, 1e300, -1e300]


def bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


class TestScalarProx:
    """Float inputs for a one-coordinate block against the one-element array path."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(11)
        for spec in SCALAR_SPECS:
            for r in SPECIAL:
                for x_bar in SPECIAL:
                    for step in (1.0, 0.25, 1e-300):
                        yield spec, r, step, x_bar
            for _ in range(500):
                r, x_bar = rng.standard_normal(2) * 10.0 ** rng.integers(-3, 4, 2)
                yield spec, float(r), float(10 ** rng.uniform(-3, 1)), float(x_bar)

    def test_float_path_equals_one_element_array_path_bitwise(self):
        for spec, r, step, x_bar in self._cases():
            got = prox_step(EUCLIDEAN, spec, r, step, x_bar)
            with np.errstate(over="ignore"):  # r.r overflows at |r| = 1e300
                want = prox_step(EUCLIDEAN, spec, np.array([r]), step, np.array([x_bar]))
            assert type(got) is float
            assert want.shape == (1,)
            assert bits(got) == bits(want[0]), (spec.kind, r, step, x_bar)

    def test_bounds_and_signed_zeros(self):
        box = ProxSpec.box([0.0], [1.0])
        # a point at or beyond a bound lands on it; a tie keeps the bound's sign
        assert prox_step(EUCLIDEAN, box, 1.0, 2.0, 1.0) == 0.0
        assert bits(prox_step(EUCLIDEAN, box, 0.0, 1.0, -0.0)) == bits(0.0)
        assert prox_step(EUCLIDEAN, box, -1e300, 1.0, 0.5) == 1.0
        assert prox_step(EUCLIDEAN, box, 1e300, 1.0, 0.5) == 0.0
        assert prox_step(EUCLIDEAN, box, -0.25, 2.0, 0.5) == 1.0
        assert bits(prox_step(EUCLIDEAN, ProxSpec.nonneg(), 0.0, 1.0, -0.0)) == bits(0.0)

    def test_other_kinds_take_floats_through_the_array_path(self):
        cases = [
            (EUCLIDEAN, ProxSpec.simplex()),
            (NEGATIVE_ENTROPY, ProxSpec.simplex(geometry=NEGATIVE_ENTROPY)),
            (EUCLIDEAN, ProxSpec.scaled_l1(0.3)),
        ]
        for geom, spec in cases:
            for r, x_bar in ((0.7, 1.0), (-2.0, 0.4), (0.1, -0.2)):
                got = prox_step(geom, spec, r, 0.5, x_bar)
                want = prox_step(geom, spec, np.array([r]), 0.5, np.array([x_bar]))
                assert type(got) is float and bits(got) == bits(want[0])

    @pytest.mark.parametrize(
        "r,step,match",
        [
            (np.nan, 1.0, "non-finite"),
            (np.inf, 1.0, "non-finite"),
            (-np.inf, 1.0, "non-finite"),
            (1.0, 0.0, "step must be positive"),
            (1.0, -1.0, "step must be positive"),
            (1.0, np.nan, "step must be positive"),
        ],
    )
    @pytest.mark.parametrize(
        "spec", SCALAR_SPECS, ids=["box01", "box_zeros", "box_wide", "box_negative", "nonneg", "zero"]
    )
    def test_both_paths_raise_the_same_errors(self, spec, r, step, match):
        with pytest.raises(ValueError, match=match) as as_float:
            prox_step(EUCLIDEAN, spec, float(r), step, 0.5)
        with pytest.raises(ValueError, match=match) as as_array:
            prox_step(EUCLIDEAN, spec, np.array([r]), step, np.array([0.5]))
        assert str(as_float.value) == str(as_array.value)

    def test_entropy_geometry_on_a_box_rejected_for_floats(self):
        with pytest.raises(ValueError, match="only simplex"):
            prox_step(NEGATIVE_ENTROPY, ProxSpec.box([0.0], [1.0]), 0.0, 1.0, 0.5)

    def test_float_against_a_wider_box_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            prox_step(EUCLIDEAN, ProxSpec.box([0.0, 0.0], [1.0, 1.0]), 0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            prox_step(EUCLIDEAN, ProxSpec.zero(), 0.0, 1.0, np.array([0.5]))


def list_specs(n, rng):
    """Zero, nonneg and box specs for n coordinates: per-coordinate bounds with signed zeros and
    infinities, and one bound for every coordinate."""
    lo = rng.choice([0.0, -0.0, -1.0, -2.5, -np.inf, -1e300], size=n)
    hi = np.maximum(lo, rng.choice([0.0, -0.0, 1.0, -0.5, np.inf, 1e300], size=n))
    return [ProxSpec.zero(), ProxSpec.nonneg(), ProxSpec.box(lo, hi), ProxSpec.box([-0.0], [0.0]),
            ProxSpec.box([-1.0], [np.inf])]


class TestListProx:
    """Lists of floats for a block of 1 to SMALL coordinates against the array kernel."""

    def test_list_kernel_equals_the_array_kernel_bitwise(self):
        rng = np.random.default_rng(34)
        # the bounds' own values make ties likely; NaN and infinities only in x_bar
        values = np.array(SPECIAL + [-2.5, -0.5, 1e-320])
        points = np.concatenate([values, [np.nan, np.inf, -np.inf]])
        for n in range(1, SMALL + 1):
            for spec in list_specs(n, rng):
                listed, array = prox_kernel(EUCLIDEAN, spec, "list"), prox_kernel(EUCLIDEAN, spec)
                for _ in range(60):
                    r, x_bar = rng.choice(values, size=n), rng.choice(points, size=n)
                    for step in (1.0, 0.25, 1e-300, 1e300, np.inf):
                        got = listed(r.tolist(), step, x_bar.tolist())
                        with np.errstate(over="ignore", invalid="ignore"):
                            want = array(r, step, x_bar)
                        assert type(got) is list and all(type(v) is float for v in got)
                        assert bits(got).tobytes() == bits(want).tobytes(), (spec, r, step, x_bar)

    def test_ties_keep_the_bound(self):
        # a tie at either bound gives the bound's sign: the clip to [-0.0, 0.0]
        # ends on the upper bound, 0.0, and -0.0 clipped to [0.0, 1.0] is 0.0
        kernel = prox_kernel(EUCLIDEAN, ProxSpec.box([-0.0, 0.0, -1.0, -0.0], [0.0, 1.0, 1.0, -0.0]), "list")
        got = kernel([0.0, 0.0, 1e300, -1.0], 1.0, [-0.0, -0.0, 0.5, 0.0])
        assert bits(got).tolist() == bits([0.0, 0.0, -1.0, -0.0]).tolist()
        assert bits(prox_kernel(EUCLIDEAN, ProxSpec.nonneg(), "list")([0.0], 1.0, [-0.0])) == bits([0.0])
        assert np.isnan(prox_kernel(EUCLIDEAN, ProxSpec.nonneg(), "list")([1.0], 1.0, [np.nan])[0])

    @pytest.mark.parametrize("linear, step, x_len, match", [
        # the length check comes first, then the finiteness check, then the step's
        ([np.nan, 1.0, 1.0], 0.0, 2, "dimension mismatch"),
        ([1.0], 1.0, 2, "dimension mismatch"),
        ([1.0, np.nan], -1.0, 2, "non-finite"),
        ([np.inf, 1.0], np.nan, 2, "non-finite"),
        ([1.0, -np.inf], 1.0, 2, "non-finite"),
        ([1.0, 2.0], 0.0, 2, "step must be positive"),
        ([1.0, 2.0], -1.0, 2, "step must be positive"),
        ([1.0, 2.0], np.nan, 2, "step must be positive"),
    ])
    def test_refusals_are_the_array_kernels(self, linear, step, x_len, match):
        for spec in list_specs(2, np.random.default_rng(5)):
            x_bar = [0.5] * x_len
            with pytest.raises(ValueError, match=match) as as_list:
                prox_kernel(EUCLIDEAN, spec, "list")(linear, step, x_bar)
            with pytest.raises(ValueError, match=match) as as_array:
                prox_kernel(EUCLIDEAN, spec)(np.array(linear), step, np.array(x_bar))
            assert str(as_list.value) == str(as_array.value)

    def test_lists_the_bounds_do_not_fit_get_the_array_kernels_verdict(self):
        spec = ProxSpec.box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        for n in (1, 2, 4):
            with pytest.raises(ValueError) as as_list:
                prox_kernel(EUCLIDEAN, spec, "list")([0.5] * n, 1.0, [0.5] * n)
            with pytest.raises(ValueError) as as_array:
                prox_kernel(EUCLIDEAN, spec)(np.full(n, 0.5), 1.0, np.full(n, 0.5))
            assert str(as_list.value) == str(as_array.value)

    def test_other_kinds_take_lists_through_the_array_kernel(self):
        cases = [
            (EUCLIDEAN, ProxSpec.simplex()),
            (NEGATIVE_ENTROPY, ProxSpec.simplex(geometry=NEGATIVE_ENTROPY)),
            (EUCLIDEAN, ProxSpec.scaled_l1(0.3)),
        ]
        for geom, spec in cases:
            r, x_bar = [0.7, -2.0, 0.1], [0.2, 0.5, 0.3]
            got = prox_kernel(geom, spec, "list")(r, 0.5, x_bar)
            want = prox_kernel(geom, spec)(np.array(r), 0.5, np.array(x_bar))
            assert type(got) is list and bits(got).tobytes() == bits(want).tobytes()
        with pytest.raises(ValueError, match="only simplex"):
            prox_kernel(NEGATIVE_ENTROPY, ProxSpec.box([0.0], [1.0]), "list")([0.0], 1.0, [0.5])


class TestArrayProxChecks:
    def test_finite_linear_term_whose_square_overflows_accepted(self):
        r = np.full(4, 1e200)
        spec = ProxSpec.box(-np.ones(4), np.ones(4))
        with np.errstate(over="ignore"):
            assert not np.isfinite(r @ r)
            out = prox_step(EUCLIDEAN, spec, r, 1.0, np.zeros(4))
            np.testing.assert_array_equal(out, -np.ones(4))
            out = prox_step(EUCLIDEAN, ProxSpec.zero(), r, 1e-200, np.zeros(4))
            np.testing.assert_array_equal(out, -np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_entry_rejected(self, bad):
        for size in (1, 3, 50):
            r = np.full(size, 1e200)  # beside entries whose squares overflow
            r[size // 2] = bad
            with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
                prox_step(EUCLIDEAN, ProxSpec.zero(), r, 1.0, np.zeros(size))
            r[:] = 0.5
            r[-1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                prox_step(EUCLIDEAN, ProxSpec.zero(), r, 1.0, np.zeros(size))

    @pytest.mark.parametrize("big", [1e200, 1.7e308, 1e-300])
    def test_finite_extremes_accepted_under_raising_errstate(self, big):
        # r.r overflows (or underflows) here, and the check must not: the
        # clipped point comes back with no floating-point error raised
        spec = ProxSpec.box(-np.ones(4), np.ones(4))
        r = np.array([big, -big, big, -big])
        want = np.clip(-r, -1.0, 1.0)
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError):
                r @ r
            out = prox_step(EUCLIDEAN, spec, r, 1.0, np.zeros(4))
        np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_under_raising_errstate(self, bad):
        for fill in (0.5, 1e200, 1.7e308):
            r = np.full(5, fill)
            r[2] = bad
            with np.errstate(all="raise"), pytest.raises(ValueError, match="non-finite"):
                prox_step(EUCLIDEAN, ProxSpec.box(-np.ones(5), np.ones(5)), r, 1.0, np.zeros(5))

    def test_box_equals_np_clip_bitwise(self):
        rng = np.random.default_rng(12)
        values = np.array(SPECIAL + [np.inf, -np.inf])
        for size in (1, 2, 7, 50, 200):
            lo = rng.choice([0.0, -0.0, -1.0, -1e300], size=size)
            hi = np.maximum(lo, rng.choice([0.0, -0.0, 1.0, 1e300], size=size))
            spec = ProxSpec.box(lo, hi)
            for _ in range(20):
                x_bar = rng.choice(values, size=size)
                r = rng.choice(values[:-2], size=size)
                got = prox_step(EUCLIDEAN, spec, r, 0.5, x_bar)
                assert np.array_equal(bits(got), bits(np.clip(x_bar - 0.5 * r, lo, hi)))

    def test_inputs_are_never_written(self):
        spec = ProxSpec.box(-np.ones(3), np.ones(3))
        r, x_bar = np.array([3.0, -3.0, 0.1]), np.array([0.5, 0.5, 0.5])
        keep = (r.copy(), x_bar.copy(), spec.lower.copy(), spec.upper.copy())
        out = prox_step(EUCLIDEAN, spec, r, 1.0, x_bar)
        assert out is not x_bar and out is not r
        for old, cur in zip(keep, (r, x_bar, spec.lower, spec.upper)):
            np.testing.assert_array_equal(old, cur)


def replaced_prox_entropy(linear, step, x_bar, floor=NEGATIVE_ENTROPY.epsilon_floor):
    """The entropy prox as it was before it wrote its one array in place: a literal copy, kept to pin its bits."""
    r, x_bar = _checked(linear, step, x_bar)
    z = np.log(np.maximum(x_bar, floor)) - step * r
    z -= z.max()
    w = np.exp(z)
    w = np.maximum(w, floor)
    return w / w.sum()


class TestEntropyProxBits:
    """The entropy kernel, which writes one new array in place, against the formula it replaced."""

    kernel = staticmethod(prox_kernel(NEGATIVE_ENTROPY, ProxSpec.simplex(geometry=NEGATIVE_ENTROPY)))
    steps = [1e-300, 1e-10, 0.5, 1.0, 7.0, 1e10, 1e300]

    def assert_same(self, linear, step, x_bar):
        before = (bits(linear).copy(), bits(x_bar).copy())
        with np.errstate(all="ignore"):  # steps of 1e300 give infinite and NaN entries, alike in both
            want = replaced_prox_entropy(linear, step, x_bar)
            got = self.kernel(linear, step, x_bar)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(bits(got), bits(want)), (linear, step, x_bar)
        # the inputs are read, never written
        assert np.array_equal(bits(linear), before[0]) and np.array_equal(bits(x_bar), before[1])

    def test_equals_the_replaced_formula_bitwise(self):
        rng = np.random.default_rng(36)
        floor = NEGATIVE_ENTROPY.epsilon_floor
        for size in (1, 2, 7, 200):
            mixed = rng.dirichlet(np.ones(size))
            mixed[:: 3] = rng.choice([0.0, floor, floor / 10, 1e-300], size=mixed[:: 3].size)
            x_bars = [
                rng.dirichlet(np.ones(size)),
                np.full(size, floor),  # at the floor
                np.full(size, floor / 10),  # below it
                np.zeros(size),  # exact zeros
                np.eye(size)[size // 2],  # one-hot
                mixed,
            ]
            linears = [
                rng.standard_normal(size),
                np.zeros(size),
                np.full(size, 1e300),  # saturates exp: every entry at the floor, before normalization
                np.full(size, -1e300),
                rng.choice([1e300, -1e300, 0.0, -0.0, 1.0], size=size),
            ]
            for x_bar in x_bars:
                for linear in linears:
                    for step in self.steps:
                        self.assert_same(linear, step, x_bar)

    def test_other_shapes_and_layouts_equal_the_replaced_formula_bitwise(self):
        # the reductions run over every axis, as .max() and .sum() do; 0-d
        # inputs give a numpy scalar; a strided x_bar is read in place
        rng = np.random.default_rng(7)
        x = rng.dirichlet(np.ones(12))
        r = rng.standard_normal(12)
        for step in self.steps:
            self.assert_same(r.reshape(3, 4), step, x.reshape(3, 4))
            self.assert_same(r.reshape(4, 3).T, step, x.reshape(3, 4))
            self.assert_same(r[::2], step, x[1::2])
            self.assert_same(np.array(r[0]), step, np.array(x[0]))
            self.assert_same(r[:1], step, x[:1])

    def test_refusals_keep_their_messages_and_order(self):
        # each input carries every fault after the first it is refused for
        cases = [
            ([np.nan, 1.0, 1.0], 0.0, [0.5, 0.5], "dimension mismatch between linear term and x_bar"),
            ([np.nan, 1.0], 0.0, [0.5, 0.5], "non-finite entries in the linear term"),
            ([1.0, -np.inf], -1.0, [0.5, 0.5], "non-finite entries in the linear term"),
            ([1.0, 1.0], 0.0, [0.5, 0.5], "step must be positive"),
            ([1.0, 1.0], np.nan, [0.0, 1.0], "step must be positive"),
            ([1.0, 1.0], -1e300, [0.5, 0.5], "step must be positive"),
        ]
        for linear, step, x_bar, message in cases:
            for prox in (self.kernel, replaced_prox_entropy):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    prox(np.array(linear), step, np.array(x_bar))
