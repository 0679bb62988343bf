"""Seeded draws, batch schedules, counters, and the gradient estimator."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from rbpda import sampling
from rbpda.problems import generate_robust_erm, robust_erm_problem
from rbpda.sampling import (
    BatchSchedule,
    BlockCounters,
    WordDraws,
    draw_block,
    expected_inverse_batch,
    make_rng,
    next_batch_size,
    sample_indices,
    estimate_partial_grad_x,
)
from rbpda.solver import SolverConfig, StepPlan, build_schedule


class TestRngContract:
    def test_bitwise_reproducibility(self):
        rng1 = make_rng(42)
        rng2 = make_rng(42)
        a = [draw_block(rng1, 7) for _ in range(50)]
        b = [draw_block(rng2, 7) for _ in range(50)]
        assert a == b

    def test_streams_independent(self):
        s0 = sample_indices(make_rng(1, 0), 100, 1000).tolist()
        s1 = sample_indices(make_rng(1, 1), 100, 1000).tolist()
        assert s0 != s1
        assert s0 == sample_indices(make_rng(1, 0), 100, 1000).tolist()


def sequential_step(rng, N, M, p, v):
    """One step's draws one call at a time; the full index set is built only at v >= p."""
    j, i = draw_block(rng, N), draw_block(rng, M)
    return j, i, np.arange(p) if v >= p else sample_indices(rng, v, p)


def take(draws, v):
    """One step's draws from a WordDraws, in the order a step takes them."""
    j, i = draws.blocks()
    return j, i, draws.indices(v)


BIG = 2**31 + 1  # Lemire's method rejects about half the 32-bit words for this bound


class TestWordDraws:
    """The buffered 32-bit words give exactly the one-step-at-a-time draws."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        N=hst.sampled_from([1, 2, 7, 200, BIG]),
        M=hst.sampled_from([1, 2, 10, BIG]),
        p=hst.sampled_from([1, 2, 3, 200, 2**31, BIG, 2**32]),
        pattern=hst.lists(hst.integers(1, 300), min_size=1, max_size=12),
        chunk=hst.sampled_from([1, 5, 64, sampling.WORD_CHUNK]),
        seed=hst.integers(0, 2**16),
    )
    def test_words_give_the_sequential_draws(self, N, M, p, pattern, chunk, seed):
        # the batch sizes cycle through ``pattern``, which at small p
        # includes v >= p; the run goes on until the words of at least two
        # refills are used (or for 2000 steps, as when no bound takes a
        # word), with fills smaller and larger than one step's indices
        rng, ref = make_rng(seed), make_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "WORD_CHUNK", chunk)
            draws = WordDraws(rng, N, M, p)
            fills = t = 0
            words = None
            while fills < 3 and t < 2000:
                v = pattern[t % len(pattern)]
                got, want = take(draws, v), sequential_step(ref, N, M, p, v)
                assert got[:2] == want[:2] and type(got[0]) is int and type(got[1]) is int, t
                assert got[2].dtype == np.int64 and np.array_equal(got[2], want[2]), (t, v)
                if draws.words is not words:
                    words, fills = draws.words, fills + 1
                t += 1
        assert fills == 3 or t == 2000

    @pytest.mark.parametrize("N, M, p, v", [(200, 10, 200, 1), (1, 10, 200, 1), (2, 2, 1, 1), (7, 3, 5, 9)])
    def test_constant_batch_gives_the_sequential_draws(self, N, M, p, v, monkeypatch):
        # the shapes of single-sample ERM with box and entropy duals and of
        # the 4x4 game, and a batch past p, which takes no word; small
        # fills make the run cross at least three of them
        monkeypatch.setattr(sampling, "WORD_CHUNK", 64)
        rng, ref = make_rng(N * 100 + M, p), make_rng(N * 100 + M, p)
        draws = WordDraws(rng, N, M, p)
        fills, words = 0, None
        for t in range(200):
            got, want = take(draws, v), sequential_step(ref, N, M, p, v)
            assert got[:2] == want[:2] and type(got[0]) is int and type(got[1]) is int, t
            assert got[2].dtype == want[2].dtype and np.array_equal(got[2], want[2]), t
            if draws.words is not words:
                words, fills = draws.words, fills + 1
        assert fills >= 3

    @pytest.mark.parametrize("bound", ["N", "M", "p"])
    def test_rejected_words_are_skipped(self, bound):
        # a bound near 2**31 rejects about half the words, in every fill
        N, M, p = (BIG if bound == b else n for b, n in (("N", 7), ("M", 5), ("p", 50)))
        rng, ref = make_rng(9), make_rng(9)
        draws = WordDraws(rng, N, M, p)
        fills, words = 0, None
        for t in range(600):
            v = 1 + (t * 7) % 60
            got, want = take(draws, v), sequential_step(ref, N, M, p, v)
            assert got[:2] == want[:2] and np.array_equal(got[2], want[2]), t
            if draws.words is not words:
                words, fills = draws.words, fills + 1
        assert fills >= 3
        if bound == "p":
            assert not draws._clean  # the indices were mapped word by word

    def test_full_batch_takes_no_word_and_is_read_only(self):
        rng = make_rng(4)
        draws = WordDraws(rng, 3, 4, 6)
        draws.blocks()
        at = draws._at
        full = draws.indices(6)
        assert draws._at == at and np.array_equal(full, np.arange(6)) and draws.indices(9) is full
        part = draws.indices(3)
        with pytest.raises(ValueError):
            full[0] = 1
        with pytest.raises(ValueError):
            part[0] = 1


class TestSingleIndex:
    """A one-row step's index, ``indices(1).item(0)``, is the sequential draw as an int, from the same words."""

    @pytest.mark.parametrize("p", [1, 2, 200, BIG])
    @pytest.mark.parametrize("ahead", [True, False], ids=["ahead", "exact"])
    def test_index_takes_what_indices_of_one_takes(self, ahead, p, monkeypatch):
        # steps alternate a single index, taken as the per-row draw takes it
        # for the one-row oracle, with indices(v) across small fills; with
        # exact fills the generator stays where the one-call-at-a-time draws
        # leave it
        monkeypatch.setattr(sampling, "WORD_CHUNK", 8)
        rng, ref = make_rng(11), make_rng(11)
        draws = WordDraws(rng, 7, 3, p, ahead=ahead)
        for t in range(120):
            v = 2 if t % 3 == 2 else 1
            j, i = draws.blocks()
            want = sequential_step(ref, 7, 3, p, v)
            assert (j, i) == want[:2], t
            if v == 2:
                assert np.array_equal(draws.indices(2), want[2]), t
            else:
                l = draws.indices(1).item(0)
                assert type(l) is int and [l] == want[2].tolist(), t
            if not ahead:
                assert rng.bit_generator.state == ref.bit_generator.state, t

    @pytest.mark.parametrize("ahead", [True, False])
    def test_index_at_one_component_takes_no_word(self, ahead):
        rng = make_rng(2)
        draws = WordDraws(rng, 5, 4, 1, ahead=ahead)
        draws.blocks()
        at, words, state = draws._at, draws.words, rng.bit_generator.state
        assert draws.indices(1).item(0) == 0 and (draws._at, draws.words) == (at, words)
        assert rng.bit_generator.state == state


class TestBulkSteps:
    """``WordDraws.steps`` gives the one-step-at-a-time draws, from the same words, or None."""

    BOUNDS = [(1, 1, 1), (1, 1, 5), (7, 1, 1), (1, 5, 1), (7, 5, 1), (1, 5, 200), (7, 1, 200), (7, 5, 200),
              (BIG, 5, 50), (7, BIG, 50), (7, 5, BIG)]

    @pytest.mark.parametrize("chunk", [1, 5, 64, sampling.WORD_CHUNK])
    @pytest.mark.parametrize("N, M, p, v, one", [
        (N, M, p, v, one) for N, M, p in BOUNDS
        for v, one in ((1, True), (1, False), (3, False), (p, False)) if v < BIG  # no arange(2**31 + 1)
    ])
    def test_bulk_reads_give_the_sequential_draws(self, N, M, p, v, one, chunk, monkeypatch):
        # steps of 0, 1, 2 or more words; bulk reads of 1 to 256 steps
        # alternate with single steps, across fills of 1 to 4096 words, and
        # with bounds that reject about half the words; where a read gives
        # None (a fill with a rejection, or steps without words), the caller
        # takes a single step instead.  With ``one`` the indices are taken
        # as the one-row oracle takes them at v = 1: a read's column 0, or a
        # single step's item(0), as ints
        monkeypatch.setattr(sampling, "WORD_CHUNK", chunk)
        rng, ref = make_rng(N + M + p, v), make_rng(N + M + p, v)
        draws = WordDraws(rng, N, M, p)
        t = reads = 0
        while t < 700:
            n = (1, 256, 5, 17)[reads % 4]
            got = draws.steps(n, v)
            reads += 1
            if got is None:
                assert max(N, M, p) == BIG or N == M == 1 and v >= p
                j, i = draws.blocks()
                index, want = draws.indices(v), sequential_step(ref, N, M, p, v)
                if one:
                    index = index.item(0)
                    assert type(index) is int, t
                assert (j, i) == want[:2] and np.array_equal(np.atleast_1d(index), want[2]), t
                t += 1
                continue
            js, is_, indices = got
            assert 1 <= len(js) <= n and len(is_) == len(indices) == len(js)
            assert js.dtype == is_.dtype == indices.dtype == np.int64 and indices.shape[1] == min(v, p)
            for j, i, got in zip(js.tolist(), is_.tolist(), memoryview(indices[:, 0]) if one else indices):
                want = sequential_step(ref, N, M, p, v)
                assert (j, i) == want[:2], t
                if one:
                    assert type(got) is int and [got] == want[2].tolist(), t
                else:
                    assert got.dtype == np.int64 and np.array_equal(got, want[2]), t
                    if p < BIG:  # a view of a clean fill's map, which a step must not write
                        with pytest.raises(ValueError):
                            got[0] = 1
                t += 1
            got, want = take(draws, v), sequential_step(ref, N, M, p, v)
            assert got[:2] == want[:2] and np.array_equal(got[2], want[2]), t
            t += 1

    def test_steps_without_words_take_none(self):
        # N = M = p = 1: no bulk read, and the per-step draws are (0, 0, 0),
        # the one arange(1) at v >= p, with the generator never read
        rng = make_rng(3)
        state = rng.bit_generator.state
        draws = WordDraws(rng, 1, 1, 1)
        assert draws.steps(4, 1) is None and draws.steps(3, 2) is None
        assert [draws.blocks() for _ in range(3)] == [(0, 0)] * 3
        full = draws.indices(2)
        assert draws.indices(1) is full and full.tolist() == [0]
        assert rng.bit_generator.state == state and draws.words.size == 0


class TestExactFills:
    """Without ``ahead``, a fill draws only the words a step takes, so no word is left over between steps."""

    @pytest.mark.parametrize("N, M, p", [(1, 1, 5), (7, 1, 1), (200, 10, 200), (1, 10, 200), (7, 5, 3),
                                         (BIG, 5, 50), (7, BIG, 50), (7, 5, BIG)])
    def test_each_step_leaves_the_generator_where_the_sequential_draws_do(self, N, M, p):
        # steps taken one call at a time and by one-step reads, with batch
        # sizes below and at or past p, and bounds that reject about half
        # the words; after each step every word drawn is taken
        rng, ref = make_rng(N + M + p), make_rng(N + M + p)
        draws = WordDraws(rng, N, M, p, ahead=False)
        for t in range(300):
            v = (1, 3, 1, p if p < BIG else 7, 2)[t % 5]  # no arange(2**31 + 1)
            got = draws.steps(4, v) if t % 2 else None
            if got is None:
                got = take(draws, v)
            else:
                assert len(got[0]) == 1, t  # the words of one step at most
                got = int(got[0][0]), int(got[1][0]), got[2][0]
            want = sequential_step(ref, N, M, p, v)
            assert got[:2] == want[:2] and np.array_equal(got[2], want[2]), (t, v)
            assert draws._at == draws._size and rng.bit_generator.state == ref.bit_generator.state, (t, v)

    @pytest.mark.parametrize("bound", ["N", "M", "p"])
    @pytest.mark.parametrize("iters", [10, math.inf])
    def test_bounds_past_32_bits_are_refused_by_name(self, bound, iters, small_erm):
        # 32-bit words cannot be mapped to a bound past 2**32: a plan, with
        # or without a run length, refuses it by name before any draw
        st = small_erm.structure
        sizes = dict(N=st.N, M=st.M, p=small_erm.p)
        sizes[bound] = 2**32 + 1
        big = SimpleNamespace(structure=SimpleNamespace(N=sizes["N"], M=sizes["M"]), p=sizes["p"])
        rng = make_rng(5)
        state = rng.bit_generator.state
        sched = build_schedule(small_erm, SolverConfig())
        with pytest.raises(ValueError, match=rf"^{bound} = 4294967297 exceeds 2\*\*32$"):
            StepPlan(big, rng, sched, BatchSchedule.constant(1, small_erm.p), iters=iters)
        assert rng.bit_generator.state == state
        draws = StepPlan(small_erm, rng, sched, BatchSchedule.constant(1, small_erm.p), iters=iters).draws
        assert isinstance(draws, WordDraws) and draws.ahead == (iters < math.inf)


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

    @pytest.mark.parametrize("eta", [-0.5, np.nan, np.inf])
    def test_increasing_eta_must_be_finite_and_nonnegative(self, eta):
        # NaN and inf used to pass and fail at the first batch size
        with pytest.raises(ValueError, match="eta"):
            BatchSchedule.increasing(eta)

    def test_constant_over_p_rejected(self):
        with pytest.raises(ValueError):
            BatchSchedule.constant(11, 10)
        sched = BatchSchedule.constant(3, 10)
        counters = BlockCounters.zeros(2)
        assert next_batch_size(sched, counters, 0, k=5, p=10) == 3
        # constant mode leaves the counters alone
        assert not counters.counts.any()

    def test_counter_conservation(self):
        rng = make_rng(9)
        sched = BatchSchedule.increasing(0.0)
        counters = BlockCounters.zeros(5)
        for k in range(500):
            i = draw_block(rng, 5)
            next_batch_size(sched, counters, i, k, p=10**6)
            assert counters.counts.sum() == k + 1


class TestBlockCountersLow:
    def test_direct_construction(self):
        for counts in ([0], [3], [5, 2, 2, 9], [7, 7, 7], [0, 4, 1, 0]):
            counters = BlockCounters(np.array(counts, dtype=np.int64))
            assert counters.low == min(counts)

    @pytest.mark.parametrize("M", [1, 2, 5, 13])
    def test_random_record_and_reset_sequences(self, M):
        rng = np.random.default_rng(M)
        start = rng.integers(0, 4, size=M)
        counters = BlockCounters(start.copy())
        for step in range(3000):
            if rng.random() < 0.005:
                counters.reset()
            else:
                # skewed draws, so some blocks lag far behind the others
                counters.record(int(min(rng.geometric(0.3) - 1, M - 1)))
            assert counters.low == counters.counts.min(), step
            # the blocks at the minimum, counted without numpy when it rises
            assert counters._at_low == np.count_nonzero(counters.counts == counters.low), step
        assert counters.counts.dtype == np.int64


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
        full = prob.full_grad_x(x, y)
        for i in range(2):
            est = estimate_partial_grad_x(prob, np.arange(prob.p), i, [(x, y)])
            np.testing.assert_allclose(est[0], full[prob.structure.primal.block_range(i)], atol=1e-12)

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
        full = prob.full_grad_x(x, y)[prob.structure.primal.block_range(0)]
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
