"""Seeded draws, batch schedules, counters, and the gradient estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from rbpda import sampling
from rbpda.problems import generate_robust_erm, robust_erm_problem
from rbpda.sampling import (
    CHUNK_ELEMENTS,
    BatchSchedule,
    BlockCounters,
    ChunkedDraws,
    WordDraws,
    chunked_draws,
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


def sequential_draws(rng, N, M, p, v, steps):
    """The draws of ``steps`` steps one call at a time, in the solver's order."""
    return [sequential_step(rng, N, M, p, v) for _ in range(steps)]


def sequential_step(rng, N, M, p, v):
    """One step's draws one call at a time; the full index set is built only at v >= p."""
    j, i = draw_block(rng, N), draw_block(rng, M)
    return j, i, np.arange(p) if v >= p else sample_indices(rng, v, p)


def take(draws, v):
    """One step's draws from a draw source, in the order a step takes them."""
    j, i = draws.blocks()
    return j, i, draws.indices(v)


class TestChunkedDraws:
    @pytest.mark.parametrize("N", [1, 2, 7])
    @pytest.mark.parametrize("M", [1, 2, 7])
    @pytest.mark.parametrize("p", [1, 3, 200])
    def test_chunks_give_the_sequential_draws(self, N, M, p):
        # two and a half full chunks plus one step cross two chunk
        # boundaries and end inside a chunk; the run leaves the generator
        # where the sequential draws leave it
        for v in sorted({1, 5, p} & set(range(1, p + 1))):
            batch = BatchSchedule.constant(v, p)
            per_chunk = CHUNK_ELEMENTS // (2 if v >= p else 2 + v)
            steps = 2 * per_chunk + per_chunk // 2 + 1
            rng, ref = make_rng(N * 100 + M, p), make_rng(N * 100 + M, p)
            draws = chunked_draws(rng, N, M, p, batch, steps)
            got = [take(draws, v) for _ in range(steps)]
            want = sequential_draws(ref, N, M, p, v, steps)
            assert draws.buffer.shape[0] == per_chunk // 2 + 1
            for (j, i, idx), (j_ref, i_ref, idx_ref) in zip(got, want):
                assert (j, i) == (j_ref, i_ref) and type(j) is int and type(i) is int
                assert idx.dtype == idx_ref.dtype and np.array_equal(idx, idx_ref), v
            assert rng.bit_generator.state == ref.bit_generator.state
            # steps past the run's length are drawn one at a time
            extra = [take(draws, v) for _ in range(3)]
            assert draws.buffer.shape[0] == 1
            for (j, i, idx), (j_ref, i_ref, idx_ref) in zip(extra, sequential_draws(ref, N, M, p, v, 3)):
                assert (j, i) == (j_ref, i_ref) and np.array_equal(idx, idx_ref)

    def test_increasing_batch_is_chunked_only_at_p_one(self):
        # at p = 1 every batch enumerates the one component, so the pattern
        # is fixed; at p > 1 the batch size depends on the drawn block and
        # the run's raw words are drawn ahead instead
        rng, ref = make_rng(5), make_rng(5)
        draws = chunked_draws(rng, 3, 4, 1, BatchSchedule.increasing(0.5), 10)
        assert isinstance(draws, ChunkedDraws)
        got = [take(draws, 1) for _ in range(10)]
        assert [(j, i) for j, i, _ in got] == [(j, i) for j, i, _ in sequential_draws(ref, 3, 4, 1, 1, 10)]
        assert all(np.array_equal(idx, [0]) for _, _, idx in got)
        assert isinstance(chunked_draws(make_rng(5), 3, 4, 2, BatchSchedule.increasing(0.0), 10), WordDraws)
        big = 2**32 + 1  # past the 32-bit words: drawn step by step
        assert chunked_draws(make_rng(5), 3, 4, big, BatchSchedule.increasing(0.0), 10) is None

    def test_chunk_stays_within_its_element_budget(self):
        # v = p - 1 at a large p: a chunk holds as many steps as fit the
        # budget, and a step wider than the budget is drawn from words
        p = 5000
        draws = chunked_draws(make_rng(1), 7, 7, p, BatchSchedule.constant(p - 1, p), 1000)
        for _ in range(7):
            _, _, idx = take(draws, p - 1)
            assert idx.size == p - 1
            assert draws.buffer.size <= CHUNK_ELEMENTS
        assert draws.buffer.shape == (CHUNK_ELEMENTS // (p + 1), p + 1)
        p = 10**6
        wide = chunked_draws(make_rng(1), 7, 7, p, BatchSchedule.constant(p - 1, p), 1000)
        assert isinstance(wide, WordDraws)

    def test_index_rows_are_read_only(self):
        draws = chunked_draws(make_rng(2), 2, 2, 10, BatchSchedule.constant(3, 10), 5)
        _, _, idx = take(draws, 3)
        with pytest.raises(ValueError):
            idx[0] = 1


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


class TestBlockCountersLow:
    def test_direct_construction(self):
        for counts in ([0], [3], [5, 2, 2, 9], [7, 7, 7], [0, 4, 1, 0]):
            counters = BlockCounters(np.array(counts, dtype=np.int64))
            assert counters.low == min(counts)
            assert counters.total == sum(counts)

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
            assert counters.total == counters.counts.sum(), step


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
