"""Control rows: a run's draws, step sizes and ergodic weights filled in chunks equal the per-step ones, bit for bit."""

import dataclasses

import numpy as np
import pytest

import rbpda.solver as solver
from rbpda import sampling
from rbpda.problems import generate_robust_erm, robust_erm_problem
from rbpda.sampling import (
    BatchSchedule,
    BlockCounters,
    draw_block,
    increasing_batch_size,
    make_rng,
    next_batch_size,
    sample_indices,
)
from rbpda.solver import SolverConfig, SolverError, run

from reference_step import reference_run
from test_solver import LOCKSTEP_BUILTINS, lockstep_problem
from test_step_plan import assert_same_run

PROBLEMS = ["erm_box_scalar", "erm_box", "erm_entropy", "box_game", "qp"]
MODES = {
    "single_eta0": dict(mode="single_sample", eta=0.0),
    "single_eta03": dict(mode="single_sample", eta=0.3),
    "increasing_v1": dict(mode="increasing_batch", batch=1),
    "increasing_v3": dict(mode="increasing_batch", batch=3),
    "increasing_vp": dict(mode="increasing_batch", batch="p"),
    # the increasing rule, whose rows come from the per-row loop, with and without restarts; without
    # them its rows come from strided reads once it reaches p, within the first fill at eta = 2
    "increasing_eta0": dict(mode="increasing_batch", eta=0.0),
    "increasing_eta0_restart05": dict(mode="increasing_batch", eta=0.0, restart_enabled=True, restart_threshold=0.5),
    "increasing_eta0_restart09": dict(mode="increasing_batch", eta=0.0, restart_enabled=True, restart_threshold=0.9),
    "increasing_eta03": dict(mode="increasing_batch", eta=0.3),
    "increasing_eta03_restart05": dict(mode="increasing_batch", eta=0.3, restart_enabled=True, restart_threshold=0.5),
    "increasing_eta03_restart09": dict(mode="increasing_batch", eta=0.3, restart_enabled=True, restart_threshold=0.9),
    "increasing_eta2": dict(mode="increasing_batch", eta=2.0),
}
LENGTHS = (1, 255, 256, 257, 1000)  # around one chunk of control rows, and across several


def config(prob, mode, **kw):
    cfg = dict(MODES[mode], **kw)
    if "batch" in cfg:
        cfg["batch"] = prob.p if cfg["batch"] == "p" else min(cfg["batch"], prob.p)
    return SolverConfig(seed=3, stream=1, **cfg)


def counted_bulk_reads(monkeypatch):
    """Count the calls of ``WordDraws.steps``, the bulk reads behind a plan's control rows."""
    calls = []
    inner = sampling.WordDraws.steps
    monkeypatch.setattr(sampling.WordDraws, "steps", lambda self, *args: calls.append(args) or inner(self, *args))
    return calls


def per_step_run(prob, cfg, monkeypatch):
    """run() with its control rows from per-step calls: under a wrapper on the batch rule, no bulk read."""
    inner = solver.next_batch_size
    with monkeypatch.context() as m:
        m.setattr(solver, "next_batch_size", lambda *args: inner(*args))
        return run(prob, cfg)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", PROBLEMS)
def test_chunked_rows_equal_per_step_rows_bitwise(name, mode, monkeypatch):
    # iterates, averages and their weights, budgets, restarts and every
    # trace row, with checkpoints inside the chunks; the increasing rule is
    # compared with the reference run, which restarts after each step
    prob = lockstep_problem(name)
    reads = counted_bulk_reads(monkeypatch)
    for iters in LENGTHS:
        cfg = config(prob, mode, max_iters=iters, checkpoint_every=100, compute_sup_gap=iters < 300)
        reads.clear()
        got = run(prob, cfg)
        if cfg.mode == "increasing_batch" and cfg.batch is None:
            assert_same_run(got, reference_run(prob, cfg))
            if iters == LENGTHS[-1] and not cfg.restart_enabled:
                assert reads, "the rule saturated, but no later fill was a strided read"
        else:
            assert reads, "the run did not fill its rows in bulk"
            reads.clear()
            assert_same_run(got, per_step_run(prob, cfg, monkeypatch))
            assert reads == []
        assert got.iterations == iters


INCREASING = sorted(mode for mode, cfg in MODES.items() if cfg["mode"] == "increasing_batch" and "batch" not in cfg)


@pytest.mark.parametrize("mode", INCREASING)
@pytest.mark.parametrize("name", PROBLEMS)
def test_counters_keep_their_least_count(name, mode, monkeypatch):
    # after every step of a run, whose rows record the counts by strided
    # reads or the per-row loop, low is the least count and
    # _at_low counts the blocks at it; both runs fill their rows up to the
    # run's end, so they end with the same counts
    prob = lockstep_problem(name)
    inner, states = solver.rbpda_step, []

    def step(state, *args):
        inner(state, *args)
        counters = state.counters
        assert counters.low == counters.counts.min(), state.k
        assert counters._at_low == (counters.counts == counters.low).sum(), state.k
        states.append(state)

    monkeypatch.setattr(solver, "rbpda_step", step)
    for iters in (257, 1000):
        cfg = config(prob, mode, max_iters=iters, compute_sup_gap=False)
        run(prob, cfg)
        per_step_run(prob, cfg, monkeypatch)
        bulk, per_row = states[iters - 1].counters, states[-1].counters
        assert bulk.counts.tolist() == per_row.counts.tolist() and len(states) == 2 * iters
        states.clear()


def fill_starts(iters):
    """The first k of each fill of a run where every fill holds the rows it asks for: 16, 32, ... up to a chunk."""
    k, size = 0, 16
    while k < iters:
        yield k
        k, size = k + min(size, iters - k), min(2 * size, solver.CHUNK)


@pytest.mark.parametrize("mode", INCREASING)
@pytest.mark.parametrize("name", PROBLEMS)
def test_strided_reads_start_where_the_increasing_rule_saturates(name, mode, monkeypatch):
    # without restarts the rule gives every row p from the first fill whose
    # first k has it at p at the least count, found here by replaying the
    # draws one call at a time; no read of p comes earlier, and with
    # restarts every row comes from the per-row loop
    prob = lockstep_problem(name)
    st, p, iters = prob.structure, prob.p, 1000
    cfg = config(prob, mode, max_iters=iters, compute_sup_gap=False)
    rng = make_rng(cfg.seed, cfg.stream)
    counters, lows = BlockCounters.zeros(st.M), []
    for k in range(iters):
        lows.append(counters.low)
        draw_block(rng, st.N)
        v = next_batch_size(BatchSchedule.increasing(cfg.eta), counters, draw_block(rng, st.M), k, p)
        if v < p:  # at v >= p the step enumerates every component and draws nothing
            sample_indices(rng, v, p)
    first = next(k for k in fill_starts(iters) if increasing_batch_size(lows[k], k, cfg.eta, p) == p)
    at, reads = [], []
    inner_step, inner_steps = solver.rbpda_step, sampling.WordDraws.steps
    monkeypatch.setattr(solver, "rbpda_step", lambda state, *args: at.append(state.k) or inner_step(state, *args))
    monkeypatch.setattr(sampling.WordDraws, "steps",
                        lambda self, n, v, *args: reads.append((at[-1], v)) or inner_steps(self, n, v, *args))
    run(prob, cfg)
    if cfg.restart_enabled:
        assert reads == []
    else:
        assert reads[0] == (first, p) and {v for _, v in reads} == {p}


@pytest.mark.parametrize("name", ["erm_box_scalar", "box_game"])
def test_restarts_apply_to_the_increasing_rule_only(name, monkeypatch):
    # a constant batch records no counts, so the increasing rule's test at
    # eta = 2 would hold from the first rows on; restarts leave such a run
    # as it is, with its rows from the bulk read or from per-step calls
    prob = lockstep_problem(name)
    cfg = config(prob, "increasing_v1", eta=2.0, max_iters=300, compute_sup_gap=False)
    want = run(prob, cfg)
    cfg = dataclasses.replace(cfg, restart_enabled=True, restart_threshold=0.5)
    for got in (run(prob, cfg), per_step_run(prob, cfg, monkeypatch)):
        assert got.restarts == 0
        assert_same_run(got, want)


@pytest.mark.parametrize("mode", ["single_eta03", "increasing_v1"])
def test_a_short_run_fills_few_rows(mode, monkeypatch):
    # the first bulk read asks for 16 rows, and each later one for twice
    # the last, up to a chunk, and never past the run's end: a 1-iteration
    # run reads 1 row
    prob = lockstep_problem("erm_box_scalar")
    reads = counted_bulk_reads(monkeypatch)
    run(prob, config(prob, mode, max_iters=1, compute_sup_gap=False))
    assert [size for size, *_ in reads] == [1]
    reads.clear()
    run(prob, config(prob, mode, max_iters=1000, compute_sup_gap=False))
    assert [size for size, *_ in reads] == [16, 32, 64, 128, 256, 256, 248]  # 1,000 rows


@pytest.mark.parametrize("name", ["erm_box_scalar", "erm_entropy", "qp"])
def test_a_wrapper_on_the_step_keeps_the_chunked_rows(name, monkeypatch):
    # a replaced rbpda_step that calls the solver's (a tracing wrapper) is
    # called once per iteration and takes the run's plan, which still fills
    # its rows in bulk and folds the averages: the same bits
    prob = lockstep_problem(name)
    cfg = config(prob, "single_eta03", max_iters=600, checkpoint_every=150, compute_sup_gap=False)
    want = run(prob, cfg)
    reads, calls = counted_bulk_reads(monkeypatch), []
    inner = solver.rbpda_step
    monkeypatch.setattr(solver, "rbpda_step", lambda *args: calls.append(1) or inner(*args))
    got = run(prob, cfg)
    assert len(calls) == 600 and reads
    assert_same_run(got, want)


@pytest.mark.parametrize("mode", ["single_eta03", "increasing_eta03", "increasing_eta03_restart05"])
@pytest.mark.parametrize("name", ["erm_box_scalar", "erm_entropy", "qp"])
def test_chunks_cut_short_by_small_fills_keep_the_bits(name, mode, monkeypatch):
    # a fill of 7 words holds a few steps, so each bulk read gives fewer
    # rows than a chunk and the rows of k come from many fills; the
    # increasing rule's per-row loop refills for index batches longer than a fill
    monkeypatch.setattr(sampling, "WORD_CHUNK", 7)
    prob = lockstep_problem(name)
    reads = counted_bulk_reads(monkeypatch)
    cfg = config(prob, mode, max_iters=600, checkpoint_every=150, compute_sup_gap=False)
    got = run(prob, cfg)
    # strided reads, cut short by the fills; the increasing rule takes them once it is saturated, and
    # with restarts never
    assert reads == [] if cfg.restart_enabled else len(reads) > 600 // solver.CHUNK + 1
    if cfg.mode == "increasing_batch":
        assert_same_run(got, reference_run(prob, cfg))
    else:
        assert_same_run(got, per_step_run(prob, cfg, monkeypatch))


@pytest.mark.parametrize("chunk", [1, 5, sampling.WORD_CHUNK])
@pytest.mark.parametrize("threshold", [None, 0.5, 0.9])
@pytest.mark.parametrize("eta", [0.0, 0.3, 400.0])  # at 400 the rule overflows to p from k = 5 on
@pytest.mark.parametrize("name", LOCKSTEP_BUILTINS)
def test_increasing_rows_from_fills_of_any_size_keep_the_bits(name, eta, threshold, chunk, monkeypatch):
    # the increasing rule's rows over fills of 1 to 4,096 words, with and
    # without restarts, on either side of saturation: per-row rows that
    # refill inside a row, strided reads cut short by a fill or given up
    # for the per-row loop, and the counts they record, all reach the
    # reference run's bits, drawn one call at a time
    monkeypatch.setattr(sampling, "WORD_CHUNK", chunk)
    prob = lockstep_problem(name)
    cfg = SolverConfig(seed=3, stream=1, mode="increasing_batch", eta=eta, restart_enabled=threshold is not None,
                       restart_threshold=threshold or 0.9, max_iters=300, checkpoint_every=100,
                       compute_sup_gap=False)
    reads = counted_bulk_reads(monkeypatch)
    got = run(prob, cfg)
    assert_same_run(got, reference_run(prob, cfg))
    if threshold is not None:
        assert reads == []
    elif eta == 400.0:  # saturated at the second fill, k = 16, if not at the first
        assert reads and {v for _, v, *_ in reads} == {prob.p}


def nan_at(prob, call: int, attr: str):
    """Make the instance's ``attr`` oracle give NaN from its ``call``-th call on."""
    inner, calls = getattr(prob, attr), []

    def broken(*args, **kw):
        calls.append(1)
        out = inner(*args, **kw)
        if len(calls) < call:
            return out
        if attr == "one_row_grad_x":
            return float("nan"), out[1]
        return np.full_like(np.asarray(out, dtype=float), np.nan)

    setattr(prob, attr, broken)


@pytest.mark.parametrize("name, attr", [("erm_box_scalar", "grad_y"), ("erm_box_scalar", "one_row_grad_x"),
                                        ("erm_entropy", "grad_y"), ("erm_entropy", "one_row_grad_x"),
                                        ("qp", "grad_y")])
def test_a_nan_mid_chunk_fails_with_the_per_step_partial_result(name, attr, monkeypatch):
    # the failing step's row is taken, but the accumulator's count and t
    # total move only with a step that succeeds: the partial result is the
    # per-step run's, iterations, budgets, weights and averages included
    results = []
    for runner in (run, lambda prob, cfg: per_step_run(prob, cfg, monkeypatch)):
        prob = lockstep_problem(name)
        nan_at(prob, 300, attr)  # at k = 299, inside the second chunk
        cfg = config(prob, "single_eta03", max_iters=1000, checkpoint_every=100, compute_sup_gap=False)
        with pytest.raises(SolverError, match="non-finite") as excinfo:
            runner(prob, cfg)
        results.append(excinfo.value.result)
    got, want = results
    assert got.iterations == want.iterations == 299
    assert_same_run(got, want)


def degenerate_erm(case: str, n_blocks):
    """A small robust-ERM problem with a degenerate size or data."""
    n, m, m_blocks = {"p1": (1, 4, 2), "mn1": (6, 4, 1), "p1_mn1": (1, 4, 1)}.get(case, (6, 4, 2))
    data = generate_robust_erm(5, n, m, 0.1)
    if case == "zero_A":
        data = dataclasses.replace(data, A=np.zeros((n, m)))
    elif case == "zero_block":
        A = data.A.copy()
        A[:, : m // m_blocks] = 0.0
        data = dataclasses.replace(data, A=A)
    return robust_erm_problem(data, radius=2.0, m_blocks=m_blocks, n_blocks=n_blocks)


# p = 1 and N = 1 leave only the entropy dual (a single dual block);
# p = M = N = 1 takes no word in any step
DEGENERATE = [("p1", 1), ("mn1", 1), ("p1_mn1", 1), ("zero_A", 1), ("zero_A", 6), ("zero_block", 1),
              ("zero_block", 6)]


@pytest.mark.parametrize("mode", ["single_sample", "increasing_batch"])
@pytest.mark.parametrize("case, n_blocks", DEGENERATE)
def test_degenerate_robust_erm_runs_finish_in_the_domain(case, n_blocks, mode, monkeypatch):
    prob = degenerate_erm(case, n_blocks)
    cfg = SolverConfig(mode=mode, max_iters=600, seed=2, checkpoint_every=200)
    res = run(prob, cfg)
    assert_same_run(res, per_step_run(prob, cfg, monkeypatch))
    assert res.iterations == 600 and res.grad_budget > 0
    for v in (res.x, res.y, res.x_bar, res.y_bar):
        assert np.isfinite(v).all()
    assert prob.in_domain(res.x, res.y) and prob.in_domain(res.x_bar, res.y_bar)
    assert all(np.isfinite(w) and w > 0 for w in res.ergodic_weights)
