"""Config parsing, experiment orchestration, output files, and comparisons."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from rbpda.experiments import (
    REFERENCE_TOL,
    ConfigError,
    ExperimentSpec,
    baseline_stepsizes,
    build_problem,
    compare_runs,
    erm_reference,
    main,
    parse_config,
    run_experiment,
    write_config,
)
from rbpda.metrics import ConvergenceTrace, certified_gap
from rbpda.problems import RobustErmDataset, generate_robust_erm, robust_erm_problem


class TestParseConfig:
    def test_empty_file_all_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        (spec,) = parse_config(path)
        assert spec.problem == "matrix_game"
        assert spec.mode == "increasing_batch"
        assert spec.iters == 10_000
        assert spec.repeats == 10
        assert spec.seed == 1

    def test_eta_override(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("eta = 0.5\n")
        (spec,) = parse_config(path)
        assert spec.eta == 0.5

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("iters = 10\nmodee = turbo\n")
        with pytest.raises(ConfigError, match="line 2.*modee"):
            parse_config(path)

    def test_type_mismatch_names_line(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("iters = soon\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_sections(self, tmp_path):
        path = tmp_path / "multi.cfg"
        path.write_text("[one]\niters = 5\n[two]\niters = 7\nmode = single_sample\n")
        specs = parse_config(path)
        assert [s.name for s in specs] == ["one", "two"]
        assert specs[1].iters == 7 and specs[1].mode == "single_sample"

    def test_round_trip(self, tmp_path):
        spec = ExperimentSpec(
            name="rt", problem="box_game", mode="single_sample", eta=0.25,
            iters=123, repeats=3, seed=9, blocks_m=2, blocks_n=2, restart=True,
        )
        path = tmp_path / "echo.cfg"
        write_config(spec, path)
        (back,) = parse_config(path)
        assert back == spec


@pytest.fixture(scope="module")
def game_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    spec = ExperimentSpec(
        name="ib", problem="matrix_game", iters=400, repeats=2, seed=1,
        checkpoint_every=100, out=str(out / "run1"),
    )
    return run_experiment(spec), spec


class TestRunExperiment:
    def test_outputs_exist(self, game_out):
        out_dir, spec = game_out
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "config_effective.txt").exists()
        assert (out_dir / "plotdata_ib.csv").exists()
        traces = sorted(out_dir.glob("trace_*.csv"))
        assert len(traces) == 2

    def test_summary_final_gap_matches_trace(self, game_out):
        out_dir, spec = game_out
        with open(out_dir / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["status"] == "ok" for r in rows)
        for row in rows:
            trace = ConvergenceTrace.from_csv(
                out_dir / f"trace_{row['config']}_s{row['seed']}_r{row['stream']}.csv"
            )
            gaps = trace.column("sup_gap")
            last = gaps[np.isfinite(gaps)][-1]
            assert float(row["final_gap"]) == last

    def test_zero_iteration_run_single_row(self, tmp_path):
        spec = ExperimentSpec(name="z", iters=0, repeats=1, out=str(tmp_path / "z"))
        out_dir = run_experiment(spec)
        trace = ConvergenceTrace.from_csv(next(out_dir.glob("trace_*.csv")))
        assert len(trace) == 1 and trace.rows[0].k == 0

    @pytest.mark.parametrize("streams", [{"repeats": 3}, {"seeds": (4, 5)}], ids=["repeats", "seeds"])
    def test_baseline_runs_once(self, tmp_path, streams):
        # the baseline draws nothing; it used to write one identical run per stream
        spec = ExperimentSpec(name="base", problem="box_game", mode="baseline", iters=20,
                              checkpoint_every=10, out=str(tmp_path / "b"), **streams)
        out_dir = run_experiment(spec)
        with open(out_dir / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        first = spec.seeds[0] if spec.seeds else spec.seed
        assert [(r["seed"], r["stream"], r["status"]) for r in rows] == [(str(first), "0", "ok")]
        assert [p.name for p in out_dir.glob("trace_*.csv")] == [f"trace_base_s{first}_r0.csv"]
        with open(out_dir / "plotdata_base.csv") as fh:
            assert {r["runs"] for r in csv.DictReader(fh)} == {"1"}

    def test_identical_seeds_identical_traces(self, tmp_path):
        spec = ExperimentSpec(
            name="same", iters=200, seeds=(5, 5), checkpoint_every=50, out=str(tmp_path / "s")
        )
        out_dir = run_experiment(spec)
        t0 = (out_dir / "trace_same_s5_r0.csv").read_text()
        assert t0 == t0  # file written once per (seed, stream); duplicate seeds collapse
        with open(out_dir / "summary.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["status"] == "ok"]
        assert len({r["final_gap"] for r in rows}) == 1

    def test_runs_execute_sequentially_in_order(self, tmp_path, monkeypatch):
        # the retired worker variable must not bring back concurrent runs
        import rbpda.experiments as exp

        monkeypatch.setenv("RBPDA_WORKERS", "3")
        real_run = exp.run
        log, active = [], []

        def recording(problem, config, reference=None, f_star=None):
            assert not active, "a run started while another was active"
            active.append(config.stream)
            log.append(config.stream)
            try:
                return real_run(problem, config, reference=reference, f_star=f_star)
            finally:
                active.pop()

        monkeypatch.setattr(exp, "run", recording)
        spec = ExperimentSpec(name="seq", iters=100, repeats=3, checkpoint_every=50, out=str(tmp_path / "p"))
        out_dir = run_experiment(spec)
        assert log == [0, 1, 2]
        with open(out_dir / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["stream"]) for r in rows] == [0, 1, 2]
        assert all(r["status"] == "ok" for r in rows)

    def test_failures_recorded_and_continue(self, tmp_path, monkeypatch):
        import rbpda.experiments as exp

        real_run = exp.run
        calls = {"n": 0}

        def flaky(problem, config, reference=None, f_star=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic failure")
            return real_run(problem, config, reference=reference, f_star=f_star)

        monkeypatch.setattr(exp, "run", flaky)
        spec = ExperimentSpec(name="fl", iters=50, repeats=2, out=str(tmp_path / "fl"))
        out_dir = run_experiment(spec)
        with open(out_dir / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        statuses = sorted(r["status"].split(":")[0] for r in rows)
        assert statuses == ["failed", "ok"]
        assert (out_dir / "STATUS").read_text().strip() == "1"


def test_block_count_ablation(tmp_path):
    base = ExperimentSpec(
        problem="robust_erm", n=20, m=40, iters=100, repeats=1,
        checkpoint_every=50, out=str(tmp_path / "abl"),
    )
    specs = [
        ExperimentSpec(**{**base.__dict__, "name": "m1", "blocks_m": 1}),
        ExperimentSpec(**{**base.__dict__, "name": "m10", "blocks_m": 10}),
    ]
    out_dir = run_experiment(specs)
    with open(out_dir / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["config"] for r in rows] == ["m1", "m10"]
    budgets = [int(r["grad_budget"]) for r in rows]
    assert budgets[0] != budgets[1]


class TestErmReference:
    def test_box_dual_reference_is_certified(self):
        data = generate_robust_erm(3, 30, 20, 0.1)
        prob = robust_erm_problem(data, radius=5.0, m_blocks=2, n_blocks=30)
        x, y = erm_reference(prob)
        assert np.array_equal(y, np.ones(30))  # the dual boxes' upper bounds
        assert prob.in_domain(x, y, 0.0)
        start = certified_gap(prob, (prob.start_x, prob.start_y))
        assert 0.0 <= certified_gap(prob, (x, y)) <= REFERENCE_TOL * start

    def test_iters_caps_the_box_dual_solve(self):
        data = generate_robust_erm(3, 30, 20, 0.1)
        prob = robust_erm_problem(data, radius=5.0, m_blocks=2, n_blocks=30)
        x, y = erm_reference(prob, iters=0)
        assert np.array_equal(x, prob.start_x) and np.array_equal(y, np.ones(30))
        start = certified_gap(prob, (prob.start_x, prob.start_y))
        assert certified_gap(prob, erm_reference(prob, iters=10)) > REFERENCE_TOL * start

    @staticmethod
    def _start_cert(prob):
        return certified_gap(prob, (prob.start_x, prob.start_y))

    @pytest.mark.parametrize("data_seed,n,m", [(5, 1, 4), (9, 60, 10), (3, 30, 20)])
    def test_entropy_dual_reference_is_certified(self, data_seed, n, m):
        # one datum: log n = 0 and the simplex is the point y = [1], solved
        # like the box dual; the loss is then least at a primal corner
        data = generate_robust_erm(data_seed, n, m, 0.1)
        prob = robust_erm_problem(data, radius=1.0, m_blocks=2, n_blocks=1)
        x, y = erm_reference(prob)
        assert prob.in_domain(x, y, 0.0) and abs(y.sum() - 1.0) <= 1e-12
        cert = certified_gap(prob, (x, y))
        if n == 1:
            assert np.array_equal(y, [1.0]) and cert == 0.0
        else:
            assert 0.0 <= cert <= REFERENCE_TOL * self._start_cert(prob)

    def test_iters_caps_the_entropy_dual_solve(self):
        data = generate_robust_erm(3, 30, 20, 0.1)
        prob = robust_erm_problem(data, radius=5.0, m_blocks=2, n_blocks=1)
        x, y = erm_reference(prob, iters=0)
        assert np.array_equal(x, prob.start_x) and prob.in_domain(x, y, 0.0)
        assert certified_gap(prob, erm_reference(prob, iters=10)) > REFERENCE_TOL * self._start_cert(prob)

    def test_entropy_dual_start_at_a_saddle(self):
        # a datum twice with opposite labels: at x = 0 both losses are log 2
        # and their gradients cancel, so the start's certificate is 0
        a = np.array([0.5, -1.0, 2.0, 0.25])
        data = RobustErmDataset(A=np.vstack([a, a]), b=np.array([1.0, -1.0]), x_true=np.zeros(4), flip_prob=0.0)
        prob = robust_erm_problem(data, radius=1.0, m_blocks=2, n_blocks=1)
        x, y = erm_reference(prob)
        assert np.array_equal(x, prob.start_x) and np.array_equal(y, prob.start_y)
        assert certified_gap(prob, (x, y)) == 0.0

    @pytest.mark.parametrize("n_blocks", [4, 1])
    def test_all_zero_data_returns_the_start(self, n_blocks):
        # every loss is log 2 whatever x, so the start x is optimal; the
        # curvature bound is 0, which must not become a step of 1 / 0
        data = RobustErmDataset(A=np.zeros((4, 6)), b=np.ones(4), x_true=np.zeros(6), flip_prob=0.0)
        prob = robust_erm_problem(data, radius=1.0, m_blocks=2, n_blocks=n_blocks)
        assert prob.lipschitz.Lxx_whole == 0.0
        x, y = erm_reference(prob)
        assert np.array_equal(x, prob.start_x) and prob.in_domain(x, y, 0.0)
        assert certified_gap(prob, (x, y)) <= 0.0

    def test_zero_curvature_bound_is_refused(self):
        data = generate_robust_erm(3, 30, 20, 0.1)
        prob = robust_erm_problem(data, radius=5.0, m_blocks=2, n_blocks=30)
        prob.lipschitz = replace(prob.lipschitz, Lxx_whole=0.0)
        with pytest.raises(ValueError, match="positive primal curvature bound"):
            erm_reference(prob)

    def test_steps_use_the_whole_vector_bound(self, monkeypatch):
        # the fallback ||Lxx||_2 is a valid but larger bound: it gives the
        # baseline a shorter primal step, while the reference only starts its
        # backtracking there and certifies from either; at c09 scale the step
        # grows past the bound, so both duals certify within a few checks
        import rbpda.experiments as experiments

        checks = []
        monkeypatch.setattr(experiments, "certified_gap", lambda *a: checks.append(1) or certified_gap(*a))
        data = generate_robust_erm(3, 30, 20, 0.1)
        prob = robust_erm_problem(data, radius=5.0, m_blocks=2, n_blocks=30)
        folded = robust_erm_problem(data, radius=5.0, m_blocks=2, n_blocks=30)
        folded.lipschitz = replace(folded.lipschitz, Lxx_whole=None)
        assert prob.lipschitz.Lxx_whole < folded.lipschitz.primal_whole()
        tau, sigma = baseline_stepsizes(prob)
        tau_folded, sigma_folded = baseline_stepsizes(folded)
        assert tau > tau_folded and sigma == sigma_folded
        start = certified_gap(prob, (prob.start_x, prob.start_y))
        for p in (prob, folded):
            assert certified_gap(p, erm_reference(p)) <= REFERENCE_TOL * start
        for data_seed in (1, 7):
            c09_data = generate_robust_erm(data_seed, 200, 500, 0.1)
            for n_blocks in (200, 1):
                c09 = robust_erm_problem(c09_data, radius=10.0, m_blocks=10, n_blocks=n_blocks)
                checks.clear()
                ref = erm_reference(c09)
                assert len(checks) <= 12, (data_seed, n_blocks, len(checks))
                assert certified_gap(c09, ref) <= REFERENCE_TOL * self._start_cert(c09)

    def test_box_dual_cache_keeps_the_reference_bitwise(self):
        # the box-dual oracle reads its value and gradient through the margin
        # cache, synced exactly onto w once per iteration: the same A @ w
        data = generate_robust_erm(11, 50, 100, 0.1)
        refs = []
        for use_cache in (True, False):
            prob = robust_erm_problem(data, radius=10.0, m_blocks=2, n_blocks=50)
            if not use_cache:
                prob.coupling_cache = None
            refs.append(erm_reference(prob))
        for a, b in zip(*refs):
            assert np.array_equal(a, b)

    def test_capped_solve_returns_a_finite_point(self):
        # this instance needs ~17,700 iterations to certify, so the cap cuts
        # the solve short after 5,000 backtracked steps; what it returns must
        # still be a finite point of the domain
        data = generate_robust_erm(3, 30, 20, 0.1)
        prob = robust_erm_problem(data, radius=1.0, m_blocks=2, n_blocks=1)
        x, y = erm_reference(prob, iters=5000)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
        assert prob.in_domain(x, y, 0.0) and abs(y.sum() - 1.0) <= 1e-12
        assert certified_gap(prob, (x, y)) > REFERENCE_TOL * self._start_cert(prob)

    @pytest.mark.parametrize("data_seed", [1, 7])
    def test_entropy_dual_reference_at_c09_scale(self, data_seed):
        data = generate_robust_erm(data_seed, 200, 500, 0.1)
        prob = robust_erm_problem(data, radius=10.0, m_blocks=10, n_blocks=1)
        x, y = erm_reference(prob, iters=20_000, plateau_tol=3e-7)
        assert prob.in_domain(x, y, 0.0)
        assert certified_gap(prob, (x, y)) <= 1e-4 * self._start_cert(prob)


class TestReferenceCertificateColumn:
    @staticmethod
    def _rows(out_dir):
        with open(out_dir / "summary.csv") as fh:
            return list(csv.DictReader(fh))

    def test_robust_erm_reference_certificate(self, tmp_path):
        spec = ExperimentSpec(
            name="erm", problem="robust_erm", n=20, m=40, blocks_m=2, iters=40, repeats=2,
            checkpoint_every=20, out=str(tmp_path / "erm"),
        )
        rows = self._rows(run_experiment(spec))
        problem, reference, _ = build_problem(spec)
        want = certified_gap(problem, reference)
        assert [float(r["ref_cert_gap"]) for r in rows] == [want, want]
        start = certified_gap(problem, (problem.start_x, problem.start_y))
        assert 0.0 <= want <= REFERENCE_TOL * start

    def test_entropy_dual_reference_certificate(self, tmp_path):
        spec = ExperimentSpec(
            name="erm1", problem="robust_erm", n=20, m=40, blocks_m=2, blocks_n=1, iters=40,
            repeats=2, checkpoint_every=20, out=str(tmp_path / "erm1"),
        )
        rows = self._rows(run_experiment(spec))
        problem, reference, signature = build_problem(spec)
        assert signature.endswith("dual_simplex")
        want = certified_gap(problem, reference)
        assert [float(r["ref_cert_gap"]) for r in rows] == [want, want]
        start = certified_gap(problem, (problem.start_x, problem.start_y))
        assert 0.0 <= want <= REFERENCE_TOL * start

    def test_box_game_reference_is_exact(self, tmp_path):
        spec = ExperimentSpec(
            name="box", problem="box_game", blocks_m=2, blocks_n=2, iters=20, repeats=1,
            out=str(tmp_path / "box"),
        )
        (row,) = self._rows(run_experiment(spec))
        assert abs(float(row["ref_cert_gap"])) <= 1e-12


class TestCompareRuns:
    def test_single_directory(self, game_out):
        out_dir, spec = game_out
        table = compare_runs([out_dir])
        assert len(table) == 1
        assert table[0]["config"] == "ib"

    def test_two_modes_budget_aligned(self, tmp_path):
        base = tmp_path / "cmp"
        s1 = ExperimentSpec(name="inc", iters=300, repeats=1, checkpoint_every=50, out=str(base / "a"))
        s2 = ExperimentSpec(
            name="single", mode="single_sample", iters=300, repeats=1, checkpoint_every=50,
            out=str(base / "b"),
        )
        d1 = run_experiment(s1)
        d2 = run_experiment(s2)
        table = compare_runs([d1, d2])
        assert len(table) == 2
        budgets = {row["budget"] for row in table}
        assert len(budgets) == 1  # aligned on the common budget axis

    def test_mismatched_problems_refused(self, tmp_path):
        d1 = run_experiment(ExperimentSpec(name="g", iters=20, repeats=1, out=str(tmp_path / "g")))
        d2 = run_experiment(
            ExperimentSpec(name="b", problem="box_game", blocks_m=2, blocks_n=2, iters=20, repeats=1,
                           out=str(tmp_path / "b"))
        )
        with pytest.raises(ValueError, match="signatures"):
            compare_runs([d1, d2])


    @pytest.mark.parametrize(
        "change", [{"radius": 5.0}, {"blocks_n": 1}], ids=["radius", "dual_geometry"]
    )
    def test_different_erm_problems_refused(self, tmp_path, change):
        base = ExperimentSpec(
            name="erm", problem="robust_erm", n=20, m=40, blocks_m=2, blocks_n=20, iters=20,
            repeats=1, checkpoint_every=10,
        )
        d1 = run_experiment(replace(base, out=str(tmp_path / "a")))
        d2 = run_experiment(replace(base, out=str(tmp_path / "b"), **change))
        with pytest.raises(ValueError, match="signatures"):
            compare_runs([d1, d2])


class TestMainCli:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mode = turbo\nwat = 1\n")
        assert main(["--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "foo"],
            ["--iters", "-1"],
            ["--mode", "single_sample", "--eta", "1.0"],
            ["--mode", "baseline", "--iters", "-1"],
        ],
    )
    def test_rejected_solver_setting_exit_code(self, tmp_path, capsys, flags):
        # a setting SolverConfig (or, in baseline mode, the baseline) rejects
        # is a config error before any run, not a failed run per seed
        out = tmp_path / "bad"
        argv = ["--problem", "box_game", "--iters", "10", "--repeats", "1", "--out", str(out), *flags]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_baseline_checkpoint_every_zero_exit_code(self, tmp_path, capsys):
        # baseline specs take SolverConfig's checks; this used to fail every
        # run with "integer modulo by zero" and exit 1
        cfg = tmp_path / "base.cfg"
        cfg.write_text("problem = box_game\nmode = baseline\niters = 10\nrepeats = 1\ncheckpoint_every = 0\n")
        out = tmp_path / "bad"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert "checkpoint_every must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--iters", "-1"], ["--mode", "baseline", "--iters", "-1"]])
    def test_negative_iters_names_the_runner_key(self, tmp_path, capsys, flags):
        # the flag and the config key are iters, not SolverConfig's max_iters
        argv = ["--problem", "box_game", "--repeats", "1", "--out", str(tmp_path / "bad"), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "iters = -1" in err and "max_iters" not in err

    @pytest.mark.parametrize("batch, message", [(5, "batch = 5 exceeds the problem's p = 1"),
                                                (-2, "batch must be at least 1, got batch = -2")])
    def test_constant_batch_outside_one_to_p_exit_code(self, tmp_path, capsys, batch, message):
        # the box game has p = 1: batch = 5 used to fail every run and exit 1
        cfg = tmp_path / "batch.cfg"
        cfg.write_text(f"problem = box_game\nbatch = {batch}\niters = 10\nrepeats = 1\n")
        out = tmp_path / "bad"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("batch = 5", "baseline mode ignores batch, got batch = 5"),
        ("eta = 0.5", "baseline mode ignores eta, got eta = 0.5"),
        ("restart = true", "baseline mode ignores restart, got restart = True"),
        ("restart_threshold = 0.5", "baseline mode ignores restart_threshold, got restart_threshold = 0.5"),
    ], ids=["batch", "eta", "restart", "restart_threshold"])
    def test_baseline_refuses_the_solver_keys_it_ignores(self, tmp_path, capsys, line, message):
        # the baseline never reads these; it used to run, exit 0 and echo them
        cfg = tmp_path / "base.cfg"
        cfg.write_text(f"problem = box_game\nmode = baseline\n{line}\niters = 10\nrepeats = 1\n")
        out = tmp_path / "bad"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["seed = -1", "seeds = 3, -1"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, line):
        # a negative seed, alone or in the seed list, used to fail every run
        # in numpy's seeding and exit 1
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"problem = box_game\n{line}\niters = 10\nrepeats = 1\n")
        out = tmp_path / "bad"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert "seed must be nonnegative, got seed = -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines, message", [
        ("problem = box_game\nblocks_m = 3", "m_blocks=3 is below 1 or does not divide the payoff dimension 4"),
        ("problem = box_game\nblocks_m = 0", "m_blocks=0 is below 1"),
        ("problem = robust_erm\nblocks_m = 0", "m_blocks=0 is below 1"),
        ("problem = robust_erm\nn = 0", "n and m must be positive"),
        ("problem = robust_erm\nflip_prob = 2", "flip_prob must lie in [0, 1]"),
        ("problem = robust_erm\nradius = -1", "radius must be nonnegative, got radius = -1.0"),
        ("problem = robust_erm\ndata_seed = -1", "data_seed must be nonnegative, got data_seed = -1"),
    ], ids=["box_game_blocks_m", "box_game_blocks_m_zero", "erm_blocks_m", "erm_n", "erm_flip_prob", "erm_radius",
            "erm_data_seed"])
    def test_a_problem_that_cannot_be_built_exit_code(self, tmp_path, capsys, lines, message):
        # the problem's own ValueError (ZeroDivisionError for blocks_m = 0)
        # used to print a traceback and exit 1; the box game read blocks_m = 0
        # as 1 and ran
        cfg = tmp_path / "problem.cfg"
        cfg.write_text(f"{lines}\niters = 10\nrepeats = 1\n")
        out = tmp_path / "bad"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: [default] {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_repeats_below_one_exit_code(self, tmp_path, capsys, repeats):
        # without seeds this used to run nothing, write a header-only summary and exit 0
        out = tmp_path / "bad"
        argv = ["--problem", "box_game", "--iters", "10", "--repeats", str(repeats), "--out", str(out)]
        assert main(argv) == 2
        assert f"repeats must be at least 1, got repeats = {repeats}" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "seeds.cfg"  # a seed list sets the runs, and repeats is not read
        cfg.write_text(f"problem = box_game\nseeds = 3\nrepeats = {repeats}\niters = 10\n")
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        assert len(list(out.glob("trace_*.csv"))) == 1

    def test_solver_refusal_shows_the_value_given(self, tmp_path, capsys):
        argv = ["--problem", "box_game", "--mode", "single_sample", "--eta", "1.0", "--iters", "10",
                "--repeats", "1", "--out", str(tmp_path / "bad")]
        assert main(argv) == 2
        assert "single_sample mode needs eta in [0, 1), got eta = 1.0" in capsys.readouterr().err

    def test_flags_override_and_run(self, tmp_path):
        out = tmp_path / "cli"
        code = main(
            ["--problem", "matrix_game", "--iters", "50", "--repeats", "1", "--out", str(out), "--seed", "3"]
        )
        assert code == 0
        assert (out / "summary.csv").exists()

    def test_compare_flag(self, tmp_path, capsys):
        out = tmp_path / "c1"
        main(["--iters", "40", "--repeats", "1", "--out", str(out)])
        code = main(["--compare", str(out)])
        assert code == 0
        assert "gap_at_budget" in capsys.readouterr().out
