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
from rbpda.problems import generate_robust_erm, robust_erm_problem
from rbpda.solver import deterministic_baseline_run


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

    def test_entropy_dual_reference_is_the_baseline_run(self):
        data = generate_robust_erm(3, 30, 20, 0.1)
        prob = robust_erm_problem(data, radius=5.0, m_blocks=2, n_blocks=1)
        tau, sigma = baseline_stepsizes(prob)
        want = deterministic_baseline_run(prob, tau, sigma, 500, checkpoint_every=25, plateau_tol=1e-7)
        x, y = erm_reference(prob, iters=500, plateau_tol=1e-7)
        assert np.array_equal(x, want.x) and np.array_equal(y, want.y)


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
