"""Experiment runner: config parsing, multi-run orchestration, CSV emission.

Reproduces the benchmark studies at desk scale: repeated seeded runs per
configuration, per-run trace CSVs, a summary table, and per-configuration
plot-data files (iteration grid vs mean gap with standard error).  Runs
within an experiment execute one after another, in (seed, stream) order, and
their outputs are written in that order.  A baseline configuration draws
nothing, so it runs once, at its first (seed, stream) pair.

Config files are flat ``key = value`` text, optionally split into
``[named]`` sections, one configuration per section.  Command-line flags
override file values.  Exit codes: 0 full success, 1 any failed run, 2
config error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import problems as problems_mod
from .metrics import ConvergenceTrace, certified_gap, estimate_component_noise, fit_rate  # noqa: F401  kept for perfbench's patch list
from .solver import SolverConfig, deterministic_baseline_run, run
from .stepsize import BlockLipschitz, aggregate_constants, constant_stepsizes, default_free_params

__all__ = ["ExperimentSpec", "parse_config", "write_config", "run_experiment", "compare_runs", "main"]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    """One experiment configuration; every field has a default."""

    name: str = "default"
    problem: str = "matrix_game"  # matrix_game | box_game | robust_erm
    mode: str = "increasing_batch"  # increasing_batch | single_sample | baseline
    geometry: str = "euclidean"
    n: int = 50
    m: int = 100
    flip_prob: float = 0.1
    radius: float = 10.0
    blocks_m: int = 1  # at least 1: only blocks_n has a 0 default
    blocks_n: int = 0  # 0: problem default (games 1, robust_erm n)
    eta: float = 0.0
    iters: int = 10_000
    repeats: int = 10
    seed: int = 1
    seeds: tuple = ()  # explicit seed list; overrides seed/repeats streams
    batch: int = 0  # 0: mode default, otherwise a constant batch size
    restart: bool = False
    restart_threshold: float = 0.9
    checkpoint_every: int = 100
    out: str = "rbpda_out"
    data_seed: int = 7

    def solver_config(self, seed: int, stream: int) -> SolverConfig:
        return SolverConfig(
            mode=self.mode,
            eta=self.eta,
            max_iters=self.iters,
            seed=seed,
            stream=stream,
            batch=self.batch or None,
            restart_enabled=self.restart,
            restart_threshold=self.restart_threshold,
            checkpoint_every=self.checkpoint_every,
        )


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}
_FIELDS = {f.name: f for f in fields(ExperimentSpec)}
_RUN_ONLY = ("batch", "eta", "restart", "restart_threshold")  # keys the baseline never reads


def _coerce(key: str, raw: str, lineno: int):
    f = _FIELDS[key]
    raw = raw.strip()
    try:
        if f.type in ("int", int):
            return int(raw)
        if f.type in ("float", float):
            return float(raw)
        if f.type in ("bool", bool):
            return _BOOL[raw.lower()]
        if f.type in ("tuple", tuple):
            return tuple(int(v) for v in raw.split(",") if v.strip())
        return raw
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"line {lineno}: cannot parse {key} = {raw!r}") from exc


def parse_config(path) -> list[ExperimentSpec]:
    """Parse a config file into one spec per section (one default spec if flat)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    specs: list[ExperimentSpec] = []
    current = ExperimentSpec()
    started = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            if started:
                specs.append(current)
            current = ExperimentSpec(name=stripped[1:-1].strip() or f"section{len(specs)}")
            started = True
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(current, key, _coerce(key, raw, lineno))
        started = True
    specs.append(current)
    return specs


def write_config(specs, path) -> None:
    """Normalized echo of the effective configuration(s)."""
    lines = []
    for spec in [specs] if isinstance(specs, ExperimentSpec) else list(specs):
        lines.append(f"[{spec.name}]")
        for f in fields(ExperimentSpec):
            if f.name == "name":
                continue
            val = getattr(spec, f.name)
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            lines.append(f"{f.name} = {val}")
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")


_DIAG12 = np.diag([1.0, 2.0])
_BOX4 = np.array(
    [
        [1.0, 0.3, 0.2, 0.1],
        [0.3, 2.0, 0.1, 0.2],
        [0.2, 0.1, 1.0, 0.3],
        [0.1, 0.2, 0.3, 2.0],
    ]
)


def build_problem(spec: ExperimentSpec):
    """Construct the problem, its reference point, and a problem signature."""
    if spec.problem == "matrix_game":
        problem, ref = problems_mod.matrix_game_problem(
            problems_mod.MatrixGameSpec(_DIAG12, geometry=spec.geometry)
        )
        return problem, (ref.x, ref.y), f"matrix_game:{spec.geometry}"
    if spec.problem == "box_game":
        mb, nb = spec.blocks_m, spec.blocks_n or 1
        problem, ref = problems_mod.box_game_problem(_BOX4, half_width=1.0, m_blocks=mb, n_blocks=nb)
        return problem, (ref.x, ref.y), f"box_game:M{mb}:N{nb}"
    if spec.problem == "robust_erm":
        if spec.data_seed < 0:  # numpy's own refusal would not name the key
            raise ValueError(f"data_seed must be nonnegative, got data_seed = {spec.data_seed}")
        data = problems_mod.generate_robust_erm(spec.data_seed, spec.n, spec.m, spec.flip_prob)
        n_blocks = spec.blocks_n or spec.n
        problem = problems_mod.robust_erm_problem(
            data, radius=spec.radius, m_blocks=spec.blocks_m, n_blocks=n_blocks
        )
        reference = erm_reference(problem)
        dual = "simplex" if n_blocks == 1 else "box"
        signature = (
            f"robust_erm:n{spec.n}:m{spec.m}:seed{spec.data_seed}:radius{spec.radius!r}"
            f":flip{spec.flip_prob!r}:dual_{dual}"
        )
        return problem, reference, signature
    raise ConfigError(f"unknown problem: {spec.problem!r}")


def baseline_stepsizes(problem) -> tuple[float, float]:
    """Scalar steps for the full-gradient baseline via the single-block view.

    The block Lipschitz matrices fold into valid whole-vector constants, and
    the single-block step formulas apply to those.  The primal curvature is
    the problem's ``Lxx_whole`` when it gives one (robust ERM does), else
    the spectral norm of ``Lxx``; ``Lyy`` folds by its spectral norm and
    the couplings by their Frobenius norms.
    """
    lip = problem.lipschitz
    folded = BlockLipschitz(
        Lxx=np.array([[lip.primal_whole()]]),
        Lxy=np.array([[max(np.linalg.norm(lip.Lxy), 1e-12)]]),
        Lyy=np.array([[np.linalg.norm(lip.Lyy, 2)]]),
        Lyx=np.array([[max(np.linalg.norm(lip.Lyx), 1e-12)]]),
    )
    agg = aggregate_constants(folded)
    tau, sigma = constant_stepsizes(agg, default_free_params(agg))
    return float(tau[0]), float(sigma[0])


REFERENCE_TOL = 1e-4  # reference: certified gap relative to the start point's
_CERT_EVERY = 25  # FISTA iterations between two certificate checks
_LIP_FLOOR = 1e-12  # FISTA's lip stays above this fraction of its start bound: 1 / lip stays finite


def erm_reference(problem, iters: int = 30_000, plateau_tol=None):
    """High-accuracy saddle reference (x, y) of a robust-ERM problem.

    Both duals reduce to minimizing a convex f over the primal box, solved
    by one backtracking FISTA (``_fista``) from the problem's start x with
    the baseline's primal prox, for at most ``iters`` iterations.  It stops
    as soon as ``certified_gap(problem, (x, y(x)))`` is at most
    ``REFERENCE_TOL`` times the certified gap at the problem's start point
    (``start_x``, ``start_y``), checked at the start and every 25
    iterations; when that start certificate is 0 the start is returned.

    * With box dual blocks, Phi is linear in y and its y-gradient, the
      per-datum logistic losses, is positive, so the saddle's y is the
      boxes' upper bounds and f(x) = y . loss(x) = L(x, y*).  A simplex of
      one datum is the single point y = [1], solved alike.
    * With the entropy simplex, max_y L(x, y) is the largest loss, which is
      not smooth.  Nesterov's entropy smoothing (Math. Prog. 2005) gives
      f(x) = mu logsumexp(loss(x) / mu), whose gradient is ``full_grad_x``
      at y(x) = softmax(loss(x) / mu).  With mu = target / (2 log n) the
      dual side of the certificate at (x, y(x)) is at most half the target.

    ``plateau_tol`` is ignored.  It is accepted only because the benchmark
    workloads (``perfbench/workloads.py``) pass it.
    """
    target = REFERENCE_TOL * certified_gap(problem, (problem.start_x, problem.start_y))
    if target <= 0.0:  # the start is a saddle (up to rounding); mu would be 0
        return np.array(problem.start_x, dtype=float), np.array(problem.start_y, dtype=float)
    n = problem.structure.n
    if all(spec.kind == "box" for spec in problem.dual_prox) or n == 1:
        y = problem.sides[1].upper.copy() if n > 1 else np.ones(1)

        def total_loss(x, **kw):
            return float(y @ problem.full_grad_y(x, y, **kw)), y

        return _fista(problem, iters, target, total_loss)
    mu = 0.5 * target / math.log(n)

    def smoothed(x, **kw):
        s = problem.full_grad_y(x, problem.start_y, **kw) / mu
        top = s.max()
        e = np.exp(s - top)
        total = e.sum()
        return mu * (top + math.log(total)), e / total

    return _fista(problem, iters, target, smoothed)


def _fista(problem, iters: int, target: float, oracle):
    """FISTA on min_x f(x) over the primal box, where grad f(x) = full_grad_x(x, y(x)).

    ``oracle(x, **kw)`` returns (f(x), y(x)).  The step 1 / lip backtracks
    (Beck & Teboulle, 2009) and may grow again (Scheinberg, Goldfarb & Bai,
    2014): lip starts at ``problem.lipschitz.primal_whole()`` (``Lxx_whole``
    when the problem gives it, else ||Lxx||_2), doubles when sufficient
    decrease fails and shrinks by 0.9 after each accepted step, also below
    that start bound, where f is flatter than the bound says (robust ERM on
    separable data, near the box corner).  It never falls below
    ``_LIP_FLOOR`` times the start bound.  The certificate, not the step
    rule, certifies the output.  The oracle reads the margins at w, as
    ``full_grad_x`` does, so w stays one buffer, and the problem's coupling
    cache over it is synced once per iteration and passed in ``kw``: the
    two share one product.

    Returns the start at once if its certificate is already at most
    ``target``; otherwise raises ``ValueError`` when the start bound is not
    positive, since a zero bound gives no step.
    """
    project = problem.sides[0].prox
    x = np.array(problem.start_x, dtype=float)
    y = oracle(x)[1]
    if certified_gap(problem, (x, y)) <= target:
        return x, y
    lip = problem.lipschitz.primal_whole()
    if not lip > 0.0:
        raise ValueError(f"FISTA needs a positive primal curvature bound, got {lip!r}")
    floor = _LIP_FLOOR * lip
    w, t = x.copy(), 1.0
    cache = None
    if problem.coupling_cache is not None:
        # robust ERM's cache reads the primal buffers only
        cache = problem.coupling_cache(w, None, w, None, problem.p)
    kw = {} if cache is None else {"cache": cache}
    for k in range(1, iters + 1):
        f_w, y_w = oracle(w, **kw)
        grad = problem.full_grad_x(w, y_w, **kw)
        while True:
            x_new = project(grad, 1.0 / lip, w)
            d = x_new - w
            if oracle(x_new)[0] <= f_w + grad @ d + 0.5 * lip * (d @ d):
                lip = max(floor, 0.9 * lip)
                break
            lip *= 2.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        np.add(x_new, ((t - 1.0) / t_new) * (x_new - x), out=w)
        if cache is not None:
            cache.sync()
        x, t = x_new, t_new
        if k % _CERT_EVERY == 0 and certified_gap(problem, (x, oracle(x)[1])) <= target:
            break
    return x, oracle(x)[1]


def _stream_seeds(spec: ExperimentSpec):
    pairs = [(s, 0) for s in spec.seeds] if spec.seeds else [(spec.seed, r) for r in range(spec.repeats)]
    # the baseline draws nothing, so every further pair would repeat the first run
    return pairs[:1] if spec.mode == "baseline" else pairs


def _run_one(spec: ExperimentSpec, problem, reference, seed: int, stream: int):
    t0 = time.perf_counter()
    if spec.mode == "baseline":
        tau, sigma = baseline_stepsizes(problem)
        result = deterministic_baseline_run(
            problem,
            tau,
            sigma,
            spec.iters,
            reference=reference,
            checkpoint_every=spec.checkpoint_every,
            compute_sup_gap=True,
        )
    else:
        result = run(problem, spec.solver_config(seed, stream), reference=reference)
    return result, time.perf_counter() - t0


def _gap_series(trace: ConvergenceTrace):
    gaps = trace.column("sup_gap")
    if np.all(np.isnan(gaps)):
        gaps = trace.column("gap_ref")
    return trace.column("k"), trace.column("grad_budget"), gaps


def run_experiment(spec_or_specs, out: Optional[str] = None) -> Path:
    """Run every (configuration, seed) pair and write traces, summary, plot data.

    Individual run failures are recorded in the summary and the remaining
    runs continue.  A setting that :class:`~rbpda.solver.SolverConfig`
    rejects (an unknown mode, negative ``iters``, ``checkpoint_every`` below
    1, an ``eta`` outside its mode's range, a ``batch`` below 1, a negative
    or non-integral seed, whether ``seed`` or an entry of ``seeds``) raises
    :class:`ConfigError` before any run, and so do ``repeats`` below 1
    without ``seeds``, a problem that :func:`build_problem` cannot build
    (block counts that do not divide its dimensions or are below 1, robust
    ERM data of no rows, a ``flip_prob`` outside [0, 1], a negative
    ``radius`` or ``data_seed``), and a constant ``batch`` above the
    problem's p, checked once every spec's problem is built.
    Baseline specs take the ``iters`` and ``checkpoint_every`` checks, and
    one that sets ``batch``, ``eta``, ``restart`` or ``restart_threshold``
    away from its default raises :class:`ConfigError`, since the baseline
    never reads them.
    """
    specs = [spec_or_specs] if isinstance(spec_or_specs, ExperimentSpec) else list(spec_or_specs)
    for spec in specs:
        if spec.iters < 0:  # SolverConfig would name its own field, max_iters
            raise ConfigError(f"[{spec.name}] iters must be nonnegative, got iters = {spec.iters}")
        if spec.repeats < 1 and not spec.seeds:  # no run at all
            raise ConfigError(f"[{spec.name}] repeats must be at least 1, got repeats = {spec.repeats}")
        try:
            if spec.mode == "baseline":
                SolverConfig(checkpoint_every=spec.checkpoint_every)
                for key in _RUN_ONLY:
                    if getattr(spec, key) != _FIELDS[key].default:
                        raise ValueError(f"baseline mode ignores {key}, got {key} = {getattr(spec, key)}")
            else:
                for seed, stream in _stream_seeds(spec):  # every seed of ``seeds`` too
                    spec.solver_config(seed, stream)
        except ValueError as exc:
            raise ConfigError(f"[{spec.name}] {exc}") from exc
    built = []
    for spec in specs:
        try:
            built.append(build_problem(spec))
        except ValueError as exc:
            raise ConfigError(f"[{spec.name}] {exc}") from exc
    for spec, (problem, _, _) in zip(specs, built):
        if spec.mode != "baseline" and spec.batch > problem.p:
            raise ConfigError(f"[{spec.name}] batch = {spec.batch} exceeds the problem's p = {problem.p}")
    out_dir = Path(out or specs[0].out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(specs, out_dir / "config_effective.txt")

    summary_rows = []
    any_failed = False
    for spec, (problem, reference, signature) in zip(specs, built):
        cert = certified_gap(problem, reference)
        ref_cert_gap = "" if cert is None else repr(cert)
        per_cfg_traces = []
        for (seed, stream) in _stream_seeds(spec):
            try:
                value = _run_one(spec, problem, reference, seed, stream)
            except Exception as exc:  # noqa: BLE001 - recorded per run, runs continue
                value = exc
            tag = f"{spec.name}_s{seed}_r{stream}"
            head = (spec.name, signature, ref_cert_gap, seed, stream)
            if isinstance(value, Exception):
                any_failed = True
                status = "failed: " + str(value).replace(",", ";").replace("\n", " ")
                summary_rows.append(head + (status, "", "", "", "", ""))
                continue
            result, elapsed = value
            trace_path = out_dir / f"trace_{tag}.csv"
            result.trace.to_csv(trace_path)
            ks, budgets, gaps = _gap_series(result.trace)
            finite = np.isfinite(gaps)
            final_gap = gaps[finite][-1] if finite.any() else np.nan
            fit = fit_rate(
                list(zip(ks, np.where(np.isfinite(gaps), gaps, np.nan))),
                (max(1, spec.iters // 100), spec.iters),
            )
            slope = "" if fit is None else f"{fit.slope:.6f}"
            summary_rows.append(
                head + ("ok", repr(float(final_gap)), slope, result.grad_budget, f"{elapsed:.3f}",
                        result.restarts)
            )
            per_cfg_traces.append((ks, budgets, gaps))

        if per_cfg_traces:
            _write_plot_data(out_dir / f"plotdata_{spec.name}.csv", per_cfg_traces)

    _write_summary(out_dir / "summary.csv", summary_rows)
    (out_dir / "STATUS").write_text("1\n" if any_failed else "0\n", encoding="utf-8")
    return out_dir


SUMMARY_COLUMNS = (
    "config", "signature", "ref_cert_gap", "seed", "stream",
    "status", "final_gap", "slope", "grad_budget", "wall_time", "restarts",
)


def _write_summary(path, rows) -> None:
    """``summary.csv``: one row per run, its values in ``SUMMARY_COLUMNS`` order."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in (SUMMARY_COLUMNS, *rows):
            fh.write(",".join(map(str, row)) + "\n")


def _write_plot_data(path, traces) -> None:
    """Mean gap with standard error on the common checkpoint grid."""
    ks = traces[0][0]
    gap_stack = np.stack([g for _, _, g in traces])
    budget_stack = np.stack([b for _, b, _ in traces])
    mean = np.nanmean(gap_stack, axis=0)
    n = gap_stack.shape[0]
    stderr = np.nanstd(gap_stack, axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,mean_budget,mean_gap,stderr,runs\n")
        for idx in range(ks.size):
            fh.write(
                f"{int(ks[idx])},{np.mean(budget_stack[:, idx]):.1f},"
                f"{float(mean[idx])!r},{float(stderr[idx])!r},{n}\n"
            )


def _read_csv_dicts(path):
    with open(path, "r", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def compare_runs(directories) -> list[dict]:
    """Merge summaries from several output directories into one ranked table.

    Configurations are ranked by mean gap interpolated at the largest gradient
    budget common to all of them.  Mixing different problems is refused.
    """
    entries = []
    signatures = set()
    for d in directories:
        d = Path(d)
        rows = _read_csv_dicts(d / "summary.csv")
        for row in rows:
            if row["status"] == "ok":
                signatures.add(row["signature"])
        configs = sorted({row["config"] for row in rows})
        for cfg in configs:
            plot = d / f"plotdata_{cfg}.csv"
            if not plot.exists():
                continue
            pdata = _read_csv_dicts(plot)
            budgets = np.array([float(r["mean_budget"]) for r in pdata])
            gaps = np.array([float(r["mean_gap"]) for r in pdata])
            entries.append({"dir": str(d), "config": cfg, "budgets": budgets, "gaps": gaps})
    if len(signatures) > 1:
        raise ValueError(f"incompatible problem signatures across directories: {sorted(signatures)}")
    if not entries:
        raise ValueError("no successful runs to compare")
    common_budget = min(float(e["budgets"][-1]) for e in entries)
    table = []
    for e in entries:
        gap_at = float(np.interp(common_budget, e["budgets"], e["gaps"]))
        table.append(
            {
                "dir": e["dir"],
                "config": e["config"],
                "budget": common_budget,
                "gap_at_budget": gap_at,
                "final_budget": float(e["budgets"][-1]),
                "final_gap": float(e["gaps"][-1]),
            }
        )
    table.sort(key=lambda row: row["gap_at_budget"])
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rbpda", description="Block-coordinate primal-dual experiment runner"
    )
    parser.add_argument("--config", default=None, help="config file (flat key = value)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--mode", default=None)
    parser.add_argument("--eta", type=float, default=None)
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--blocks-m", type=int, default=None)
    parser.add_argument("--blocks-n", type=int, default=None)
    parser.add_argument("--problem", default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--compare", nargs="*", default=None, help="directories to merge")
    args = parser.parse_args(argv)

    if args.compare is not None:
        try:
            table = compare_runs(args.compare)
        except (ValueError, OSError) as exc:
            print(f"comparison error: {exc}", file=sys.stderr)
            return 2
        print("config,dir,budget,gap_at_budget,final_gap")
        for row in table:
            print(
                f"{row['config']},{row['dir']},{row['budget']:.0f},"
                f"{row['gap_at_budget']:.6e},{row['final_gap']:.6e}"
            )
        return 0

    try:
        specs = parse_config(args.config) if args.config else [ExperimentSpec()]
        # every other flag is named after the spec field it overrides
        flags = {k: v for k, v in vars(args).items() if k not in ("config", "compare")}
        overrides = {k: v for k, v in flags.items() if v is not None}
        specs = [replace(spec, **overrides) for spec in specs]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        out_dir = run_experiment(specs, out=specs[0].out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    status = (out_dir / "STATUS").read_text(encoding="utf-8").strip()
    print(f"wrote {out_dir}")
    return 1 if status == "1" else 0


if __name__ == "__main__":
    sys.exit(main())
