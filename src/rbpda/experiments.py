"""Experiment runner: config parsing, multi-run orchestration, CSV emission.

Reproduces the benchmark studies at desk scale: repeated seeded runs per
configuration, per-run trace CSVs, a summary table, and per-configuration
plot-data files (iteration grid vs mean gap with standard error).  Runs
within an experiment execute one after another, in (seed, stream) order, and
their outputs are written in that order.

Config files are flat ``key = value`` text, optionally split into
``[named]`` sections, one configuration per section.  Command-line flags
override file values.  Exit codes: 0 full success, 1 any failed run, 2
config error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import problems as problems_mod
from .metrics import ConvergenceTrace, certified_gap, estimate_component_noise, fit_rate  # noqa: F401  kept for perfbench's patch list
from .solver import SolverConfig, _stacked_prox, deterministic_baseline_run, run
from .stepsize import aggregate_constants, constant_stepsizes, default_free_params

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
    blocks_m: int = 1
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
        mb = spec.blocks_m or 1
        nb = spec.blocks_n or 1
        problem, ref = problems_mod.box_game_problem(_BOX4, half_width=1.0, m_blocks=mb, n_blocks=nb)
        return problem, (ref.x, ref.y), f"box_game:M{mb}:N{nb}"
    if spec.problem == "robust_erm":
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

    The block Lipschitz matrices fold into valid whole-vector constants
    (spectral norm for the diagonal families, Frobenius for the couplings),
    and the single-block step formulas apply to those.
    """
    from .stepsize import BlockLipschitz

    lip = problem.lipschitz
    folded = BlockLipschitz(
        Lxx=np.array([[np.linalg.norm(lip.Lxx, 2)]]),
        Lxy=np.array([[max(np.linalg.norm(lip.Lxy), 1e-12)]]),
        Lyy=np.array([[np.linalg.norm(lip.Lyy, 2)]]),
        Lyx=np.array([[max(np.linalg.norm(lip.Lyx), 1e-12)]]),
    )
    agg = aggregate_constants(folded, 1, 1)
    fp = default_free_params(agg, 1, 1, mode="constant")
    tau, sigma = constant_stepsizes(agg, fp, 1, 1)
    return float(tau[0]), float(sigma[0])


REFERENCE_TOL = 1e-4  # box-dual reference: certified gap relative to the start point's
_CERT_EVERY = 25  # FISTA iterations between two certificate checks


def erm_reference(problem, iters: int = 30_000, plateau_tol: float = 1e-9):
    """High-accuracy saddle reference (x, y) of a robust-ERM problem.

    With box dual blocks, Phi is linear in y and its y-gradient, the
    per-datum logistic losses, is positive, so the saddle's y is the boxes'
    upper bounds and its x minimizes L(., y*) over the primal box.  FISTA
    (Beck & Teboulle, 2009) solves that from the problem's start x, with the
    step 1 / ||Lxx||_2 and the baseline's primal prox, for at most ``iters``
    iterations.  Every 25 iterations it stops once
    ``certified_gap(problem, (x, y*))`` is at most ``REFERENCE_TOL`` times the
    certified gap at the problem's start point (``start_x``, ``start_y``).

    Otherwise (the entropy simplex, whose best response is a vertex) the
    reference is the last iterate of a full-gradient baseline run of
    ``iters`` iterations that stops on a ``plateau_tol`` plateau.
    """
    if all(spec.kind == "box" for spec in problem.dual_prox):
        return _box_dual_reference(problem, iters)
    tau, sigma = baseline_stepsizes(problem)
    result = deterministic_baseline_run(
        problem,
        tau,
        sigma,
        iters,
        checkpoint_every=max(1, iters // 20),
        plateau_tol=plateau_tol,
    )
    return result.x, result.y


def _box_dual_reference(problem, iters: int):
    y = problem.side_bounds()[1].upper.copy()
    target = REFERENCE_TOL * certified_gap(problem, (problem.start_x, problem.start_y))
    project = _stacked_prox(problem, 0)
    step = 1.0 / np.linalg.norm(problem.lipschitz.Lxx, 2)
    x = np.array(problem.start_x, dtype=float)
    w, t = x, 1.0
    for k in range(1, iters + 1):
        x_new = project(problem.full_grad_x(w, y), step, w)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        w = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        if k % _CERT_EVERY == 0 and certified_gap(problem, (x, y)) <= target:
            break
    return x, y


def _stream_seeds(spec: ExperimentSpec):
    if spec.seeds:
        return [(s, 0) for s in spec.seeds]
    return [(spec.seed, r) for r in range(spec.repeats)]


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
    runs continue.
    """
    specs = [spec_or_specs] if isinstance(spec_or_specs, ExperimentSpec) else list(spec_or_specs)
    out_dir = Path(out or specs[0].out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(specs, out_dir / "config_effective.txt")

    summary_rows = []
    any_failed = False
    for spec in specs:
        problem, reference, signature = build_problem(spec)
        cert = certified_gap(problem, reference)
        ref_cert_gap = "" if cert is None else repr(cert)
        per_cfg_traces = []
        for (seed, stream) in _stream_seeds(spec):
            try:
                value = _run_one(spec, problem, reference, seed, stream)
            except Exception as exc:  # noqa: BLE001 - recorded per run, runs continue
                value = exc
            tag = f"{spec.name}_s{seed}_r{stream}"
            if isinstance(value, Exception):
                any_failed = True
                summary_rows.append(
                    {
                        "config": spec.name,
                        "signature": signature,
                        "ref_cert_gap": ref_cert_gap,
                        "seed": seed,
                        "stream": stream,
                        "status": "failed: " + str(value).replace(",", ";").replace("\n", " "),
                        "final_gap": "",
                        "slope": "",
                        "grad_budget": "",
                        "wall_time": "",
                        "restarts": "",
                    }
                )
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
            summary_rows.append(
                {
                    "config": spec.name,
                    "signature": signature,
                    "ref_cert_gap": ref_cert_gap,
                    "seed": seed,
                    "stream": stream,
                    "status": "ok",
                    "final_gap": repr(float(final_gap)),
                    "slope": "" if fit is None else f"{fit.slope:.6f}",
                    "grad_budget": result.grad_budget,
                    "wall_time": f"{elapsed:.3f}",
                    "restarts": result.restarts,
                }
            )
            per_cfg_traces.append((ks, budgets, gaps))

        if per_cfg_traces:
            _write_plot_data(out_dir / f"plotdata_{spec.name}.csv", per_cfg_traces)

    _write_summary(out_dir / "summary.csv", summary_rows)
    (out_dir / "STATUS").write_text("1\n" if any_failed else "0\n", encoding="utf-8")
    return out_dir


def _write_summary(path, rows) -> None:
    cols = [
        "config",
        "signature",
        "ref_cert_gap",
        "seed",
        "stream",
        "status",
        "final_gap",
        "slope",
        "grad_budget",
        "wall_time",
        "restarts",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")


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
    import csv as _csv

    with open(path, "r", encoding="utf-8") as fh:
        return list(_csv.DictReader(fh))


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
        overrides = {
            "seed": args.seed,
            "out": args.out,
            "mode": args.mode,
            "eta": args.eta,
            "iters": args.iters,
            "blocks_m": args.blocks_m,
            "blocks_n": args.blocks_n,
            "problem": args.problem,
            "repeats": args.repeats,
        }
        overrides = {k: v for k, v in overrides.items() if v is not None}
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
