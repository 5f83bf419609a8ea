"""Command-line pipeline: sample -> check -> region -> bound -> curve.

Stages communicate only through the documented JSON/CSV files, so each stage
can be re-run in isolation; ``run`` chains them all and writes a summary with
per-stage wall times.  Both run the same stage bodies.  UCTMC_LOG in {error,
warn, info, debug} controls log verbosity.  Identical configurations (seed
included) produce byte-identical samples.json and regions.json.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as uio
from .checker import (MIN_EPSILON, CheckerError, region_to_curve, refine_solution,
                      solve_measure_set)
from .model import load_model
from .sampling import sample_valuations
from .scenario import (
    BoxRegion,
    _check_rho,
    baseline_frequentist,
    baseline_independent,
    bound_outcome,
    compute_eta,
    refine_until,
    rho_grid,
    solutions_matrix,
)

log = logging.getLogger("uctmc")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@dataclass
class RunConfig:
    model: str
    measures: str
    n: int = 100
    seed: int = 0
    mode: str = "exact"
    epsilon: float = 1e-6
    rel_gap: float = 1e-2
    rho_spec: str = "auto:10"
    betas: tuple = (0.9, 0.99, 0.999)
    out_dir: str = "."
    delta: float = 1e-2


def validate_config(cfg: RunConfig) -> list[str]:
    """Empty list iff the configuration is runnable; one entry per problem."""
    problems = []
    if not os.path.isfile(cfg.model):
        problems.append("model: file not found")
    if not os.path.isfile(cfg.measures):
        problems.append("measures: file not found")
    if cfg.n < 1:
        problems.append("n: must be >= 1")
    if cfg.mode not in ("exact", "approx"):
        problems.append("mode: must be exact or approx")
    problems += _check_option_problems(cfg)
    for beta in cfg.betas:
        if not 0.0 < beta < 1.0:
            problems.append("beta: must lie in (0,1)")
            break
    try:
        _parse_rhos(cfg.rho_spec, cfg.n)
    except Exception as exc:
        problems.append(f"rho: {exc}")
    return problems


def _check_option_problems(opts) -> list[str]:
    """Problems with the check options of a RunConfig or parsed arguments."""
    problems = []
    # comparisons are written so that NaN fails them
    if not opts.epsilon >= MIN_EPSILON:
        problems.append(f"epsilon: must be >= {MIN_EPSILON}")
    if not opts.rel_gap > 0:
        problems.append("rel-gap: must be positive")
    if not 0 < opts.delta <= 1:
        problems.append("delta: must lie in (0,1]")
    return problems


def _parse_rhos(spec: str, n: int) -> list[float]:
    """The rho values for n samples, each checked as the region stage will."""
    if spec.startswith("auto:"):
        k = int(spec.split(":", 1)[1])
        return [rho for rho in rho_grid(k) if rho * n > 1.0]
    rhos = [float(tok) for tok in spec.split(",") if tok.strip()]
    if not rhos:
        raise ValueError("empty rho list")
    for rho in rhos:
        _check_rho(rho, n)
    return rhos


def _parse_betas(text: str) -> tuple:
    betas = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not betas:
        raise ValueError("empty beta list")
    return betas


def _region_from_json(entry: dict, n_samples: int, n_measures: int, stage: str) -> BoxRegion:
    """A region of regions.json (``uio.read_regions``), which must bound each
    of the ``n_measures`` measures."""
    lower = np.asarray(entry["lower"], dtype=float)
    upper = np.asarray(entry["upper"], dtype=float)
    if lower.size != n_measures:
        raise StageError(stage, f"region for rho {entry['rho']} bounds {lower.size} measures, "
                                f"but there are {n_measures}")
    cls = np.zeros(n_samples, dtype=np.int8)
    return BoxRegion(lower, upper, cls)


# ---------------------------------------------------------------------------
# Stages: one body each, run by its subcommand and by run_pipeline
# ---------------------------------------------------------------------------

def _sample(m, n: int, seed: int, out):
    samples = sample_valuations(m, n, seed)
    uio.write_samples(samples, out)
    log.info("sampled %d valuations (%d rejected)", len(samples), samples.rejected_count)
    return samples


def _check(opts, m, measures, samples, mode: str) -> list:
    """``opts`` carries the check options: a RunConfig or parsed arguments."""
    problems = _check_option_problems(opts)
    if problems:
        raise StageError("config", "; ".join(problems))
    return solve_measure_set(m, samples, measures, mode=mode, epsilon=opts.epsilon,
                             delta=opts.delta, rel_gap=opts.rel_gap)


def _region(solutions, mode: str, rho_spec: str, betas: tuple, out) -> list:
    scenario_mode = "precise" if mode == "exact" else "imprecise"
    outcomes = [bound_outcome(solutions, rho, betas, scenario_mode)
                for rho in _parse_rhos(rho_spec, len(solutions))]
    uio.write_regions(outcomes, out)
    for o in outcomes:
        log.info("rho=%g: d*=%d eta=%s", o.rho, o.complexity_bound, o.eta)
    return outcomes


def _curve(regions, measures, out) -> None:
    """(rho, region) pairs -> band CSV; CheckerError if not a horizon family."""
    bands = []
    for rho, region in regions:
        band = region_to_curve(region, measures)
        bands.append((rho, band.horizons, band.lower, band.upper))
    uio.write_band_csv(bands, out)
    log.info("wrote %d bands", len(bands))


def _stage_sample(args) -> None:
    _sample(load_model(args.model), args.n, args.seed, args.out)


def _stage_check(args) -> None:
    m = load_model(args.model)
    measures = uio.read_measures(args.measures)
    solutions = _check(args, m, measures, uio.read_samples(args.samples), args.mode)
    uio.write_solutions(measures.ids, solutions, args.out)
    log.info("checked %d valuations in %s mode", len(solutions), args.mode)


def _stage_region(args) -> None:
    _, mode, solutions = uio.read_solutions(args.solutions)
    _region(solutions, mode, args.rho_spec, args.betas, args.out)


def _stage_refine(args) -> None:
    m = load_model(args.model)
    measures = uio.read_measures(args.measures)
    samples = uio.read_samples(args.samples)
    rhos = _parse_rhos(args.rho_spec, len(samples))
    if args.max_iters < 1:
        raise StageError("config", "max-iters: must be >= 1")
    intervals = _check(args, m, measures, samples, "approx")

    def refiner(i: int):
        intervals[i] = refine_solution(intervals[i], m, samples.valuations[i],
                                       measures, args.epsilon, args.rel_gap)
        return intervals[i].lower, intervals[i].upper

    outcomes = []
    for rho in rhos:
        outcome, etas = refine_until(intervals, rho, args.betas[0], args.target_gain,
                                     args.max_iters, refiner)
        outcome.eta = {beta: compute_eta(outcome.n, outcome.complexity_bound, beta)
                       for beta in args.betas}
        outcomes.append(outcome)
        log.info("rho=%g: eta trajectory %s", rho, [round(e, 4) for e in etas])
    uio.write_regions(outcomes, args.out)


def _stage_baseline(args) -> None:
    if args.kind == "frequentist" and args.regions is None:
        raise StageError("baseline", "frequentist baseline needs --regions")
    _, mode, solutions = uio.read_solutions(args.solutions)
    if args.kind == "independent":
        if mode != "exact":
            raise StageError("baseline", "independent baseline needs exact solutions")
        combined, etas = baseline_independent(solutions, args.rho_value, args.beta_value)
        uio.dump_json({"kind": "independent", "rho": args.rho_value,
                   "beta": args.beta_value, "combined": combined,
                   "per_measure": etas}, args.out)
        log.info("independent baseline: combined=%g", combined)
    else:
        regions = uio.read_regions(args.regions)
        values = solutions_matrix(solutions)
        results = []
        for entry in regions:
            region = _region_from_json(entry, *values.shape, "baseline")
            results.append({"rho": entry["rho"],
                            "observed": baseline_frequentist(values, region)})
        uio.dump_json({"kind": "frequentist", "results": results}, args.out)


def _stage_curve(args) -> None:
    measures = uio.read_measures(args.measures)
    regions = [(entry["rho"], _region_from_json(entry, 1, len(measures), "curve"))
               for entry in uio.read_regions(args.regions)]
    _curve(regions, measures, args.out)


def _stage_run(args) -> None:
    run_pipeline(RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)}))


@contextmanager
def _stage(name: str, timings: dict):
    """Report the block's errors as StageError(name); record its wall time
    in ``timings``."""
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(name, str(exc)) from exc
    timings[name] = time.perf_counter() - start


def run_pipeline(cfg: RunConfig) -> dict:
    """Full pipeline; writes samples/solutions/regions/band/summary files."""
    problems = validate_config(cfg)
    if problems:
        raise StageError("config", "; ".join(problems))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    total_start = time.perf_counter()

    with _stage("config", timings):
        m = load_model(cfg.model)
        measures = uio.read_measures(cfg.measures)
    with _stage("sample", timings):
        samples = _sample(m, cfg.n, cfg.seed, out / "samples.json")
    with _stage("check", timings):
        solutions = _check(cfg, m, measures, samples, cfg.mode)
        uio.write_solutions(measures.ids, solutions, out / "solutions.json")
    with _stage("region", timings):
        outcomes = _region(solutions, cfg.mode, cfg.rho_spec, cfg.betas,
                           out / "regions.json")
    with _stage("curve", timings):
        try:
            _curve([(o.rho, o.region) for o in outcomes], measures, out / "band.csv")
        except CheckerError as exc:  # not a horizon family: the band is optional
            log.warning("no curve band written: %s", exc)

    total = time.perf_counter() - total_start
    summary = {
        "stages": timings,
        "total": total,
        "config": {
            "model": cfg.model, "measures": cfg.measures, "n": cfg.n,
            "seed": cfg.seed, "mode": cfg.mode, "epsilon": cfg.epsilon,
            "rel_gap": cfg.rel_gap, "rho": cfg.rho_spec,
            "beta": list(cfg.betas), "delta": cfg.delta,
        },
    }
    if cfg.mode == "approx":
        # solutions whose bounds never met the relative gap (see gap_met)
        summary["gap_failures"] = sum(not s.gap_met for s in solutions)
    uio.dump_json(summary, out / "summary.json")
    log.info("pipeline done in %.2fs", total)
    return summary


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_check_options(p, delta: float = RunConfig.delta,
                       rel_gap: float = RunConfig.rel_gap) -> None:
    p.add_argument("--epsilon", type=float, default=RunConfig.epsilon)
    p.add_argument("--rel-gap", type=float, default=rel_gap)
    p.add_argument("--delta", type=float, default=delta,
                   help="approximate mode: mass one pass may drop, at most epsilon/8 "
                        "(then lower is exact mode's value); an open gap reruns with a tenth")


def _add_region_options(p, rho: str = RunConfig.rho_spec,
                        betas: tuple = RunConfig.betas) -> None:
    p.add_argument("--rho", dest="rho_spec", default=rho)
    p.add_argument("--beta", dest="betas", type=_parse_betas, default=betas)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uctmc",
        description="Sampling-based verification of CTMCs with uncertain rates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw graph-preserving parameter valuations")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_stage_sample)

    p = sub.add_parser("check", help="model-check all sampled valuations")
    p.add_argument("--model", required=True)
    p.add_argument("--measures", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--mode", choices=("exact", "approx"), default=RunConfig.mode)
    _add_check_options(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_stage_check)

    p = sub.add_parser("region", help="prediction regions and containment bounds")
    p.add_argument("--solutions", required=True)
    _add_region_options(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_stage_region)

    p = sub.add_parser("refine", help="imprecise pipeline with boundary refinement")
    p.add_argument("--model", required=True)
    p.add_argument("--measures", required=True)
    p.add_argument("--samples", required=True)
    _add_region_options(p, rho="auto:1", betas=(0.9,))
    _add_check_options(p, delta=1e-1, rel_gap=0.5)
    p.add_argument("--target-gain", type=float, default=0.01)
    p.add_argument("--max-iters", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_stage_refine)

    p = sub.add_parser("baseline", help="independent-measure or frequentist baseline")
    p.add_argument("--kind", choices=("independent", "frequentist"), required=True)
    p.add_argument("--solutions", required=True)
    p.add_argument("--regions", help="regions.json (frequentist only)")
    p.add_argument("--rho", dest="rho_value", type=float, default=2.0)
    p.add_argument("--beta", dest="beta_value", type=float, default=0.99)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_stage_baseline)

    p = sub.add_parser("curve", help="probability-curve band from regions")
    p.add_argument("--regions", required=True)
    p.add_argument("--measures", required=True,
                   help="measure file defining the horizon family")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_stage_curve)

    p = sub.add_parser("run", help="full pipeline into an output directory")
    p.add_argument("--model", required=True)
    p.add_argument("--measures", required=True)
    p.add_argument("--n", type=int, default=RunConfig.n)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--mode", choices=("exact", "approx"), default=RunConfig.mode)
    _add_check_options(p)
    _add_region_options(p)
    p.add_argument("--out-dir", default=RunConfig.out_dir)
    p.set_defaults(func=_stage_run)
    return parser


def main(argv: Optional[list] = None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("UCTMC_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error [{args.command}] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
