"""Command-line pipeline: sample -> check -> region -> bound -> curve.

Stages communicate only through the documented JSON/CSV files, so each stage
can be re-run in isolation; ``run`` chains them all and writes a summary with
per-stage wall times.  UCTMC_LOG in {error, warn, info, debug} controls log
verbosity.  Identical configurations (seed included) produce byte-identical
samples.json and regions.json.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as uio
from .checker import region_to_curve, refine_solution, solve_measure_set
from .model import load_model
from .sampling import sample_valuations
from .scenario import (
    BOUNDARY_TOL,
    BoxRegion,
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
    cluster_radius: float = 0.0


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
    if cfg.epsilon <= 0:
        problems.append("epsilon: must be positive")
    if cfg.rel_gap <= 0:
        problems.append("rel-gap: must be positive")
    for beta in cfg.betas:
        if not 0.0 < beta < 1.0:
            problems.append("beta: must lie in (0,1)")
            break
    try:
        _parse_rhos(cfg.rho_spec, max(cfg.n, 2))
    except Exception as exc:
        problems.append(f"rho: {exc}")
    return problems


def _parse_rhos(spec: str, n: int) -> list[float]:
    if spec.startswith("auto:"):
        k = int(spec.split(":", 1)[1])
        return [rho for rho in rho_grid(k) if rho * n > 1.0]
    rhos = [float(tok) for tok in spec.split(",") if tok.strip()]
    if not rhos:
        raise ValueError("empty rho list")
    return rhos


def _parse_betas(text: str) -> tuple:
    betas = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not betas:
        raise ValueError("empty beta list")
    return betas


def _region_from_json(entry: dict, n_samples: int) -> BoxRegion:
    lower = np.asarray(entry["lower"], dtype=float)
    upper = np.asarray(entry["upper"], dtype=float)
    cls = np.zeros(n_samples, dtype=np.int8)
    return BoxRegion(lower, upper, cls, BOUNDARY_TOL)


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------

def _stage_sample(args) -> None:
    m = load_model(args.model)
    samples = sample_valuations(m, args.n, args.seed)
    uio.write_samples(samples, args.out)
    log.info("sampled %d valuations (%d rejected)", len(samples), samples.rejected_count)


def _stage_check(args) -> None:
    m = load_model(args.model)
    measures = uio.read_measures(args.measures)
    samples = uio.read_samples(args.samples)
    solutions = solve_measure_set(
        m, samples, measures, mode=args.mode, epsilon=args.epsilon,
        delta=args.delta, rel_gap=args.rel_gap, cluster_radius=args.cluster_radius)
    uio.write_solutions(measures.ids, solutions, args.out)
    log.info("checked %d valuations in %s mode", len(solutions), args.mode)


def _stage_region(args) -> None:
    _, mode, solutions = uio.read_solutions(args.solutions)
    scenario_mode = "precise" if mode == "exact" else "imprecise"
    rhos = _parse_rhos(args.rho, len(solutions))
    betas = _parse_betas(args.beta)
    outcomes = [bound_outcome(solutions, rho, betas, scenario_mode) for rho in rhos]
    uio.write_regions(outcomes, args.out)
    for o in outcomes:
        log.info("rho=%g: d*=%d eta=%s", o.rho, o.complexity_bound, o.eta)


def _stage_refine(args) -> None:
    m = load_model(args.model)
    measures = uio.read_measures(args.measures)
    samples = uio.read_samples(args.samples)
    initial = solve_measure_set(
        m, samples, measures, mode="approx", epsilon=args.epsilon,
        delta=args.delta, rel_gap=args.rel_gap, cluster_radius=args.cluster_radius)
    betas = _parse_betas(args.beta)
    rhos = _parse_rhos(args.rho, len(initial))
    intervals = dict(enumerate(initial))

    def refiner(i: int):
        intervals[i] = refine_solution(intervals[i], m, samples.valuations[i],
                                       measures, args.epsilon, args.rel_gap)
        return intervals[i].lower, intervals[i].upper

    outcomes = []
    for rho in rhos:
        current = [intervals[i] for i in range(len(intervals))]
        outcome, etas = refine_until(current, rho, betas[0], args.target_gain,
                                     args.max_iters, refiner)
        outcome.eta = {beta: compute_eta(outcome.n, outcome.complexity_bound, beta)
                       for beta in betas}
        outcomes.append(outcome)
        log.info("rho=%g: eta trajectory %s", rho, [round(e, 4) for e in etas])
    uio.write_regions(outcomes, args.out)


def _stage_baseline(args) -> None:
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
            region = _region_from_json(entry, values.shape[0])
            results.append({"rho": entry["rho"],
                            "observed": baseline_frequentist(values, region)})
        uio.dump_json({"kind": "frequentist", "results": results}, args.out)


def _stage_curve(args) -> None:
    measures = uio.read_measures(args.measures)
    regions = uio.read_regions(args.regions)
    bands = []
    for entry in regions:
        region = _region_from_json(entry, 1)
        band = region_to_curve(region, measures)
        bands.append((entry["rho"], band.horizons, band.lower, band.upper))
    uio.write_band_csv(bands, args.out)
    log.info("wrote %d bands", len(bands))


def run_pipeline(cfg: RunConfig) -> dict:
    """Full pipeline; writes samples/solutions/regions/band/summary files."""
    problems = validate_config(cfg)
    if problems:
        raise StageError("config", "; ".join(problems))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    total_start = time.perf_counter()

    stage = "config"
    try:
        m = load_model(cfg.model)
        measures = uio.read_measures(cfg.measures)

        stage = "sample"
        start = time.perf_counter()
        samples = sample_valuations(m, cfg.n, cfg.seed)
        uio.write_samples(samples, out / "samples.json")
        timings["sample"] = time.perf_counter() - start

        stage = "check"
        start = time.perf_counter()
        solutions = solve_measure_set(
            m, samples, measures, mode=cfg.mode, epsilon=cfg.epsilon,
            delta=cfg.delta, rel_gap=cfg.rel_gap, cluster_radius=cfg.cluster_radius)
        uio.write_solutions(measures.ids, solutions, out / "solutions.json")
        timings["check"] = time.perf_counter() - start

        stage = "region"
        start = time.perf_counter()
        scenario_mode = "precise" if cfg.mode == "exact" else "imprecise"
        rhos = _parse_rhos(cfg.rho_spec, cfg.n)
        outcomes = [bound_outcome(solutions, rho, cfg.betas, scenario_mode)
                    for rho in rhos]
        uio.write_regions(outcomes, out / "regions.json")
        timings["region"] = time.perf_counter() - start

        stage = "curve"
        start = time.perf_counter()
        try:
            bands = []
            for outcome in outcomes:
                band = region_to_curve(outcome.region, measures)
                bands.append((outcome.rho, band.horizons, band.lower, band.upper))
            uio.write_band_csv(bands, out / "band.csv")
        except Exception as exc:  # not a horizon family: band is optional
            log.warning("no curve band written: %s", exc)
        timings["curve"] = time.perf_counter() - start
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, str(exc)) from exc

    total = time.perf_counter() - total_start
    summary = {
        "stages": timings,
        "total": total,
        "config": {
            "model": cfg.model, "measures": cfg.measures, "n": cfg.n,
            "seed": cfg.seed, "mode": cfg.mode, "epsilon": cfg.epsilon,
            "rel_gap": cfg.rel_gap, "rho": cfg.rho_spec,
            "beta": list(cfg.betas),
        },
    }
    if cfg.mode == "approx":
        # solutions whose bounds never met the relative gap (see gap_met)
        summary["gap_failures"] = sum(not s.gap_met for s in solutions)
    uio.dump_json(summary, out / "summary.json")
    return summary


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uctmc",
        description="Sampling-based verification of CTMCs with uncertain rates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw graph-preserving parameter valuations")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_stage_sample)

    p = sub.add_parser("check", help="model-check all sampled valuations")
    p.add_argument("--model", required=True)
    p.add_argument("--measures", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--rel-gap", dest="rel_gap", type=float, default=1e-2)
    p.add_argument("--delta", type=float, default=1e-2)
    p.add_argument("--cluster-radius", dest="cluster_radius", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_stage_check)

    p = sub.add_parser("region", help="prediction regions and containment bounds")
    p.add_argument("--solutions", required=True)
    p.add_argument("--rho", default="auto:10")
    p.add_argument("--beta", default="0.9,0.99,0.999")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_stage_region)

    p = sub.add_parser("refine", help="imprecise pipeline with boundary refinement")
    p.add_argument("--model", required=True)
    p.add_argument("--measures", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--rho", default="auto:1")
    p.add_argument("--beta", default="0.9")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--delta", type=float, default=1e-1)
    p.add_argument("--rel-gap", dest="rel_gap", type=float, default=0.5)
    p.add_argument("--cluster-radius", dest="cluster_radius", type=float, default=0.0)
    p.add_argument("--target-gain", dest="target_gain", type=float, default=0.01)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=10)
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
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--rel-gap", dest="rel_gap", type=float, default=1e-2)
    p.add_argument("--delta", type=float, default=1e-2)
    p.add_argument("--cluster-radius", dest="cluster_radius", type=float, default=0.0)
    p.add_argument("--rho", default="auto:10")
    p.add_argument("--beta", default="0.9,0.99,0.999")
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.set_defaults(func=None)
    return parser


def main(argv: Optional[list] = None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("UCTMC_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = RunConfig(
                model=args.model, measures=args.measures, n=args.n, seed=args.seed,
                mode=args.mode, epsilon=args.epsilon, rel_gap=args.rel_gap,
                rho_spec=args.rho, betas=_parse_betas(args.beta),
                out_dir=args.out_dir, delta=args.delta,
                cluster_radius=args.cluster_radius)
            summary = run_pipeline(cfg)
            log.info("pipeline done in %.2fs", summary["total"])
        else:
            args.func(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        stage = getattr(args, "command", "cli")
        print(f"error [{stage}] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
