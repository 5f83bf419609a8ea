"""Checks of one round's output files against independent computations.

Each check names the valuations it fails; a check on the round as a whole
(samples identity, eta, complexity, the LP, the band) fails all of them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import oracle
from workloads import EPSILON, REL_GAP

BOUNDARY_TOL = 1e-9  # the scenario stage's documented boundary tolerance
LP_TOL = 1e-7


def samples_digest(out_dir: Path) -> str:
    return hashlib.sha256((out_dir / "samples.json").read_bytes()).hexdigest()


def expected_values(workload, model_doc, measures_doc, out_dir: Path, pipeline_seed):
    """(per-valuation reference values, samples.json digest, problem or None)
    for the seed, from the first round's output in ``out_dir``.

    Workloads with a stored reference take the digest from it and compare the
    sampled valuations against the ones it was computed for; a mismatch fails
    the round.  The others compute the values now and take the first round's
    digest, which every later round of the run must match.
    """
    valuations = json.loads((out_dir / "samples.json").read_text())["valuations"]
    if workload.reference_seeds is None:
        return ([oracle.measure_values(oracle.build_chain(model_doc, u), measures_doc)
                 for u in valuations], samples_digest(out_dir), None)
    reference = oracle.load_json(workload.reference_path)
    entry = reference["seeds"].get(str(pipeline_seed))
    if entry is None or entry["valuations"] != valuations:
        return None, None, f"valuations differ from {workload.reference_path.name}"
    return [np.asarray(v) for v in entry["values"]], entry["samples_sha256"], None


def _lp_eligible(rho: float, n: int) -> bool:
    # Each face relaxes floor(1/rho) samples; the two faces must not cross,
    # or the LP optimum is no longer the program's (sorted) box.
    return 2 * math.floor(1.0 / rho) < n - 1


def check_round(out_dir: Path, workload, measures_doc, expected, expected_digest: str,
                round_index: int) -> tuple[set, list]:
    """(failed valuation indices, problem descriptions) for one round."""
    n = workload.n
    everyone = set(range(n))
    failed: set = set()
    problems: list = []

    if samples_digest(out_dir) != expected_digest:
        return everyone, ["samples.json differs from the one expected for its seed"]

    sol = json.loads((out_dir / "solutions.json").read_text())
    entries = sol["solutions"]
    if [e["i"] for e in entries] != list(range(n)):
        return everyone, ["solutions.json does not hold valuations 0..n-1 in order"]
    if workload.mode == "exact":
        lower = upper = np.array([e["values"] for e in entries], dtype=float)
    else:
        lower = np.array([e["lower"] for e in entries], dtype=float)
        upper = np.array([e["upper"] for e in entries], dtype=float)
    for i, ref in enumerate(expected):
        if not (np.all(lower[i] - EPSILON <= ref) and np.all(ref <= upper[i] + EPSILON)):
            failed.add(i)
            problems.append(f"valuation {i}: solution off the reference by more than epsilon")
        # gap_met is not serialized, so the relative gap is recomputed
        gap = (upper[i] - lower[i]) / np.maximum(upper[i], 1e-12)
        if np.any(gap > REL_GAP):
            failed.add(i)
            problems.append(f"valuation {i}: relative gap {gap.max():.3g} above {REL_GAP}")

    regions = json.loads((out_dir / "regions.json").read_text())
    eligible = [k for k, r in enumerate(regions) if _lp_eligible(r["rho"], n)]
    lp_pick = eligible[round_index % len(eligible)] if eligible else None
    if lp_pick is None:
        problems.append("no rho admits the LP check")
        failed |= everyone
    for k, region in enumerate(regions):
        lo = np.asarray(region["lower"], dtype=float)
        hi = np.asarray(region["upper"], dtype=float)
        d = region["complexity_bound"]
        if region["n"] != n or not 0 <= d <= n:
            problems.append(f"rho={region['rho']}: complexity bound {d} not in [0, n]")
            failed |= everyone
        for beta, eta in region["beta"].items():
            if not oracle.eta_solves_equation(n, d, float(beta), eta):
                problems.append(f"rho={region['rho']}: eta {eta} does not solve its equation")
                failed |= everyone
        sticks_out = np.any((upper > hi + BOUNDARY_TOL) | (lower < lo - BOUNDARY_TOL), axis=1)
        relaxed = np.zeros(n, dtype=bool)
        relaxed[region["relaxed"]] = True
        wrong = np.flatnonzero(sticks_out != relaxed)
        if wrong.size:
            problems.append(f"rho={region['rho']}: samples {wrong.tolist()} on the wrong side")
            failed.update(wrong.tolist())
        if k == lp_pick:
            xlow, xbar = oracle.lp_faces(lower, upper, region["rho"])
            if not (np.allclose(xlow, lo, rtol=0.0, atol=LP_TOL)
                    and np.allclose(xbar, hi, rtol=0.0, atol=LP_TOL)):
                problems.append(f"rho={region['rho']}: faces differ from the LP optimum")
                failed |= everyone

    if all(m["type"] == "reach_interval" for m in measures_doc["measures"]):
        bad = _band_problem(out_dir / "band.csv", len(regions))
        if bad:
            problems.append(bad)
            failed |= everyone
    return failed, problems


def _band_problem(path: Path, blocks: int):
    if not path.is_file():
        return "band.csv missing for a horizon family"
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    by_rho: dict = {}
    for row in rows:
        by_rho.setdefault(row["rho"], []).append(
            (float(row["t"]), float(row["lower"]), float(row["upper"])))
    if len(by_rho) != blocks:
        return f"band.csv has {len(by_rho)} blocks for {blocks} regions"
    for rho, block in by_rho.items():
        t, lo, hi = (np.array(col) for col in zip(*block))
        if (np.any(lo > hi) or np.any(lo < 0) or np.any(hi > 1) or np.any(np.diff(t) <= 0)
                or np.any(np.diff(lo) < 0) or np.any(np.diff(hi) < 0)):
            return f"band.csv block rho={rho} is not a monotone band in [0, 1]"
    return None
