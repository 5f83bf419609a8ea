"""JSON and CSV serialization for samples, measures, solutions, regions, bands.

All files are UTF-8.  Floats are emitted with Python's shortest round-trip
repr, so rewriting the same data is byte-identical; none of the data files
carry timestamps (timings live only in the run summary).

Each reader is the program's edge with a file from outside, so it reads every
field through ``model._field``, the one check that also reads the model file:
it checks the field's JSON type (``_KINDS``): a number is a JSON number,
neither a bool nor text, and a list of strings is not one string.  A malformed
file raises a FormatError that names the file, the entry and the field.
Solution values and region bounds and rho must also be finite (``_finite``).
"""

from __future__ import annotations

import json
from dataclasses import astuple
from typing import Sequence

import numpy as np

from .checker import (
    IntervalReach,
    IntervalSolution,
    InstantReward,
    MeasureSet,
    SolutionVector,
    TimeBoundedReach,
)
from .model import FormatError, Valuation, _KINDS, _field, _finite, _float
from .sampling import SampleSet
from .scenario import ScenarioOutcome


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")


def load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path} is not valid JSON: {exc}") from None


# --------------------------------------------------------------------------
# samples.json
# --------------------------------------------------------------------------

def write_samples(samples: SampleSet, path) -> None:
    dump_json({
        "seed": samples.seed,
        "valuations": [list(u.to_floats()) for u in samples.valuations],
        "rejected": samples.rejected_count,
    }, path)


def read_samples(path) -> SampleSet:
    raw, where = load_json(path), f"bad samples file {path}"
    seed = _field(raw, "seed", "an integer", where)
    rejected = _field(raw, "rejected", "an integer", where)
    rows = _field(raw, "valuations", "a list", where)
    valuations = []
    for position, row in enumerate(rows):
        if not _KINDS["a list of numbers"](row):
            raise FormatError(f"{where}: valuation {position} must be a list of numbers, "
                              f"not {row!r}")
        try:
            valuations.append(Valuation.from_floats(row))
        except (OverflowError, ValueError) as exc:
            raise FormatError(f"{where}: valuation {position}: {exc}") from None
    return SampleSet(seed, tuple(valuations), rejected)


# --------------------------------------------------------------------------
# measures.json
# --------------------------------------------------------------------------

_MEASURE_FIELDS = {"reach": (TimeBoundedReach, "target", "tau"),
                   "reach_interval": (IntervalReach, "target", "t1", "t2"),
                   "instant_reward": (InstantReward, "reward", "t")}


def read_measures(path) -> MeasureSet:
    entries = _field(load_json(path), "measures", "a list", f"measures file {path}")
    measures = []
    for position, entry in enumerate(entries):
        where = f"measures file {path}: measure entry {position}"
        kind = _field(entry, "type", "a string", where)
        if kind not in _MEASURE_FIELDS:
            raise FormatError(f"{where}: type {kind!r} is not one of {list(_MEASURE_FIELDS)}")
        measure_cls, name, *times = _MEASURE_FIELDS[kind]
        measures.append(measure_cls(_field(entry, "id", "a string", where),
                                    _field(entry, name, "a string", where),
                                    *(_float(entry, t, "a number", where) for t in times)))
    if not measures:
        raise FormatError(f"no measures in {path}")
    return MeasureSet(tuple(measures))


def write_measures(measures: MeasureSet, path) -> None:
    types = {cls: (kind, names) for kind, (cls, *names) in _MEASURE_FIELDS.items()}
    entries = []
    for m in measures:  # the fields after id, in the order _MEASURE_FIELDS names them
        kind, names = types[type(m)]
        entries.append({"id": m.id, "type": kind, **dict(zip(names, astuple(m)[1:]))})
    dump_json({"measures": entries}, path)


# --------------------------------------------------------------------------
# solutions.json
# --------------------------------------------------------------------------

def write_solutions(measure_ids: Sequence[str], solutions, path) -> None:
    entries = []
    mode = "exact"
    for s in solutions:
        if isinstance(s, SolutionVector):
            entries.append({"i": s.valuation_index,
                            "values": [float(v) for v in s.values]})
        elif isinstance(s, IntervalSolution):
            mode = "approx"
            entries.append({"i": s.valuation_index,
                            "lower": [float(v) for v in s.lower],
                            "upper": [float(v) for v in s.upper],
                            "delta": s.delta,
                            "gap_met": bool(s.gap_met)})
        else:
            raise FormatError(f"not a solution object: {s!r}")
    dump_json({"measure_ids": list(measure_ids), "mode": mode, "solutions": entries}, path)


def read_solutions(path):
    """Returns (measure_ids, mode, solutions list)."""
    raw, file = load_json(path), f"bad solutions file {path}"
    ids = _field(raw, "measure_ids", "a list of strings", file)
    mode = _field(raw, "mode", "a string", file)
    if mode not in ("exact", "approx"):
        raise FormatError(f"{file}: mode {mode!r} is not 'exact' or 'approx'")
    vectors = ("values",) if mode == "exact" else ("lower", "upper")
    out = []
    for position, entry in enumerate(_field(raw, "solutions", "a list", file)):
        where = f"{file}: solution {position}"
        i = _field(entry, "i", "an integer", where)
        arrays = _finite([_float(entry, name, "a list of numbers", where)
                          for name in vectors], where)
        if any(v.shape != (len(ids),) for v in arrays):
            raise FormatError(f"{where} does not hold one value per measure id")
        if mode == "exact":
            out.append(SolutionVector(i, *arrays))
        else:
            out.append(IntervalSolution(i, *arrays, _float(entry, "delta", "a number", where),
                                        _field(entry, "gap_met", "true or false", where)))
    return ids, mode, out


# --------------------------------------------------------------------------
# regions.json
# --------------------------------------------------------------------------

def outcome_to_json(outcome: ScenarioOutcome) -> dict:
    return {
        "rho": float(outcome.rho),
        "beta": {repr(float(beta)): float(eta) for beta, eta in outcome.eta.items()},
        "lower": [float(v) for v in outcome.region.lower],
        "upper": [float(v) for v in outcome.region.upper],
        "relaxed": list(outcome.relaxed),
        "complexity_bound": outcome.complexity_bound,
        "mode": outcome.mode,
        "n": outcome.n,
    }


def write_regions(outcomes: Sequence[ScenarioOutcome], path) -> None:
    dump_json([outcome_to_json(o) for o in outcomes], path)


def read_regions(path) -> list[dict]:
    """The region entries: each an object with a finite number ``rho`` and
    finite ``lower`` and ``upper`` lists of equal length."""
    raw = load_json(path)
    if not isinstance(raw, list):
        raise FormatError(f"bad regions file {path} is not a list")
    for position, entry in enumerate(raw):
        where = f"bad regions file {path}: region {position}"
        _, lower, upper = _finite([_float(entry, "rho", "a number", where),
                                     *(_float(entry, name, "a list of numbers", where)
                                       for name in ("lower", "upper"))], where)
        if lower.shape != upper.shape:
            raise FormatError(f"{where}: lower and upper differ in length")
    return raw


# --------------------------------------------------------------------------
# band.csv
# --------------------------------------------------------------------------

def write_band_csv(bands: Sequence[tuple[float, "np.ndarray", "np.ndarray", "np.ndarray"]],
                   path) -> None:
    """Long-format rows (rho, t, lower, upper), one block per region."""
    lines = ["rho,t,lower,upper"]
    for rho, horizons, lower, upper in bands:
        for t, lo, hi in zip(horizons, lower, upper):
            lines.append(f"{float(rho)!r},{float(t)!r},{float(lo)!r},{float(hi)!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
