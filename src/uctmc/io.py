"""JSON and CSV serialization for samples, measures, solutions, regions, bands.

All files are UTF-8.  Floats are emitted with Python's shortest round-trip
repr, so rewriting the same data is byte-identical; none of the data files
carry timestamps (timings live only in the run summary).
"""

from __future__ import annotations

import json
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
from .model import Valuation
from .sampling import SampleSet
from .scenario import ScenarioOutcome


class FormatError(ValueError):
    pass


def _numbers(values, kind=(int, float)) -> bool:
    """True iff every value is a JSON number, an integer with ``kind=int``:
    bool is an int subclass, and float() and int() read strings."""
    return all(isinstance(v, kind) and not isinstance(v, bool) for v in values)


_KINDS = {"an integer": lambda v: _numbers([v], int),
          "a number": lambda v: _numbers([v]),
          "a list": lambda v: isinstance(v, list),
          "a list of numbers": lambda v: isinstance(v, list) and _numbers(v),
          "true or false": lambda v: isinstance(v, bool)}


def _field(entry, name: str, kind: str, where: str):
    """``entry[name]`` if it is of ``kind`` (a key of ``_KINDS``), else a
    FormatError that names ``where``."""
    if not isinstance(entry, dict) or name not in entry:
        raise FormatError(f"{where} misses field {name!r}")
    value = entry[name]
    if not _KINDS[kind](value):
        raise FormatError(f"{where}: {name} must be {kind}, not {value!r}")
    return value


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")


def load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


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
        if not (isinstance(row, list) and _numbers(row)):
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
    raw = load_json(path)
    entries = raw.get("measures", []) if isinstance(raw, dict) else None
    if not isinstance(entries, list):
        raise FormatError(f"measures file {path} must hold an object with a list "
                          f"of measures")
    measures = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict) or entry.get("type") not in _MEASURE_FIELDS:
            raise FormatError(f"measure entry {position} is not an object with a type "
                              f"in {sorted(_MEASURE_FIELDS)}: {entry!r}")
        measure_cls, name, *times = _MEASURE_FIELDS[entry["type"]]
        try:
            fields = (entry["id"], entry[name], *(entry[t] for t in times))
        except KeyError as exc:
            raise FormatError(f"measure entry {position} misses field {exc}") from None
        values = []
        for field, value in zip(times, fields[2:]):
            if not _numbers([value]):
                raise FormatError(f"measure entry {position}: {field} must be a number, "
                                  f"not {value!r}")
            try:
                values.append(float(value))
            except OverflowError:  # an int past the largest float
                raise FormatError(f"measure entry {position}: {field} is too large "
                                  f"for a float") from None
        for field in ("id", name):
            if not isinstance(entry[field], str):
                raise FormatError(f"measure entry {position}: {field} must be a string, "
                                  f"not {entry[field]!r}")
        measures.append(measure_cls(*fields[:2], *values))
    if not measures:
        raise FormatError(f"no measures in {path}")
    return MeasureSet(tuple(measures))


def write_measures(measures: MeasureSet, path) -> None:
    entries = []
    for m in measures:
        if isinstance(m, TimeBoundedReach):
            entries.append({"id": m.id, "type": "reach", "target": m.target,
                            "tau": m.horizon})
        elif isinstance(m, IntervalReach):
            entries.append({"id": m.id, "type": "reach_interval", "target": m.target,
                            "t1": m.t_lo, "t2": m.t_hi})
        else:
            entries.append({"id": m.id, "type": "instant_reward", "reward": m.reward,
                            "t": m.time})
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
    raw = load_json(path)
    try:
        ids, mode, entries = list(raw["measure_ids"]), raw["mode"], list(raw["solutions"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad solutions file {path}: {exc}") from None
    if mode not in ("exact", "approx"):
        raise FormatError(f"bad solutions file {path}: mode {mode!r} is not 'exact' or 'approx'")
    vectors = ("values",) if mode == "exact" else ("lower", "upper")
    out = []
    for position, entry in enumerate(entries):
        where = f"bad solutions file {path}: solution {position}"
        i = _field(entry, "i", "an integer", where)
        try:  # an int past the largest float overflows
            arrays = [np.asarray(_field(entry, name, "a list of numbers", where), dtype=float)
                      for name in vectors]
            if mode == "exact":
                solution = SolutionVector(i, *arrays)
            else:
                solution = IntervalSolution(i, *arrays,
                                            float(_field(entry, "delta", "a number", where)),
                                            _field(entry, "gap_met", "true or false", where))
        except OverflowError as exc:
            raise FormatError(f"{where}: {exc}") from None
        if any(v.shape != (len(ids),) for v in arrays):
            raise FormatError(f"{where} does not hold one value per measure id")
        if not all(np.isfinite(v).all() for v in arrays):
            raise FormatError(f"{where} holds a value that is not finite")
        out.append(solution)
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
    """The region entries: each an object with a numeric ``rho`` and numeric
    ``lower`` and ``upper`` lists of equal length."""
    raw = load_json(path)
    if not isinstance(raw, list):
        raise FormatError(f"regions file {path} must hold a list")
    for position, entry in enumerate(raw):
        if not (isinstance(entry, dict) and _numbers([entry.get("rho")])
                and all(isinstance(entry.get(k), list) and _numbers(entry[k])
                        for k in ("lower", "upper"))
                and len(entry["lower"]) == len(entry["upper"])):
            raise FormatError(f"bad regions file {path}: region {position} is not an object "
                              "with a numeric rho and numeric lower and upper lists of "
                              "equal length")
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
