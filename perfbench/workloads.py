"""Workload definitions shared by the harness, the child process and the
reference generator.

Every workload runs ``uctmc run`` with the pipeline defaults written out
below, so a change of a library default does not silently change the
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MODELS = SRC / "uctmc" / "models"
OUT = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"

EPSILON = 1e-6
DELTA = 1e-2
REL_GAP = 1e-2
RHO = "auto:10"
BETAS = (0.9, 0.99, 0.999)


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    measures: str
    mode: str
    n: int
    # Workloads whose oracle is too slow to run per run use a stored
    # reference that covers pipeline seeds 0 .. reference_seeds-1.
    reference_seeds: Optional[int] = None

    @property
    def model_path(self) -> Path:
        return MODELS / f"{self.model}.json"

    @property
    def measures_path(self) -> Path:
        return MODELS / f"{self.measures}.json"

    @property
    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"

    def pipeline_seed(self, seed: int) -> int:
        """Sampling seed given to ``uctmc run`` for the benchmark's --seed."""
        if self.reference_seeds is None:
            return seed
        return seed % self.reference_seeds


WORKLOADS = {w.name: w for w in (
    Workload("sir20-exact", "sir20", "sir_horizons", "exact", n=100),
    Workload("sir140-exact", "sir140", "sir_horizons", "exact", n=2,
             reference_seeds=4),
    Workload("buffer-approx", "buffer", "buffer_measures", "approx", n=10),
)}
