"""Regenerate the stored references of the workloads whose oracle is too slow
to run on every benchmark run (today: sir140-exact).

    python3 perfbench/make_reference.py

For each pipeline seed a workload covers, the valuations are drawn with
``uctmc.sample_valuations`` (they are inputs, not results) and every measure
is computed with ``scipy.sparse.linalg.expm_multiply`` on an independently
built chain.  The file stores the valuations next to the values, so a run
whose sampled valuations differ from them counts as failed, and the SHA-256
of the ``samples.json`` that ``uctmc.io.write_samples`` writes for the seed,
which every round of every run must reproduce byte for byte.  One sir140
valuation takes about a minute on one core.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import oracle  # noqa: E402
from workloads import OUT, SRC, WORKLOADS  # noqa: E402


def make_reference(workload, uctmc) -> None:
    model_doc = oracle.load_json(workload.model_path)
    measures_doc = oracle.load_json(workload.measures_path)
    model = uctmc.load_model(workload.model_path)
    scratch = OUT / "reference"
    scratch.mkdir(parents=True, exist_ok=True)
    seeds = {}
    for seed in range(workload.reference_seeds):
        samples = uctmc.sample_valuations(model, workload.n, seed)
        samples_path = scratch / f"{workload.name}-samples{seed}.json"
        uctmc.io.write_samples(samples, samples_path)
        digest = hashlib.sha256(samples_path.read_bytes()).hexdigest()
        valuations = [list(u.to_floats()) for u in samples.valuations]
        values = []
        for u in valuations:
            start = time.perf_counter()
            chain = oracle.build_chain(model_doc, u)
            values.append(oracle.measure_values(chain, measures_doc, dense=False).tolist())
            print(f"{workload.name} seed {seed} valuation {u}: "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
        seeds[str(seed)] = {"samples_sha256": digest, "valuations": valuations,
                            "values": values}

    workload.reference_path.parent.mkdir(parents=True, exist_ok=True)
    oracle.dump_json({
        "workload": workload.name,
        "model": workload.model,
        "measures": workload.measures,
        "n": workload.n,
        "method": "scipy.sparse.linalg.expm_multiply on an independently built chain",
        "seeds": seeds,
    }, workload.reference_path)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import uctmc
    import uctmc.io

    for workload in WORKLOADS.values():
        if workload.reference_seeds is not None:
            make_reference(workload, uctmc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
