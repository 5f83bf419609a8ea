"""One benchmark round in a fresh interpreter: set-up, then ``uctmc run``.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR LAUNCH TRACE [--setup-only]

LAUNCH is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import uctmc`` and the
parse of the workload's model and measure files.  The round's figures go to
OUT_DIR/result.json and, when TRACE is 1, its spans to OUT_DIR/trace.json.
"""

import sys
import time

from workloads import BETAS, DELTA, EPSILON, REL_GAP, RHO, SRC, WORKLOADS


def main(argv) -> int:
    name, seed, out_dir, launch, trace = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    workload = WORKLOADS[name]

    sys.path.insert(0, str(SRC))
    import uctmc
    import uctmc.cli
    import uctmc.io

    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    uctmc.load_model(workload.model_path)
    uctmc.io.read_measures(workload.measures_path)
    result = {"setup_s": time.monotonic() - float(launch)}

    if not setup_only:
        import resource

        cfg = uctmc.cli.RunConfig(
            model=str(workload.model_path), measures=str(workload.measures_path),
            n=workload.n, seed=int(seed), mode=workload.mode, epsilon=EPSILON,
            rel_gap=REL_GAP, rho_spec=RHO, betas=BETAS, out_dir=out_dir,
            delta=DELTA)
        start = time.perf_counter()
        uctmc.cli.run_pipeline(cfg)
        result["run_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            if not any(s["name"] == "model.build_full" for s in tracer.spans):
                # approx mode never builds the full chain; size it once, untimed
                model = uctmc.load_model(workload.model_path)
                samples = uctmc.io.read_samples(f"{out_dir}/samples.json")
                chain = uctmc.build_full(model, samples.valuations[0])
                result["states"] = chain.num_states
                result["transitions"] = chain.num_transitions
            tracer.dump(f"{out_dir}/trace.json")

    uctmc.io.dump_json(result, f"{out_dir}/result.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
