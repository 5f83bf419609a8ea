"""Benchmark of ``uctmc run``: end-to-end figures, or per-layer figures traced.

    python3 perfbench/run.py --workload sir20-exact --seed 1 --seconds 25 --trace 0

Each round starts a fresh single-threaded interpreter (child.py) that sets up
and runs the whole pipeline once; rounds run one at a time until the next
would end after --seconds.  Five set-up-only interpreters start first.  Every
round's output files are checked against computations independent of the
program (oracle.py, checks.py).  The last stdout line is one JSON object with
``correct``, ``attempted`` and ``failed`` counted in valuations, and
``metrics``: medians over the run's rounds.  With --trace 1 every round runs
an untraced and a traced interpreter, and the metrics are per layer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from workloads import BENCH_DIR, OUT, ROOT, SRC, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _child(workload, seed: int, out_dir, trace: bool, setup_only: bool = False) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), workload.name, str(seed),
           str(out_dir), repr(time.monotonic()), "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"round process exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"round process exited with {proc.returncode}:\n{proc.stderr}")
    with open(out_dir / "result.json", encoding="utf-8") as handle:
        return json.load(handle)


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def _duration(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list, result: dict, out_dir) -> dict:
    """Per-layer figures of one traced round, from its spans and output files."""
    parent = {s["id"]: s["parent"] for s in spans}
    root = next(s for s in spans if s["name"] == "cli.run")

    def in_pipeline(span):
        node = span["parent"]
        while node is not None:
            if node == root["id"]:
                return True
            node = parent[node]
        return False

    named: dict = {}
    for span in spans:
        if in_pipeline(span):
            named.setdefault(span["name"], []).append(span)

    def get(name):
        return named.get(name, [])

    def ms(selected):
        return [1e3 * _duration(s) for s in selected]

    checks = sorted(get("model.graph_check"), key=lambda s: s["start"])
    full = get("model.build_full")
    sample = get("sampling.sample")
    evals = [s for s in get("checker.evaluate") if s["sink_policy"] is None]
    partial_evals = [s for s in get("checker.evaluate") if s["sink_policy"] is not None]
    rate_source = evals or partial_evals
    writes = [s for s in get("io.write") if spans[s["parent"]]["name"] != "io.write"]
    with open(out_dir / "regions.json", encoding="utf-8") as handle:
        first_region = json.load(handle)[0]
    return {
        "model.parse_ms": _median(ms(s for s in spans if s["name"] == "model.parse")),
        "model.structure_s": _duration(checks[0]) if checks else 0.0,
        "model.graph_check_ms": _median(ms(checks[1:])),
        "model.build_full_ms": _median(ms(full)),
        "model.build_partial_ms": _median(ms(get("model.build_partial"))),
        "model.partial_states": _median(s["states"] for s in get("model.build_partial")),
        "model.states": full[0]["states"] if full else result["states"],
        "model.transitions": full[0]["transitions"] if full else result["transitions"],
        "sampling.sample_s": sum(_duration(s) for s in sample),
        "sampling.candidates": sum(s["accepted"] + s["rejected"] for s in sample),
        "sampling.rejected": sum(s["rejected"] for s in sample),
        "checker.evaluate_ms": _median(ms(evals)),
        "checker.lambda": _median(s["lambda"] for s in rate_source),
        "checker.lambda_t": _median(s["lambda_t"] for s in rate_source),
        "checker.bound_ms": _median(ms(get("checker.bound"))),
        "checker.delta_rounds": _median(s["delta_rounds"] for s in get("checker.bound")),
        "checker.partial_eval_ms.lower": _median(
            ms(s for s in partial_evals if s["sink_policy"] == "lower")),
        "checker.partial_eval_ms.upper": _median(
            ms(s for s in partial_evals if s["sink_policy"] == "upper")),
        "scenario.region_ms": sum(ms(get("scenario.region"))),
        "scenario.complexity_bound": first_region["complexity_bound"],
        "scenario.eta": first_region["beta"][repr(0.99)],
        "io.write_ms": sum(ms(writes)),
        "io.bytes": sum(s["bytes"] for s in writes),
        "trace.run_s": _duration(root),
    }


def _units(trace: bool) -> dict:
    """Each reported metric's unit, as BENCHMARK.json declares it."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import oracle

    if not (SRC / "uctmc" / "__init__.py").is_file():
        raise BenchError(f"no uctmc sources under {SRC}")
    units = _units(trace)
    out_root = OUT / workload.name
    shutil.rmtree(out_root, ignore_errors=True)
    model_doc = oracle.load_json(workload.model_path)
    measures_doc = oracle.load_json(workload.measures_path)
    pipeline_seed = workload.pipeline_seed(seed)

    setups = [_child(workload, pipeline_seed, out_root / f"setup{k}", False, True)["setup_s"]
              for k in range(SETUP_REPEATS)]
    plain, traced = [], []
    attempted, failed = 0, 0
    expected = digest = problem = None
    durations = []
    start = time.monotonic()
    while not durations or (time.monotonic() - start) + _median(durations) <= seconds:
        round_start = time.monotonic()
        k = len(durations)
        out_dir = out_root / f"round{k}"
        plain.append(_child(workload, pipeline_seed, out_dir, False))
        if k == 0:
            # one oracle serves every round: the seed fixes the valuations
            oracle_start = time.monotonic()
            expected, digest, problem = checks.expected_values(
                workload, model_doc, measures_doc, out_dir, pipeline_seed)
            oracle_s = time.monotonic() - oracle_start
            start += oracle_s
            round_start += oracle_s
        if problem:
            bad, problems = set(range(workload.n)), [problem]
        else:
            bad, problems = checks.check_round(out_dir, workload, measures_doc, expected,
                                               digest, k)
        attempted += workload.n
        failed += len(bad)
        for line in problems:
            print(f"round {k}: {line}", file=sys.stderr)
        if trace:
            traced_dir = out_root / f"traced{k}"
            result = _child(workload, pipeline_seed, traced_dir, True)
            with open(traced_dir / "trace.json", encoding="utf-8") as handle:
                spans = json.load(handle)["spans"]
            traced.append(layer_metrics(spans, result, traced_dir))
        durations.append(time.monotonic() - round_start)

    if trace:
        metrics = {name: _median(r[name] for r in traced) for name in traced[0]}
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - _median(r["run_s"] for r in plain)
    else:
        metrics = {
            "setup_s": _median(setups + [r["setup_s"] for r in plain]),
            "run_s": _median(r["run_s"] for r in plain),
            "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of uctmc run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ImportError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
