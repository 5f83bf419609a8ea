import importlib.machinery
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uctmc
import uctmc.io as uio
from uctmc.cli import RunConfig, StageError, main, run_pipeline, validate_config


def _model_path(name):
    return str(uctmc.example_model_path(name))


def test_samples_round_trip(tmp_path, sir20):
    samples = uctmc.sample_valuations(sir20, 4, seed=5)
    path = tmp_path / "samples.json"
    uio.write_samples(samples, path)
    back = uio.read_samples(path)
    assert back.seed == samples.seed
    assert back.rejected_count == samples.rejected_count
    assert all(a.to_floats() == b.to_floats()
               for a, b in zip(back.valuations, samples.valuations))


def test_measures_round_trip(tmp_path, sir_measures):
    path = tmp_path / "measures.json"
    uio.write_measures(sir_measures, path)
    back = uio.read_measures(path)
    assert back.ids == sir_measures.ids
    assert back.measures == sir_measures.measures


def test_solutions_round_trip_exact(tmp_path):
    sols = [uctmc.SolutionVector(0, np.array([0.1, 0.2])),
            uctmc.SolutionVector(1, np.array([0.3, 0.4]))]
    path = tmp_path / "solutions.json"
    uio.write_solutions(["a", "b"], sols, path)
    ids, mode, back = uio.read_solutions(path)
    assert (ids, mode) == (["a", "b"], "exact")
    assert np.array_equal(back[1].values, sols[1].values)


def test_solutions_round_trip_approx(tmp_path):
    sols = [uctmc.IntervalSolution(0, np.array([0.1]), np.array([0.2]), 1e-3),
            uctmc.IntervalSolution(1, np.array([0.1]), np.array([0.9]), 1e-250,
                                   gap_met=False)]
    path = tmp_path / "solutions.json"
    uio.write_solutions(["a"], sols, path)
    ids, mode, back = uio.read_solutions(path)
    assert mode == "approx"
    assert back[0].delta == 1e-3
    assert [s.gap_met for s in back] == [True, False]


def test_regions_schema(tmp_path):
    values = np.random.default_rng(0).normal(size=(12, 2))
    outcome = uctmc.bound_outcome(values, 2.0, [0.9, 0.999], "precise")
    path = tmp_path / "regions.json"
    uio.write_regions([outcome], path)
    raw = json.loads(path.read_text())
    assert isinstance(raw, list) and len(raw) == 1
    entry = raw[0]
    assert set(entry) == {"rho", "beta", "lower", "upper", "relaxed",
                          "complexity_bound", "mode", "n"}
    assert entry["mode"] == "precise"
    assert set(entry["beta"]) == {"0.9", "0.999"}


def test_validate_config_reports_problems(tmp_path):
    cfg = RunConfig(model=str(tmp_path / "missing.json"),
                    measures=str(tmp_path / "missing2.json"),
                    n=0, betas=(1.0,))
    problems = validate_config(cfg)
    assert "model: file not found" in problems
    assert "measures: file not found" in problems
    assert "n: must be >= 1" in problems
    assert any(p.startswith("beta:") for p in problems)
    nan = float("nan")
    for field, values in (("epsilon", (0.0, -1.0, 1e-13, nan)),
                          ("rel_gap", (0.0, -1.0, nan)),
                          ("delta", (0.0, 5.0, -0.1, nan))):
        for value in values:
            cfg = RunConfig(model=_model_path("tandem"),
                            measures=_model_path("tandem_measures"), **{field: value})
            problems = validate_config(cfg)
            assert len(problems) == 1, (field, value, problems)
            assert problems[0].startswith(field.replace("_", "-") + ":"), problems
    # every listed rho is checked for n = 100 samples before any stage runs
    for spec in ("nan", "-1", "0", "1.0", "2.0,0.5", "0.005"):
        cfg = RunConfig(model=_model_path("tandem"),
                        measures=_model_path("tandem_measures"), rho_spec=spec)
        problems = validate_config(cfg)
        assert len(problems) == 1 and problems[0].startswith("rho:"), (spec, problems)


def test_validate_config_ok(tmp_path):
    cfg = RunConfig(model=_model_path("tandem"),
                    measures=_model_path("tandem_measures"),
                    n=5, out_dir=str(tmp_path))
    assert validate_config(cfg) == []


def test_run_pipeline_writes_artifacts(tmp_path):
    cfg = RunConfig(model=_model_path("tandem"),
                    measures=_model_path("tandem_measures"),
                    n=20, seed=3, rho_spec="auto:3", betas=(0.9, 0.99),
                    out_dir=str(tmp_path))
    summary = run_pipeline(cfg)
    for name in ("samples.json", "solutions.json", "regions.json",
                 "band.csv", "summary.json"):
        assert (tmp_path / name).exists(), name
    assert all(t >= 0 for t in summary["stages"].values())
    assert sum(summary["stages"].values()) <= summary["total"]
    assert sum(summary["stages"].values()) >= 0.95 * summary["total"]
    assert "gap_failures" not in summary  # exact mode has no gaps
    config = json.loads((tmp_path / "summary.json").read_text())["config"]
    assert config == {"model": cfg.model, "measures": cfg.measures, "n": 20,
                      "seed": 3, "mode": "exact", "epsilon": 1e-6, "rel_gap": 1e-2,
                      "rho": "auto:3", "beta": [0.9, 0.99], "delta": 1e-2}


_NO_SCIPY_RUN = """
import json, sys
import uctmc.cli
from uctmc import _csr, example_model_path
for model, measures, mode in (("sir20", "sir_horizons", "exact"),
                              ("buffer", "buffer_measures", "approx")):
    uctmc.cli.run_pipeline(uctmc.cli.RunConfig(
        model=str(example_model_path(model)), measures=str(example_model_path(measures)),
        n=10, seed=1, mode=mode, rho_spec="auto:3", out_dir=sys.argv[1] + "/" + model))
print(json.dumps({"modules": sorted(k for k in sys.modules if k.split(".")[0] == "scipy"),
                  "kernels": _csr.sparsetools.__file__}))
"""


def test_pipeline_runs_without_importing_scipy(tmp_path):
    # a fresh interpreter imports the CLI and runs two pipelines; of scipy it
    # loads only the compiled CSR kernels, from scipy's own extension file
    import scipy.sparse

    env = {**os.environ, "PYTHONPATH": str(Path(uctmc.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         "-c", _NO_SCIPY_RUN, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["modules"] == ["scipy.sparse._sparsetools"]
    kernels = Path(report["kernels"])
    assert kernels.parent == Path(scipy.sparse.__file__).parent
    assert kernels.name in {"_sparsetools" + s for s in importlib.machinery.EXTENSION_SUFFIXES}
    assert (tmp_path / "sir20" / "regions.json").exists()
    assert (tmp_path / "buffer" / "regions.json").exists()


def test_run_pipeline_curve_stage_failures(tmp_path, caplog, capsys):
    # buffer's measures are no horizon family: warn and write no band
    cfg = RunConfig(model=_model_path("buffer"), measures=_model_path("buffer_measures"),
                    n=3, seed=1, mode="approx", rho_spec="2.0", betas=(0.9,),
                    out_dir=str(tmp_path / "b"))
    run_pipeline(cfg)
    assert "no curve band written" in caplog.text
    assert not (tmp_path / "b" / "band.csv").exists()
    assert (tmp_path / "b" / "summary.json").exists()
    # a band.csv that cannot be written fails the curve stage
    (tmp_path / "t" / "band.csv").mkdir(parents=True)
    cfg = RunConfig(model=_model_path("tandem"), measures=_model_path("tandem_measures"),
                    n=5, seed=1, rho_spec="2.0", betas=(0.9,), out_dir=str(tmp_path / "t"))
    with pytest.raises(StageError, match=r"^\[curve\]"):
        run_pipeline(cfg)
    assert main(["run", "--model", cfg.model, "--measures", cfg.measures, "--n", "5",
                 "--out-dir", cfg.out_dir]) == 1
    assert "error [curve]" in capsys.readouterr().err


def test_run_pipeline_counts_gap_failures(tmp_path, monkeypatch):
    import uctmc.cli as cli

    solve = cli.solve_measure_set

    def one_gap_missed(*args, **kwargs):
        solutions = solve(*args, **kwargs)
        solutions[0].gap_met = False
        return solutions

    monkeypatch.setattr(cli, "solve_measure_set", one_gap_missed)
    cfg = RunConfig(model=_model_path("tandem"),
                    measures=_model_path("tandem_measures"),
                    n=6, seed=3, mode="approx", rho_spec="2.0", betas=(0.9,),
                    out_dir=str(tmp_path))
    summary = run_pipeline(cfg)
    _, _, back = uio.read_solutions(tmp_path / "solutions.json")
    assert [s.gap_met for s in back].count(False) == 1
    assert summary["gap_failures"] == 1
    assert json.loads((tmp_path / "summary.json").read_text())["gap_failures"] == 1


def test_run_pipeline_deterministic_artifacts(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        cfg = RunConfig(model=_model_path("tandem"),
                        measures=_model_path("tandem_measures"),
                        n=15, seed=7, rho_spec="auto:2", out_dir=str(out))
        run_pipeline(cfg)
    for name in ("samples.json", "regions.json", "solutions.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cli_stagewise_matches_run(tmp_path):
    model, measures = _model_path("tandem"), _model_path("tandem_measures")
    for mode in ("exact", "approx"):
        out, run_out = tmp_path / mode, tmp_path / f"run-{mode}"
        out.mkdir()
        assert main(["sample", "--model", model, "--n", "10", "--seed", "2",
                     "--out", str(out / "samples.json")]) == 0
        assert main(["check", "--model", model, "--measures", measures,
                     "--samples", str(out / "samples.json"), "--mode", mode,
                     "--out", str(out / "solutions.json")]) == 0
        assert main(["region", "--solutions", str(out / "solutions.json"),
                     "--rho", "2.0,0.4", "--beta", "0.9",
                     "--out", str(out / "regions.json")]) == 0
        assert main(["curve", "--regions", str(out / "regions.json"),
                     "--measures", measures,
                     "--out", str(out / "band.csv")]) == 0
        assert main(["run", "--model", model, "--measures", measures, "--n", "10",
                     "--seed", "2", "--mode", mode, "--rho", "2.0,0.4", "--beta", "0.9",
                     "--out-dir", str(run_out)]) == 0
        for name in ("samples.json", "solutions.json", "regions.json", "band.csv"):
            assert (out / name).read_bytes() == (run_out / name).read_bytes(), (mode, name)
    out = tmp_path / "exact"
    assert main(["baseline", "--kind", "independent",
                 "--solutions", str(out / "solutions.json"),
                 "--rho", "2.0", "--beta", "0.9",
                 "--out", str(out / "baseline.json")]) == 0
    regions = uio.read_regions(out / "regions.json")
    assert [r["rho"] for r in regions] == [2.0, 0.4]
    band = (out / "band.csv").read_text().splitlines()
    assert band[0] == "rho,t,lower,upper"
    assert len(band) == 1 + 2 * 2  # two regions x two horizons
    baseline = json.loads((out / "baseline.json").read_text())
    assert 0.0 <= baseline["combined"] <= 1.0
    for command in ("sample", "check", "region", "refine", "baseline", "curve", "run"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0, command


def test_cli_frequentist_baseline(tmp_path):
    model, measures = _model_path("tandem"), _model_path("tandem_measures")
    main(["sample", "--model", model, "--n", "10", "--seed", "2",
          "--out", str(tmp_path / "s.json")])
    main(["check", "--model", model, "--measures", measures,
          "--samples", str(tmp_path / "s.json"), "--out", str(tmp_path / "sol.json")])
    main(["region", "--solutions", str(tmp_path / "sol.json"), "--rho", "2.0",
          "--beta", "0.9", "--out", str(tmp_path / "regions.json")])
    main(["sample", "--model", model, "--n", "25", "--seed", "9",
          "--out", str(tmp_path / "fresh.json")])
    main(["check", "--model", model, "--measures", measures,
          "--samples", str(tmp_path / "fresh.json"),
          "--out", str(tmp_path / "fresh_sol.json")])
    assert main(["baseline", "--kind", "frequentist",
                 "--solutions", str(tmp_path / "fresh_sol.json"),
                 "--regions", str(tmp_path / "regions.json"),
                 "--out", str(tmp_path / "freq.json")]) == 0
    result = json.loads((tmp_path / "freq.json").read_text())
    assert 0.0 <= result["results"][0]["observed"] <= 1.0


def test_cli_refine_subcommand(tmp_path):
    model = _model_path("sir20")
    measures = _model_path("sir_horizons")
    main(["sample", "--model", model, "--n", "8", "--seed", "4",
          "--out", str(tmp_path / "s.json")])
    code = main(["refine", "--model", model, "--measures", measures,
                 "--samples", str(tmp_path / "s.json"), "--rho", "2.0",
                 "--beta", "0.9", "--delta", "0.2", "--rel-gap", "0.9",
                 "--max-iters", "3", "--out", str(tmp_path / "regions.json")])
    assert code == 0
    regions = uio.read_regions(tmp_path / "regions.json")
    assert regions[0]["mode"] == "imprecise"


def test_cli_error_paths(tmp_path, capsys):
    assert main(["sample", "--model", str(tmp_path / "nope.json"),
                 "--n", "3", "--out", str(tmp_path / "s.json")]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "sample" in err
    solutions = tmp_path / "solutions.json"
    uio.write_solutions(["a"], [uctmc.SolutionVector(0, np.array([0.5]))], solutions)
    assert main(["baseline", "--kind", "frequentist", "--solutions", str(solutions),
                 "--out", str(tmp_path / "freq.json")]) == 1
    assert "--regions" in capsys.readouterr().err
    assert not (tmp_path / "freq.json").exists()
    # a measure time out of range is a FormatError that names the file, the
    # entry and the measure's id, and a repeated id names the file and the id
    samples = str(tmp_path / "samples.json")
    assert main(["sample", "--model", _model_path("tandem"), "--n", "2",
                 "--out", samples]) == 0
    reach = '{{"id": "bad", "type": "reach", "target": "full", "tau": {}}}'
    window = '{{"id": "bad", "type": "reach_interval", "target": "full", "t1": {}, "t2": {}}}'
    reward = '{{"id": "bad", "type": "instant_reward", "reward": "x", "t": {}}}'
    horizon = "measure entry 0: measure bad: horizon must be finite and >= 0"
    need = "measure entry 0: measure bad: need 0 <= t1 <= t2 < inf"
    instant = "measure entry 0: measure bad: time must be finite and >= 0"
    for name, entries, message in (
            ("nan_tau", reach.format("NaN"), horizon),
            ("infinite_tau", reach.format("Infinity"), horizon),
            ("negative_tau", reach.format(-1), horizon),
            ("reversed_window", window.format(5, 1), need),
            ("negative_t1", window.format(-1, 1), need),
            ("nan_t2", window.format(0, "NaN"), need),
            ("infinite_t2", window.format(0, "Infinity"), need),
            ("negative_t", reward.format(-0.5), instant),
            ("infinite_t", reward.format("-Infinity"), instant),
            ("repeated_id", f"{reward.format(1)}, {window.format(0, 1)}",
             "measure ids must be unique: bad repeated")):
        measures = tmp_path / f"measures_{name}.json"
        measures.write_text(f'{{"measures": [{entries}]}}')
        message = f"measures file {measures}: {message}"
        with pytest.raises(uio.FormatError, match=re.escape(message)):
            uio.read_measures(measures)
        out = tmp_path / f"solutions_{name}.json"
        assert main(["check", "--model", _model_path("tandem"), "--measures",
                     str(measures), "--samples", samples, "--out", str(out)]) == 1
        assert f"error [check] {message}" in capsys.readouterr().err, name
        assert not out.exists()
    # a malformed entry is a FormatError that names the file and the entry's position
    good = '{"id": "ok", "type": "reach", "target": "full", "tau": 1.0}'
    for name, entries in (("text_tau", '{"id": "bad", "type": "reach", '
                                       '"target": "full", "tau": "abc"}'),
                          ("list_target", '{"id": "bad", "type": "reach", '
                                          '"target": ["x"], "tau": 1.0}'),
                          ("int_id", '{"id": 3, "type": "reach", "target": "full", '
                                     '"tau": 1.0}'),
                          ("not_object", "1"),
                          ("bool_tau", '{"id": "bad", "type": "reach", "target": "full", '
                                       '"tau": true}'),
                          ("numeric_text_tau", '{"id": "bad", "type": "reach", '
                                               '"target": "full", "tau": "2.5"}'),
                          ("huge_tau", '{"id": "bad", "type": "reach", "target": "full", '
                                       f'"tau": 1{"0" * 400}}}')):
        measures = tmp_path / f"measures_{name}.json"
        measures.write_text(f'{{"measures": [{good}, {entries}]}}')
        with pytest.raises(uio.FormatError, match="measure entry 1"):
            uio.read_measures(measures)
        out = tmp_path / f"solutions_{name}.json"
        assert main(["check", "--model", _model_path("tandem"), "--measures",
                     str(measures), "--samples", samples, "--out", str(out)]) == 1
        assert (f"error [check] measures file {measures}: measure entry 1"
                in capsys.readouterr().err)
        assert not out.exists()
    with pytest.raises(uio.FormatError, match="measure entry 1: tau is too large for a float"):
        uio.read_measures(tmp_path / "measures_huge_tau.json")
    # a file that is not an object with a list of measures names the file
    for name, text in (("top_list", "[1]"), ("measures_int", '{"measures": 5}')):
        measures = tmp_path / f"measures_{name}.json"
        measures.write_text(text)
        with pytest.raises(uio.FormatError, match=f"measures file {measures}"):
            uio.read_measures(measures)
        out = tmp_path / f"solutions_{name}.json"
        assert main(["check", "--model", _model_path("tandem"), "--measures",
                     str(measures), "--samples", samples, "--out", str(out)]) == 1
        assert f"error [check] measures file {measures}" in capsys.readouterr().err
        assert not out.exists()
    # a valuation that is not a list of numbers or does not convert, and a
    # seed or rejected count that is not an integer, names the file and the
    # entry: a JSON number is not a bool, and text is not a number
    for name, seed, row, rejected, message in (
            ("text", "1", '["a", 1]', "0", ": valuation 1 must be a list of numbers"),
            ("bool_value", "1", "[true, 1]", "0", ": valuation 1 must be a list of numbers"),
            ("numeric_text_value", "1", '["0.04", 1]', "0",
             ": valuation 1 must be a list of numbers, not ['0.04', 1]"),
            ("infinite", "1", "[Infinity, 1]", "0", ": valuation 1: cannot convert Infinity"),
            ("text_seed", '"7"', "[1.0, 1]", "0", ": seed must be an integer, not '7'"),
            ("fractional_rejected", "1", "[1.0, 1]", "1.9",
             ": rejected must be an integer, not 1.9")):
        bad_samples = tmp_path / f"bad_samples_{name}.json"
        bad_samples.write_text(f'{{"seed": {seed}, "valuations": [[1.0, 2.0], {row}], '
                               f'"rejected": {rejected}}}')
        message = f"bad samples file {bad_samples}{message}"
        with pytest.raises(uio.FormatError, match=re.escape(message)):
            uio.read_samples(bad_samples)
        out = tmp_path / f"solutions_bad_samples_{name}.json"
        assert main(["check", "--model", _model_path("tandem"), "--measures",
                     _model_path("tandem_measures"), "--samples", str(bad_samples),
                     "--out", str(out)]) == 1
        assert f"error [check] {message}" in capsys.readouterr().err
        assert not out.exists()
    # a solutions file with an unknown mode, a field of the wrong JSON type
    # (i an integer, bounds numbers, gap_met a bool) or a vector whose length
    # is not the number of measure ids names the file, and the entry's position
    for name, text, message in (
            ("bogus_mode", '{"measure_ids": ["a"], "mode": "bogus", "solutions": '
                           '[{"i": 0, "lower": [0.1], "upper": [0.2], "delta": 0.01, '
                           '"gap_met": true}]}', "mode 'bogus'"),
            ("text_value", '{"measure_ids": ["a"], "mode": "exact", "solutions": '
                           '[{"i": 0, "values": [0.5]}, {"i": 1, "values": ["x"]}]}',
             "solution 1: values must be a list of numbers"),
            ("text_delta", '{"measure_ids": ["a"], "mode": "approx", "solutions": '
                           '[{"i": 0, "lower": [0.1], "upper": [0.2], "delta": "d", '
                           '"gap_met": true}]}', "solution 0: delta must be a number"),
            ("numeric_text_delta", '{"measure_ids": ["a"], "mode": "approx", "solutions": '
                                   '[{"i": 0, "lower": [0.1], "upper": [0.2], '
                                   '"delta": "0.01", "gap_met": true}]}',
             "solution 0: delta must be a number, not '0.01'"),
            ("text_i", '{"measure_ids": ["a"], "mode": "exact", "solutions": '
                       '[{"i": "0", "values": [0.5]}]}',
             "solution 0: i must be an integer, not '0'"),
            ("numeric_text_bound", '{"measure_ids": ["a"], "mode": "approx", "solutions": '
                                   '[{"i": 0, "lower": ["0.1"], "upper": [0.2], '
                                   '"delta": 0.01, "gap_met": true}]}',
             "solution 0: lower must be a list of numbers"),
            ("bool_bound", '{"measure_ids": ["a"], "mode": "approx", "solutions": '
                           '[{"i": 0, "lower": [0.1], "upper": [true], "delta": 0.01, '
                           '"gap_met": true}]}',
             "solution 0: upper must be a list of numbers"),
            ("text_gap_met", '{"measure_ids": ["a"], "mode": "approx", "solutions": '
                             '[{"i": 0, "lower": [0.1], "upper": [0.2], "delta": 0.01, '
                             '"gap_met": "false"}]}',
             "solution 0: gap_met must be true or false, not 'false'"),
            ("short_values", '{"measure_ids": ["a", "b"], "mode": "exact", "solutions": '
                             '[{"i": 0, "values": [0.5]}]}',
             "solution 0 does not hold one value per measure id"),
            # NaN would pass the region stage and write "lower": [NaN] into
            # regions.json, which is not valid JSON
            ("nan_value", '{"measure_ids": ["a"], "mode": "exact", "solutions": '
                          '[{"i": 0, "values": [0.5]}, {"i": 1, "values": [NaN]}, '
                          '{"i": 2, "values": [0.2]}]}',
             "solution 1 holds a value that is not finite"),
            ("infinite_upper", '{"measure_ids": ["a"], "mode": "approx", "solutions": '
                               '[{"i": 0, "lower": [0.1], "upper": [Infinity], '
                               '"delta": 0.01, "gap_met": true}]}',
             "solution 0 holds a value that is not finite"),
            # a string is not split into one-letter ids
            ("text_ids", '{"measure_ids": "ab", "mode": "exact", "solutions": '
                         '[{"i": 0, "values": [0.5, 0.6]}]}',
             "measure_ids must be a list of strings, not 'ab'"),
            ("int_ids", '{"measure_ids": [1], "mode": "exact", "solutions": '
                        '[{"i": 0, "values": [0.5]}]}',
             "measure_ids must be a list of strings, not "),
            ("object_solutions", '{"measure_ids": ["a"], "mode": "exact", "solutions": '
                                 '{"i": 0, "values": [0.5]}}',
             "solutions must be a list, not ")):
        bad = tmp_path / f"solutions_{name}.json"
        bad.write_text(text)
        with pytest.raises(uio.FormatError, match=f"bad solutions file {bad}: {message}"):
            uio.read_solutions(bad)
        out = tmp_path / f"regions_{name}.json"
        assert main(["region", "--solutions", str(bad), "--out", str(out)]) == 1
        assert f"error [region] bad solutions file {bad}: {message}" in capsys.readouterr().err
        assert not out.exists()
    # a region that is not an object with a finite rho and finite lower and
    # upper lists of equal length names the file, its position and the field
    for name, text, message in (
            ("int_entry", "[1]", "region 0 is not an object"),
            ("rho_only", '[{"rho": 2.0}]', "region 0 misses field 'lower'"),
            ("uneven", '[{"rho": 2.0, "lower": [0.1], "upper": [0.2]}, '
                       '{"rho": 2.0, "lower": [0.1, 0.2], "upper": [0.3]}]',
             "region 1: lower and upper differ in length"),
            # a NaN bound would be written to band.csv as nan
            ("nan_lower", '[{"rho": 2.0, "lower": [NaN], "upper": [0.2]}]',
             "region 0 holds a value that is not finite"),
            ("infinite_upper", '[{"rho": 2.0, "lower": [0.1], "upper": [0.2]}, '
                               '{"rho": 1.0, "lower": [0.1], "upper": [Infinity]}]',
             "region 1 holds a value that is not finite"),
            ("infinite_rho", '[{"rho": Infinity, "lower": [0.1], "upper": [0.2]}]',
             "region 0 holds a value that is not finite")):
        bad = tmp_path / f"regions_{name}.json"
        bad.write_text(text)
        message = f"bad regions file {bad}: {message}"
        with pytest.raises(uio.FormatError, match=re.escape(message)):
            uio.read_regions(bad)
        out = tmp_path / f"band_{name}.csv"
        assert main(["curve", "--regions", str(bad), "--measures",
                     _model_path("sir_horizons"), "--out", str(out)]) == 1
        assert f"error [curve] {message}" in capsys.readouterr().err
        assert not out.exists()
    # a file that is not JSON, or whose top level is of the wrong type, names
    # the file (and for invalid JSON, the line and column)
    for name, text, read, message in (
            ("solutions_top_list", '[{"i": 0, "values": [0.5]}]', uio.read_solutions,
             "bad solutions file {} is not an object"),
            ("solutions_not_json", "", uio.read_solutions,
             "{} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            ("regions_object", '{"rho": 2.0, "lower": [0.1], "upper": [0.2]}',
             uio.read_regions, "bad regions file {} is not a list")):
        bad = tmp_path / f"{name}.json"
        bad.write_text(text)
        message = message.format(bad)
        with pytest.raises(uio.FormatError, match=re.escape(message)):
            read(bad)
        out = tmp_path / f"out_{name}"
        if read is uio.read_solutions:
            argv, stage = ["region", "--solutions", str(bad), "--out", str(out)], "region"
        else:
            argv, stage = ["curve", "--regions", str(bad), "--measures",
                           _model_path("sir_horizons"), "--out", str(out)], "curve"
        assert main(argv) == 1
        assert f"error [{stage}] {message}" in capsys.readouterr().err
        assert not out.exists()
    # a region that does not bound every measure names both counts: 2 bounds
    # against the 26 horizons of sir_horizons and the 1 measure of solutions
    short = tmp_path / "regions_short.json"
    short.write_text('[{"rho": 2.0, "lower": [0.1, 0.2], "upper": [0.3, 0.4]}]')
    out = tmp_path / "band_short.csv"
    assert main(["curve", "--regions", str(short), "--measures",
                 _model_path("sir_horizons"), "--out", str(out)]) == 1
    assert ("error [curve] region for rho 2.0 bounds 2 measures, but there are 26"
            in capsys.readouterr().err)
    assert not out.exists()
    out = tmp_path / "freq_short.json"
    assert main(["baseline", "--kind", "frequentist", "--solutions", str(solutions),
                 "--regions", str(short), "--out", str(out)]) == 1
    assert ("error [baseline] region for rho 2.0 bounds 2 measures, but there are 1"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_check_and_refine_validate_options(tmp_path, capsys):
    # check and refine reject the check options that run rejects
    model, measures = _model_path("tandem"), _model_path("tandem_measures")
    samples = str(tmp_path / "samples.json")
    assert main(["sample", "--model", model, "--n", "2", "--seed", "1",
                 "--out", samples]) == 0
    for option in ("--rel-gap", "--delta"):
        for command in ("check", "refine"):
            out = tmp_path / f"{command}{option}.json"
            extra = ["--mode", "approx"] if command == "check" else []
            code = main([command, "--model", model, "--measures", measures,
                         "--samples", samples, *extra, option, "-1", "--out", str(out)])
            assert code == 1, (command, option)
            assert option[2:] + ":" in capsys.readouterr().err, (command, option)
            assert not out.exists(), (command, option)
    # refine checks its rho list and --max-iters before the check stage runs
    for option, value, message in (("--rho", "nan", "rho must be positive"),
                                   ("--max-iters", "0", "[config] max-iters:")):
        out = tmp_path / f"refine{option}.json"
        code = main(["refine", "--model", model, "--measures", measures,
                     "--samples", samples, option, value, "--out", str(out)])
        assert code == 1, option
        assert message in capsys.readouterr().err, option
        assert not out.exists(), option


def test_cli_run_invalid_config_exits_nonzero(tmp_path, capsys):
    code = main(["run", "--model", str(tmp_path / "nope.json"),
                 "--measures", str(tmp_path / "nope2.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "config" in capsys.readouterr().err
