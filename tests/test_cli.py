"""End-to-end command-line tests driven through ``heppcat.cli.main``."""

import csv
import importlib
import logging
import inspect
import os
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import heppcat
from heppcat import (
    FitConfig,
    GroupedData,
    compress_gram,
    fit,
    init_random,
    ppca_closed_form,
    read_dataset,
    read_json,
    train_test_nrmse,
    univariate_objective,
    update_v_rootfind,
    v_coefficients,
    write_dataset,
    write_rows,
)
from heppcat import _blas, fitter
from heppcat.cli import build_parser, main, parse_feature_blocks
from heppcat.errors import NumericalError

from conftest import worker_pids


def run(argv):
    return main([str(a) for a in argv])


def simulate_small(tmp_path, seed=3, extra=()):
    out = tmp_path / f"sim{seed}"
    argv = [
        "simulate", "--d", 20, "--k", 2, "--lambdas", "4,1",
        "--group-sizes", "40,60", "--variances", "1,4", "--seed", seed, "--out", out,
    ]
    assert run(argv + list(extra)) == 0
    return out


def test_simulate_default_preset_shape(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--seed", 0, "--out", out]) == 0
    lines = (out / "data.csv").read_text().splitlines()
    assert len(lines) == 1001
    assert all(len(line.split(",")) == 101 for line in lines)
    truth = read_json(out / "truth.json")
    assert truth["d"] == 100 and truth["k"] == 3 and truth["L"] == 2
    assert truth["lambda_true"] == [4.0, 2.0, 1.0]
    U = np.array(truth["U_true"])
    assert np.allclose(U.T @ U, np.eye(3), atol=1e-12)


def test_simulate_same_seed_is_byte_identical(tmp_path):
    a = simulate_small(tmp_path / "a", seed=7)
    b = simulate_small(tmp_path / "b", seed=7)
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()


def test_simulate_seed_changes_data(tmp_path):
    a = simulate_small(tmp_path / "a", seed=7)
    b = simulate_small(tmp_path / "b", seed=8)
    assert (a / "data.csv").read_bytes() != (b / "data.csv").read_bytes()


def test_feature_blocks_empirical_variances(tmp_path):
    out = tmp_path / "sim"
    argv = [
        "simulate", "--d", 100, "--k", 3, "--lambdas", "4,2,1",
        "--group-sizes", "200,800", "--variances", "1,9",
        "--feature-blocks=-;20:4,80:9", "--seed", 11, "--out", out,
    ]
    assert run(argv) == 0
    data, _ = read_dataset(out / "data.csv")
    lam_share = (4.0 + 2.0 + 1.0) / 100.0
    emp = data.blocks[1].var(axis=1, ddof=1)
    for sl, v_block in [(slice(0, 20), 4.0), (slice(20, 100), 9.0)]:
        expected = v_block + lam_share
        assert abs(emp[sl].mean() - expected) <= 0.10 * expected
    emp1 = data.blocks[0].var(axis=1, ddof=1).mean()
    assert abs(emp1 - (1.0 + lam_share)) <= 0.10 * (1.0 + lam_share)


def test_parse_feature_blocks():
    assert parse_feature_blocks("20:4,80:9", 2) == [[(20, 4.0), (80, 9.0)]] * 2
    assert parse_feature_blocks("-;20:4,80:9", 2) == [None, [(20, 4.0), (80, 9.0)]]
    with pytest.raises(ValueError, match="group entries"):
        parse_feature_blocks("-;-;-", 2)
    with pytest.raises(ValueError, match="count:variance"):
        parse_feature_blocks("20x4", 1)


def test_simulate_flag_shape_error_is_exit_2(tmp_path, capsys):
    code = run(["simulate", "--d", 10, "--k", 2, "--lambdas", "4,2,1", "--out", tmp_path])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_fit_converged_exit_0_and_model_file(tmp_path, capsys):
    sim = simulate_small(tmp_path)
    model_path = tmp_path / "model.json"
    code = run([
        "fit", "--data", sim / "data.csv", "--rank", 2,
        "--loglik-tol", "1e-9", "--out", model_path,
    ])
    assert code == 0
    assert "converged" in capsys.readouterr().out
    rec = read_json(model_path)
    assert rec["schema_version"] == 1
    assert (rec["d"], rec["k"], rec["L"]) == (20, 2, 2)
    assert "trace" not in rec
    assert np.array(rec["v"]).shape == (2,)
    assert rec["config_echo"]["method"] == "em"


def test_fit_same_seed_is_byte_identical(tmp_path):
    sim = simulate_small(tmp_path)
    outs = []
    for name in ("m1.json", "m2.json"):
        path = tmp_path / name
        assert run([
            "fit", "--data", sim / "data.csv", "--rank", 2, "--init", "random",
            "--seed", 5, "--trace", "--loglik-tol", "1e-9", "--out", path,
        ]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_fit_output_does_not_depend_on_blas_threads(tmp_path, capsys):
    # at 100 x 200 two OpenBLAS threads round differently from one
    sim = tmp_path / "sim"
    assert run([
        "simulate", "--d", 100, "--k", 2, "--lambdas", "4,1", "--group-sizes", "50,150",
        "--variances", "1,4", "--seed", 3, "--out", sim,
    ]) == 0
    outs = []
    for n in (2, 1):
        with _blas.pinned(n):
            before = _blas.thread_counts()
            path = tmp_path / f"m{n}.json"
            assert run(["fit", "--data", sim / "data.csv", "--rank", 2, "--out", path]) == 0
            assert _blas.thread_counts() == before
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


def test_import_loads_numpy_only():
    # one OpenBLAS per process: importing the CLI must not pull in scipy
    src = str(pathlib.Path(heppcat.__file__).parents[1])
    code = "import sys, heppcat.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_export_registry():
    # the package star-imports its modules, where a name two modules
    # export would silently shadow the other
    from heppcat import cli

    owners = {}
    for info in pkgutil.iter_modules(heppcat.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"heppcat.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), (info.name, name)
            assert name not in owners, (name, owners.get(name), module)
            owners[name] = module
    assert len(heppcat.__all__) == len(set(heppcat.__all__))
    assert set(heppcat.__all__) == set(owners) - set(cli.__all__) | {"__version__"}
    for name in heppcat.__all__:
        if name != "__version__":
            assert getattr(heppcat, name) is getattr(owners[name], name), name


def test_fit_trace_excludes_wall_times(tmp_path):
    sim = simulate_small(tmp_path)
    path = tmp_path / "model.json"
    run(["fit", "--data", sim / "data.csv", "--rank", 2, "--trace",
         "--max-iters", 5, "--loglik-tol", "1e-12", "--out", path])
    trace = read_json(path)["trace"]
    assert set(trace) == {"loglik", "f_change", "v"}
    assert len(trace["loglik"]) == len(trace["f_change"]) + 1
    assert np.all(np.diff(trace["loglik"]) >= -1e-8 * (1 + np.abs(trace["loglik"][0])))


def test_fit_budget_exhausted_exit_3_still_writes(tmp_path, capsys):
    sim = simulate_small(tmp_path)
    path = tmp_path / "model.json"
    code = run(["fit", "--data", sim / "data.csv", "--rank", 2,
                "--max-iters", 2, "--loglik-tol", "1e-12", "--out", path])
    assert code == 3
    assert "max-iters" in capsys.readouterr().out
    assert read_json(path)["k"] == 2


def test_fit_summary_reports_ascent_violations(tmp_path, capsys, monkeypatch, caplog):
    sim = simulate_small(tmp_path)
    argv = ["fit", "--data", sim / "data.csv", "--rank", 2, "--tol", 0, "--max-iters", 8, "--trace"]
    assert run(argv + ["--out", tmp_path / "a.json"]) == 3
    assert "ascent violations 0 (worst likelihood drop 0)" in capsys.readouterr().out
    # force a drop, as the fitter's ascent monitor test does: in iteration
    # 3 the second group's update overshoots its optimum tenfold
    real, calls = fitter.update_v, []

    def dropping(method, c, v_t=None):
        calls.append(1)
        v_new = real(method, c, v_t)
        if len(calls) == 3:
            v_new[1] *= 10.0
        return v_new

    monkeypatch.setattr(fitter, "update_v", dropping)
    with caplog.at_level(logging.WARNING, logger="heppcat"):
        assert run(argv + ["--out", tmp_path / "b.json"]) == 3
    ll = read_json(tmp_path / "b.json")["trace"]["loglik"]
    assert ll[3] < ll[2]
    out = capsys.readouterr().out
    assert f"ascent violations 1 (worst likelihood drop {ll[2] - ll[3]:.6g})" in out


def test_fit_rank_too_large_exit_2(tmp_path, capsys):
    sim = simulate_small(tmp_path)
    code = run(["fit", "--data", sim / "data.csv", "--rank", 20, "--out", tmp_path / "m.json"])
    assert code == 2
    assert "rank" in capsys.readouterr().err


def test_fit_missing_file_exit_2(tmp_path, capsys):
    code = run(["fit", "--data", tmp_path / "nope.csv", "--rank", 2, "--out", tmp_path / "m.json"])
    assert code == 2
    capsys.readouterr()


def test_fit_file_removed_after_its_header_exit_2(tmp_path, capsys, monkeypatch, no_pool):
    import heppcat.dataio as dataio

    sim = simulate_small(tmp_path)
    monkeypatch.setattr(dataio, "_POOL_BYTES", 0)
    monkeypatch.setattr(dataio, "_SPAN_BYTES", 512)
    monkeypatch.setenv("HEPPCAT_THREADS", "2")
    read_dataset(sim / "data.csv")
    workers = worker_pids()
    map_tasks = dataio._map_tasks

    def remove_then_map(fn, tasks):
        (sim / "data.csv").unlink(missing_ok=True)
        return map_tasks(fn, tasks)

    monkeypatch.setattr(dataio, "_map_tasks", remove_then_map)
    code = run(["fit", "--data", sim / "data.csv", "--rank", 2, "--out", tmp_path / "m.json"])
    assert code == 2
    assert "No such file" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()
    assert worker_pids() == workers


def test_csv_commands_do_not_depend_on_pool_size(tmp_path, monkeypatch):
    import heppcat.dataio as dataio

    monkeypatch.setattr(dataio, "_POOL_BYTES", 0)
    monkeypatch.setattr(dataio, "_SPAN_BYTES", 512)
    monkeypatch.setattr(dataio, "_CHUNK_VALUES", 64)
    out = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("HEPPCAT_THREADS", threads)
        sim = simulate_small(tmp_path / threads)
        fit = ["fit", "--data", tmp_path / "1" / "sim3" / "data.csv", "--rank", 2, "--max-iters", 50]
        assert run(fit + ["--out", tmp_path / threads / "m.json"]) in (0, 3)
        assert run(fit + ["--compress", "--out", tmp_path / threads / "c.json"]) in (0, 3)
        out[threads] = [
            (sim / "data.csv").read_bytes(),
            (tmp_path / threads / "m.json").read_bytes(),
            (tmp_path / threads / "c.json").read_bytes(),
        ]
    assert out["1"] == out["2"]


def test_fit_numerical_failure_exit_4(tmp_path, capsys, monkeypatch):
    sim = simulate_small(tmp_path)
    import heppcat.cli as climod

    def boom(data, cfg):
        raise NumericalError("iteration 3: synthetic failure")

    monkeypatch.setattr(climod, "fit", boom)
    code = run(["fit", "--data", sim / "data.csv", "--rank", 2, "--out", tmp_path / "m.json"])
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


def test_fit_non_finite_factor_update_exit_4(tmp_path, capsys, monkeypatch):
    sim = simulate_small(tmp_path)
    eigh = np.linalg.eigh

    def nan_eigh(a):
        # NaN eigenvectors for the 2 x 2 normal matrix of the factor
        # update; the 20 x 20 spectral start passes through
        w, Q = eigh(a)
        return (w, np.full(np.shape(a), np.nan)) if np.shape(a)[-1] == 2 else (w, Q)

    monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
    code = run(["fit", "--data", sim / "data.csv", "--rank", 2, "--out", tmp_path / "m.json"])
    assert code == 4
    assert "non-finite factors" in capsys.readouterr().err


def test_fit_linalg_error_exit_4(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError subclasses ValueError; it must not read as a usage error
    sim = simulate_small(tmp_path)
    svd, calls = np.linalg.svd, []

    def failing_svd(*args, **kwargs):
        calls.append(None)
        if len(calls) >= 3:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    code = run(["fit", "--data", sim / "data.csv", "--rank", 2, "--tol", 0, "--max-iters", 10,
                "--out", tmp_path / "m.json"])
    assert len(calls) == 3
    assert code == 4
    assert "numerical failure: SVD did not converge" in capsys.readouterr().err


def test_fit_parser_defaults_match_fit_config():
    args = build_parser().parse_args(["fit", "--data", "x.csv", "--rank", "2"])
    cfg = FitConfig(rank=2)
    assert (args.method, args.max_iters, args.tol) == (cfg.v_method, cfg.max_iters, cfg.tol)


# study command -> (library function, required flags and what they pass,
# every other flag and what it passes)
_STUDY_FLAGS = {
    "benchmark": (
        "run_benchmark", ["--preset", "fig5"], dict(preset="fig5"),
        ["--trials", 3, "--sigma-grid", "1,2", "--methods", "heppcat", "--seed", 4],
        dict(trials=3, sigma_grid=[1.0, 2.0], methods=["heppcat"], seed=4),
    ),
    "landscape": (
        "run_landscape", [], {},
        ["--sigma2-squared-grid", "0.5", "--random-inits", 2, "--methods", "em,doc",
         "--max-iters", 9, "--seed", 4],
        dict(sigma2_squared_grid=[0.5], n_random=2, methods=["em", "doc"], max_iters=9, seed=4),
    ),
    "train-test": (
        "train_test_nrmse", [], {},
        ["--sigma2", 1.5, "--trials", 2, "--rank", 2, "--fraction", 0.4, "--seed", 4],
        dict(sigma2=1.5, trials=2, rank=2, fraction=0.4, seed=4),
    ),
    "minorizers": (
        "minorizer_curves", ["--data", "x.csv", "--rank", 2], dict(rank=2),
        ["--grid-points", 7, "--span", 10.0], dict(n_grid=7, span=10.0),
    ),
}


def test_study_commands_pass_only_given_flags(tmp_path, capsys, monkeypatch):
    # a flag left out reaches the library as its own default
    monkeypatch.setattr("heppcat.cli.read_dataset", lambda path: (path, None))
    for command, (study, required, want_required, every, want_every) in _STUDY_FLAGS.items():
        params = set(inspect.signature(getattr(heppcat, study)).parameters)
        calls = []
        monkeypatch.setattr(f"heppcat.benchmark.{study}", lambda *args, **kwargs: calls.append(kwargs) or [])
        for flags in (required, required + every):
            assert run([command, *flags, "--out", tmp_path / "x.csv"]) == 0
        assert calls == [want_required, {**want_required, **want_every}], command
        # with every flag set, every parameter but the data is passed
        assert set(calls[1]) == params - {"data"}, command
    capsys.readouterr()


def test_fit_config_echo_with_every_flag_set(tmp_path):
    sim = simulate_small(tmp_path)
    path = tmp_path / "model.json"
    code = run([
        "fit", "--data", sim / "data.csv", "--rank", 1, "--method", "cubic",
        "--max-iters", 7, "--tol", "1e-9", "--init", "random",
        "--seed", 4, "--center", "--compress",
        "--trace", "--v-tol", "1e-5", "--loglik-tol", "1e-11", "--out", path,
    ])
    assert code in (0, 3)
    rec = read_json(path)
    assert rec["config_echo"] == {
        "data": str(sim / "data.csv"), "rank": 1, "method": "cubic", "max_iters": 7,
        "tol": 1e-9, "init": "random", "seed": 4,
        "center": True, "compress": True, "v_tol": 1e-5, "loglik_tol": 1e-11,
    }
    # the same fit through the library: the flags reached the config
    data, _ = read_dataset(sim / "data.csv")
    data = compress_gram(GroupedData([B - B.mean(axis=1, keepdims=True) for B in data.blocks]))
    cfg = FitConfig(rank=1, v_method="cubic", max_iters=7, tol=1e-9,
                    init=init_random(data.d, 1, data.L, 4),
                    v_tol=1e-5, loglik_tol=1e-11)
    res = fit(data, cfg)
    assert rec["v"] == res.model.v.tolist()
    assert rec["trace"]["loglik"] == res.trace.loglik.tolist()


def test_simulate_config_echo(tmp_path):
    out = simulate_small(tmp_path, extra=["--feature-blocks=-;5:2,15:4"])
    assert read_json(out / "truth.json")["config_echo"] == {
        "d": 20, "k": 2, "lambdas": [4.0, 1.0], "group_sizes": [40, 60],
        "variances": [1.0, 4.0], "feature_blocks": "-;5:2,15:4",
    }


def test_fit_zero_variance_exit_2_names_the_group(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    Y = np.random.default_rng(0).standard_normal((10, 50))
    write_dataset(path, GroupedData([Y, np.zeros((10, 5))]))
    code = run(["fit", "--data", path, "--rank", 2, "--method", "rootfind",
                "--loglik-tol", "1e-10", "--out", tmp_path / "m.json"])
    assert code == 2
    assert "group 2 has zero noise variance" in capsys.readouterr().err


def test_experiment_input_errors_exit_2(tmp_path, capsys):
    for argv, name in (
        (["benchmark", "--preset", "fig3", "--sigma-grid", ""], "sigma_grid"),
        (["benchmark", "--preset", "fig3", "--methods", ""], "methods"),
        (["train-test", "--trials", 0], "trials"),
        (["landscape", "--random-inits", -3], "n_random"),
    ):
        assert run(argv + ["--out", tmp_path / "x.csv"]) == 2
        assert name in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_landscape_rejects_empty_methods(tmp_path, capsys):
    assert run(["landscape", "--methods", "", "--out", tmp_path / "x.csv"]) == 2
    assert "methods" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_fit_compress_matches_raw(tmp_path):
    sim = simulate_small(tmp_path)
    lls = []
    for flag, name in ([], "raw.json"), (["--compress"], "comp.json"):
        path = tmp_path / name
        run(["fit", "--data", sim / "data.csv", "--rank", 2,
             "--loglik-tol", "1e-9", "--out", path, *flag])
        lls.append(read_json(path)["loglik"])
    assert abs(lls[0] - lls[1]) <= 1e-7 * (1 + abs(lls[0]))


def test_fit_center_changes_estimate(tmp_path):
    sim = simulate_small(tmp_path)
    vs = []
    for flag, name in ([], "raw.json"), (["--center"], "cen.json"):
        path = tmp_path / name
        run(["fit", "--data", sim / "data.csv", "--rank", 2, "--out", path, *flag])
        vs.append(read_json(path)["v"])
    assert not np.allclose(vs[0], vs[1])


def test_fit_recovers_noise_ordering_on_default_preset(tmp_path, capsys):
    # planted variances are (1, 4); the estimates should keep that order
    diffs = []
    for seed in range(20):
        out = tmp_path / f"s{seed}"
        assert run(["simulate", "--seed", seed, "--out", out]) == 0
        path = out / "model.json"
        assert run(["fit", "--data", out / "data.csv", "--rank", 3,
                    "--method", "em", "--out", path]) == 0
        v = read_json(path)["v"]
        diffs.append(v[1] - v[0])
    capsys.readouterr()
    assert np.median(diffs) > 0


def test_fit_methods_agree_on_final_likelihood(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run(["simulate", "--seed", 1, "--out", sim]) == 0
    lls = {}
    for method in ("em", "rootfind"):
        path = tmp_path / f"{method}.json"
        assert run(["fit", "--data", sim / "data.csv", "--rank", 3, "--method", method,
                    "--loglik-tol", "1e-9", "--out", path]) == 0
        lls[method] = read_json(path)["loglik"]
    capsys.readouterr()
    assert abs(lls["em"] - lls["rootfind"]) <= 1e-4 * abs(lls["em"])


def test_benchmark_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HEPPCAT_THREADS", "1")
    out = tmp_path / "metrics.csv"
    code = run(["benchmark", "--preset", "fig5", "--trials", 2, "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "median" in printed and "p25" in printed and "p75" in printed
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["metric"] for r in rows} == {
        "rel_bias_v1", "rel_bias_v2",
        "rel_bias_lambda1", "rel_bias_lambda2", "rel_bias_lambda3",
    }
    assert len(rows) == 2 * 5
    float(rows[0]["value"])


def test_benchmark_unknown_preset_exit_2(tmp_path, capsys):
    # argparse rejects bad choices itself, also with status 2
    with pytest.raises(SystemExit) as exc:
        run(["benchmark", "--preset", "fig99", "--out", tmp_path / "m.csv"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_benchmark_unknown_method_exit_2(tmp_path, capsys):
    code = run(["benchmark", "--preset", "fig3", "--trials", 1,
                "--methods", "nonsense", "--out", tmp_path / "m.csv"])
    assert code == 2
    assert "unknown method" in capsys.readouterr().err


def test_landscape_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HEPPCAT_THREADS", "1")
    out = tmp_path / "gaps.csv"
    code = run(["landscape", "--sigma2-squared-grid", "1.0", "--random-inits", 1,
                "--max-iters", 60, "--seed", 1, "--out", out])
    assert code == 0
    capsys.readouterr()
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["init"] for r in rows} == {"ppca", "oracle", "random"}
    final_gaps = {}
    for r in rows:
        key = (r["init"], r["run"])
        final_gaps[key] = (int(r["iteration"]), float(r["gap"]), r["converged"])
    for it, gap, conv in final_gaps.values():
        if conv == "True":
            assert gap <= 1e-6 * max(1.0, abs(gap))


def test_minorizers_cli(tmp_path):
    sim = simulate_small(tmp_path)
    out = tmp_path / "curves.csv"
    assert run(["minorizers", "--data", sim / "data.csv", "--rank", 2,
                "--grid-points", 60, "--out", out]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    curves = {}
    for r in rows:
        curves.setdefault((int(r["group"]), r["curve"]), {})[float(r["v"])] = float(r["value"])

    data, _ = read_dataset(sim / "data.csv")
    model = ppca_closed_form(data, 2)
    v_t = float(model.v[0])
    for group in (1, 2):
        obj = curves[(group, "objective")]
        # every curve is shifted to zero exactly at the anchor
        for name in ("objective", "em", "doc", "quad", "cubic"):
            assert curves[(group, name)][v_t] == 0.0
            for v, val in curves[(group, name)].items():
                assert val <= obj[v] + 1e-9
        # the grid maximum of the objective does not beat the root-finder
        B = data.blocks[group - 1]
        c = v_coefficients(B, model, n_samples=B.shape[1])
        v_star = update_v_rootfind(c)
        best = univariate_objective(c, v_star) - univariate_objective(c, v_t)
        assert max(obj.values()) <= best + 1e-9


@pytest.mark.parametrize("span", ["nan", "inf", "1"])
def test_minorizers_span_rejected_before_the_fit(span, tmp_path, capsys, monkeypatch):
    sim = simulate_small(tmp_path)
    monkeypatch.setattr("heppcat.benchmark.ppca_closed_form", None)
    assert run(["minorizers", "--data", sim / "data.csv", "--rank", 2, "--span", span,
                "--out", tmp_path / "curves.csv"]) == 2
    assert "error: need n_grid >= 2 and span > 1" in capsys.readouterr().err


def test_negative_seed_is_legal(tmp_path):
    out = simulate_small(tmp_path, seed=-1)
    assert read_json(out / "truth.json")["seed"] == -1
    assert run(["train-test", "--trials", 1, "--seed", -1, "--out", tmp_path / "nrmse.csv"]) == 0
    # so is a seed past float range, which argparse's int accepts
    out = tmp_path / "huge"
    assert run(["simulate", "--d", 20, "--k", 2, "--lambdas", "4,1", "--seed", 10**400, "--out", out]) == 0
    assert read_json(out / "truth.json")["seed"] == 10**400


def test_both_json_documents_take_the_schema_version_from_dataio(tmp_path, monkeypatch):
    monkeypatch.setattr("heppcat.dataio.SCHEMA_VERSION", 99)
    sim = simulate_small(tmp_path)
    model_path = tmp_path / "model.json"
    run(["fit", "--data", sim / "data.csv", "--rank", 2, "--max-iters", 2, "--out", model_path])
    assert read_json(sim / "truth.json")["schema_version"] == 99
    assert read_json(model_path)["schema_version"] == 99


def test_cli_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("simulate", "fit", "benchmark", "landscape", "train-test", "minorizers"):
        assert name in out


def test_train_test_cli(tmp_path, capsys):
    out = tmp_path / "nrmse.csv"
    assert run(["train-test", "--sigma2", 1.5, "--trials", 2, "--rank", 2,
                "--fraction", 0.4, "--seed", 2, "--out", out]) == 0
    assert "nrmse_test" in capsys.readouterr().out
    ref = tmp_path / "ref.csv"
    rows = train_test_nrmse(sigma2=1.5, trials=2, rank=2, fraction=0.4, seed=2)
    write_rows(ref, ["trial", "sigma2", "method", "metric", "value"], rows)
    assert out.read_bytes() == ref.read_bytes()
    assert run(["train-test", "--fraction", 1.5, "--out", tmp_path / "bad.csv"]) == 2
    assert "fraction" in capsys.readouterr().err


def _readme_commands():
    """Every ``heppcat`` command in the README's code blocks, with
    backslash continuations joined and ``for x in ...; do ...; done``
    loops expanded."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            loop = re.fullmatch(r"\s*for (\w+) in ([^;]+); do (.+?);? done\s*", line)
            if loop:
                var, values, body = loop.groups()
                yield from (body.replace(f"${var}", value) for value in values.split())
            elif line.lstrip().startswith("heppcat "):
                yield line


def test_readme_commands_parse():
    parser = build_parser()
    seen = set()
    for command in _readme_commands():
        seen.add(parser.parse_args(shlex.split(command)[1:]).command)
    assert seen == {"simulate", "fit", "benchmark", "landscape", "train-test", "minorizers"}
