"""Harness tests: row schemas, determinism, and cross-run orderings.

Heavier statistical claims about the sweeps live in the acceptance
suite; these tests pin the plumbing at smoke scale.
"""

import logging
import os
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from heppcat import (
    FitConfig,
    GroupedData,
    PRESETS,
    V_METHODS,
    component_recovery,
    compress_gram,
    factor_error,
    generate,
    log_likelihood_direct,
    FactorModel,
    fit,
    ppca_closed_form,
    preset_truth,
    run_benchmark,
    run_landscape,
    train_test_nrmse,
    train_test_split,
    weighted_pca,
    worker_count,
)
from heppcat import _blas, _pool, benchmark
from heppcat._pool import _map_tasks
from heppcat.benchmark import FIG6_BLOCK_SIZES, _split_into_blocks

from conftest import worker_pids


@pytest.fixture(autouse=True)
def serial(monkeypatch):
    monkeypatch.setenv("HEPPCAT_THREADS", "1")


def test_preset_truth_is_trial_keyed():
    t0 = preset_truth(2.0, seed=0, trial=0)
    t1 = preset_truth(2.0, seed=0, trial=1)
    assert t0.d == 100 and t0.k == 3 and t0.group_sizes == (200, 800)
    assert np.array_equal(t0.v, [1.0, 4.0])
    assert not np.allclose(t0.U, t1.U)
    assert np.array_equal(t0.U, preset_truth(2.0, seed=0, trial=0).U)


def test_preset_truth_blocked_profile():
    t = preset_truth(3.0, seed=0, blocked=True)
    assert t.feature_blocks == [None, [(20, 4.0), (80, 9.0)]]


def test_benchmark_rows_sorted_and_complete():
    rows = run_benchmark("fig3", trials=2, sigma_grid=(2.0, 0.5), methods=("ppca-full",), seed=0)
    keys = [(r["trial"], r["sigma2"], r["method"]) for r in rows]
    assert keys == sorted(keys)
    assert {r["sigma2"] for r in rows} == {0.5, 2.0}
    assert {r["metric"] for r in rows} == {"factor_error", "recovery1", "recovery2", "recovery3"}
    assert all(np.isfinite(r["value"]) for r in rows)


def test_benchmark_is_deterministic():
    a = run_benchmark("fig4", trials=1, sigma_grid=(1.0,), methods=("wpca-inv",), seed=3)
    b = run_benchmark("fig4", trials=1, sigma_grid=(1.0,), methods=("wpca-inv",), seed=3)
    assert a == b


def _fig3_metrics(U, F, truth) -> dict:
    out = {} if F is None else {"factor_error": factor_error(F, truth.F)}
    out.update((f"recovery{j + 1}", float(r)) for j, r in enumerate(component_recovery(U, truth.U)))
    return out


@pytest.fixture
def no_compression(monkeypatch):
    def refuse(data):
        raise AssertionError("compressed a dataset")

    monkeypatch.setattr(benchmark, "compress_gram", refuse)


def test_benchmark_common_random_numbers(no_compression):
    # the same trial index reuses the same planted model and noise draw
    # across methods, so paired comparisons are variance-reduced; the
    # baselines see the raw data, and a sweep without a heppcat fit
    # compresses nothing
    methods = ("ppca-full", "ppca-group1", "ppca-group2", "wpca-inv")
    rows = run_benchmark("fig3", trials=1, sigma_grid=(1.0,), methods=methods, seed=0)
    truth = preset_truth(1.0, 0, 0)
    data = generate(truth, 0, 0)
    with _blas.pinned(1):
        models = {
            "ppca-full": ppca_closed_form(data, 3),
            "ppca-group1": ppca_closed_form(GroupedData([data.blocks[0]]), 3),
            "ppca-group2": ppca_closed_form(GroupedData([data.blocks[1]]), 3),
        }
        want = {m: _fig3_metrics(model.U, model.F, truth) for m, model in models.items()}
        want["wpca-inv"] = _fig3_metrics(weighted_pca(data, 1.0 / truth.v, 3), None, truth)
    for method in methods:
        assert {r["metric"]: r["value"] for r in rows if r["method"] == method} == want[method]


@pytest.mark.parametrize("sigma2", [0.5, 2.0])
def test_heppcat_rows_match_raw_data_fits(sigma2, monkeypatch, caplog):
    # the harness fits Gram roots from one shared spectral start: each
    # heppcat row matches a default-start fit of the raw data to
    # rounding, after as many iterations, and the start itself, the
    # ppca-full row, is the raw data's closed form exactly
    iterations, real = [], benchmark._fit_lanes

    def counted(data, cfgs):
        results = real(data, cfgs)
        iterations.extend(res.iterations for res in results)
        return results

    monkeypatch.setattr(benchmark, "_fit_lanes", counted)
    methods = tuple(f"heppcat-{m}" for m in V_METHODS)
    with caplog.at_level(logging.WARNING, logger="heppcat"):
        rows = run_benchmark("fig3", trials=1, sigma_grid=(sigma2,), methods=methods + ("ppca-full",), seed=0)
    assert not [r for r in caplog.records if r.name == "heppcat"]
    truth = preset_truth(sigma2, 0, 0)
    data = generate(truth, 0, 0)
    with _blas.pinned(1):
        spectral = ppca_closed_form(data, 3)
        got = {r["metric"]: r["value"] for r in rows if r["method"] == "ppca-full"}
        assert got == _fig3_metrics(spectral.U, spectral.F, truth)
        for method, v_method, its in zip(methods, V_METHODS, iterations, strict=True):
            raw = fit(data, FitConfig(rank=3, v_method=v_method, **benchmark._FIT_KW))
            assert raw.iterations == its, method
            got = {r["metric"]: r["value"] for r in rows if r["method"] == method}
            assert got == pytest.approx(_fig3_metrics(raw.model.U, raw.model.F, truth), rel=1e-9), method


@pytest.mark.parametrize(
    "preset, sigma_grid, methods",
    [
        ("fig3", (0.5,), tuple(f"heppcat-{m}" for m in V_METHODS)),
        ("fig6-blocks", None, ("heppcat", "heppcat-doc", "heppcat-cubic", "heppcat-quad")),
    ],
)
def test_heppcat_rows_do_not_depend_on_the_method_set(preset, sigma_grid, methods):
    # a task fits its methods as lanes of one fit; each method's rows are
    # those of a sweep of that method alone
    rows = run_benchmark(preset, trials=1, sigma_grid=sigma_grid, methods=methods, seed=0)
    for method in methods:
        alone = run_benchmark(preset, trials=1, sigma_grid=sigma_grid, methods=(method,), seed=0)
        assert [r for r in rows if r["method"] == method] == alone, method


def test_capped_harness_fits_are_logged(monkeypatch, caplog):
    monkeypatch.setattr(benchmark, "_FIT_KW", dict(benchmark._FIT_KW, max_iters=3))
    with caplog.at_level(logging.WARNING, logger="heppcat"):
        rows = run_benchmark("fig3", trials=1, sigma_grid=(2.0,), methods=("heppcat-doc", "ppca-full"), seed=0)
    warnings = [r.getMessage() for r in caplog.records if r.name == "heppcat"]
    assert warnings == ["heppcat-doc fit on L=2 groups stopped at max_iters without converging (3 iterations)"]
    # the capped fit is still scored
    assert {r["method"] for r in rows} == {"heppcat-doc", "ppca-full"}


def test_capped_lanes_are_logged_in_method_order(monkeypatch, caplog):
    # the task's heppcat methods are fitted as lanes of one fit; each
    # capped lane logs its own warning, in the order of the methods
    monkeypatch.setattr(benchmark, "_FIT_KW", dict(benchmark._FIT_KW, max_iters=3))
    methods = ("heppcat-rootfind", "ppca-full", "heppcat-em", "heppcat-doc")
    with caplog.at_level(logging.WARNING, logger="heppcat"):
        run_benchmark("fig3", trials=1, sigma_grid=(2.0,), methods=methods, seed=0)
    warnings = [r.getMessage() for r in caplog.records if r.name == "heppcat"]
    assert warnings == [
        f"{m} fit on L=2 groups stopped at max_iters without converging (3 iterations)"
        for m in ("heppcat-rootfind", "heppcat-em", "heppcat-doc")
    ]


def test_benchmark_validation():
    with pytest.raises(ValueError, match="preset"):
        run_benchmark("fig1", trials=1)
    with pytest.raises(ValueError, match="trials"):
        run_benchmark("fig3", trials=0)
    with pytest.raises(ValueError, match="unknown method"):
        run_benchmark("fig3", trials=1, methods=("pca",))
    with pytest.raises(ValueError, match="heppcat"):
        run_benchmark("fig6-blocks", trials=1, methods=("ppca-full",))
    with pytest.raises(ValueError, match="variances"):
        run_benchmark("fig5", trials=1, methods=("wpca-inv",))


@pytest.mark.parametrize(
    "fn, kwargs, match",
    [
        (run_benchmark, dict(preset="fig3", trials=1, sigma_grid=()), "sigma_grid needs finite positive noise levels"),
        (run_benchmark, dict(preset="fig3", trials=1, methods=()), "methods is empty"),
        (run_benchmark, dict(preset="fig3", trials=1, sigma_grid=(1.0, -1.0)), "sigma_grid needs finite positive"),
        (run_benchmark, dict(preset="fig3", trials=1, sigma_grid=(float("nan"),)), "sigma_grid"),
        (run_benchmark, dict(preset="fig5", trials=1, methods=("ppca-group1",)), "variances of all groups"),
        (run_landscape, dict(sigma2_squared_grid=()), "sigma2_squared_grid needs finite positive"),
        (run_landscape, dict(sigma2_squared_grid=(0.0,)), "sigma2_squared_grid needs finite positive"),
        (run_landscape, dict(sigma2_squared_grid=(-1.0,)), "sigma2_squared_grid"),
        (run_landscape, dict(n_random=-3), "n_random"),
        (train_test_nrmse, dict(trials=0), "trials"),
        (train_test_nrmse, dict(sigma2=0.0), "sigma2 needs finite positive"),
        (train_test_nrmse, dict(sigma2=float("inf")), "sigma2"),
        (run_landscape, dict(methods=()), "methods must be a nonempty list"),
        (run_landscape, dict(methods=("em", "newton")), "methods must be a nonempty list"),
        (run_benchmark, dict(preset="fig3", trials=1, sigma_grid=(1.0, 1)), "sigma_grid repeats"),
        (run_benchmark, dict(preset="fig3", trials=1, methods=("ppca-full",) * 2), "methods repeats"),
        (run_landscape, dict(sigma2_squared_grid=(1.0, 1.0)), "sigma2_squared_grid repeats"),
        (run_landscape, dict(methods=("em", "doc", "em")), "methods repeats"),
        (run_landscape, dict(max_iters=0), "max_iters"),
        (train_test_nrmse, dict(fraction=1.5), "fraction must be in"),
        (train_test_nrmse, dict(fraction=0.001), "empty side at fraction 0.001"),
        (train_test_nrmse, dict(fraction=0.999), "empty side at fraction 0.999"),
        (train_test_nrmse, dict(rank=0), "rank"),
        (train_test_nrmse, dict(rank=100), "rank"),
        (run_landscape, dict(n_random=0.5), "n_random must be a whole number"),
        (run_landscape, dict(max_iters=1.5), "max_iters must be a whole number"),
        (train_test_nrmse, dict(trials=1.5), "trials must be a whole number"),
        (run_benchmark, dict(preset="fig3", trials=1.5), "trials must be a whole number"),
        (run_benchmark, dict(preset="fig5", trials=1, seed=0.5), "seed must be a whole number"),
        (run_landscape, dict(n_random=0, seed=1.5), "seed must be a whole number"),
        (train_test_nrmse, dict(trials=1, seed=-0.5), "seed must be a whole number"),
    ],
)
def test_experiment_inputs_rejected_at_entry(fn, kwargs, match, monkeypatch):
    # at entry means before the first dataset is drawn
    def no_draw(*args):
        raise AssertionError("drew a dataset")

    monkeypatch.setattr("heppcat.benchmark.generate", no_draw)
    with pytest.raises(ValueError, match=match):
        fn(**kwargs)


def test_split_into_blocks():
    data = GroupedData([np.arange(8.0).reshape(2, 4), np.ones((2, 2))])
    out = _split_into_blocks(data, 2)
    assert out.L == 3
    assert out.group_sizes == (2, 2, 2)
    assert np.array_equal(out.blocks[0], [[0.0, 1.0], [4.0, 5.0]])
    with pytest.raises(ValueError, match="divide"):
        _split_into_blocks(data, 3)


@pytest.mark.parametrize(
    "study, kwargs",
    [
        (run_benchmark, dict(preset="fig3", trials=2, sigma_grid=(0.5,), methods=("heppcat-em", "ppca-full"))),
        (run_landscape, dict(sigma2_squared_grid=(1.0, 2.0), n_random=1, max_iters=30)),
        (train_test_nrmse, dict(trials=2)),
    ],
    ids=["run_benchmark", "run_landscape", "train_test_nrmse"],
)
def test_benchmark_rows_do_not_depend_on_pool_size(study, kwargs, monkeypatch):
    # BLAS thread counts change rounding, so this holds only when the
    # serial path and the pool workers run on the same count
    serial = study(seed=0, **kwargs)
    monkeypatch.setenv("HEPPCAT_THREADS", "2")
    assert study(seed=0, **kwargs) == serial
    if study is train_test_nrmse:
        keys = [(r["trial"], r["sigma2"], r["method"]) for r in serial]
        assert keys == sorted(keys)


def _blas_thread_counts(_):
    return _blas.thread_counts()


def test_tasks_run_on_one_blas_thread(monkeypatch):
    with _blas.pinned(2):
        before = _blas.thread_counts()
        if not before:
            pytest.skip("no OpenBLAS loaded")
        assert set(before) == {2}
        one = [(1,) * len(before)] * 2
        assert _map_tasks(_blas_thread_counts, [0, 1]) == one
        # the serial path restores the process's own counts
        assert _blas.thread_counts() == before
        monkeypatch.setenv("HEPPCAT_THREADS", "2")
        assert _map_tasks(_blas_thread_counts, [0, 1]) == one
        assert _blas.thread_counts() == before


def _pid(_):
    return os.getpid()


def _exit_worker(_):
    os._exit(3)


def _fail(_):
    raise ValueError("task failed")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_pool_is_reused_across_calls(monkeypatch, no_pool):
    monkeypatch.setenv("HEPPCAT_THREADS", "2")
    first = set(_map_tasks(_pid, range(4)))
    workers = worker_pids()
    assert len(workers) == 2 and os.getpid() not in workers
    assert first <= workers
    assert set(_map_tasks(_pid, range(4))) <= workers
    assert worker_pids() == workers


def test_pool_is_replaced_when_its_size_changes(monkeypatch, no_pool):
    monkeypatch.setenv("HEPPCAT_THREADS", "2")
    _map_tasks(_pid, range(2))
    two = worker_pids()
    monkeypatch.setenv("HEPPCAT_THREADS", "3")
    assert set(_map_tasks(_pid, range(3))) <= worker_pids()
    three = worker_pids()
    assert len(three) == 3 and not three & two
    assert not any(_alive(pid) for pid in two)
    # fewer tasks than workers: the pool is big enough, so it stays
    _map_tasks(_pid, range(2))
    assert worker_pids() == three
    monkeypatch.setenv("HEPPCAT_THREADS", "2")
    _map_tasks(_pid, range(2))
    assert len(worker_pids()) == 2
    assert not any(_alive(pid) for pid in three)


def test_pool_is_dropped_after_a_failed_call(monkeypatch, no_pool):
    monkeypatch.setenv("HEPPCAT_THREADS", "2")
    for task, error in ((_exit_worker, BrokenProcessPool), (_fail, ValueError)):
        _map_tasks(_pid, range(2))
        workers = worker_pids()
        with pytest.raises(error):
            _map_tasks(task, range(2))
        assert _pool._pool is None
        assert not any(_alive(pid) for pid in workers)
        # the next call runs on a fresh pool
        assert set(_map_tasks(_pid, range(2))) <= worker_pids()
        assert not worker_pids() & workers


def test_threads_share_one_pool(monkeypatch, no_pool):
    # more callers than cores, switching often: a lost update of the
    # cache would leave some call on a pool other than the cached one
    monkeypatch.setenv("HEPPCAT_THREADS", "2")
    results = []

    def study():
        results.append(_map_tasks(_pid, range(4)))

    threads = [threading.Thread(target=study) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 4
    assert set().union(*results) <= worker_pids()


def test_serial_calls_start_no_pool(monkeypatch, no_pool):
    monkeypatch.setenv("HEPPCAT_THREADS", "2")
    assert _map_tasks(_pid, [0]) == [os.getpid()]
    monkeypatch.setenv("HEPPCAT_THREADS", "1")
    assert _map_tasks(_pid, range(2)) == [os.getpid()] * 2
    assert _pool._pool is None


def test_pools_do_not_nest():
    # a worker that forked a pool of its own would put 2 x 2 processes on
    # 2 cores, or hang; the subprocess bounds the wait
    src = str(Path(benchmark.__file__).parents[1])
    code = (
        "import os\n"
        "from heppcat import _pool\n"
        "def pid(_): return os.getpid()\n"
        "def inner(_): return os.getpid(), _pool._map_tasks(pid, range(3))\n"
        "for outer, pids in _pool._map_tasks(inner, range(4)):\n"
        "    assert pids == [outer] * 3, (outer, pids)\n"
        "print(len(_pool._pool[2]._processes))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src, "HEPPCAT_THREADS": "2"},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == ["2"]


def test_workers_exit_with_their_process():
    src = str(Path(benchmark.__file__).parents[1])
    code = (
        "from heppcat import _pool, benchmark\n"
        "benchmark.run_benchmark('fig3', trials=2, sigma_grid=(0.5,), methods=('ppca-full',))\n"
        "print(*_pool._pool[2]._processes)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src, "HEPPCAT_THREADS": "2"},
        capture_output=True, text=True, check=True, timeout=60,
    )
    pids = [int(pid) for pid in out.stdout.split()]
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


def test_pooled_process_exits_with_clean_stderr():
    # a hypothesis run keeps heppcat's modules alive into interpreter
    # teardown, as a pytest session does; a pool still cached then was
    # collected after concurrent.futures had lost its globals, which
    # printed an ignored AttributeError at exit
    src = str(Path(benchmark.__file__).parents[1])
    code = (
        "from hypothesis import given, strategies as st\n"
        "from heppcat import benchmark\n"
        "given(st.integers())(lambda x: None)()\n"
        "benchmark.run_benchmark('fig3', trials=2, sigma_grid=(0.5,), methods=('ppca-full',))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src, "HEPPCAT_THREADS": "2"},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stderr == ""


def test_pinned_finds_libraries_once(monkeypatch):
    with _blas.pinned(1):
        pass
    before = _blas.thread_counts()
    if not before:
        pytest.skip("no OpenBLAS loaded")
    real_open = open

    def no_maps(path, *args, **kwargs):
        if str(path) == "/proc/self/maps":
            raise OSError("unreadable")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", no_maps)
    with _blas.pinned(2):
        inside = _blas.thread_counts()
    after = _blas.thread_counts()
    monkeypatch.undo()
    assert inside == (2,) * len(before)
    assert after == before


def test_fig6_metric_names_and_clustering(no_compression):
    # blocks of at most d columns are fitted as they are
    rows = run_benchmark("fig6-blocks", trials=1, sigma_grid=(2.0,), seed=0)
    metrics = {r["metric"] for r in rows}
    for block in FIG6_BLOCK_SIZES:
        assert f"v_hat_block{block}_true1" in metrics
        assert f"v_hat_block{block}_true4" in metrics
    # one estimate per regrouped block
    n_rows = sum(1 for r in rows if r["metric"].startswith("v_hat_block1_"))
    assert n_rows == 1000
    # estimates cluster around the planted variances at every block size
    by_metric: dict = {}
    for r in rows:
        by_metric.setdefault(r["metric"], []).append(r["value"])
    for block in FIG6_BLOCK_SIZES:
        assert abs(np.median(by_metric[f"v_hat_block{block}_true1"]) - 1.0) < 0.25
        assert abs(np.median(by_metric[f"v_hat_block{block}_true4"]) - 4.0) < 1.0


def test_fig6_harness_fits_converge(monkeypatch, caplog):
    # one-sample groups (L=1000) included; in-process, so that the
    # capped-fit warnings reach caplog
    monkeypatch.setenv("HEPPCAT_THREADS", "1")
    with caplog.at_level(logging.WARNING, logger="heppcat"):
        run_benchmark("fig6-blocks", trials=5, seed=0)
    assert not [r.getMessage() for r in caplog.records if r.name == "heppcat"]


def test_landscape_rows_and_oracle_start():
    rows = run_landscape(sigma2_squared_grid=(1.0,), n_random=2, seed=0, max_iters=80)
    assert {r["init"] for r in rows} == {"ppca", "oracle", "random"}
    # oracle initialization starts at least as high as every random start
    start = {(r["init"], r["run"]): r["loglik"] for r in rows if r["iteration"] == 0}
    truth = preset_truth(1.0, seed=0, trial=0)
    data = generate(truth, 0, 0)
    assert start[("oracle", 0)] == pytest.approx(
        log_likelihood_direct(data, FactorModel(truth.F, truth.v))
    )
    for run in range(2):
        assert start[("oracle", 0)] >= start[("random", run)]
    # gaps measure distance to the best converged final likelihood
    final = {}
    for r in rows:
        key = (r["init"], r["run"])
        if key not in final or r["iteration"] > final[key]["iteration"]:
            final[key] = r
    best = max(r["loglik"] for r in final.values() if r["converged"])
    for r in rows:
        assert r["gap"] == pytest.approx(best - r["loglik"], abs=1e-9)


def test_landscape_runs_methods_in_order():
    kw = dict(sigma2_squared_grid=(1.0, 2.0), n_random=1, seed=0, max_iters=30)
    both = run_landscape(methods=("doc", "em"), **kw)
    assert both == run_landscape(methods=("doc",), **kw) + run_landscape(methods=("em",), **kw)


def test_train_test_split_partitions():
    data = GroupedData([np.arange(24.0).reshape(2, 12), np.arange(10.0).reshape(2, 5)])
    train, test = train_test_split(data, 0.5, seed=0)
    assert train.group_sizes == (6, 2) or train.group_sizes == (6, 3)
    for l in range(2):
        merged = np.hstack([train.blocks[l], test.blocks[l]])
        orig = data.blocks[l]
        assert sorted(map(tuple, merged.T)) == sorted(map(tuple, orig.T))
    with pytest.raises(ValueError, match="fraction"):
        train_test_split(data, 1.5, seed=0)
    with pytest.raises(ValueError, match="empty"):
        train_test_split(GroupedData([np.ones((2, 2))]), 0.1, seed=0)


def test_train_test_split_rejects_gram_compressed_data(rng):
    # Gram roots have fewer columns than samples, and columns are not samples
    data = compress_gram(GroupedData([rng.standard_normal((5, 6)), rng.standard_normal((5, 40))]))
    assert data.widths.tolist() == [5, 5] and data.group_sizes == (6, 40)
    with pytest.raises(ValueError, match="Gram-compressed"):
        train_test_split(data, 0.5, seed=0)


def test_train_test_split_deterministic():
    data = GroupedData([np.random.default_rng(0).standard_normal((3, 10))])
    a, _ = train_test_split(data, 0.5, seed=4)
    b, _ = train_test_split(data, 0.5, seed=4)
    c, _ = train_test_split(data, 0.5, seed=5)
    assert np.array_equal(a.blocks[0], b.blocks[0])
    assert not np.array_equal(a.blocks[0], c.blocks[0])


def test_train_test_nrmse_rows():
    rows = train_test_nrmse(trials=2, seed=0)
    assert len(rows) == 2 * 2 * 2
    assert {r["method"] for r in rows} == {"heppcat", "ppca-full"}
    assert {r["metric"] for r in rows} == {"nrmse_train", "nrmse_test"}
    assert all(0.0 < r["value"] < 1.0 for r in rows)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("HEPPCAT_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("HEPPCAT_THREADS", "0")
    assert worker_count() == len(os.sched_getaffinity(0))
    monkeypatch.delenv("HEPPCAT_THREADS")
    assert worker_count() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("HEPPCAT_THREADS", "many")
    with pytest.raises(ValueError, match="integer"):
        worker_count()
    monkeypatch.setenv("HEPPCAT_THREADS", "-2")
    with pytest.raises(ValueError, match=">= 0"):
        worker_count()


def test_presets_constant():
    assert PRESETS == ("fig3", "fig4", "fig5", "fig6-blocks", "fig7")


def test_perfbench_boundaries_resolve():
    # the per-layer tracer wraps functions by (module, attribute); a name
    # a module stops importing would break `perfbench/run.py --trace 1`
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(mod, attr) for mod, attr, _, _ in spans.BOUNDARIES]
    names.append(("heppcat.benchmark", "_split_into_blocks"))
    for mod, attr in names:
        assert callable(getattr(importlib.import_module(mod), attr)), (mod, attr)
