"""End-to-end and per-layer benchmark of heppcat through its public API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload csv-roundtrip --seed 1 --seconds 50 --trace 0

Each run is a closed loop: one client issues the operations of a cycle
in turn, each starting when the previous one returned, and whole cycles
repeat until ``--seconds`` have passed.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced cycles
and prints the per-layer metrics.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every operation's output is checked; the command exits 1
when any operation raised or failed a check.  README.md describes the
workloads and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

try:
    import heppcat  # noqa: E402
    from heppcat import benchmark as bench  # noqa: E402
    from heppcat import cli, fitter, model, simgen  # noqa: E402
except ModuleNotFoundError:
    heppcat = None

from spans import Tracer  # noqa: E402

# the harness's stopping rule (benchmark._FIT_KW without its budget)
HARNESS_TOL = dict(tol=1e-8, loglik_tol=1e-10)
# gate 1's ascent slack and gate 9's compressed-vs-raw tolerance
ASCENT_SLACK = 1e-8
COMPRESS_RTOL = 1e-7
DIRECT_RTOL = 1e-9
# noise level of the fig6 preset, which many-groups regroups
FIG6_SIGMA = 2.0
SWEEP_SIGMA = 0.5
RANK = 3
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Sizes:
    sweep_methods: tuple = (
        "heppcat-em",
        "heppcat-quad",
        "heppcat-cubic",
        "heppcat-doc",
        "heppcat-rootfind",
        "ppca-full",
    )
    sweep_trials: int = 2
    # (op label, block size, v-update, iteration budget)
    group_fits: tuple = (
        ("fit.L100.em", 10, "em", 48),
        ("fit.L100.cubic", 10, "cubic", 20),
        ("fit.L1000.em", 1, "em", 4),
    )
    csv_group_sizes: str = "2000,8000"


FULL = Sizes()


@dataclass
class Op:
    label: str
    key: tuple  # identity of the inputs: ops with equal keys must agree exactly
    run: object


@dataclass
class Record:
    label: str
    key: tuple
    mode: str
    seconds: float
    output: object = None
    problems: list = field(default_factory=list)


@contextlib.contextmanager
def heppcat_threads(n: str):
    old = os.environ.get("HEPPCAT_THREADS")
    os.environ["HEPPCAT_THREADS"] = n
    try:
        yield
    finally:
        if old is None:
            del os.environ["HEPPCAT_THREADS"]
        else:
            os.environ["HEPPCAT_THREADS"] = old


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One cycle of operations on inputs made from ``seed``.

    ``describe`` turns an operation's return value into the output that
    is checked, outside the timed region; ``fingerprint`` reduces it to
    what must repeat exactly.
    """

    name = ""
    pooled = False

    def __init__(self, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes

    def describe(self, label: str, raw):
        return raw

    def fingerprint(self, output):
        return output

    def cross_check(self, records: list) -> None:
        """Checks that span operations; they append to ``Record.problems``."""


class PaperSweep(Workload):
    """The fig3 method comparison, pooled over nproc workers.

    Each operation sweeps fresh datasets (seed * 1000 + cycle) so that one
    run averages over several convergence lengths.
    """

    name = "paper-sweep"
    pooled = True

    def _sweep(self, index: int, methods) -> list:
        return bench.run_benchmark(
            "fig3",
            trials=self.sizes.sweep_trials,
            sigma_grid=(SWEEP_SIGMA,),
            methods=methods,
            seed=self.seed * 1000 + index,
        )

    def prepare(self) -> None:
        with heppcat_threads(str(nproc())):
            self._sweep(0, ("ppca-full",))

    def cycle(self, index: int, serial: bool) -> list:
        threads = "1" if serial else str(nproc())

        def run():
            with heppcat_threads(threads):
                return self._sweep(index, self.sizes.sweep_methods)

        return [Op("benchmark.run_benchmark", ("sweep", index), run)]

    def check(self, label: str, rows) -> list:
        expected = self.sizes.sweep_trials * len(self.sizes.sweep_methods)
        methods = {(r["trial"], r["method"]) for r in rows}
        problems = []
        if len(methods) != expected:
            problems.append(f"rows cover {len(methods)} (trial, method) pairs, expected {expected}")
        bad = [r for r in rows if not np.isfinite(r["value"])]
        if bad:
            problems.append(f"{len(bad)} non-finite rows, first {bad[0]}")
        return problems


class ManyGroups(Workload):
    """One fig6 dataset regrouped into L=100 and L=1000 groups."""

    name = "many-groups"

    def _fit(self, block: int, method: str, iters: int):
        cfg = fitter.FitConfig(rank=RANK, v_method=method, max_iters=iters, **HARNESS_TOL)
        return fitter.fit(self.groups[block], cfg)

    def prepare(self) -> None:
        truth = bench.preset_truth(FIG6_SIGMA, self.seed)
        data = simgen.generate(truth, self.seed)
        blocks = {block for _, block, _, _ in self.sizes.group_fits}
        self.groups = {b: bench._split_into_blocks(data, b) for b in blocks}
        for _, block, method, _ in self.sizes.group_fits:
            self._fit(block, method, 1)

    def cycle(self, index: int, serial: bool) -> list:
        return [
            Op(label, (label,), lambda b=block, m=method, i=iters: self._fit(b, m, i))
            for label, block, method, iters in self.sizes.group_fits
        ]

    def check(self, label: str, result) -> list:
        ll = result.trace.loglik
        if not np.all(np.isfinite(ll)):
            return ["non-finite log-likelihood trace"]
        drop = -(np.diff(ll) + ASCENT_SLACK * (1.0 + np.abs(ll[:-1])))
        if np.any(drop > 0):
            return [f"log-likelihood decreased by {drop.max():.3e} beyond the ascent slack"]
        return []

    def cross_check(self, records: list) -> None:
        blocks = {label: block for label, block, _, _ in self.sizes.group_fits}
        seen = set()
        for rec in records:
            if rec.output is None or rec.key in seen:
                continue
            seen.add(rec.key)
            res = rec.output
            direct = model.log_likelihood_direct(self.groups[blocks[rec.label]], res.model)
            final = res.trace.loglik[-1]
            if abs(final - direct) > DIRECT_RTOL * abs(direct):
                rec.problems.append(f"final loglik {final!r} differs from direct {direct!r}")

    def fingerprint(self, result):
        return (
            result.iterations,
            result.converged,
            result.trace.loglik.tobytes(),
            result.model.F.tobytes(),
            result.model.v.tobytes(),
        )


class CsvRoundtrip(Workload):
    """heppcat.cli.main: simulate a CSV, fit it, fit it compressed."""

    name = "csv-roundtrip"
    dir = OUT / "csv-roundtrip"
    csv_mb = 0.0

    def _argv(self, directory: Path, group_sizes: str) -> list:
        data = str(directory / "data.csv")
        fit = ["fit", "--data", data, "--rank", str(RANK)]
        return [
            ("cli.simulate", directory / "data.csv",
             ["simulate", "--group-sizes", group_sizes,
              "--seed", str(self.seed), "--out", str(directory)]),
            ("cli.fit", directory / "model.json",
             fit + ["--method", "em", "--out", str(directory / "model.json")]),
            ("cli.fit_compress", directory / "model_compressed.json",
             fit + ["--compress", "--out", str(directory / "model_compressed.json")]),
        ]

    @staticmethod
    def _main(argv: list) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def prepare(self) -> None:
        warm = OUT / "csv-warmup"
        warm.mkdir(parents=True, exist_ok=True)
        self.dir.mkdir(parents=True, exist_ok=True)
        for _, _, argv in self._argv(warm, "20,80"):
            self._main(argv)

    def cycle(self, index: int, serial: bool) -> list:
        return [
            Op(label, (label,), lambda a=argv, p=path: (self._main(a), p))
            for label, path, argv in self._argv(self.dir, self.sizes.csv_group_sizes)
        ]

    def describe(self, label: str, raw):
        code, path = raw
        out = {"code": code, "sha256": None, "loglik": None}
        if code == 0 and path.is_file():
            blob = path.read_bytes()
            out["sha256"] = hashlib.sha256(blob).hexdigest()
            if path.suffix == ".json":
                out["loglik"] = json.loads(blob)["loglik"]
            else:
                self.csv_mb = len(blob) / 1e6
        return out

    def check(self, label: str, out) -> list:
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        return [] if out["sha256"] else ["exit code 0 but no output file"]

    def cross_check(self, records: list) -> None:
        raw = next((r for r in records if r.label == "cli.fit" and r.output), None)
        comp = next((r for r in records if r.label == "cli.fit_compress" and r.output), None)
        if raw is None or comp is None or raw.output["loglik"] is None:
            return
        a, b = raw.output["loglik"], comp.output["loglik"]
        if b is None or abs(a - b) > COMPRESS_RTOL * (1.0 + abs(a)):
            comp.problems.append(f"compressed loglik {b!r} differs from raw {a!r}")


WORKLOADS = {w.name: w for w in (PaperSweep, ManyGroups, CsvRoundtrip)}


# ---------------------------------------------------------------------------
# running


def run_cycle(workload, index: int, serial: bool, mode: str, tracer=None) -> list:
    records = []
    for op in workload.cycle(index, serial):
        span = tracer.operation(op.label) if tracer else contextlib.nullcontext()
        error = None
        with span:
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception as err:  # an operation failing is a result, not a crash
                error = f"raised {type(err).__name__}: {err}"
            seconds = time.perf_counter() - t0
        rec = Record(op.label, op.key, mode, seconds)
        if error:
            rec.problems.append(error)
        else:
            rec.output = workload.describe(op.label, raw)
            rec.problems += workload.check(op.label, rec.output)
        records.append(rec)
    return records


def check_repeats(workload, records: list) -> None:
    """Operations on equal inputs must give identical outputs, whatever
    the pool size and whether or not they were traced."""
    first: dict = {}
    for rec in records:
        if rec.output is None:
            continue
        fp = workload.fingerprint(rec.output)
        if rec.key not in first:
            first[rec.key] = (rec.mode, fp)
        elif first[rec.key][1] != fp:
            rec.problems.append(f"{rec.mode} output differs from the {first[rec.key][0]} one")


def median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_heppcat() -> None:
    """A fresh interpreter importing heppcat, as every command starts."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", "import heppcat.cli"], env=env, check=True)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(workload, seconds: float, prepare_s: float, setup_repeats: int):
    timed, index = [], 0
    start = time.perf_counter()
    while index == 0 or time.perf_counter() - start < seconds:
        timed += run_cycle(workload, index, serial=False, mode="timed")
        index += 1
    records = list(timed)
    if workload.pooled:
        # serial reference outside the timed runs: pool-size invariance
        records += run_cycle(workload, 0, serial=True, mode="serial")
    lat = [r.seconds for r in timed]
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "peak_rss_mb": peak_rss_mb(),
    }
    # after reading peak RSS, which would otherwise count the import child
    metrics["setup_s"] = median_seconds(import_heppcat, setup_repeats) + prepare_s
    notes = {"op_samples": len(lat), "cycles": index}
    return records, metrics, notes


# (span name) -> per-layer metrics <name>.s and <name>.calls
LAYER_SPANS = (
    "vupdate.update_v.rootfind",
    "vupdate.update_v.em",
    "vupdate.update_v.quad",
    "vupdate.update_v.cubic",
    "vupdate.update_v.doc",
    "model.v_coefficients",
    "model.log_likelihood_parts",
    "fupdate.em_update_F",
    "fupdate.compress_gram",
    "fitter.fit",
    "baselines.ppca_closed_form",
    "simgen.generate",
    "metrics",
    "dataio.read_dataset",
    "dataio.write_dataset",
    "dataio.write_json",
    "cli.simulate",
    "cli.fit",
    "cli.fit_compress",
)

# metric name -> unit, in the order printed; BENCHMARK.json lists the same
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {}
for _name in LAYER_SPANS:
    PER_LAYER[f"{_name}.s"] = "s"
    PER_LAYER[f"{_name}.calls"] = "count"
PER_LAYER.update(
    {
        "fitter.fit.self_s": "s",
        "fitter.iterations": "count",
        "fitter.converged_ratio": "ratio",
        "dataio.read_dataset.mb_per_s": "MB/s",
        "dataio.write_dataset.mb_per_s": "MB/s",
        "benchmark.pool_speedup": "ratio",
        "trace.overhead_ratio": "ratio",
    }
)


def per_layer(workload, seconds: float, tracer: Tracer):
    """Alternate untraced and traced cycles on the first cycle's inputs.

    The traced cycles of paper-sweep run serially in-process so that
    every span is seen; pooled cycles give the pool speed-up.
    """
    modes = ([("pooled", False)] if workload.pooled else []) + [("serial", True), ("traced", True)]
    walls: dict = {m: [] for m, _ in modes}
    cycles, records = [], []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        for mode, serial in modes:
            if mode == "traced":
                first, counts = len(tracer.spans), tracer.counts.copy()
                with tracer.patched():
                    recs = run_cycle(workload, 0, serial, mode, tracer)
                cycles.append((tracer.summary(first), tracer.counts - counts))
            else:
                recs = run_cycle(workload, 0, serial, mode)
            walls[mode].append(sum(r.seconds for r in recs))
            records += recs

    calls = {(n, row[0]) for n, row in cycles[0][0].items()}
    for summary, counts in cycles[1:]:
        if {(n, row[0]) for n, row in summary.items()} != calls or counts != cycles[0][1]:
            records[-1].problems.append("traced call counts differ between cycles")

    def median_of(fn):
        return statistics.median(fn(s, c) for s, c in cycles)

    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.s"] = median_of(lambda s, c: s.get(name, [0, 0.0])[1])
        metrics[f"{name}.calls"] = cycles[0][0].get(name, [0])[0]
    fits = metrics["fitter.fit.calls"]
    metrics["fitter.fit.self_s"] = median_of(lambda s, c: s.get("fitter.fit", [0, 0.0, 0.0])[2])
    metrics["fitter.iterations"] = cycles[0][1]["fitter.iterations"]
    metrics["fitter.converged_ratio"] = cycles[0][1]["fitter.converged"] / fits if fits else 0.0
    csv_mb = getattr(workload, "csv_mb", 0.0)  # only csv-roundtrip reads or writes a CSV
    for layer in ("dataio.read_dataset", "dataio.write_dataset"):
        busy = metrics[f"{layer}.s"]
        metrics[f"{layer}.mb_per_s"] = csv_mb * metrics[f"{layer}.calls"] / busy if busy else 0.0
    serial = statistics.median(walls["serial"])
    metrics["benchmark.pool_speedup"] = (
        serial / statistics.median(walls["pooled"]) if workload.pooled else 0.0
    )
    metrics["trace.overhead_ratio"] = statistics.median(walls["traced"]) / serial
    return records, metrics, {"cycles": len(cycles)}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "HEPPCAT_THREADS": os.environ.get("HEPPCAT_THREADS"),
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def run(workload, seconds: float, trace: bool, setup_repeats: int = 5) -> dict:
    """One benchmark run; returns the full result record."""
    env = environment()
    OUT.mkdir(exist_ok=True)
    prepare_s = median_seconds(workload.prepare, setup_repeats)
    if trace:
        tracer = Tracer()
        records, metrics, notes = per_layer(workload, seconds, tracer)
        tracer.write(OUT / f"spans-{workload.name}-seed{workload.seed}.csv")
        units = PER_LAYER
    else:
        records, metrics, notes = end_to_end(workload, seconds, prepare_s, setup_repeats)
        units = END_TO_END
    check_repeats(workload, records)
    workload.cross_check(records)
    failed = [r for r in records if r.problems]
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "notes": notes,
        "problems": [f"{r.label} ({r.mode}): {p}" for r in failed for p in r.problems],
        "operations": [[r.label, r.mode, r.seconds] for r in records],
    }


def report(result: dict) -> None:
    print(f"environment {json.dumps(result['environment'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    n, bad = result["attempted"], result["failed"]
    print(f"{'error_ratio':34s} {bad / n:14.6g} ({bad} of {n} operations)")
    print(f"notes {json.dumps(result['notes'])}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if heppcat is None or Path(heppcat.__file__).parent != ROOT / "src" / "heppcat":
        print(f"error: no heppcat package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload](args.seed, FULL), args.seconds, bool(args.trace))
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
