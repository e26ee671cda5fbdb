"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload it makes one untraced and one traced run and checks
that each prints exactly the metrics BENCHMARK.json names, with their
units, and no failure.  It then corrupts one operation's output per
workload and checks that the run counts it as failed.  Exits 1 on the
first mismatch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import numpy as np

import run

TINY = run.Sizes(
    sweep_methods=("heppcat-em", "ppca-full"),
    group_fits=(("fit.L100.em", 10, "em", 2), ("fit.L1000.em", 1, "em", 1)),
    csv_group_sizes="20,80",
)


def _nan_row(rows):
    return [dict(rows[0], value=float("nan"))] + rows[1:]


def _ascent_violation(result):
    ll = result.trace.loglik.copy()
    ll[-1] -= 1.0
    return dataclasses.replace(result, trace=dataclasses.replace(result.trace, loglik=ll))


def _exit_code(out):
    return dict(out, code=3)


CORRUPT = {"paper-sweep": _nan_row, "many-groups": _ascent_violation, "csv-roundtrip": _exit_code}


def printed(result: dict) -> dict:
    """The JSON object the command would print as its last line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(result)
    return json.loads(buf.getvalue().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for name, cls in run.WORKLOADS.items():
        for trace in (False, True):
            out = printed(run.run(cls(0, TINY), 0, trace, setup_repeats=1))
            units = {k: m["unit"] for k, m in out["metrics"].items()}
            if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{name} trace={trace}: keys {sorted(out)}")
            if units != declared[trace]:
                failures.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json")
            if not all(np.isfinite(m["value"]) for m in out["metrics"].values()):
                failures.append(f"{name} trace={trace}: non-finite metric")
            if not out["correct"] or out["failed"]:
                failures.append(f"{name} trace={trace}: {out['failed']} failed operations")

        workload = cls(0, TINY)
        describe = workload.describe
        hits = []

        def corrupt_first(label, raw, describe=describe, bad=CORRUPT[name], hits=hits):
            out = describe(label, raw)
            if hits:
                return out
            hits.append(label)
            return bad(out)

        workload.describe = corrupt_first
        out = printed(run.run(workload, 0, False, setup_repeats=1))
        if out["correct"] or out["failed"] < 1:
            failures.append(f"{name}: corrupted {hits} counted {out['failed']} failed")

    for f in failures:
        print(f"FAIL {f}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
