"""Dataset CSV, result-row CSV and model JSON serialization.

The dataset layout is one row per sample: a leading ``group`` label
column followed by the d feature columns.  Group order is first
appearance.  Result rows (sweeps, studies, curves) are long-format CSV
under a header.  Floats in both are written with ``repr``, the shortest
decimal string that round-trips to the exact same double, so rewriting
a parsed file reproduces it byte for byte.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .model import FactorModel, GroupedData

__all__ = [
    "SCHEMA_VERSION",
    "write_dataset",
    "write_rows",
    "read_dataset",
    "write_json",
    "read_json",
    "model_record",
    "record_to_model",
]

SCHEMA_VERSION = 1

_CHUNK_VALUES = 1 << 16


def write_dataset(path, data: GroupedData, labels=None) -> None:
    """Write grouped samples as CSV with a header row."""
    if labels is None:
        labels = [f"g{l + 1}" for l in range(data.L)]
    if len(labels) != data.L:
        raise ValueError("need one group label per group")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["group"] + [f"f{j + 1}" for j in range(data.d)])
        end = w.dialect.lineterminator
        # bounds the Python floats and strings held per write
        step = max(1, _CHUNK_VALUES // data.d)
        for label, block in zip(labels, data.blocks):
            # the label as csv quotes it, then the delimiter
            buf = io.StringIO()
            csv.writer(buf).writerow([label, ""])
            prefix = buf.getvalue()[: -len(end)]
            for a in range(0, block.shape[1], step):
                samples = block[:, a : a + step].T.tolist()
                fh.write("".join([prefix + ",".join(map(repr, x)) + end for x in samples]))


def write_rows(path, fieldnames, rows) -> None:
    """Write dict rows as CSV under a header; floats are written with ``repr``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fieldnames)
        for r in rows:
            w.writerow(
                [repr(float(r[f])) if isinstance(r[f], float) else r[f] for f in fieldnames]
            )


def read_dataset(path):
    """Read a dataset CSV; returns ``(GroupedData, labels)``.

    The dialect is the csv module's default (``excel``): comma
    delimiters, ``"`` quoting, LF, CRLF or CR line ends; blank lines are
    skipped.  The first row is the header ``group,f1,...,fd``; every
    other row is a group label and d finite values, each in any form
    ``float`` accepts.  Groups are numbered by first appearance of their
    label.  Malformed rows raise ValueError naming the 1-based file line.
    """
    try:
        parsed = _read_plain(path)
    except ValueError:
        parsed = None
    blocks, labels = parsed if parsed is not None else _read_rows(path)
    return GroupedData(blocks), labels


def _read_plain(path):
    """Parse a file without quotes, one numpy parse per group.

    Returns None (or lets numpy raise ValueError) on anything else, so
    that ``_read_rows`` decides: numpy's parser accepts a subset of what
    ``float`` does and gives the same double for it.
    """
    groups: dict = {}
    with open(path) as fh:
        header = fh.readline()
        names = header.rstrip("\n").split(",")
        if '"' in header or len(names) < 2 or names[0] != "group":
            return None
        commas = len(names) - 2
        for line in fh:
            if line == "\n":
                continue
            label, sep, rest = line.partition(",")
            # numpy skips an empty line, where float("") fails
            if not sep or '"' in label or rest in ("", "\n") or rest.count(",") != commas:
                return None
            groups.setdefault(label, []).append(rest)
    if not groups:
        return None
    blocks = [np.loadtxt(rows, delimiter=",", comments=None, ndmin=2).T for rows in groups.values()]
    return blocks, tuple(groups)


def _read_rows(path):
    """csv.reader and ``float`` per value: any input, errors name the line."""
    columns: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 2 or header[0] != "group":
            raise ValueError(f"{path}: line 1: header must be 'group' plus feature columns")
        d = len(header) - 1
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise ValueError(f"{path}: line {line}: expected {d + 1} fields, got {len(row)}")
            try:
                sample = [float(x) for x in row[1:]]
            except ValueError:
                raise ValueError(f"{path}: line {line}: non-numeric feature value") from None
            columns.setdefault(row[0], []).append(sample)
    if not columns:
        raise ValueError(f"{path}: no data rows")
    labels = tuple(columns)
    return [np.array(columns[label], dtype=float).T for label in labels], labels


def write_json(path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def model_record(model: FactorModel, loglik: float, config_echo: dict, seed, trace=None) -> dict:
    """Assemble the model JSON document.

    ``trace`` adds the per-iteration history; its wall times stay out,
    so reruns write identical bytes.
    """
    rec = {
        "schema_version": SCHEMA_VERSION,
        "d": model.d,
        "k": model.k,
        "L": model.L,
        "F": model.F.tolist(),
        "v": model.v.tolist(),
        "loglik": float(loglik),
        "config_echo": config_echo,
        "seed": seed,
    }
    if trace is not None:
        rec["trace"] = {
            "loglik": trace.loglik.tolist(),
            "f_change": trace.f_change.tolist(),
        }
        if trace.v is not None:
            rec["trace"]["v"] = trace.v.tolist()
    return rec


def record_to_model(rec: dict) -> FactorModel:
    """Rebuild the estimated model from a parsed JSON document."""
    F = np.array(rec["F"], dtype=float)
    v = np.array(rec["v"], dtype=float)
    if F.shape != (rec["d"], rec["k"]) or v.shape != (rec["L"],):
        raise ValueError("model record arrays do not match the declared shapes")
    return FactorModel(F, v)
