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
import os

import numpy as np

from ._pool import _map_tasks, worker_count
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

# values per writer task and bytes per reader span: each bounds the
# floats and text held per task, and keeps each task's result to under a
# megabyte, so that the pool's results never pile up in the main process
_CHUNK_VALUES = 1 << 15
_SPAN_BYTES = 1 << 20
# a dataset file, or a dataset's float64 values, smaller than this many
# bytes is read or written in-process and starts no pool: below it,
# starting the pool costs about what the other cores save
_POOL_BYTES = 1 << 22


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
        # bounds the Python floats and strings held per task
        step = max(1, _CHUNK_VALUES // data.d)
        tasks = []
        for label, block in zip(labels, data.blocks):
            # the label as csv quotes it, then the delimiter
            buf = io.StringIO()
            csv.writer(buf).writerow([label, ""])
            prefix = buf.getvalue()[: -len(end)]
            tasks += [(prefix, end, block[:, a : a + step]) for a in range(0, block.shape[1], step)]
        n = worker_count() if data.Y.nbytes >= _POOL_BYTES else 1
        # a few tasks at a time, so the whole text is never held at once
        for i in range(0, len(tasks), 2 * n):
            batch = tasks[i : i + 2 * n]
            fh.writelines(_map_tasks(_format_rows, batch) if n > 1 else map(_format_rows, batch))


def _format_rows(task) -> str:
    """CSV lines of one task's samples, the columns of a block slice."""
    prefix, end, columns = task
    return "".join([prefix + ",".join(map(repr, x)) + end for x in columns.T.tolist()])


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
    parsed = _read_plain(path)
    blocks, labels = parsed if parsed is not None else _read_rows(path)
    return GroupedData(blocks), labels


def _read_plain(path):
    """Parse a file without quotes, one numpy parse per group and span.

    The file is cut into byte spans of about ``_SPAN_BYTES``, parsed in
    the worker pool if the file has ``_POOL_BYTES`` or more.  Returns
    None on anything but plain rows, so that ``_read_rows`` decides:
    numpy's parser accepts a subset of what ``float`` does and gives the
    same double for it.
    """
    try:
        with open(path) as fh:
            header = fh.readline()
    except ValueError:
        return None
    names = header.rstrip("\n").split(",")
    if '"' in header or len(names) < 2 or names[0] != "group":
        return None
    size = os.path.getsize(path)
    n = worker_count() if size >= _POOL_BYTES else 1
    # workers forked before a chdir would resolve a relative path elsewhere
    path = os.path.abspath(path)
    cuts = list(range(0, size, _SPAN_BYTES)) + [size]
    tasks = [(path, a, b, len(names) - 2) for a, b in zip(cuts, cuts[1:])]
    groups: dict = {}
    for i in range(0, len(tasks), 2 * n):
        batch = tasks[i : i + 2 * n]
        for span in _map_tasks(_read_span, batch) if n > 1 else map(_read_span, batch):
            if span is None:
                return None
            for label, rows in span:
                # copied by this thread: the pool's result thread made
                # ``rows``, and its memory then serves the next batch
                # instead of holding the whole file's values apart
                groups.setdefault(label, []).append(rows.copy())
    if not groups:
        return None
    return [np.concatenate(parts).T for parts in groups.values()], tuple(groups)


def _read_span(task):
    """``[(label, rows), ...]`` in first-appearance order for the plain
    lines that start in bytes [a, b) of the file, skipping the header;
    None if any such line is not plain or numpy rejects a value."""
    path, a, b, commas = task
    groups: dict = {}
    try:
        with open(path, "rb") as fh:
            if a:
                # the line holding byte a - 1 starts in an earlier span;
                # if it runs on to b, no line starts in this one
                fh.seek(a - 1)
                fh.readline(b - a + 1)
            blob = fh.read(b - fh.tell())
            if blob and not blob.endswith(b"\n"):
                blob += fh.readline()
        # the span ends at a b"\n", a line end in any ASCII-superset
        # encoding, so it decodes and splits as in open(path)
        lines = io.TextIOWrapper(io.BytesIO(blob))
        if a == 0:
            lines.readline()
        for line in lines:
            if line == "\n":
                continue
            label, sep, rest = line.partition(",")
            # numpy skips an empty line, where float("") fails
            if not sep or '"' in label or rest in ("", "\n") or rest.count(",") != commas:
                return None
            groups.setdefault(label, []).append(rest)
        return [
            (label, np.loadtxt(rows, delimiter=",", comments=None, ndmin=2))
            for label, rows in groups.items()
        ]
    except (OSError, ValueError):
        # the serial reader raises the error, or accepts what numpy does not
        return None


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
