"""In-memory spans recorded around the calls into heppcat's modules.

A :class:`Tracer` replaces a public function where its caller looks it
up (for example ``heppcat.fitter.em_update_F``) with a wrapper that
records one span per call and passes arguments, result and exceptions
through untouched.  Nothing under ``src/`` changes; the wrappers exist
only while :meth:`Tracer.patched` is active.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``op`` the operation it belongs to.
Self time is a span's duration minus the time its child spans cover;
calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from contextlib import contextmanager
from importlib import import_module


def _update_v_name(method, *args, **kwargs):
    return f"vupdate.update_v.{method}"


def _fit_counts(result):
    return {"fitter.iterations": result.iterations, "fitter.converged": int(result.converged)}


# (module, attribute, span name, counter hook): every place a workload
# reaches a layer.  Names follow the module that defines the function.
BOUNDARIES = (
    ("heppcat.fitter", "em_update_F", "fupdate.em_update_F", None),
    ("heppcat.fitter", "v_coefficients", "model.v_coefficients", None),
    ("heppcat.fitter", "update_v", _update_v_name, None),
    ("heppcat.fitter", "log_likelihood_parts", "model.log_likelihood_parts", None),
    ("heppcat.fitter", "fit", "fitter.fit", _fit_counts),
    ("heppcat.benchmark", "fit", "fitter.fit", _fit_counts),
    ("heppcat.cli", "fit", "fitter.fit", _fit_counts),
    ("heppcat.baselines", "ppca_closed_form", "baselines.ppca_closed_form", None),
    ("heppcat.benchmark", "ppca_closed_form", "baselines.ppca_closed_form", None),
    ("heppcat.benchmark", "generate", "simgen.generate", None),
    ("heppcat.cli", "generate", "simgen.generate", None),
    ("heppcat.benchmark", "factor_error", "metrics", None),
    ("heppcat.benchmark", "component_recovery", "metrics", None),
    ("heppcat.benchmark", "subspace_error", "metrics", None),
    ("heppcat.cli", "read_dataset", "dataio.read_dataset", None),
    ("heppcat.cli", "write_dataset", "dataio.write_dataset", None),
    ("heppcat.cli", "write_json", "dataio.write_json", None),
    ("heppcat.cli", "compress_gram", "fupdate.compress_gram", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._op = -1

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation."""
        self._op += 1
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            idx = self._enter(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if counts is not None:
                self.counts.update(counts(result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Wrap every boundary for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, name, counts in BOUNDARIES:
                module = import_module(mod_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counts))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self, first: int = 0) -> dict:
        """``{name: [calls, seconds, self_seconds]}`` over spans[first:]."""
        covered = [0.0] * (len(self.spans) - first)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                covered[parent - first] += end - start
        out: dict = {}
        for (name, start, end, _, _), child in zip(self.spans[first:], covered):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return out

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start_s", "end_s", "parent", "op"])
            for name, start, end, parent, op in self.spans:
                w.writerow([name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, op])
