"""Outside-in span tracer for the wsabsorb benchmark.

Nothing under ``src/`` is edited.  Each traced function is replaced, for the
duration of a ``with Tracer():`` block, in every ``wsabsorb`` namespace where
it is looked up: the module that defines it (so intra-module calls are seen)
and every module that imported it by name.  Submodules are taken from
``sys.modules`` because the package ``__init__`` re-exports the function
``amplitudes``, which shadows the submodule attribute ``wsabsorb.amplitudes``.

Spans (name, start, end, parent) are kept in parallel in-memory lists and
written out once, at the end.  Self time is a span's duration minus the
durations of its direct children; the program is single-threaded, so spans
nest strictly.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

# (span name, defining module, attribute).  Several attributes may share a
# span name; their calls and self times then add up under that name.
TRACED = (
    ("units.validate", "wsabsorb.units", "validate"),
    ("specfun.log_gamma", "wsabsorb.specfun", "log_gamma"),
    ("specfun.hyp2f1", "wsabsorb.specfun", "hyp2f1"),
    ("amplitudes.channel_params", "wsabsorb.amplitudes", "channel_params"),
    ("amplitudes.g_factors", "wsabsorb.amplitudes", "g_factors"),
    ("amplitudes.amplitudes", "wsabsorb.amplitudes", "amplitudes"),
    ("amplitudes.hermitian_amplitudes", "wsabsorb.amplitudes", "hermitian_amplitudes"),
    ("spectral.scan_ranges", "wsabsorb.spectral", "scan_ranges"),
    ("spectral.bisect", "wsabsorb.spectral", "_bisect_crossing"),
    ("spectral.enumerators", "wsabsorb.spectral", "cc_left_energies"),
    ("spectral.enumerators", "wsabsorb.spectral", "cc_right_energies"),
    ("spectral.enumerators", "wsabsorb.spectral", "ss_energies"),
    ("spectral.enumerators", "wsabsorb.spectral", "cpa_energies_forward"),
    ("spectral.enumerators", "wsabsorb.spectral", "cpa_energies_time_reversed"),
    ("spectral.enumerators", "wsabsorb.spectral", "rprime_left_zeros"),
    # the window enumerators that cli's flag annotation and scan_ranges use
    ("spectral.enumerators", "wsabsorb.spectral", "_ss_in_window"),
    ("spectral.enumerators", "wsabsorb.spectral", "_interior_points"),
    ("oracle.integrate_contour", "wsabsorb.oracle", "integrate_contour"),
    # every contour integration, including the Hermitian real-axis ones that
    # bypass integrate_contour
    ("oracle.integrate_core", "wsabsorb.oracle", "_integrate_core"),
    ("oracle.oracle_g_factors", "wsabsorb.oracle", "oracle_g_factors"),
    ("oracle.oracle_amplitudes", "wsabsorb.oracle", "oracle_amplitudes"),
    ("oracle.hermitian_oracle_amplitudes", "wsabsorb.oracle", "hermitian_oracle_amplitudes"),
    ("cli.main", "wsabsorb.cli", "main"),
)

_AMPLITUDE_FIELDS = ("rl", "rr", "tl", "tr", "Rl", "Rr", "T", "det_s")


class Tracer:
    """Records spans around the TRACED functions while active."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self._open[name] += 1
        self.starts.append(time.perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()
        self._open[self.names[index]] -= 1

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.index = tracer._begin(name)

            def __exit__(self, *exc):
                tracer._end(self.index)
                return False

        return _Span()

    # -- return-value counters -----------------------------------------------

    def _on_return(self, name: str, result) -> None:
        if name == "amplitudes.amplitudes":
            if any(getattr(result, f).order != 0 for f in _AMPLITUDE_FIELDS):
                self.counts["amplitudes.singular"] += 1
            if self._open["spectral.scan_ranges"]:
                self.counts["spectral.evals"] += 1
            if self._open["spectral.bisect"]:
                self.counts["spectral.bisect_evals"] += 1
        elif name == "spectral.scan_ranges":
            self.counts["spectral.ranges_found"] += len(result)
        elif name == "oracle.integrate_core":
            # (launch state, end state, step count); the same count that
            # integrate_contour stores as ContourSolution.step_count
            self.counts["oracle.steps"] += int(result[2])

    def _wrap(self, name: str, fn):
        begin, end, on_return = self._begin, self._end, self._on_return

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            on_return(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == "wsabsorb" or key.startswith("wsabsorb."))]
        for name, home, attr in TRACED:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in namespaces:
                if vars(module).get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    # -- results -------------------------------------------------------------

    def totals(self):
        """{name: [calls, inclusive seconds, self seconds]} over all spans."""
        out: dict[str, list] = {}
        for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
            duration = end - start
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration
            if parent >= 0:  # a parent span always precedes its children
                out[self.names[parent]][2] -= duration
        return out

    def write(self, path: str) -> None:
        """Spans as gzip JSON: a name table and [name, start_us, dur_us, parent] rows."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [code[n], round((s - t0) * 1e6, 3), round((e - s) * 1e6, 3), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"names": table, "columns": ["name", "start_us", "dur_us", "parent"],
                       "spans": rows, "counts": dict(self.counts)}, handle,
                      separators=(",", ":"))
