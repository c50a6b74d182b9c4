"""Span tracing from outside the program, for the traced benchmark run.

:class:`SpanTracer` wraps the public entry points of each layer (the
class or module attribute the caller actually looks up) and records one
span per call: layer, start, end, nesting depth and thread.  Nothing
under ``src/`` changes; :meth:`SpanTracer.uninstall` restores every
attribute it replaced.

Self time.  Every thread keeps its own span stack, and a span's self
time is its duration minus the durations of the spans nested in it.
The simulated ranks run on threads, so self times are attributed to
the wall clock along one *critical thread*: the main thread, plus the
``spmd-rank-0`` thread of each multi-rank job, whose top-level spans
nest under whatever span the main thread had open when it launched the
job (the main thread only waits in ``run_spmd`` meanwhile).  Spans of
the other ranks are recorded and counted, but their time overlaps rank
0's and is left out of the wall-clock breakdown.  Layer self times on
the critical thread therefore never add up to more than the wall time
of the traced operations; the rest is reported as ``unattributed``.

Spans stay in memory (four doubles each) until :meth:`SpanTracer.dump`
writes them out at the end of the run.
"""

from __future__ import annotations

import threading
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

#: layer name -> [(owner, attribute names)].  The owner is a dotted path
#: below ``repro`` ("" is the ``repro`` facade itself); for a class the
#: wrapper replaces the class attribute its instances look up, for a
#: module the global its callers read at call time.
LAYER_ENTRY_POINTS: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {
    "mpi": [
        ("mpi.communicator.Comm", (
            "Send", "Recv", "Isend", "Irecv", "Sendrecv",
            "send", "recv", "isend", "irecv", "sendrecv", "probe",
            "rerequest", "barrier", "Barrier", "bcast", "reduce",
            "allreduce", "allreduce_buffer", "gather", "allgather",
            "scatter", "alltoall", "scan", "exscan", "reduce_scatter",
            "Bcast", "Allreduce", "Reduce", "Gather", "Allgather",
            "Allgatherv", "Scatter",
        )),
        ("mpi.request.RecvRequest", ("wait", "test")),
    ],
    "sparse.dot_csr_t": [("sparse.csr.CSRMatrix", ("dot_csr_t",))],
    "kernels.block": [("kernels.base.Kernel", ("block",))],
    "core.fit": [
        ("", ("fit_parallel",)),
        ("stream.incremental", ("fit_parallel",)),
    ],
    "core.select": [("core.parallel.*", ("select",))],
    "core.fetch_pair": [("core.parallel.*", ("fetch_pair",))],
    "core.update": [("core.parallel.*", ("iterate_once",))],
    "core.recon": [("core.parallel.*", ("reconstruct",))],
    "serve": [("", ("serve_fleet",))],
    "serve.registry": [
        ("serve.registry.ModelRegistry", ("publish", "hot_swap", "load")),
    ],
    "serve.persist": [("", ("save_model", "load_model"))],
    "stream.partial_fit": [("stream.incremental.IncrementalSVC", ("partial_fit",))],
}

LAYERS: Tuple[str, ...] = tuple(LAYER_ENTRY_POINTS)


class _ThreadState:
    """One thread's span stack, accumulators and span log."""

    __slots__ = ("thread_no", "critical", "stack", "parent", "self_s",
                 "calls", "spans")

    def __init__(self, thread_no: int, critical: bool) -> None:
        self.thread_no = thread_no
        self.critical = critical
        #: open spans as [start, child_seconds]
        self.stack: List[List[float]] = []
        #: the main thread's open frame a rank-0 thread nests under
        self.parent = None
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        #: flattened (layer, thread, depth, start, end) per span
        self.spans = array("d")


class SpanTracer:
    """Installs span wrappers on the layers' entry points."""

    def __init__(self, repro_module) -> None:
        self._repro = repro_module
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._main_ident = threading.get_ident()
        self._main = self._state()
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _owners(self, path: str) -> List[object]:
        """Resolve a dotted owner path below ``repro``; ``pkg.*`` means
        every solver engine class registered in ``pkg.ENGINES``."""
        obj = self._repro
        if not path:
            return [obj]
        parts = path.split(".")
        if parts[-1] == "*":
            for part in parts[:-1]:
                obj = getattr(obj, part)
            return list(obj.ENGINES.values())
        for part in parts:
            obj = getattr(obj, part)
        return [obj]

    def install(self) -> None:
        for layer_no, layer in enumerate(LAYERS):
            for path, names in LAYER_ENTRY_POINTS[layer]:
                for owner in self._owners(path):
                    for name in names:
                        # patch only what the owner defines itself, so a
                        # subclass inheriting a patched method is not
                        # wrapped twice
                        own = (
                            owner.__dict__ if isinstance(owner, type)
                            else vars(owner)
                        )
                        if name not in own:
                            continue
                        original = own[name]
                        self._saved.append((owner, name, original))
                        setattr(owner, name, self._wrap(original, layer_no))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            thread = threading.current_thread()
            critical = (
                threading.get_ident() == self._main_ident
                or thread.name == "spmd-rank-0"
            )
            st = _ThreadState(len(self._states), critical)
            self._local.state = st
            self._states.append(st)
        return st

    def _wrap(self, fn: Callable, layer_no: int) -> Callable:
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st = tracer._state()
            if not st.stack and st is not tracer._main and st.critical:
                main_stack = tracer._main.stack
                st.parent = main_stack[-1] if main_stack else None
            frame = [clock(), 0.0]
            st.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                st.stack.pop()
                duration = end - frame[0]
                st.self_s[layer_no] += duration - frame[1]
                st.calls[layer_no] += 1
                if st.stack:
                    st.stack[-1][1] += duration
                elif st.parent is not None:
                    st.parent[1] += duration
                st.spans.extend(
                    (layer_no, st.thread_no, len(st.stack), frame[0], end)
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time along the critical thread."""
        out = dict.fromkeys(LAYERS, 0.0)
        for st in self._states:
            if st.critical:
                for layer, s in zip(LAYERS, st.self_s):
                    out[layer] += s
        return out

    def calls(self, critical_only: bool = False) -> Dict[str, int]:
        """Per-layer call counts over every thread (or only along the
        critical thread)."""
        out = dict.fromkeys(LAYERS, 0)
        for st in self._states:
            if st.critical or not critical_only:
                for layer, c in zip(LAYERS, st.calls):
                    out[layer] += c
        return out

    def dump(self, path) -> int:
        """Write every recorded span to ``path`` (``.npz``: one row per
        span, columns ``layer, thread, depth, start, end``, plus the
        layer names and each thread's critical flag); returns the span
        count."""
        rows = np.concatenate(
            [np.frombuffer(st.spans, dtype=np.float64) for st in self._states]
        ).reshape(-1, 5)
        np.savez(
            path,
            spans=rows,
            layers=np.array(LAYERS),
            critical=np.array([st.critical for st in self._states]),
        )
        return int(rows.shape[0])
