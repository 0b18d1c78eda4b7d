"""Outside-in tracing: wrappers the benchmark puts around each layer's
public functions.

Nothing in the program is edited.  :class:`Tracer` replaces a class or
module attribute with a timing wrapper while it is installed and puts
the original back on :meth:`Tracer.uninstall`.  Two kinds of wrapper:

* **span** boundaries (a few hundred calls per solve: encoding, session
  checks, SAT solves, core minimization, certification, service calls)
  record one span each -- name, start, end, parent span and the trace
  id of the instance or request that caused it -- kept in memory and
  written out as JSON lines at the end of the run;
* **hot** boundaries (theory hooks and simplex/difference-logic kernels,
  ~10^5 calls per solve) only bump a call counter and a self-time
  accumulator, so tracing them costs two clock reads and no allocation
  beyond one small list per call.

Self time is a call's duration minus the time of the wrapped calls it
made.  The main thread's call stack is one list that the hot wrappers
use directly; other threads get their own, because the service calls
``ServiceWorker.solve`` from executor threads.
"""

from __future__ import annotations

import importlib
import json
import threading
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, layer key) of every span boundary
#: around the in-process solve path.
SOLVER_SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.core.encoding", "Encoder", "encode_message", "core.encode_message"),
    ("repro.core.encoding", "Encoder", "add_contention_constraints",
     "core.add_contention_constraints"),
    ("repro.core.encoding", "Encoder", "add_stability_constraints",
     "core.add_stability_constraints"),
    ("repro.core.encoding", "Encoder", "freeze_message", "core.freeze_message"),
    ("repro.core.encoding", None, "route_candidates", "network.route_candidates"),
    ("repro.api.session", "Session", "check", "api.session.check"),
    ("repro.smt.solver", "SolverEngine", "check", "smt.solver.check"),
    ("repro.smt.solver", "SolverEngine", "unsat_core", "smt.solver.unsat_core"),
    ("repro.sat.solver", "SatSolver", "solve", "sat.solve"),
    ("repro.core.validator", None, "collect_violations", "core.validator"),
    ("repro.sim.netsim", None, "simulate_solution", "sim.simulate_solution"),
    ("repro.sim.netsim", None, "cross_check_e2e", "sim.cross_check_e2e"),
    ("repro.eval.workloads", None, "compute_stability_curve",
     "stability.compute_stability_curve"),
    ("repro.eval.workloads", None, "fit_lower_bound", "stability.fit_lower_bound"),
)

#: Per-literal boundaries: counters and self time only, no span objects.
SOLVER_HOT: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.smt.cnf", "CnfConverter", "assert_formula", "smt.cnf.assert_formula"),
    ("repro.smt.theory", "LraTheory", "on_assert", "smt.theory.on_assert"),
    ("repro.smt.theory", "LraTheory", "propagate", "smt.theory.propagate"),
    ("repro.smt.theory", "LraTheory", "final_check", "smt.theory.final_check"),
    ("repro.smt.theory", "LraTheory", "on_backjump", "smt.theory.on_backjump"),
    ("repro.smt.simplex", "Simplex", "check", "smt.simplex.check"),
    ("repro.smt.simplex", "Simplex", "add_row", "smt.simplex.add_row"),
    ("repro.smt.difflogic", "DifferenceLogic", "assert_constraint",
     "smt.difflogic.assert_constraint"),
    ("repro.smt.difflogic", "DifferenceLogic", "implied_bounds",
     "smt.difflogic.implied_bounds"),
)

#: Service-side boundaries (the solver itself runs in worker processes).
SERVICE_SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.service.cache", "KnowledgeCache", "lookup", "service.cache.lookup"),
    ("repro.service.cache", "KnowledgeCache", "store", "service.cache.store"),
    ("repro.service.workers", "ServiceWorker", "solve", "service.worker.solve"),
    ("repro.service.workers", "ServiceWorker", "restart", "service.worker.restart"),
    ("repro.core.validator", None, "collect_violations", "core.validator"),
    ("repro.sim.netsim", None, "simulate_solution", "sim.simulate_solution"),
    ("repro.sim.netsim", None, "cross_check_e2e", "sim.cross_check_e2e"),
)

#: The caller split of simplex checks: the nearest wrapped ancestor.
_SIMPLEX_CALLERS = {"smt.theory.on_assert": "on_assert",
                    "smt.theory.final_check": "final_check",
                    "smt.theory.propagate": "propagate"}

#: SAT counters taken as deltas around every ``SatSolver.solve``.
SAT_COUNTERS = ("conflicts", "decisions", "propagations", "restarts",
                "theory_propagations")


class Tracer:
    """Installs the wrappers and accumulates what they measure."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        # The main thread's stack, shared with the hot wrappers (which
        # only run on the in-process solve path, in the main thread).
        self._main = []
        self._main_ident = threading.get_ident()
        self._saved: List[Tuple[object, str, object]] = []
        #: key -> [calls, self ns, total ns]
        self.layers: Dict[str, List[int]] = {}
        self.counters: Dict[str, int] = {}
        self.spans: List[dict] = []
        self._next_id = 0
        #: Trace id stamped on spans (instance or request id).
        self.trace_id = ""
        #: Hook for ServiceWorker.solve: (span seconds, payload) pairs.
        self.worker_solves: List[Tuple[float, dict]] = []

    # -- installation ---------------------------------------------------

    def install(self, spans, hot=()) -> None:
        for entry in spans:
            self._patch(entry, self._span_wrapper)
        for entry in hot:
            self._patch(entry, self._hot_wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, entry, make: Callable) -> None:
        module_name, class_name, attr, key = entry
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr] if class_name else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original, key))

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _acc(self, key: str) -> List[int]:
        acc = self.layers.get(key)
        if acc is None:
            acc = self.layers[key] = [0, 0, 0]
        return acc

    def _account(self, key: str, total: int, self_ns: int) -> None:
        acc = self._acc(key)
        acc[0] += 1
        acc[1] += self_ns
        acc[2] += total

    # -- wrappers --------------------------------------------------------

    def _hot_wrapper(self, fn, key):
        stack = self._main
        if key == "smt.simplex.check":
            accs = {via: self._acc(f"{key}.{via}")
                    for via in ("on_assert", "final_check", "propagate",
                                "other")}

            def pick():
                via = _SIMPLEX_CALLERS.get(stack[-1][0]) if stack else None
                return accs[via or "other"]
        else:
            acc = self._acc(key)

            def pick():
                return acc

        def wrapper(*args, **kwargs):
            frame = [key, 0]
            target = pick()
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                total = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += total
                target[0] += 1
                target[1] += total - frame[1]
                target[2] += total

        return wrapper

    def _span_wrapper(self, fn, key):
        tracer = self
        is_sat = key == "sat.solve"
        is_core = key == "smt.solver.unsat_core"
        is_worker = key == "service.worker.solve"

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                tracer._next_id += 1
                span_id = tracer._next_id
            parent = stack[-1][2] if stack else None
            frame = [key, 0, span_id]
            # Concurrent service requests: the request id is the trace.
            trace = args[1] if is_worker else tracer.trace_id
            owner = args[0] if is_sat or is_core else None
            before = _snapshot(owner, is_sat, is_core)
            stack.append(frame)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                total = end - start
                if stack:
                    stack[-1][1] += total
                with tracer._lock:
                    tracer._account(key, total, total - frame[1])
                    tracer.spans.append({
                        "trace": trace, "id": span_id,
                        "parent": parent, "name": key, "start_ns": start,
                        "end_ns": end, "self_ns": total - frame[1]})
                    if before is not None:
                        after = _snapshot(owner, is_sat, is_core)
                        for name, value in after.items():
                            tracer.counters[name] = (tracer.counters.get(name, 0)
                                                     + value - before[name])
                    if is_worker and isinstance(result, dict):
                        tracer.worker_solves.append((total / 1e9, result))

        return wrapper

    # -- reporting -------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.layers.get(key, [0, 0, 0])[0]

    def self_s(self, key: str) -> float:
        return self.layers.get(key, [0, 0, 0])[1] / 1e9

    def total_s(self, key: str) -> float:
        return self.layers.get(key, [0, 0, 0])[2] / 1e9

    def self_total_s(self, exclude=()) -> float:
        return sum(acc[1] for key, acc in self.layers.items()
                   if key not in exclude) / 1e9

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _snapshot(obj, is_sat: bool, is_core: bool) -> Optional[Dict[str, int]]:
    """Counter values read around a span (SAT search effort, core
    minimization solves); None for spans that carry no counters."""
    if is_sat:
        stats = obj.statistics
        out = {f"sat.{name}": stats.get(name, 0) for name in SAT_COUNTERS}
        out["smt.difflogic.dl_propagations"] = getattr(
            obj.theory, "dl_propagations", 0)
        return out
    if is_core:
        return {"smt.solver.core_minimization_checks":
                obj.core_minimization_checks}
    return None
