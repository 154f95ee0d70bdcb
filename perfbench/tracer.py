"""Spans around calls into qhesolve's layers, kept in memory.

The wrappers replace a function wherever a qhesolve module holds it (a
module that did `from .circ import emit_text` looks the name up in its own
namespace), so calls from inside the program are seen too. Each span
records its name, start, end, parent span (per thread), the benchmark's
operation id and, for a few functions, sizes taken from the arguments or
the result. Counted functions only add to a per-call tally on the thread's
outermost open span, which is cheaper than a span for calls that happen
thousands of times per job.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


def _t_count(circuit) -> int:
    return sum(1 for g in circuit.gates if g.kind in ("t", "tdg"))


def _circuit_bytes(args, kwargs):
    payload = args[0] if args else kwargs.get("payload")
    circuit = payload.get("circuit") if isinstance(payload, dict) else None
    return {"circuit_bytes": len(circuit.encode()) if isinstance(circuit, str) else 0}


# (module, function, info(args, kwargs, result) -> dict or None)
TIMED = (
    ("qhesolve.cli", "main", None),
    ("qhesolve.synth", "enumerate_unitaries",
     lambda a, k, r: {"budget": a[0], "entries": len(r)}),
    ("qhesolve.synth", "approximate_unitary", None),
    ("qhesolve.circ", "legalize_star", None),
    ("qhesolve.circ", "substitute_ry", None),
    ("qhesolve.circ", "emit_text", lambda a, k, r: {"bytes": len(r.encode())}),
    ("qhesolve.circ", "parse_text", None),
    ("qhesolve.hhl", "compile_solver_circuit",
     lambda a, k, r: {"gates": len(r[0].gates), "t_count": _t_count(r[0]),
                      "substitutes": a[2].rs_t_budget is not None}),
    ("qhesolve.hhl", "extract_solution", None),
    ("qhesolve.hecrypt", "solve_encrypted", None),
    ("qhesolve.qserve", "submit", None),
    ("qhesolve.qserve", "execute_job", None),
    ("qhesolve.qserve", "recv_frame",
     lambda a, k, r: {"bytes": len(r) if r is not None else None}),
    ("qhesolve.qsim", "run_statevector", None),
    ("qhesolve.qsim", "sample_counts", None),
)
# Spans whose sizes come from the arguments, recorded before the call.
PRE_INFO = {"execute_job": _circuit_bytes}
COUNTED = (
    ("qhesolve.qsim", "apply_gate"),
    ("qhesolve.qserve", "apply_depolarizing"),
)
METHODS = (
    ("qhesolve.qserve", "ExecutionServer", "start"),
    ("qhesolve.qserve", "ExecutionServer", "shutdown"),
)


class Tracer:
    """Holds the spans of one process; install() patches, restore() undoes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None  # set by the benchmark around each operation
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add_span(self, name: str, start: float, end: float, **info):
        self.spans.append({"id": next(self._ids), "name": name, "start": start,
                           "end": end, "parent": None, "op": self.op,
                           "counts": {}, **info})

    def timed(self, name: str, fn, info=None, pre_info=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = {"id": next(tracer._ids), "name": name,
                    "parent": stack[-1]["id"] if stack else None,
                    "op": tracer.op, "counts": {}}
            if stack:
                root = stack[0]["counts"]
                root[name] = root.get(name, 0) + 1
            if pre_info is not None:
                span.update(pre_info(args, kwargs))
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if info is not None:
                span.update(info(args, kwargs, result))
            return result

        return wrapper

    def counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                root = stack[0]["counts"]
                root[name] = root.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("qhesolve") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap every listed function and method of the loaded qhesolve
        modules (importing qhesolve loads every layer but cli)."""
        for mod_name, fn_name, info in TIMED:
            module = sys.modules.get(mod_name)
            if module is None:
                continue
            original = getattr(module, fn_name)
            layer = mod_name.rsplit(".", 1)[1]
            self._replace_everywhere(original, self.timed(
                f"{layer}.{fn_name}", original, info, PRE_INFO.get(fn_name)))
        for mod_name, fn_name in COUNTED:
            module = sys.modules[mod_name]
            original = getattr(module, fn_name)
            layer = mod_name.rsplit(".", 1)[1]
            self._replace_everywhere(original,
                                     self.counted(f"{layer}.{fn_name}", original))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self.timed(f"qserve.{cls_name}.{meth}", original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path, process: str, group: str) -> list[dict]:
    """Spans written by dump(), tagged with their process and with the group
    of processes that served the same jobs (a client and its server)."""
    with open(path, encoding="utf-8") as handle:
        return [dict(json.loads(line), process=process, group=group)
                for line in handle]
