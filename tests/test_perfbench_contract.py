"""The benchmark's tracer must find every qhesolve name it wraps.

perfbench/tracer.py lists the functions and methods it times and counts.
Installing it here makes a rename or removal of any of them fail in
milliseconds instead of deep inside a benchmark run.
"""
import importlib.util
import sys
from pathlib import Path

import qhesolve.cli  # noqa: F401  (loads every layer the tracer wraps)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_listed_name():
    tracer = load_tracer()
    functions = [(sys.modules[mod], name)
                 for mod, name, *_ in (*tracer.TIMED, *tracer.COUNTED)]
    methods = [(getattr(sys.modules[mod], cls), meth)
               for mod, cls, meth in tracer.METHODS]
    before = [getattr(owner, name) for owner, name in functions]
    before += [cls.__dict__[meth] for cls, meth in methods]

    spans = tracer.Tracer()
    spans.install()
    try:
        during = [getattr(owner, name) for owner, name in functions]
        during += [cls.__dict__[meth] for cls, meth in methods]
    finally:
        spans.restore()
    after = [getattr(owner, name) for owner, name in functions]
    after += [cls.__dict__[meth] for cls, meth in methods]

    names = [f"{getattr(o, '__name__', o)}.{n}" for o, n in functions + methods]
    unwrapped = [n for n, b, d in zip(names, before, during) if d is b]
    assert not unwrapped, f"tracer did not wrap {unwrapped}"
    assert after == before
