"""Run the guidelab CLI with a span recorded around every public function.

Usage: python3 bench/tracer.py SPANS.npz -- <guidelab cli arguments>

Every public (non-underscore) module-level function of the eight layer
modules is wrapped, plus the schedule lookups and the mock transport
methods, and every alias a module holds to a wrapped function (the
names bound by ``from guidelab.X import f``) is rebound to the wrapper,
so no call escapes. Spans (name, parent span, start, end) stay in
compact in-memory arrays and are written once, when the CLI returns.
Calls are assumed single-threaded: the benchmark runs the CLI with
``--jobs 1``.

Run-level keys of each sampler call are kept as well, so the benchmark
can tell how many of the trajectories run were distinct, and every
RuntimeWarning raised through ``warnings.warn`` is counted, shown or not.
"""

import functools
import importlib
import inspect
import json
import sys
import time
import warnings
from array import array

import numpy as np

LAYERS = ("oracle", "schedule", "guidance", "sampler", "diagnostics", "experiment", "cli", "par")

# Methods that carry a layer's work but are not module-level functions.
METHODS = {
    "schedule": {"NoiseSchedule": ("beta", "alpha_bar")},
    "par": {"MockTransport": ("__call__", "from_dir"), "HttpTransport": ("__call__",)},
}

SAMPLER_RUNS = ("sampler.run_single_branch", "sampler.run_dual_branch")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.run_keys = []
        self.runtime_warnings = 0

    def count_warnings(self, warn):
        @functools.wraps(warn)
        def counted(message, category=None, *args, **kwargs):
            if category is RuntimeWarning or isinstance(message, RuntimeWarning):
                self.runtime_warnings += 1
            return warn(message, category, *args, **kwargs)

        return counted

    def wrap(self, name, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        keyed = name in SAMPLER_RUNS
        signature = inspect.signature(fn) if keyed else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            if keyed:
                self.run_keys.append(_run_key(name, signature, args, kwargs))
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def save(self, path):
        np.savez(
            path,
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            distinct_runs=np.int64(len(set(self.run_keys))),
            runtime_warnings=np.int64(self.runtime_warnings),
        )


def _run_key(name, signature, args, kwargs):
    """What makes one sampler run distinct: its inputs, with arrays by identity."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return (name,) + tuple(v if _hashable(v) else id(v) for v in bound.arguments.values())


def _hashable(v):
    try:
        hash(v)
    except TypeError:
        return False
    return True


def instrument(tracer):
    """Wrap the layer functions and rebind every alias to the wrappers."""
    modules = {layer: importlib.import_module(f"guidelab.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(tracer.wrap(f"{layer}.{cls_name}.{meth}", raw.__func__)))
                else:
                    setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", raw))
    package = importlib.import_module("guidelab")
    for mod in list(modules.values()) + [package]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    return modules["cli"]


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.npz -- <guidelab cli arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    cli = instrument(tracer)
    warnings.warn = tracer.count_warnings(warnings.warn)
    try:
        return cli.main(argv[2:])
    finally:
        tracer.save(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
