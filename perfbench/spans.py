"""Span tracer for the aqm package, and the traced CLI entry point.

    PYTHONPATH=src python3 perfbench/spans.py SPANS.npz <aqm CLI arguments>

runs `aqm.cli.main` in this process with every public function of the
package's modules wrapped in a span, and writes the spans to SPANS.npz
when the run ends.  A span records its name, start, end and parent; the
spans stay in memory until then.

What is wrapped, per module of MODULES:
- every public function defined there, in every aqm namespace that binds
  it, because the package imports names with `from ... import ...`;
- the constructor of every public class that validates its fields (has
  `__post_init__`), and its public methods and classmethods;
- the draw methods of each generator that `rng.stream` returns, which also
  count the variates drawn.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("rng", "algebra", "ensemble", "two_slit", "interferometer", "experiments",
           "serialize", "cli")

# span name -> (counter name, measure of the result added to it)
COUNTERS = {
    "rng.event_uniforms": ("rng.event_uniforms.draws", np.size),
    "rng.stream.draw": ("rng.stream.draws", np.size),
    "interferometer.run_events": ("interferometer.run_events.events", len),
    # computed from the array size, not measured traffic
    "two_slit.momentum_projector": ("two_slit.projector_bytes_computed", lambda r: r.nbytes),
}


class Tracer:
    """Spans in flat arrays, so a million of them cost tens of megabytes."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict = defaultdict(int)

    def wrap(self, name: str, fn):
        """fn, recording a span named `name` around each call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start, self.end,
                                              self._stack)
        clock = time.perf_counter
        counter, measure = COUNTERS.get(name, (None, None))
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter:
                counts[counter] += int(measure(result))
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            count_names=np.array(list(self.counts), dtype=str),
            count_values=np.array(list(self.counts.values()), dtype=np.int64),
        )


class CountingGenerator:
    """A numpy Generator whose public methods are traced as rng.stream.draw."""

    def __init__(self, generator: np.random.Generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, attr):
        member = getattr(self._generator, attr)
        if callable(member) and not attr.startswith("_"):
            member = self._tracer.wrap("rng.stream.draw", member)
            setattr(self, attr, member)  # later lookups bypass __getattr__
        return member


def instrument(tracer: Tracer) -> None:
    """Replace the package's public functions and constructors by traced ones."""
    modules = [importlib.import_module(f"aqm.{m}") for m in MODULES]
    namespaces = [importlib.import_module("aqm"), *modules]
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{short}.{attr}"
            if inspect.isfunction(obj):
                target = _counting_stream(obj, tracer) if name == "rng.stream" else obj
                traced = tracer.wrap(name, target)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is obj:
                            setattr(namespace, key, traced)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _instrument_class(tracer, name, obj)


def _counting_stream(stream, tracer: Tracer):
    @functools.wraps(stream)
    def counting_stream(*args, **kwargs):
        return CountingGenerator(stream(*args, **kwargs), tracer)

    return counting_stream


def _instrument_class(tracer: Tracer, name: str, cls: type) -> None:
    if "__post_init__" in vars(cls):
        cls.__init__ = tracer.wrap(name, cls.__init__)
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(f"{name}.{attr}", member))
        elif isinstance(member, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(f"{name}.{attr}", member.__func__)))


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    instrument(tracer)
    from aqm import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
