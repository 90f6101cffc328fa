"""Per-layer timing of the digitsum package, wrapped from outside.

`Tracer.install` replaces every public function of the traced layers by a
timing wrapper, under every name a caller looks it up by: the defining
module and each ``digitsum`` module that imported it (``digit_sum_range``
is wrapped in ``digitseq`` and as imported into ``identities``,
``harness``, ``altsum`` ...).  ``SequenceFn.block`` is wrapped on its
class.  ``harness.run_suite`` spans are named after the suite they run.
`Tracer.restore` puts every original back.

Spans nest on a stack: a span's self time is its duration minus the
durations of the spans it directly contains.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("digitseq", "specfun", "identities", "lambert", "altsum", "solver", "harness")


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self.covered = 0.0  # summed duration of outermost spans
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, label=None, after=None):
        stats, stack = self.stats, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = label(*args, **kwargs) if label else name
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = stack.pop()
                stat = stats.get(key)
                if stat is None:
                    stat = stats[key] = Stat()
                stat.calls += 1
                stat.total += span
                stat.self += span - inner
                if stack:
                    stack[-1] += span
                else:
                    self.covered += span
            if after:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the public functions of every layer; returns self."""
        import importlib
        import pkgutil

        import digitsum

        # bind every module first, so that no later import copies a wrapper
        for info in pkgutil.iter_modules(digitsum.__path__):
            importlib.import_module(f"digitsum.{info.name}")
        package = [
            module
            for name, module in list(sys.modules.items())
            if name == "digitsum" or name.startswith("digitsum.")
        ]
        for layer in LAYERS:
            module = getattr(digitsum, layer)
            for attr in getattr(module, "__all__", ()):
                original = module.__dict__.get(attr)
                if not callable(original) or inspect.isclass(original):
                    continue
                if getattr(original, "__wrapped_by_tracer__", False):
                    continue  # re-exported by an earlier layer, already wrapped
                wrapper = self._wrap(f"{layer}.{attr}", original, **self._extras(layer, attr))
                for other in package:
                    for name, value in list(other.__dict__.items()):
                        if value is original:
                            self._patch(other, name, wrapper)
        sequence = getattr(digitsum.solver, "SequenceFn", None)
        if sequence is not None and "block" in sequence.__dict__:
            self._patch(sequence, "block", self._wrap("solver.SequenceFn.block", sequence.__dict__["block"]))
        return self

    def _extras(self, layer, attr):
        if (layer, attr) == ("digitseq", "digit_sum_range"):
            def elements(args, kwargs, result):
                self._count("digitseq.digit_sum_range.elements", len(result))

            return {"after": elements}
        if (layer, attr) == ("harness", "run_suite"):
            def suite(grid, *args, **kwargs):
                return f"harness.suite.{grid.identity_id}"

            def points(args, kwargs, result):
                self._count("harness.points", len(result.reports))

            return {"label": suite, "after": points}
        return {}

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            return self.install()
        except BaseException:
            self.restore()
            raise

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -----------------------------------------------------------

    def snapshot(self):
        """JSON-safe copy of the spans and counters."""
        return {
            "spans": {k: [s.calls, s.total, s.self] for k, s in self.stats.items()},
            "counters": dict(self.counters),
            "covered": self.covered,
        }


def leftover_wrappers():
    """Names in the loaded digitsum modules still bound to a tracer wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "digitsum" and not name.startswith("digitsum."):
            continue
        for attr, value in list(module.__dict__.items()):
            if getattr(value, "__wrapped_by_tracer__", False):
                found.append(f"{name}.{attr}")
            if inspect.isclass(value):
                for key, member in value.__dict__.items():
                    if getattr(member, "__wrapped_by_tracer__", False):
                        found.append(f"{name}.{attr}.{key}")
    return found
