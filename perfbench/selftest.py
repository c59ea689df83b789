"""Self-test of the span tracer (``python3 perfbench/selftest.py``).

Builds a synthetic nested call tree out of a module function, a method
and a classmethod, forces a ``gc.collect()`` inside one child span, and
checks the self-time arithmetic, the GC attribution and that uninstalling
restores the original callables.  ``run.py --trace 1`` runs it first, so a
broken tracer fails the traced run instead of reporting wrong layers.
"""

import gc
import time
import types

from tracer import Tracer, charge, covered, self_times

_BUSY_S = 0.02


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _build_tree():
    """A module ``outer`` -> ``Worker.step`` (x2) -> ``Worker.leaf``."""
    module = types.ModuleType("synthetic")

    class Worker:
        def step(self, collect):
            _busy(_BUSY_S)
            if collect:
                garbage = []
                garbage.append(garbage)  # a cycle, so the collector has work
                del garbage
                gc.collect()
            return Worker.leaf()

        @classmethod
        def leaf(cls):
            _busy(_BUSY_S)
            return cls.__name__

    def outer():
        worker = Worker()
        _busy(_BUSY_S)
        return [module.Worker.step(worker, False), module.Worker.step(worker, True)]

    module.Worker = Worker
    module.outer = outer
    return module


def check():
    """Run every check; raises ``AssertionError`` naming the first failure."""
    module = _build_tree()
    originals = (module.outer, module.Worker.__dict__["step"], module.Worker.__dict__["leaf"])
    tracer = Tracer()
    tracer.install([
        (module, "outer", "outer"),
        (module.Worker, "step", "step"),
        (module.Worker, "leaf", "leaf"),
    ])
    tracer.request = ("selftest", 0)
    try:
        started = time.perf_counter()
        result = module.outer()
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    _require(result == ["Worker", "Worker"], f"wrapped calls returned {result!r}")

    restored = (module.outer, module.Worker.__dict__["step"], module.Worker.__dict__["leaf"])
    _require(all(a is b for a, b in zip(originals, restored)),
             "uninstall did not restore the original callables")
    _require(not tracer.installed and tracer._on_gc not in gc.callbacks,
             "uninstall left the GC callback attached")

    spans = tracer.spans
    by_layer = {}
    for span in spans:
        by_layer.setdefault(span[0], []).append(span)
    counts = {layer: len(group) for layer, group in by_layer.items()}
    _require(counts.get("outer") == 1 and counts.get("step") == 2 and counts.get("leaf") == 2,
             f"unexpected span counts {counts}")
    root = by_layer["outer"][0]
    _require(root[3] is None, "the outer call is not a root span")
    _require(all(span[3] is root for span in by_layer["step"]), "steps not children of outer")
    for leaf in by_layer["leaf"]:
        _require(leaf[3] in by_layer["step"], "a leaf is not a child of a step")
    _require(all(span[4] == ("selftest", 0) for span in spans), "request id not recorded")

    collections = [span for span in by_layer.get("gc", ()) if span[5] == 2]
    _require(collections, "the forced gc.collect() was not recorded")
    _require(all(span[3] is by_layer["step"][1] for span in collections),
             "the GC pause is not a child of the step that forced it")

    own = self_times(spans)
    for span in spans:
        children = sum(child[2] - child[1] for child in spans if child[3] is span)
        _require(abs(own[id(span)] - (span[2] - span[1] - children)) < 1e-12,
                 "self time is not duration minus children")
    _require(abs(sum(own.values()) - (root[2] - root[1])) < 1e-9,
             "self times of one tree do not sum to the root's duration")
    _require(abs(covered(spans) - (root[2] - root[1])) < 1e-9,
             "coverage of nested spans is not the root's duration")
    _require((root[2] - root[1]) <= wall, "a span outlasted the call that made it")
    for layer in ("outer", "step", "leaf"):
        busy = sum(own[id(span)] for span in by_layer[layer])
        expected = _BUSY_S * len(by_layer[layer])
        _require(expected * 0.9 <= busy <= expected * 3 + 0.05,
                 f"{layer} self time {busy:.4f}s, expected about {expected:.4f}s")

    charged = charge(spans, {"outer", "leaf", "gc"})
    _require(abs(sum(charged.values()) - (root[2] - root[1])) < 1e-9,
             "charged times do not sum to the root's duration")
    step_self = sum(own[id(span)] for span in by_layer["step"])
    _require(abs(charged["outer"] - own[id(root)] - step_self) < 1e-9,
             "an unreported layer was not charged to its reported parent")
    gc_self = sum(own[id(span)] for span in by_layer["gc"])
    _require(abs(charged["gc"] - gc_self) < 1e-12, "GC time was not charged to gc")
    return {"spans": len(spans), "gc_pauses": counts.get("gc", 0)}


def _require(condition, message):
    if not condition:
        raise AssertionError(f"tracer self-test: {message}")


if __name__ == "__main__":
    print(check())
