"""An outside-in span tracer: wraps layer entry points from the benchmark.

The tracer replaces named callables (module functions, methods,
classmethods) with thin wrappers that record one span per call, and
records every garbage-collector pause through ``gc.callbacks`` as a child
of whatever span is open on the collecting thread.  Nothing inside the
program changes: :meth:`Tracer.uninstall` puts every original callable
back.

A span is a small list ``[layer, start, end, parent, request, gc_gen]``:

* ``layer`` — the layer name the wrapped call belongs to (``gc`` for
  collector pauses);
* ``start``/``end`` — ``time.perf_counter()`` readings;
* ``parent`` — the span open on the same thread when this one started
  (``None`` for a root);
* ``request`` — the ``(phase, unit)`` pair the benchmark set before the
  unit of work (a cold extraction, one delta, one read, one stream batch);
* ``gc_gen`` — the collected generation, for ``gc`` spans only.

Spans stay in memory; :meth:`Tracer.dump` writes them out once.  A
span's *self time* is its duration minus the durations of its direct
children; children of one span run on the same thread and never overlap.
"""

import functools
import gc
import json
import threading
import time


class Tracer:
    """Records spans for wrapped callables and GC pauses."""

    def __init__(self):
        self.spans = []
        self.counts = {}   # (phase, counter) -> value, from on_result hooks
        self.request = None
        self.installed = False
        self._local = threading.local()
        self._saved = []   # (owner, attribute, original value), in wrap order

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, layer, func, on_result=None):
        """``func`` wrapped to record a ``layer`` span per call.

        ``on_result(result)`` (optional) runs after the call inside the
        span's bookkeeping, for boundary counters such as store hits.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.installed:
                return func(*args, **kwargs)
            stack = tracer._stack()
            span = [layer, 0.0, 0.0, stack[-1] if stack else None, tracer.request, None]
            tracer.spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, name, amount=1):
        """Add to a boundary counter of the current request's phase."""
        key = (self.request[0] if self.request is not None else None, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def _on_gc(self, phase, info):
        stack = self._stack()
        if phase == "start":
            span = ["gc", time.perf_counter(), 0.0, stack[-1] if stack else None,
                    self.request, info.get("generation")]
            self.spans.append(span)
            stack.append(span)
        elif stack and stack[-1][0] == "gc":
            stack.pop()[2] = time.perf_counter()

    # ------------------------------------------------------------------
    # installing and removing wrappers
    # ------------------------------------------------------------------
    def wrap(self, owner, attribute, layer, on_result=None):
        """Replace ``owner.attribute`` by a traced wrapper.

        ``owner`` is a module or a class.  On a class the raw ``__dict__``
        entry is wrapped, so classmethods and staticmethods keep their
        binding behaviour.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(
                    self.traced(layer, original.__func__, on_result)
                )
            else:
                replacement = self.traced(layer, original, on_result)
        else:
            original = getattr(owner, attribute)
            replacement = self.traced(layer, original, on_result)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self, targets):
        """Wrap every ``(owner, attribute, layer[, on_result])`` target."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        for target in targets:
            self.wrap(*target)
        gc.callbacks.append(self._on_gc)
        self.installed = True

    def uninstall(self):
        """Restore every wrapped callable and detach the GC callback."""
        if not self.installed:
            return
        self.installed = False
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # analysis and output
    # ------------------------------------------------------------------
    def dump(self, path, meta):
        """Write ``meta`` then one JSON array per span (JSON Lines).

        Each span line is ``[index, layer, start, end, parent_index,
        phase, unit, gc_gen]`` with ``parent_index`` ``-1`` for roots.
        """
        index = {id(span): position for position, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for position, span in enumerate(self.spans):
                layer, start, end, parent, request, generation = span
                phase, unit = request if request is not None else (None, None)
                handle.write(json.dumps([
                    position, layer, round(start, 7), round(end, 7),
                    index[id(parent)] if parent is not None else -1,
                    phase, unit, generation,
                ]) + "\n")


def self_times(spans):
    """``{id(span): self time}``: duration minus direct children's durations."""
    child_time = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            child_time[id(parent)] = child_time.get(id(parent), 0.0) + span[2] - span[1]
    return {id(span): span[2] - span[1] - child_time.get(id(span), 0.0) for span in spans}


def charge(spans, reported):
    """Charge each span's self time to a reported layer.

    A span's self time goes to the nearest span, itself or an ancestor,
    whose layer is in ``reported``; time with no such span goes to
    ``"other"``.  Returns ``{layer: seconds}``.
    """
    own = self_times(spans)
    totals = {}
    for span in spans:
        target = span
        while target is not None and target[0] not in reported:
            target = target[3]
        layer = target[0] if target is not None else "other"
        totals[layer] = totals.get(layer, 0.0) + own[id(span)]
    return totals


def covered(spans):
    """Seconds covered by the union of the spans' intervals (any thread)."""
    total = 0.0
    end = None
    for start, stop in sorted((span[1], span[2]) for span in spans):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total
