"""Outside-in tracing shim for the gaplab benchmark.

``Tracer.install`` replaces every public function of the gaplab layer
modules (``sieve``, ``gaps``, ``heuristics``, ``reference``, ``cli``) with a
wrapper that records one span per call: name, start, end, parent, busy
seconds and the busy seconds of its child spans.  The library itself is not
modified; the modules reach each other through module attributes
(``sieve.iter_prime_blocks``, ``gaps.scan_gaps``...), so replacing those
attributes is enough to see every layer boundary.  Times are the process's
CPU seconds (``time.process_time``), the clock of the end-to-end metrics.

A generator gets one span for its whole life.  Its busy time is the time
spent inside ``next()``; the consumer's time between items is not counted.
Items are pulled in batches that grow while a batch takes under 100 us, so a
per-pair stream such as ``gaps.gap_stream`` costs a few timer calls per
thousand pairs instead of two per pair.

Spans stay in memory; the worker writes ``Tracer.records()`` when it exits
and run.py turns them into layer metrics with ``layer_metrics``.  This
module imports nothing outside the standard library, so run.py can use
``layer_metrics`` without loading numpy.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import time

LAYERS = ("sieve", "gaps", "heuristics", "reference", "cli")

# Called once per pair by ``table1``: a wrapper would cost more than the call
# itself, so these stay unwrapped and their time counts in the caller.
UNWRAPPED = frozenset({"gaps.andrica_diff", "gaps.stable_sqrt_diff"})

_BATCH_FAST_S = 1e-4
_BATCH_MAX = 1 << 12


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "busy", "child", "counts", "_t")

    def __init__(self, span_id: int, name: str) -> None:
        self.id = span_id
        self.name = name
        self.parent: int | None = None
        self.start: float | None = None
        self.end: float | None = None
        self.busy = 0.0
        self.child = 0.0
        self.counts: dict[str, int] = {}
        self._t = 0.0


def _count(span: Span, key: str, n: int) -> None:
    span.counts[key] = span.counts.get(key, 0) + int(n)


def _covered(span: Span, lo: int, hi: int) -> None:
    """Integers and odd values (one mask byte each) of the sieved range [lo, hi)."""
    _count(span, "ints", max(hi - lo, 0))
    _count(span, "mask_bytes", max(hi // 2 - lo // 2, 0))


def _on_blocks_call(span, bound):
    _covered(span, int(bound.arguments["lo"]), int(bound.arguments["hi"]))


def _on_blocks_item(span, block):
    _count(span, "segments", 1)
    _count(span, "primes", len(block))


def _on_count_many_return(span, bound, result):
    if result:
        top = max(result)
        _covered(span, 0, top)
        _count(span, "primes", result[top])


def _on_scan_return(span, bound, result):
    _count(span, "pairs", result.pair_count)
    _count(span, "records", len(result.records))
    _count(span, "first_values", len(result.first or ()))


def _on_stream_item(span, gap):
    _count(span, "pairs", 1)


# name -> (on_call(span, bound_args), on_item(span, item), on_return(span, bound_args, result))
_HOOKS = {
    "sieve.iter_prime_blocks": (_on_blocks_call, _on_blocks_item, None),
    "sieve.prime_count_many": (None, None, _on_count_many_return),
    "gaps.scan_gaps": (None, None, _on_scan_return),
    "gaps.gap_stream": (None, _on_stream_item, None),
}


class Tracer:
    def __init__(self) -> None:
        self._stack: list[Span] = []
        self.spans: list[Span] = []

    def _new(self, name: str) -> Span:
        span = Span(len(self.spans), name)
        self.spans.append(span)
        return span

    def _enter(self, span: Span) -> None:
        first = span.start is None
        if first:
            span.parent = self._stack[-1].id if self._stack else None
        self._stack.append(span)
        span._t = time.process_time()
        if first:
            span.start = span._t

    def _leave(self, span: Span) -> float:
        t = time.process_time()
        dt = t - span._t
        span.busy += dt
        span.end = t
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += dt
        return dt

    def wrap(self, name: str, fn):
        on_call, on_item, on_return = _HOOKS.get(name, (None, None, None))
        signature = inspect.signature(fn)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                span = tracer._new(name)
                if on_call:
                    on_call(span, signature.bind(*args, **kwargs))
                gen = fn(*args, **kwargs)
                batch = 1
                try:
                    while True:
                        tracer._enter(span)
                        try:
                            items = list(itertools.islice(gen, batch))
                        finally:
                            dt = tracer._leave(span)
                        if on_item:
                            for item in items:
                                on_item(span, item)
                        yield from items
                        if len(items) < batch:
                            return
                        if dt < _BATCH_FAST_S and batch < _BATCH_MAX:
                            batch *= 2
                finally:
                    gen.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._new(name)
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(span)
            if on_return:
                on_return(span, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of each layer module of ``package``."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or name in UNWRAPPED
                ):
                    continue
                setattr(module, attr, self.wrap(name, obj))

    def records(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "busy": s.busy,
                "child": s.child,
                "counts": s.counts,
            }
            for s in self.spans
        ]


PER_LAYER = (
    "sieve.blocks_s",
    "sieve.window_s",
    "sieve.count_s",
    "sieve.segments",
    "sieve.primes",
    "sieve.mask_bytes",
    "sieve.ints_per_s",
    "gaps.scan_s",
    "gaps.fold_self_s",
    "gaps.stream_s",
    "gaps.pairs",
    "gaps.records",
    "gaps.first_values",
    "cli.self_s",
    "heuristics.twin_s",
    "heuristics.model_calls",
    "heuristics.model_s",
    "reference.parse_s",
    "reference.merge_s",
)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts from span records (see ``PER_LAYER``).

    ``*_s`` totals of a named function are busy time including its child
    spans; ``*self_s`` and the per-layer self times subtract the children.
    """
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for s in spans:
        name = s["name"]
        busy[name] = busy.get(name, 0.0) + s["busy"]
        self_time[name] = self_time.get(name, 0.0) + s["busy"] - s["child"]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        for key, n in s["counts"].items():
            counts[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0) + n

    def layer_self(layer: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(
            t for n, t in self_time.items() if n.startswith(layer + ".") and n not in exclude
        )

    sieve_busy = layer_self("sieve")
    models = [n for n in calls if n.startswith("heuristics.") and n != "heuristics.twin_constant"]
    return {
        "sieve.blocks_s": busy.get("sieve.iter_prime_blocks", 0.0),
        "sieve.window_s": busy.get("sieve.primes_in_range", 0.0),
        "sieve.count_s": busy.get("sieve.prime_count_many", 0.0),
        "sieve.segments": counts.get("sieve.segments", 0),
        "sieve.primes": counts.get("sieve.primes", 0),
        "sieve.mask_bytes": counts.get("sieve.mask_bytes", 0),
        "sieve.ints_per_s": counts.get("sieve.ints", 0) / sieve_busy if sieve_busy > 0 else 0.0,
        "gaps.scan_s": busy.get("gaps.scan_gaps", 0.0),
        "gaps.fold_self_s": self_time.get("gaps.scan_gaps", 0.0),
        "gaps.stream_s": self_time.get("gaps.gap_stream", 0.0),
        "gaps.pairs": counts.get("gaps.pairs", 0),
        "gaps.records": counts.get("gaps.records", 0),
        "gaps.first_values": counts.get("gaps.first_values", 0),
        "cli.self_s": layer_self("cli"),
        "heuristics.twin_s": self_time.get("heuristics.twin_constant", 0.0),
        "heuristics.model_calls": sum(calls[n] for n in models),
        "heuristics.model_s": sum(self_time[n] for n in models),
        "reference.parse_s": busy.get("reference.parse_reference_table", 0.0),
        "reference.merge_s": busy.get("reference.merge_records", 0.0),
    }
