"""Spans recorded around the program's layer entry points.

The benchmark's traced run wraps the public entry point of each layer
(see :func:`_targets`) from outside the program: :func:`install` swaps in
a timing wrapper and returns a function that puts the originals back.
Nothing under ``src/`` changes.

A span has a name, start, end, parent and request id; counts ride along
in ``attrs`` at the same boundary. Synchronous spans nest through a
per-thread stack; a span opened with an empty stack hangs off the run's
root, whichever thread it runs on (the server solves in an executor
thread). The async ``serving.submit`` spans overlap each other on the
event loop, so they sit outside the nesting tree: they carry the
request id, and the batch span (``service.request_many``) lists its
members' ids.

A span's self time is its duration minus the part of it its child spans
cover, so the self times of the tree add up to the root's duration: the
timed phase's wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    rid: Optional[int] = None
    nested: bool = True  # False for overlapping async spans
    attrs: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory until :meth:`write_jsonl`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.root: Optional[Span] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # outcome object id -> (outcome, batch span), to tie a served
        # request to the request_many call that answered it. The outcome
        # is held until every member has been tied, so its id cannot be
        # reused by another outcome meanwhile.
        self._batch_of: Dict[int, Tuple[object, Span]] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[int] = None, nested: bool = True) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        if rid is None and parent is not None and nested:
            rid = parent.rid
        with self._lock:
            span = Span(
                id=next(self._ids),
                name=name,
                start=self.clock(),
                parent=parent.id if parent is not None else None,
                rid=rid,
                nested=nested,
            )
            self.spans.append(span)
        if nested:
            stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        if span.nested:
            stack = self._stack()
            if stack and stack[-1] is span:
                stack.pop()

    def open_root(self, name: str = "run") -> Span:
        self.root = self.begin(name)
        self._stack().pop()  # the root is the fallback parent, not stacked
        return self.root

    def close_root(self) -> None:
        self.root.end = self.clock()

    def set_rid(self, rid: Optional[int]) -> None:
        """Request id for spans this thread opens at top level."""
        if self.root is not None:
            self.root.rid = rid

    def note_batch(self, span: Span, responses) -> None:
        span.attrs["size"] = len(responses)
        span.attrs["members"] = []
        span.attrs["outcomes"] = sorted({id(r.outcome) for r in responses})
        for response in responses:
            self._batch_of[id(response.outcome)] = (response.outcome, span)

    def tie(self, response, rid: int) -> Optional[Span]:
        """Record ``rid`` as a member of the batch that answered
        ``response``; returns that batch span."""
        entry = self._batch_of.get(id(response.outcome))
        if entry is None:
            return None
        span = entry[1]
        span.attrs["members"].append(rid)
        if len(span.attrs["members"]) == span.attrs["size"]:
            for key in span.attrs.pop("outcomes"):
                self._batch_of.pop(key, None)
        return span

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every nested span: its duration minus the union of
    its nested children's intervals, clipped to the span."""
    spans = [span for span in spans if span.nested]
    by_id = {span.id: span for span in spans}
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent in by_id:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
            if child.end > span.start and child.start < span.end
        )
        result[span.id] = span.duration - covered
    return result


# -- wrapping the program's layers ----------------------------------------------

# Span name -> layer. "outside" is the root: the load driver itself, plus (on
# saturate) the event loop's serving work between solves.
LAYER_OF = {
    "run": "outside",
    "service.request": "service",
    "service.request_many": "service",
    "scheduler.map": "scheduler",
    "extract": "extract",
    "solve": "solve",
    "solve_many": "solve",
    "rewrite": "rewrite",
    "execute": "execute",
}
LAYERS = ("outside", "service", "scheduler", "extract", "solve", "rewrite", "execute")


def _targets():
    """(owner, attribute, span name) for every wrapped entry point."""
    from repro.core import adapters, personalizer
    from repro.core.algorithms.scheduler import SolveScheduler
    from repro.core.rewriter import QueryRewriter
    from repro.core.service import PersonalizationService
    from repro.sql.executor import Executor

    return [
        (PersonalizationService, "request", "service.request"),
        (PersonalizationService, "request_many", "service.request_many"),
        (SolveScheduler, "map", "scheduler.map"),
        # The personalizer calls the extractor through its own module
        # global and the solver through the adapters module.
        (personalizer, "extract_preference_space", "extract"),
        (adapters, "solve", "solve"),
        (adapters, "solve_many", "solve_many"),
        (QueryRewriter, "personalized_query", "rewrite"),
        (Executor, "execute", "execute"),
    ]


def _on_result(tracer: Tracer, name: str, span: Span, result) -> None:
    if name == "solve":
        span.attrs["states"] = result.stats.states_examined if result is not None else 0
    elif name == "extract":
        span.attrs["k"] = result.k
    elif name == "service.request_many":
        tracer.note_batch(span, result)


def _wrap_sync(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(span)
        _on_result(tracer, name, span, result)
        return result

    return wrapper


def _wrap_submit(tracer: Tracer, fn, rids):
    @functools.wraps(fn)
    async def submit(self, *args, **kwargs):
        rid = next(rids)
        span = tracer.begin("serving.submit", rid=rid, nested=False)
        try:
            served = await fn(self, *args, **kwargs)
        finally:
            tracer.finish(span)
        batch = tracer.tie(served.response, rid)
        if batch is not None:
            span.attrs["batch"] = batch.id
            span.attrs["batch_s"] = batch.duration
        span.attrs["queue_ms"] = served.queue_ms
        return served

    return submit


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns the uninstaller."""
    from repro.serving.server import AsyncPersonalizationServer

    originals = []
    for owner, attr, name in _targets():
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, _wrap_sync(tracer, fn, name))
    submit = AsyncPersonalizationServer.submit
    originals.append((AsyncPersonalizationServer, "submit", submit))
    AsyncPersonalizationServer.submit = _wrap_submit(tracer, submit, itertools.count(1))

    def uninstall() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return uninstall


# -- per-layer metrics ------------------------------------------------------------


def layer_breakdown(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: self time, busy time and calls.

    Busy time and calls count only a layer's outermost spans (a span
    with no ancestor in the same layer), so a layer that re-enters
    itself is not counted twice; self time sums every span.
    """
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    out = {layer: {"self_s": 0.0, "busy_s": 0.0, "calls": 0} for layer in LAYERS}
    for span in spans:
        if not span.nested:
            continue
        layer = LAYER_OF[span.name]
        out[layer]["self_s"] += selfs[span.id]
        ancestor = by_id.get(span.parent)
        while ancestor is not None and LAYER_OF[ancestor.name] != layer:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            out[layer]["busy_s"] += span.duration
            out[layer]["calls"] += 1
    return out
