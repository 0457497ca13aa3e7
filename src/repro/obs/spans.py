"""Per-transaction span tracing.

A *span* is one timed, named piece of work — a suite operation, a quorum
collection, one RPC, or the representative-side store/WAL/lock work an
RPC triggers.  Spans nest: the suite operation span is the root, the
RPCs it issues are its children, and the representative work each RPC
performs nests below that, so one traced operation yields one tree
showing exactly where its messages and simulated time went.

Three tracers implement the same small surface:

* :class:`NullTracer` — the default.  ``span()`` returns a shared no-op
  context manager; the only per-call cost at an instrumented site is an
  ``enabled`` attribute check (hot paths branch on it) or one singleton
  return.  Nothing is ever recorded.
* :class:`RecordingTracer` — keeps a thread-local stack of open spans
  (so concurrent client threads, as in
  :class:`~repro.sim.threads.ThreadedClients`, each build their own
  trees) and collects finished root spans under a lock.
* :class:`RingTracer` — a :class:`RecordingTracer` whose finished-root
  store is a bounded ring, for long-lived processes such as the asyncio
  directory service where an unbounded trace log would leak.

Timestamps come from the simulated clock a cluster binds via
:meth:`bind_clock`, so span durations are deterministic simulated time,
not host wall time.  Outcomes are recorded automatically: a span closed
by an exception carries that exception's class name as its ``status``
(e.g. ``"NodeDownError"``, ``"TwoPhaseCommitError"``); spans that exit
cleanly read ``"ok"``.
"""

from __future__ import annotations

import collections
import itertools
import threading
from typing import Any, Callable, Iterator


class Span:
    """One node of a trace tree: name, interval, attributes, children.

    Spans double as context managers; they are created open (via
    :meth:`RecordingTracer.span`) and sealed — end timestamp, status,
    parent linkage — when the ``with`` block exits.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "status",
        "attrs",
        "children",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None = None,
        start: float = 0.0,
        end: float = 0.0,
        status: str = "open",
        attrs: dict[str, Any] | None = None,
        children: list["Span"] | None = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.status = status
        self.attrs = attrs if attrs is not None else {}
        self.children = children if children is not None else []
        self._tracer: "RecordingTracer | None" = None

    # -- context manager -------------------------------------------------------

    def __enter__(self) -> "Span":
        assert self._tracer is not None, "span was not created by a tracer"
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._tracer is not None
        self._tracer._pop(self, exc_type)
        return False  # never swallow the exception

    # -- recording -------------------------------------------------------------

    def set(self, key: str, value: Any) -> None:
        """Attach or overwrite one attribute."""
        self.attrs[key] = value

    # -- aggregation -----------------------------------------------------------

    @property
    def duration(self) -> float:
        """Simulated time the span covered."""
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def message_count(self) -> int:
        """Total network messages attributed to this subtree."""
        return sum(s.attrs.get("messages", 0) for s in self.walk())

    def rpc_rounds(self) -> int:
        """RPC request/reply exchanges in this subtree."""
        return sum(1 for s in self.walk() if s.name.startswith("rpc:"))

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Nested plain-dict form (JSON-ready)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Rebuild a span tree produced by :meth:`to_dict`."""
        return cls(
            name=data["name"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start=data.get("start", 0.0),
            end=data.get("end", 0.0),
            status=data.get("status", "ok"),
            attrs=dict(data.get("attrs", {})),
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, status={self.status!r}, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """Shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: Public alias: instrumented sites that pre-check ``tracer.enabled``
#: use this directly to skip even the no-op ``span()`` call.
NULL_SPAN = _NULL_SPAN


class NullTracer:
    """The default tracer: records nothing, costs (almost) nothing.

    Instrumented hot paths check :attr:`enabled` and skip span creation
    entirely; cooler paths just use the returned singleton no-op span.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """A no-op context manager (always the same object)."""
        return _NULL_SPAN

    def bind_clock(self, now: Callable[[], float]) -> None:
        """Accept (and ignore) a time source."""

    def reset(self) -> None:
        """Nothing recorded, nothing to clear."""

    def finished_roots(self) -> list[Span]:
        """Always empty."""
        return []


#: Shared stateless default for components constructed without a tracer.
NULL_TRACER = NullTracer()


class RecordingTracer:
    """Collects span trees, one stack of open spans per thread."""

    enabled = True

    def __init__(self, now: Callable[[], float] | None = None) -> None:
        self._now = now or (lambda: 0.0)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[Span] = []

    def bind_clock(self, now: Callable[[], float]) -> None:
        """Use a cluster's simulated clock for span timestamps."""
        self._now = now

    # -- span lifecycle --------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Create an open span; enter it with ``with`` to start timing."""
        span = Span(name, next(self._ids), attrs=attrs)
        span._tracer = self
        return span

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            span.parent_id = stack[-1].span_id
        span.start = self._now()
        stack.append(span)

    def _pop(self, span: Span, exc_type: type | None) -> None:
        stack = self._stack()
        assert stack and stack[-1] is span, "span exited out of order"
        stack.pop()
        span.end = self._now()
        span.status = "ok" if exc_type is None else exc_type.__name__
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._keep(span)

    def _keep(self, root: Span) -> None:
        self._roots.append(root)

    # -- results ---------------------------------------------------------------

    def finished_roots(self) -> list[Span]:
        """Completed root spans, in completion order."""
        with self._lock:
            return list(self._roots)

    def current_span(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def reset(self) -> None:
        """Drop all finished roots (open spans keep accumulating)."""
        with self._lock:
            self._roots.clear()


class RingTracer(RecordingTracer):
    """A :class:`RecordingTracer` whose finished roots form a bounded ring.

    Long-lived processes (the asyncio directory service) cannot keep
    every span tree ever recorded; this variant retains only the most
    recent ``capacity`` root spans, evicting the oldest — and fewer
    when their trees are large: a root is whatever one ``with`` block
    covered (a whole wave, in the service), so the ring also holds at
    most ``capacity * SPANS_PER_ROOT`` spans, the newest root aside.
    Open-span bookkeeping, clock binding, and ``finished_roots()``
    behave exactly like the parent class, so trace analysis
    (``profile_spans``, ``render_span``) works unchanged on whatever
    the ring still holds.
    """

    #: Spans the ring has room for, per root of ``capacity``: about what
    #: one operation's tree holds (a lookup 3, a delete 8).
    SPANS_PER_ROOT = 8

    def __init__(
        self, now: Callable[[], float] | None = None, *, capacity: int = 512
    ) -> None:
        if capacity < 1:
            raise ValueError("RingTracer capacity must be >= 1")
        super().__init__(now)
        self.capacity = capacity
        # deque(maxlen=...) supports every _roots operation the parent
        # uses (append / clear / list(...)), plus bounded eviction.
        self._roots = collections.deque(maxlen=capacity)  # type: ignore[assignment]

    def _keep(self, root: Span) -> None:
        roots = self._roots
        roots.append(root)
        evict_beyond(roots, root, self.capacity * self.SPANS_PER_ROOT)


def evict_beyond(
    ring: Any,
    newest: Span,
    room: int,
    root_of: Callable[[Any], Span] = lambda item: item,
) -> None:
    """Drop ``ring``'s oldest items until the span trees it holds fit
    ``room`` spans — but never ``newest``'s own, the item just appended.

    ``root_of(item)`` is an item's root span (a ring of spans needs
    none).  Ids are handed out in
    creation order, so the newest span — the end of the newest root's
    rightmost path — and the oldest root are as far apart as the spans
    held (exact on one thread, the service's case; a fair measure when
    several interleave).
    """
    while newest.children:
        newest = newest.children[-1]
    while newest.span_id - root_of(ring[0]).span_id >= room and len(ring) > 1:
        ring.popleft()
