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
* :class:`RecordingTracer` — keeps one stack of open spans and collects
  finished root spans.  A tracer has one owner: the thread that drives
  the suite it is bound to (the serving loop, in the service).  Two
  clients interleaving on one tracer would nest into each other's
  trees, so a span that is not the innermost open one when it exits
  fails ``"span exited out of order"`` rather than mixing them.
* :class:`RingTracer` — a :class:`RecordingTracer` whose finished-root
  store is a bounded ring, for long-lived processes such as the asyncio
  directory service where an unbounded trace log would leak; a root
  there may be *bare* (:meth:`RingTracer.keep_bare`), with no tree.

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
        # The tracer's push, inline: a span edge is one clock read.
        tracer = self._tracer
        stack = tracer._stack
        if stack:
            self.parent_id = stack[-1].span_id
        self.start = tracer._now()
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        stack = tracer._stack
        assert stack and stack[-1] is self, "span exited out of order"
        stack.pop()
        self.end = tracer._now()
        self.status = "ok" if exc_type is None else exc_type.__name__
        if stack:
            stack[-1].children.append(self)
        else:
            tracer._keep(self)
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
    """Collects span trees on one stack of open spans (one owner)."""

    enabled = True

    def __init__(self, now: Callable[[], float] | None = None) -> None:
        self._now = now or (lambda: 0.0)
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
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

    def _keep(self, root: Span) -> None:
        self._roots.append(root)

    # -- results ---------------------------------------------------------------

    def finished_roots(self) -> list[Span]:
        """Completed root spans, in completion order."""
        return list(self._roots)

    def current_span(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def reset(self) -> None:
        """Drop all finished roots (open spans keep accumulating)."""
        self._roots.clear()


class RingTracer(RecordingTracer):
    """A :class:`RecordingTracer` whose finished roots form a bounded ring.

    Long-lived processes (the asyncio directory service) cannot keep
    every span tree ever recorded; this variant retains only the most
    recent ``capacity`` roots, evicting the oldest — and fewer when
    their trees are large: a root is whatever one ``with`` block covered
    (a whole wave, in the service), so the ring also holds at most
    ``capacity * SPANS_PER_ROOT`` spans, the newest root aside.  A bare
    root (:meth:`keep_bare`) counts as one span.  Open-span bookkeeping,
    clock binding, and ``finished_roots()`` behave exactly like the
    parent class, so trace analysis (``profile_spans``, ``render_span``)
    works unchanged on whatever the ring still holds.
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

    def keep_bare(
        self, name: str, start: float, end: float, status: str, attrs: dict
    ) -> None:
        """Hold a finished root that has no tree below it.

        It costs an id and a ring slot: the ring keeps the fields as
        they are and builds the :class:`Span` when it is read.
        """
        self._roots.append(
            (name, next(self._ids), None, start, end, status, attrs)
        )

    def _keep(self, root: Span) -> None:
        """Append ``root``, then drop the oldest roots until the trees
        held fit ``capacity * SPANS_PER_ROOT`` spans — never ``root``.

        Ids are handed out in creation order, so the newest span — the
        end of the newest root's rightmost path — and the oldest root
        are as far apart as the spans held.
        """
        roots = self._roots
        roots.append(root)
        newest = root
        while newest.children:
            newest = newest.children[-1]
        room = self.capacity * self.SPANS_PER_ROOT
        while len(roots) > 1:
            oldest = roots[0]
            first = oldest.span_id if isinstance(oldest, Span) else oldest[1]
            if newest.span_id - first < room:
                break
            roots.popleft()

    def finished_roots(self) -> list[Span]:
        """Held roots, oldest first; a bare root becomes a childless span."""
        return [
            root if isinstance(root, Span) else Span(*root)
            for root in self._roots
        ]
