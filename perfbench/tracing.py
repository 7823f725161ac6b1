"""Span tracer installed from the benchmark's own files.

The traced pass wraps public callables of the program *at class or
module-attribute level* before the public entry point is called, and puts
the original objects back afterwards; nothing under ``src/`` knows about it.

A span has a name (``<layer>.<op>``), a start, an end and a parent.  Per
name the tracer aggregates, on the fly, the number of calls and the *self*
time — the span's duration minus the part its child spans cover — so the
self times of all names add up to the time spent under the outermost spans
and nothing is counted twice.  Full span records are kept only for a
deterministic 1-in-``SAMPLE_EVERY`` sample of commands, keyed by the
command's dot so that all spans of one command share an identifier.

Coroutines are traced per *step* (the synchronous stretch between two
suspension points), so a span never stays open while another task runs
and the single span stack stays correct under asyncio.
"""

from __future__ import annotations

import inspect
import json
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

SAMPLE_EVERY = 50

_MISSING = object()


def _dot_of(message: object) -> Optional[Tuple[int, int]]:
    """The command identifier a message (or batch, or command) carries."""
    inner = getattr(message, "messages", None)
    if inner:
        message = inner[0]
    dot = getattr(message, "dot", None)
    if dot is None:
        return None
    return (dot.source, dot.sequence)


class Tracer:
    """Aggregating span tracer; see the module docstring."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[name, start_ns, child_ns, span_id, dot]``.
        self._stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        #: First start and last end per name (perf_counter_ns), used to
        #: split an enclosing call at the point a child began or ended.
        self.first_start: Dict[str, int] = {}
        self.last_end: Dict[str, int] = {}
        self.records: List[dict] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str, message: object = None) -> list:
        stack = self._stack
        span_id = 0
        dot = None
        if stack and stack[-1][3]:
            dot = stack[-1][4]
        elif message is not None:
            dot = _dot_of(message)
            if dot is not None and (dot[0] * 7919 + dot[1]) % SAMPLE_EVERY:
                dot = None
        if dot is not None:
            self._next_id += 1
            span_id = self._next_id
        frame = [name, perf_counter_ns(), 0, span_id, dot]
        stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        name, start, child_ns, span_id, dot = frame
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        if name not in self.first_start:
            self.first_start[name] = start
        self.last_end[name] = end
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if span_id:
            self.records.append(
                {
                    "id": span_id,
                    "parent": parent[3] if parent is not None and parent[3] else None,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "dot": list(dot),
                }
            )

    class _Span:
        __slots__ = ("tracer", "name", "frame")

        def __init__(self, tracer: "Tracer", name: str) -> None:
            self.tracer = tracer
            self.name = name

        def __enter__(self) -> None:
            self.frame = self.tracer._enter(self.name)

        def __exit__(self, *exc_info) -> None:
            self.tracer._leave(self.frame)

    def span(self, name: str) -> "Tracer._Span":
        """Context manager for a span around the benchmark's own call."""
        return Tracer._Span(self, name)

    # -- wrapping ----------------------------------------------------------------

    def wrap(
        self,
        function: Callable,
        name: str,
        message_arg: Optional[int] = None,
        observe: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """A traced stand-in for ``function``.

        ``message_arg`` is the positional index of the argument that carries
        the command identifier (a message, batch or command), which decides
        whether this call starts a sampled span tree.  ``observe(*args)`` is
        called before the function, outside the span, to count at the same
        boundary.
        """
        enter = self._enter
        leave = self._leave
        if inspect.iscoroutinefunction(function):
            tracer = self

            async def traced_coroutine(*args, **kwargs):
                if observe is not None:
                    observe(*args)
                message = (
                    args[message_arg]
                    if message_arg is not None and len(args) > message_arg
                    else None
                )
                return await _TracedSteps(
                    function(*args, **kwargs), tracer, name, message
                )

            traced_coroutine.__wrapped__ = function
            return traced_coroutine

        if message_arg is None and observe is None:

            def traced(*args, **kwargs):
                frame = enter(name)
                try:
                    return function(*args, **kwargs)
                finally:
                    leave(frame)

        else:

            def traced(*args, **kwargs):
                if observe is not None:
                    observe(*args)
                frame = enter(
                    name,
                    args[message_arg]
                    if message_arg is not None and len(args) > message_arg
                    else None,
                )
                try:
                    return function(*args, **kwargs)
                finally:
                    leave(frame)

        traced.__wrapped__ = function
        return traced

    def patch(self, owner: object, attribute: str, name: str, **options) -> bool:
        """Replace ``owner.attribute`` (a class or module attribute) by its
        traced stand-in; returns whether the attribute exists.

        An attribute inherited from a base class is shadowed on ``owner``
        itself, so only ``owner`` and its subclasses are traced, and the
        shadow is deleted again by :meth:`restore`.
        """
        function = getattr(owner, attribute, None)
        if function is None or not callable(function):
            return False
        own = vars(owner).get(attribute, _MISSING)
        if own is not _MISSING and not inspect.isfunction(own):
            # staticmethod/classmethod/property objects: leave them alone.
            return False
        self.replace(owner, attribute, self.wrap(function, name, **options))
        return True

    def replace(self, owner: object, attribute: str, replacement: object) -> None:
        """Set ``owner.attribute`` and remember how to undo it."""
        self._patches.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, replacement)

    def patch_public_methods(self, cls: type, layer: str) -> None:
        """Trace every public function defined directly on ``cls``."""
        for attribute, value in list(vars(cls).items()):
            if not attribute.startswith("_") and inspect.isfunction(value):
                self.patch(cls, attribute, f"{layer}.{attribute}")

    def restore(self) -> None:
        """Put every patched attribute back exactly as it was."""
        while self._patches:
            owner, attribute, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    def patched(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` of every live patch."""
        return list(self._patches)

    # -- results ------------------------------------------------------------------

    def layer_self_s(self, prefix: str) -> float:
        """Self seconds of every span whose name is ``prefix`` or starts
        with ``prefix + "."``."""
        dotted = prefix + "."
        return sum(
            ns for name, ns in self.self_ns.items()
            if name == prefix or name.startswith(dotted)
        ) / 1e9

    def layer_calls(self, prefix: str) -> int:
        dotted = prefix + "."
        return sum(
            count for name, count in self.calls.items()
            if name == prefix or name.startswith(dotted)
        )

    def total_self_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def write_records(self, path: str) -> None:
        """Write the sampled span records, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, separators=(",", ":")))
                handle.write("\n")


class _TracedSteps:
    """Awaitable that runs a coroutine, opening one span per step."""

    __slots__ = ("_coroutine", "_tracer", "_name", "_message")

    def __init__(self, coroutine, tracer: Tracer, name: str, message: object) -> None:
        self._coroutine = coroutine
        self._tracer = tracer
        self._name = name
        self._message = message

    def __await__(self):
        steps = self._coroutine.__await__()
        enter = self._tracer._enter
        leave = self._tracer._leave
        name = self._name
        message = self._message
        value = None
        error = None
        while True:
            frame = enter(name, message)
            try:
                if error is None:
                    yielded = steps.send(value)
                else:
                    yielded = steps.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                leave(frame)
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                steps.close()
                raise
            except BaseException as raised:  # re-thrown into the coroutine
                value = None
                error = raised
