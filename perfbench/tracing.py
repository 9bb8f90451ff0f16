"""Layer tracing from outside the program.

:class:`LayerTracer` replaces public entry points of the layers with
thin wrappers that count calls and time them, and puts the originals
back on :meth:`LayerTracer.remove`. Wrappers go on the objects of one
run (an instance attribute shadows the class method) or on the module
global a caller binds (``repro.live.transport.encode_envelope``), so
nothing under ``src/`` changes and untraced runs pay nothing.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any, Callable, DefaultDict, List, Optional, Tuple

_MISSING = object()


def role_of(address: str) -> str:
    """``cache-1`` -> ``cache``; coordinator and datastore map to themselves."""
    return "cache" if address.startswith("cache-") else address


class LayerTracer:
    """Counts and times calls into layer entry points while installed."""

    def __init__(self) -> None:
        #: boundary name -> calls made through it
        self.calls: Counter[str] = Counter()
        #: boundary name -> wall seconds spent inside it
        self.seconds: Counter[str] = Counter()
        #: boundary name -> bytes that crossed it
        self.bytes: Counter[str] = Counter()
        #: destination role -> RPC round trips (s), call to reply
        self.rtt: DefaultDict[str, List[float]] = defaultdict(list)
        self.failed_rpcs = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- install / remove ---------------------------------------------------
    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        """Set ``owner.name`` to ``replacement`` until :meth:`remove`."""
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        """Put back every original, newest patch first."""
        while self._undo:
            owner, name, prior = self._undo.pop()
            if prior is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, prior)

    # -- wrappers -----------------------------------------------------------
    def time_calls(self, owner: Any, name: str, boundary: str,
                   size_of: Optional[Callable[[Any, Any], int]] = None
                   ) -> None:
        """Count and time every call of ``owner.name``; with ``size_of``,
        also sum ``size_of(args, result)`` bytes."""
        original = getattr(owner, name)
        calls, seconds, sizes = self.calls, self.seconds, self.bytes
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            result = original(*args, **kwargs)
            seconds[boundary] += clock() - started
            calls[boundary] += 1
            if size_of is not None:
                sizes[boundary] += size_of(args, result)
            return result

        self.patch(owner, name, timed)

    def watch_rpcs(self, transport: Any, kernel: Any) -> None:
        """Count RPCs per destination role and time each to its reply."""
        original = transport.call
        calls, rtt = self.calls, self.rtt

        def call(address: str, request: Any, *args: Any, **kwargs: Any) -> Any:
            role = role_of(address)
            started = kernel.now
            event = original(address, request, *args, **kwargs)
            calls[f"rpc.{role}"] += 1

            def replied(ev: Any) -> None:
                rtt[role].append(kernel.now - started)
                if not ev.ok:
                    self.failed_rpcs += 1

            event.add_callback(replied)
            return event

        self.patch(transport, "call", call)

    def mean_us(self, boundary: str) -> float:
        """Mean wall microseconds per call through ``boundary`` (0 if none)."""
        calls = self.calls[boundary]
        return self.seconds[boundary] / calls * 1e6 if calls else 0.0
