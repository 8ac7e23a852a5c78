"""Deterministic discrete-event simulation engine.

The engine is a small, SimPy-flavoured core purpose-built for this
reproduction.  A :class:`Simulator` owns a priority queue of timestamped
events; :class:`Process` objects are Python generators that ``yield``
either

* a ``float``/``int`` — sleep for that many simulated nanoseconds,
* a :class:`Future` — suspend until the future resolves (the resolved
  value is sent back into the generator),
* another :class:`Process` — suspend until that process terminates,
* ``None`` — yield the floor briefly (resume at the same timestamp, after
  already-queued events).

Determinism: events firing at the same timestamp are ordered by a
monotonically increasing sequence number, so two runs with the same seed
interleave identically.

Hot-path design notes:

* Heap entries stay plain ``(when, seq, callback)`` tuples so ordering
  runs on C-level tuple comparison; a record type with a Python
  ``__lt__`` would be slower, not faster.
* :class:`Process` and :class:`Future` are themselves callable and are
  pushed directly onto the heap — no per-step lambda or bound-method
  allocation.  The pending send/throw value rides in mailbox slots on
  the process.
* One loop, ``Simulator._drain``, serves both ``run`` and
  ``run_until_complete``.  It dispatches process steps inline (one heap
  pop, zero intermediate Python frames for the common
  resume-after-delay case) and batches the event counter into a single
  telemetry call per drain.  The sanitizer observes that same loop, one
  call per event; with it off the loop pays one ``is None`` check per
  event.
* Cancellation goes through :class:`EventToken` (lazy deletion: a
  cancelled token stays in the heap and dispatches as a no-op), so the
  common non-cancellable path pays nothing for the feature.
"""

from __future__ import annotations

import heapq
import os
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional

from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "AllOf",
    "AnyOf",
    "EventToken",
    "Future",
    "Process",
    "SimulationError",
    "Simulator",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


class EventToken:
    """Handle for a scheduled callback that can be cancelled.

    Cancellation is lazy: the heap entry stays queued and fires as a
    no-op, which keeps cancellation O(1) and leaves the hot scheduling
    path free of bookkeeping.
    """

    __slots__ = ("_callback", "cancelled")

    def __init__(self, callback: Callable[[], None]) -> None:
        self._callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __call__(self) -> None:
        if not self.cancelled:
            self._callback()


class Future:
    """A one-shot value container that processes can wait on.

    A future starts *pending*; exactly one call to :meth:`resolve` or
    :meth:`fail` moves it to *done*.  Callbacks added with
    :meth:`add_callback` fire at resolution time (immediately if already
    done).  Processes waiting on a failed future get the exception thrown
    into their generator.
    """

    __slots__ = ("sim", "_done", "_value", "_exception", "_callbacks", "_pending_value")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[["Future"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError("future value read before resolution")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def resolve(self, value: Any = None) -> None:
        """Mark the future done with ``value`` and fire callbacks."""
        if self._done:
            raise SimulationError("future resolved twice")
        self._done = True
        self._value = value
        self._fire()

    def fail(self, exception: BaseException) -> None:
        """Mark the future failed with ``exception`` and fire callbacks."""
        if self._done:
            raise SimulationError("future resolved twice")
        self._done = True
        self._exception = exception
        self._fire()

    def add_callback(self, callback: Callable[["Future"], None]) -> None:
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire(self) -> None:
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                callback(self)

    def __call__(self) -> None:
        # Timer-event entry point used by Simulator.timeout(): the future
        # is pushed onto the heap directly and resolves with the value
        # stashed in _pending_value when its timestamp comes up.
        self.resolve(self._pending_value)


class AllOf(Future):
    """Future that resolves when every child future has resolved.

    Resolves with the list of child values, in the order the children
    were given.  Fails as soon as any child fails.
    """

    def __init__(self, sim: "Simulator", children: Iterable[Future]) -> None:
        super().__init__(sim)
        self._children = list(children)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.resolve([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Future) -> None:
        if self.done:
            return
        if child.exception is not None:
            self.fail(child.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.resolve([c.value for c in self._children])


class AnyOf(Future):
    """Future that resolves when the first child future resolves.

    Resolves with a ``(index, value)`` tuple identifying the winner.
    """

    def __init__(self, sim: "Simulator", children: Iterable[Future]) -> None:
        super().__init__(sim)
        self._children = list(children)
        if not self._children:
            raise SimulationError("AnyOf requires at least one child")
        for index, child in enumerate(self._children):
            child.add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Future], None]:
        def on_child(child: Future) -> None:
            if self.done:
                return
            if child.exception is not None:
                self.fail(child.exception)
            else:
                self.resolve((index, child.value))

        return on_child


class Process:
    """A simulated activity driven by a generator.

    Created through :meth:`Simulator.spawn`.  A process is itself
    awaitable: yielding a process from another generator suspends the
    caller until the process finishes, with the process's return value
    (via ``return`` inside the generator) delivered to the caller.

    A process is also *callable*: calling it advances the generator one
    step, consuming the pending send value or exception from its mailbox
    slots.  The scheduler pushes the process object itself onto the
    event heap, so resuming after a delay allocates nothing beyond the
    heap tuple.
    """

    __slots__ = (
        "sim",
        "name",
        "_generator",
        "_completion",
        "_send",
        "_send_value",
        "_throw_exc",
    )

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._completion = Future(sim)
        self._send = generator.send
        self._send_value: Any = None
        self._throw_exc: Optional[BaseException] = None

    @property
    def completion(self) -> Future:
        """Future resolved with the generator's return value."""
        return self._completion

    @property
    def alive(self) -> bool:
        return not self._completion.done

    def __call__(self) -> None:
        """Advance the generator until its next suspension point."""
        throw = self._throw_exc
        try:
            if throw is None:
                send_value = self._send_value
                self._send_value = None
                target = self._send(send_value)
            else:
                self._throw_exc = None
                target = self._generator.throw(throw)
        except StopIteration as stop:
            self._completion.resolve(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via future
            self._completion.fail(exc)
            return
        tcls = target.__class__
        if tcls is float or tcls is int:
            if target >= 0:
                sim = self.sim
                heapq.heappush(
                    sim._queue, (sim.now + target, next(sim._sequence), self)
                )
                return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        sim = self.sim
        if target is None:
            heapq.heappush(sim._queue, (sim.now, next(sim._sequence), self))
        elif isinstance(target, (int, float)):
            if target < 0:
                self._throw_exc = SimulationError(f"negative delay: {target}")
                self()
                return
            heapq.heappush(
                sim._queue, (sim.now + target, next(sim._sequence), self)
            )
        elif isinstance(target, Process):
            target._completion.add_callback(self._on_future)
        elif isinstance(target, Future):
            target.add_callback(self._on_future)
        else:
            self._throw_exc = SimulationError(
                f"process {self.name!r} yielded unsupported value {target!r}"
            )
            self()

    def _on_future(self, future: Future) -> None:
        # Deliver the result into the generator on its own event so
        # resolution-time callbacks never reenter user code directly.
        exc = future._exception
        if exc is not None:
            self._throw_exc = exc
        else:
            self._send_value = future._value
        sim = self.sim
        heapq.heappush(sim._queue, (sim.now, next(sim._sequence), self))


#: Stop bound for an unbounded drain.
_INF = float("inf")
#: Completion that never resolves: ``run`` drains without a target process.
_NEVER_DONE = Future(None)


def _suspended_at(generator: Any) -> str:
    """``file:line in func`` where a generator is parked.

    Follows the ``yield from`` chain to the innermost generator frame.
    """
    where = "<not started or finished>"
    while generator is not None:
        frame = getattr(generator, "gi_frame", None)
        if frame is None:
            break
        code = frame.f_code
        where = f"{os.path.basename(code.co_filename)}:{frame.f_lineno} in {code.co_name}"
        generator = generator.gi_yieldfrom
    return where


class Simulator:
    """The event loop: a clock plus a deterministic priority queue."""

    __slots__ = (
        "now",
        "_queue",
        "_sequence",
        "_live",
        "telemetry",
        "_tel_events",
        "_tel_spawns",
        "events_dispatched",
        "sanitizer",
    )

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
        sanitize: Optional[bool] = None,
    ) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = count(1)
        self._live: dict[Process, None] = {}
        self.events_dispatched = 0
        self.telemetry: Telemetry = NULL_TELEMETRY
        self._tel_events = NULL_TELEMETRY.counter("sim.events_dispatched")
        self._tel_spawns = NULL_TELEMETRY.counter("sim.processes_spawned")
        self.attach_telemetry(telemetry or NULL_TELEMETRY)
        # Imported lazily: repro.analysis depends on this module.
        if sanitize is None:
            from repro.analysis.sanitizer import sanitize_enabled

            sanitize = sanitize_enabled()
        if sanitize:
            from repro.analysis.sanitizer import SimSanitizer

            self.sanitizer = SimSanitizer(self)
        else:
            self.sanitizer = None

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Bind ``telemetry`` to this simulator's clock and event loop.

        Must run before components (links, NICs, engines) are built —
        they cache their instruments from ``sim.telemetry`` at
        construction time so the per-event cost stays one no-op call
        when telemetry is disabled.
        """
        self.telemetry = telemetry
        telemetry.bind_clock(lambda: self.now)
        self._tel_events = telemetry.counter("sim.events_dispatched")
        self._tel_spawns = telemetry.counter("sim.processes_spawned")

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past ({when} < {self.now})")
        heapq.heappush(self._queue, (when, next(self._sequence), callback))

    def call_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` nanoseconds."""
        self.call_at(self.now + delay, callback)

    def call_at_cancellable(
        self, when: float, callback: Callable[[], None]
    ) -> EventToken:
        """Like :meth:`call_at`, but returns a cancellable token."""
        token = EventToken(callback)
        self.call_at(when, token)
        if self.sanitizer is not None:
            self.sanitizer.on_token(token)
        return token

    def call_after_cancellable(
        self, delay: float, callback: Callable[[], None]
    ) -> EventToken:
        """Like :meth:`call_after`, but returns a cancellable token."""
        return self.call_at_cancellable(self.now + delay, callback)

    def future(self) -> Future:
        """Create a pending :class:`Future` bound to this simulator."""
        return Future(self)

    def timeout(self, delay: float, value: Any = None) -> Future:
        """A future that resolves with ``value`` after ``delay`` ns."""
        future = Future(self)
        future._pending_value = value
        self.call_at(self.now + delay, future)
        return future

    def all_of(self, futures: Iterable[Future]) -> AllOf:
        return AllOf(self, futures)

    def any_of(self, futures: Iterable[Future]) -> AnyOf:
        return AnyOf(self, futures)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def spawn(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        """Start a new process from ``generator`` on the next event."""
        process = Process(self, generator, name=name)
        self._live[process] = None
        self.call_at(self.now, process)
        self._tel_spawns.inc()
        if self.telemetry.enabled:
            spawned_at = self.now

            def _on_complete(future: Future) -> None:
                self._live.pop(process, None)
                self.telemetry.complete(
                    "sim.process", spawned_at, self.now,
                    process="sim", track=process.name,
                    ok=future.exception is None,
                )

        else:

            def _on_complete(future: Future) -> None:
                self._live.pop(process, None)

        process._completion.add_callback(_on_complete)
        return process

    @property
    def live_processes(self) -> list[Process]:
        """Processes spawned but not yet completed, in spawn order."""
        return list(self._live)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Drain events, optionally stopping the clock at ``until``.

        Returns the simulation time when the run stopped.  With
        ``until=None`` the run continues until no events remain (which
        never happens while periodic processes are alive — pass a bound).
        """
        self._drain(_INF if until is None else until, _NEVER_DONE)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_until_complete(self, process: Process, deadline: Optional[float] = None) -> Any:
        """Run until ``process`` terminates; return its result.

        Raises :class:`SimulationError` if the event queue empties or the
        ``deadline`` passes before the process completes.  The deadline
        check peeks at the head event before popping, so an over-deadline
        event stays queued rather than being silently discarded.  A
        deadlock error names every live process and the ``file:line in
        func`` it is suspended at.
        """
        completion = process._completion
        self._drain(_INF if deadline is None else deadline, completion)
        if not completion._done:
            if self._queue:
                raise SimulationError(
                    f"process {process.name!r} missed deadline {deadline}"
                )
            raise SimulationError(
                f"deadlock: no events pending but process {process.name!r} "
                "alive; live processes:\n  "
                + "\n  ".join(
                    f"{live.name!r} suspended at {_suspended_at(live._generator)}"
                    for live in self._live
                )
            )
        return completion.value

    def _drain(self, until: float, completion: Future) -> None:
        """The event loop: dispatch in ``(when, seq)`` order.

        Stops when ``completion`` is done, the queue empties, or the head
        event lies past ``until`` (that event stays queued).  The
        sanitizer, when attached, observes each event before the clock
        moves.
        """
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        sequence = self._sequence
        observe = None if self.sanitizer is None else self.sanitizer.on_event
        dispatched = 0
        try:
            while not completion._done and queue:
                when = queue[0][0]
                if when > until:
                    break
                _w, seq, callback = pop(queue)
                if observe is not None:
                    observe(when, seq, callback)
                self.now = when
                dispatched += 1
                # Inline dispatch of the common case — a process resuming
                # after a numeric delay — saves a Python frame per event.
                # Both branches are semantically Process.__call__.
                if callback.__class__ is Process:
                    throw = callback._throw_exc
                    try:
                        if throw is None:
                            send_value = callback._send_value
                            callback._send_value = None
                            target = callback._send(send_value)
                        else:
                            callback._throw_exc = None
                            target = callback._generator.throw(throw)
                    except StopIteration as stop:
                        callback._completion.resolve(stop.value)
                        continue
                    except BaseException as exc:  # noqa: BLE001
                        callback._completion.fail(exc)
                        continue
                    tcls = target.__class__
                    if tcls is float or tcls is int:
                        if target >= 0:
                            push(queue, (when + target, next(sequence), callback))
                            continue
                    callback._wait_on(target)
                else:
                    callback()
        finally:
            self.events_dispatched += dispatched
            self._tel_events.inc(dispatched)

    def digest(self) -> str:
        """Event-stream checksum accumulated by the sanitizer.

        Two runs that dispatched the same events in the same order have
        the same digest; tests assert it equal across seeds and
        ``--parallel`` fan-out.  Requires the sanitizer.
        """
        if self.sanitizer is None:
            raise SimulationError(
                "engine digest requires the sanitizer "
                "(REPRO_SANITIZE=1 or Simulator(sanitize=True))"
            )
        return self.sanitizer.digest.hexdigest()

    @property
    def pending_events(self) -> int:
        return len(self._queue)
