"""``SimSanitizer`` — opt-in runtime invariant checking for the engine.

Enabled with ``REPRO_SANITIZE=1`` in the environment or
``Simulator(sanitize=True)``.  The sanitizer is an observer of the
engine's one event loop: ``Simulator._drain`` calls :meth:`on_event`
for each event before the clock moves, so the loop it checks is the
loop that produces the published numbers.  When off, the loop pays one
``is None`` check per event.  It tracks:

* **packet lifetime** — every ``PacketPool.acquire`` is recorded with
  its allocation site; double releases raise immediately with both
  sites; packets still outstanding at :meth:`check_end_of_run` are
  reported as leaks with where they were acquired,
* **timer tokens** — every ``call_at_cancellable`` token is registered
  with its arming site; tokens neither dispatched nor ``.cancel()``ed
  by end-of-run are reported (a started engine that is never stopped
  shows up here),
* **clock monotonicity** — dispatch timestamps must never run
  backwards,
* **event-stream digest** — every dispatched event folds into a blake2b
  checksum (:meth:`Simulator.digest`) that tests assert equal across
  seeds and ``--parallel`` fan-out.

The capture sites use ``traceback.extract_stack`` — expensive, which is
why the sanitizer is opt-in and the default path stays allocation-free.
"""

from __future__ import annotations

import os
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.digest import EventDigest
from repro.sim.engine import EventToken, SimulationError

__all__ = ["SanitizerError", "SimSanitizer", "sanitize_enabled"]

_FALSEY = {"", "0", "false", "no", "off"}


def sanitize_enabled(environ: Optional[dict] = None) -> bool:
    """True when ``REPRO_SANITIZE`` is set to a truthy value."""
    env = environ if environ is not None else os.environ
    return env.get("REPRO_SANITIZE", "").strip().lower() not in _FALSEY


class SanitizerError(SimulationError):
    """An invariant violation detected by :class:`SimSanitizer`."""


def _capture_site(skip: int = 3, depth: int = 4) -> str:
    """Compact ``file:line in func`` chain for the caller's caller."""
    frames = traceback.extract_stack(limit=skip + depth)[:-skip]
    parts = [
        f"{os.path.basename(f.filename)}:{f.lineno} in {f.name}" for f in frames
    ]
    return " -> ".join(parts) if parts else "<unknown>"


class SimSanitizer:
    """Runtime invariant checker bound to one :class:`Simulator`."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.digest = EventDigest()
        #: id(token) -> (token, arming site) for tokens still queued.
        self._armed: Dict[int, Tuple[EventToken, str]] = {}
        #: id(packet) -> (packet, acquire site) for unreleased packets.
        self._outstanding: Dict[int, Tuple[Any, str]] = {}
        #: id(packet) -> release site for packets sitting in a free list.
        self._freed: Dict[int, str] = {}
        self.monotonic_violations: List[Tuple[float, float]] = []
        self.foreign_releases = 0

    # ------------------------------------------------------------------
    # Hooks called by the engine and PacketPool
    # ------------------------------------------------------------------
    def on_token(self, token: EventToken) -> None:
        self._armed[id(token)] = (token, _capture_site())

    def on_event(self, when: float, seq: int, callback: Any) -> None:
        """Observe one event popped by the engine, before the clock moves."""
        now = self.sim.now
        if when < now:
            self.monotonic_violations.append((now, when))
        self.digest.update(when, seq, callback.__class__.__name__)
        if callback.__class__ is EventToken:
            self._armed.pop(id(callback), None)

    def on_acquire(self, pool, packet) -> None:
        self._freed.pop(id(packet), None)
        self._outstanding[id(packet)] = (packet, _capture_site())

    def on_release(self, pool, packet, owned: bool) -> None:
        key = id(packet)
        if owned:
            self._outstanding.pop(key, None)
            self._freed[key] = _capture_site()
            return
        first = self._freed.get(key)
        if first is not None:
            raise SanitizerError(
                "packet double-release detected\n"
                f"  first released at: {first}\n"
                f"  released again at: {_capture_site()}"
            )
        # A packet that never belonged to any pool: RocePacket.release()
        # guards this already, but a direct pool.release(pkt) can reach
        # here.  Count it rather than raise — it is benign by design.
        self.foreign_releases += 1

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def armed_tokens(self) -> List[Tuple[EventToken, str]]:
        """Tokens still queued and not cancelled."""
        return [
            (token, site)
            for token, site in self._armed.values()
            if not token.cancelled
        ]

    def outstanding_packets(self) -> List[Tuple[Any, str]]:
        """Acquired packets never released back to their pool."""
        return list(self._outstanding.values())

    def check_end_of_run(self, raise_on_leak: bool = True) -> List[str]:
        """Report (and by default raise on) leaks still live right now."""
        problems: List[str] = []
        for _token, site in self.armed_tokens():
            problems.append(f"timer token still armed, scheduled at: {site}")
        for _packet, site in self.outstanding_packets():
            problems.append(f"pooled packet never released, acquired at: {site}")
        for expected, got in self.monotonic_violations:
            problems.append(
                f"clock ran backwards: dispatched t={got} after t={expected}"
            )
        if problems and raise_on_leak:
            noun = "violation" if len(problems) == 1 else "violations"
            raise SanitizerError(
                f"{len(problems)} sanitizer {noun} at end of run:\n  "
                + "\n  ".join(problems)
            )
        return problems

    def drain_and_check(
        self, drain_ns: float = 2e6, raise_on_leak: bool = True
    ) -> List[str]:
        """Run the sim briefly so in-flight packets land, then check.

        A deployment closed mid-flight legitimately has packets on the
        wire; a short bounded drain lets links/NICs deliver and release
        them before the leak check fires.
        """
        sim = self.sim
        sim.run(until=sim.now + drain_ns)
        return self.check_end_of_run(raise_on_leak=raise_on_leak)
