"""Dynamic fleet reconfiguration: hotplug, brown-out, power capping.

:class:`FleetController` is the control plane's actuator: it changes
fleet membership and device speed *while the data plane keeps serving*.
Every action goes through the shared
:class:`~repro.service.scheduler.SchedulerCore` so dispatch, admission
and the pending queue react on the same simulation tick:

* **hotplug** — a new :class:`~repro.service.fleet.FleetDevice` joins
  the membership list and the pending queue drains onto it;
* **unplug** — a device drains (graceful: in-flight work finishes) or
  is yanked (hard: not-yet-doorbelled submissions migrate back through
  the scheduler, spilling via the existing CPU path if the rest of the
  fleet is saturated), then goes offline;
* **brown-out** — a device is derated to a fraction of nominal speed
  mid-run (the degradation axis of Figure 12/18); response estimates
  scale with the derate, so cost-model placement steers around the
  sick device without being told;
* **power cap** — a fleet-wide wattage budget from
  :mod:`repro.hw.power` is turned into proportional per-device
  derates, modelling a rack-level cap as a coordinated brown-out.

Actions can be applied immediately or scheduled at a virtual timestamp
with :meth:`FleetController.at` — the mechanism the ``slo_degradation``
experiment uses to inject a brown-out mid-run.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.errors import ServiceError
from repro.hw.power import device_active_w, plan_power_cap
from repro.service.fleet import DeviceState, FleetDevice
from repro.service.scheduler import SchedulerCore
from repro.sim.engine import Simulator

#: How often a drain waits between in-flight checks before offlining.
DRAIN_POLL_NS = 1_000.0

# Argument names of the control-plane trace instants.
_ACTION_KEYS = ("device", "detail")


class FleetController:
    """Reconfigures a live fleet through its scheduler core."""

    def __init__(self, scheduler: SchedulerCore) -> None:
        self.scheduler = scheduler
        self.sim: Simulator = scheduler.sim
        #: Reconfiguration audit log: (time_ns, action, device, detail).
        self.events: list[tuple[float, str, str, str]] = []

    # -- scheduling ------------------------------------------------------------

    def at(self, time_ns: float, action: Callable[[], Any]) -> None:
        """Run ``action`` at virtual time ``time_ns`` (>= now)."""
        sim = self.sim
        delay = time_ns - sim.now
        if delay < 0:
            raise ServiceError(
                f"cannot schedule at {time_ns} ns; now is {sim.now}"
            )
        # Armed from a zero-delay hop, after the entries already due
        # now: that sequence number decides ties at ``time_ns``.
        sim.call_later(0.0, partial(sim.call_later, delay, action))

    def _log(self, action: str, device: str, detail: str = "") -> None:
        self.events.append((self.sim.now, action, device, detail))
        tel = self.scheduler.telemetry
        if tel.tracing:
            tel.trace.instant(tel.tracks["control"], action, self.sim.now,
                              _ACTION_KEYS, device, detail)

    def _find(self, name: str) -> FleetDevice:
        matches = [device for device in self.scheduler.devices
                   if device.name == name]
        if not matches:
            raise ServiceError(
                f"no fleet device named {name!r}; members: "
                f"{[d.name for d in self.scheduler.devices]}"
            )
        if len(matches) > 1:
            raise ServiceError(
                f"device name {name!r} is ambiguous: {len(matches)} fleet "
                f"members share it; give members unique names to control "
                f"them individually"
            )
        return matches[0]

    # -- membership ------------------------------------------------------------

    def hotplug(self, member: FleetDevice) -> None:
        """Add ``member`` to the fleet and drain pending work onto it."""
        if member in self.scheduler.devices:
            raise ServiceError(f"{member.name} is already a fleet member")
        if member.sim is not self.sim:
            raise ServiceError(
                f"{member.name} was built on a different simulator; its "
                f"serving callbacks would never run on this one"
            )
        member.set_online()
        member.telemetry = self.scheduler.telemetry
        self.scheduler.devices.append(member)
        self._log("hotplug", member.name)
        self.scheduler.pump()

    def unplug(self, name: str, drain: bool = True) -> None:
        """Remove device ``name`` from service.

        ``drain=True`` is the graceful path: the device stops accepting
        work, everything in flight (batched or doorbelled) completes,
        then the device goes offline.  ``drain=False`` is the yank: work
        that has not rung a doorbell is reclaimed and migrated through
        the scheduler (re-placed, queued, or spilled via the CPU path);
        only work already past the doorbell still completes on the
        device before it offlines.  Either way the device goes offline
        (logged as ``offline``) once an in-flight check, repeated every
        :data:`DRAIN_POLL_NS`, finds it idle.
        """
        device = self._find(name)
        if device.state is DeviceState.OFFLINE:
            raise ServiceError(f"{name} is already offline")
        device.drain()
        self._log("unplug", name, "drain" if drain else "yank")
        if drain:
            # A draining device accepts nothing new, so a partially
            # filled batch would never reach its size trigger — ring
            # the doorbell now or the drain never finishes.
            device.batcher.flush_now()
        else:
            reclaimed = device.take_buffered()
            if reclaimed:
                self._log("migrate", name, f"{len(reclaimed)} requests")
                self.scheduler.migrate(reclaimed)
        self.sim.call_later(0.0, partial(self._offline_when_drained, device))

    def _offline_when_drained(self, device: FleetDevice) -> None:
        if device.inflight > 0:
            self.sim.call_later(DRAIN_POLL_NS,
                                partial(self._offline_when_drained, device))
            return
        device.set_offline()
        self._log("offline", device.name)

    # -- derating --------------------------------------------------------------

    def brown_out(self, name: str, speed_factor: float) -> None:
        """Derate device ``name`` to ``speed_factor`` of nominal speed."""
        device = self._find(name)
        device.set_speed(speed_factor)
        self._log("brown-out", name, f"speed={speed_factor:g}")
        # A *restored* device is new capacity; let pending work at it.
        self.scheduler.pump()

    def restore(self, name: str) -> None:
        """Return device ``name`` to full speed."""
        self.brown_out(name, 1.0)

    # -- power capping ---------------------------------------------------------

    def _online_keyed(self) -> list[tuple[str, FleetDevice]]:
        """Online members with unique keys (duplicates get ``#n``).

        Fleets built from parts may carry two members with one name;
        keying by bare name would undercount their power demand and
        cap only the first one.
        """
        keyed: list[tuple[str, FleetDevice]] = []
        seen: dict[str, int] = {}
        for device in self.scheduler.devices:
            if not device.is_online:
                continue
            count = seen.get(device.name, 0)
            seen[device.name] = count + 1
            key = device.name if count == 0 else f"{device.name}#{count + 1}"
            keyed.append((key, device))
        return keyed

    def fleet_active_w(self) -> dict[str, float]:
        """Active wattage per online fleet member (hw.power catalog)."""
        return {key: device_active_w(device.device)
                for key, device in self._online_keyed()}

    def power_cap(self, budget_w: float) -> dict[str, float]:
        """Cap the online fleet's active draw at ``budget_w``.

        Converts the budget into per-device speed factors via
        :func:`repro.hw.power.plan_power_cap` (proportional derating)
        and applies them; returns the applied plan.  A budget the fleet
        already fits restores every device to full speed, so a single
        ``power_cap`` call also models lifting a cap.
        """
        keyed = self._online_keyed()
        plan = plan_power_cap({key: device_active_w(device.device)
                               for key, device in keyed}, budget_w)
        for key, device in keyed:
            device.set_speed(plan[key])
        self._log("power-cap", "*",
                  f"budget={budget_w:g}W "
                  f"factors={sorted(set(plan.values()))}")
        self.scheduler.pump()
        return plan

    def uncap(self) -> None:
        """Restore every fleet member to full speed."""
        for device in self.scheduler.devices:
            device.set_speed(1.0)
        self._log("power-cap", "*", "lifted")
        self.scheduler.pump()
