"""Old import path of the serving object.

The offload service is :class:`~repro.service.scheduler.SchedulerCore`;
program code, tests and examples import it from there.  The one name
below exists only because ``perfbench/tracer.py`` imports it to time
the service report.  Drop this module once the tracer wraps
``SchedulerCore.report`` directly.
"""

from repro.service.scheduler import SchedulerCore

OffloadService = SchedulerCore
