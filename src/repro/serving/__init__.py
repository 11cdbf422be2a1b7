"""The serving layer: an asyncio front-end over the personalization stack.

:class:`~repro.core.service.PersonalizationService` is a synchronous
library call; this package turns it into a server loop fit for open-loop
traffic. The layer decomposes into small sans-IO components — every
queueing and deadline decision is a pure function of an explicit
``now``, so the whole policy surface is unit-testable without a single
real sleep — plus one thin asyncio shell that owns the actual waiting:

* :mod:`repro.serving.config` — SLA tiers (deadline, admission budget,
  retry-after, degradation thresholds) and the serving knobs;
* :mod:`repro.serving.batcher` — micro-batching with deadline-driven
  flush: concurrent requests coalesce into one ``request_many``
  supergroup until the batch fills or the tightest flush deadline hits;
* :mod:`repro.serving.admission` — bounded-queue backpressure:
  reject-with-retry-after once outstanding depth exceeds the tier's
  budget (lower tiers reject at shallower depths, so admission is
  tier-ordered under load);
* :mod:`repro.serving.degradation` — graceful algorithm downgrade
  (C-BOUNDARIES → C-MAXBOUNDS, D-MAXDOI → … → D-HEURDOI) when queue
  depth or burned deadline budget crosses the tier's thresholds;
* :mod:`repro.serving.taxonomy` — the querytorque-style
  WIN/IMPROVED/NEUTRAL/REGRESSION outcome classification and the
  per-tier scoreboard;
* :mod:`repro.serving.server` — :class:`AsyncPersonalizationServer`,
  the asyncio shell: one dispatcher loop composing all of the above,
  one solve in flight at a time over an executor bridge so the event
  loop never blocks on a solve. It reads time only from the event
  loop, so the test suite runs this same server on a virtual-time loop;
* :mod:`repro.serving.loadgen` — the seeded Poisson open-loop load
  generator the benchmark and the ``serve`` CLI share.
"""

from repro.serving.admission import AdmissionController, AdmissionRejected, Rejection
from repro.serving.batcher import MicroBatcher, PendingRequest
from repro.serving.config import DEFAULT_TIERS, ServingConfig, SlaTier
from repro.serving.degradation import DEGRADATION_LADDER, Degradation, DegradationPolicy
from repro.serving.server import AsyncPersonalizationServer, ServedResponse
from repro.serving.taxonomy import STATUSES, TierScoreboard, classify

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AsyncPersonalizationServer",
    "DEFAULT_TIERS",
    "DEGRADATION_LADDER",
    "Degradation",
    "DegradationPolicy",
    "MicroBatcher",
    "PendingRequest",
    "Rejection",
    "STATUSES",
    "ServedResponse",
    "ServingConfig",
    "SlaTier",
    "TierScoreboard",
    "classify",
]
