"""Overload control & graceful degradation (the PR-5 subsystem).

ADN's premise is that the application-defined chain should degrade
gracefully under load — shed early, shed cheap, keep goodput flat —
instead of collapsing the way measured proxy chains do. This package
closes that control loop end to end:

1. **bounded queues** (:mod:`repro.sim.resources`) — explicit rejects
   (:data:`QUEUE_FULL`) instead of silent infinite waiting;
2. **server-side admission control** (:mod:`.admission`) — CoDel-style
   delay shedding plus utilization-triggered probabilistic shedding
   (:data:`SHED`), priority-aware, installable per-processor and via
   the stdlib ``AdmissionControl`` element;
3. **client-side protection** (:mod:`.budget`) — a token-bucket retry
   budget and a 3-state circuit breaker (:data:`CIRCUIT_OPEN`) layered
   onto :class:`~repro.overload.budget.RetryPolicy`;
4. **deadline propagation** — the remaining deadline budget rides the
   minimal ADN header (:data:`DEADLINE_FIELD`) so downstream processors
   drop already-expired RPCs (:data:`DEADLINE_EXPIRED`) *before*
   spending service time.

The escalation order is: autoscale before shedding, shed before
collapse (wired into :mod:`repro.control.scaling`).
"""

from __future__ import annotations

from .admission import (
    SHED,
    PRIORITY_FIELD,
    AdmissionConfig,
    AdmissionController,
    ShedDecision,
    admission_from_meta,
)
from .budget import (
    CIRCUIT_OPEN,
    CircuitBreaker,
    CircuitBreakerPolicy,
    RetryBudget,
    RetryBudgetConfig,
)

#: ``aborted_by`` token for a bounded-queue reject
QUEUE_FULL = "QueueFull"

#: ``aborted_by`` token for a processor dropping an already-expired RPC
DEADLINE_EXPIRED = "DeadlineExpired"

#: wire-header field name carrying the remaining deadline budget (ms)
DEADLINE_FIELD = "deadline_ms"

#: every overload-control abort reason — explicit, cheap rejects that
#: are NOT retryable by default (retrying a shed amplifies the storm)
OVERLOAD_ABORTS = frozenset(
    {SHED, QUEUE_FULL, CIRCUIT_OPEN, DEADLINE_EXPIRED}
)

__all__ = [
    "SHED",
    "QUEUE_FULL",
    "CIRCUIT_OPEN",
    "DEADLINE_EXPIRED",
    "DEADLINE_FIELD",
    "OVERLOAD_ABORTS",
    "PRIORITY_FIELD",
    "AdmissionConfig",
    "AdmissionController",
    "ShedDecision",
    "admission_from_meta",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "RetryBudget",
    "RetryBudgetConfig",
]
