"""Overload robustness: admission control, deadlines, degradation.

The QoS layer protects the autonomous engines from *overload* the way
:mod:`repro.health` protects the federation from *outages*:

* :class:`WorkloadGate` — per-engine concurrency slots and bounded
  admission queues on the simulated clock, with load shedding
  (:class:`~repro.errors.OverloadError`);
* :class:`Deadline` — per-query consumable time budgets that replace
  the flat per-call timeout as the source of truth
  (:class:`~repro.errors.DeadlineExceeded`), with a bounded grace
  budget for cancellation rollback;
* :class:`QoSPolicy` / :class:`QoSReport` — the per-query contract
  (deadline, priority, staleness bound) and its receipt on the
  :class:`~repro.core.client.XDBReport`.

See ``DESIGN.md`` §6 "Overload & admission control".
"""

from repro.qos.deadline import DEFAULT_GRACE_SECONDS, Deadline
from repro.qos.gate import AdmissionLease, GateConfig, WorkloadGate
from repro.qos.policy import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    QoSPolicy,
    QoSReport,
)

__all__ = [
    "AdmissionLease",
    "DEFAULT_GRACE_SECONDS",
    "Deadline",
    "GateConfig",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "QoSPolicy",
    "QoSReport",
    "WorkloadGate",
]
