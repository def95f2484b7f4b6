"""Resilience: crash-safe state, worker supervision, fault injection.

The campaign layer (``expresso explore/fuzz/mutate``) is built to run
unattended at scale, which means three failure families must become
*per-job events* instead of campaign aborts:

* **process failures** — a worker killed by the OS (OOM, signal) breaks the
  whole ``ProcessPoolExecutor``; :mod:`repro.resilience.supervisor` turns
  that into a per-job error with bounded retry, per-job wall-clock
  deadlines (hang detection), and poison-job quarantine;
* **torn state** — a crash mid-write leaves a half-written JSON file;
  :mod:`repro.resilience.atomic` writes exported files atomically (tmp +
  fsync + ``os.replace``), and campaign state commits in checksummed
  transactions of the campaign store (:mod:`repro.distrib.store`), so it
  always restores to the last committed checkpoint;
* **pathological queries** — one SMT query that never terminates hangs the
  pipeline; ``Solver(timeout_seconds=...)`` returns UNKNOWN instead and
  every caller degrades in the sound direction (see
  ``README.md#robustness--resume``).

All of it is testable byte-for-byte through
:class:`~repro.resilience.faults.FaultPlan` — deterministic, seeded
injection of crashes, hangs, solver timeouts, and disk-write failures at
named sites.
"""

from repro.resilience.atomic import (
    atomic_write_json,
    atomic_write_text,
    checksum_payload,
    checksum_text,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    active_plan,
    fault_check,
    injected,
    install_plan,
)
from repro.resilience.supervisor import (
    JobFailure,
    SupervisorConfig,
    run_supervised,
)

__all__ = [
    "FaultPlan", "FaultRule", "InjectedCrash", "InjectedFault",
    "active_plan", "fault_check", "injected", "install_plan",
    "atomic_write_json", "atomic_write_text",
    "checksum_payload", "checksum_text",
    "JobFailure", "SupervisorConfig", "run_supervised",
]
