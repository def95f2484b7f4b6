"""Distributed campaign fabric: a crash-safe shared store + work stealing.

``expresso explore/fuzz`` campaigns historically coordinated through
in-process structures only: the cross-worker visited-state memo was a
``multiprocessing.Manager`` dict that died with the driver, and shards were
statically partitioned, so a skewed or killed shard stranded its work.
This package replaces both with two on-disk primitives any number of
*processes* — pool workers and entirely separate invocations pointing at
one ``--store PATH`` — can cooperate through:

* :mod:`repro.distrib.store` — :class:`CampaignStore`, a SQLite-WAL-backed
  store and the campaigns' only durable state: visited-state hashes, the
  fuzz corpus and its checkpoints, coverage maps and the exploration
  frontier.  Every row carries a content checksum; all multi-row updates
  are single-writer transactional batches (``BEGIN IMMEDIATE``), so a
  concurrent reader never observes a torn snapshot; ``verify()``/
  ``repair()`` are wired into ``expresso fuzz --repair``.
* :mod:`repro.distrib.queue` — :class:`WorkQueue`, a lease-based
  work-stealing queue in the same store: workers claim units under TTL
  leases with heartbeat renewal; an expired lease (crashed/hung worker)
  makes the unit claimable again with bounded attempts and
  quarantine-on-repeat, so a poisoned unit becomes an error record instead
  of a livelock.

Fault sites (see :mod:`repro.resilience.faults`): ``store.read`` and
``store.write`` (token = ``"<op>"`` or ``"<op>:<unit id>"``), ``lease.renew``
(token = unit id) and ``worker.heartbeat`` (token = unit id) — every failure
mode above is deterministically injectable.
"""

from repro.distrib.store import (
    CampaignStore,
    CorruptRowError,
    StoreMismatchError,
    VisitedStore,
)
from repro.distrib.queue import (
    DistribConfig,
    WorkQueue,
    mark_active,
    mark_finished,
    queue_map,
    run_helper,
)

__all__ = [
    "CampaignStore", "CorruptRowError", "StoreMismatchError", "VisitedStore",
    "DistribConfig", "WorkQueue", "mark_active", "mark_finished",
    "queue_map", "run_helper",
]
