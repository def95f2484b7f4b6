"""The fuzzing corpus: seeds with provenance, and their directory export.

A campaign's durable state lives in its :class:`~repro.distrib.CampaignStore`
(``--store PATH``, else ``<corpus-dir>/campaign.sqlite3``): every checkpoint
commits the ``fuzz/checkpoint`` record, the newly admitted entries' full
records, coverage and telemetry in one transaction.  The corpus directory is
a deterministic **export** of that state, written once per invocation after
the final commit and never read back::

    <dir>/meta.json            campaign seed + completed-round counter
    <dir>/coverage.json        the merged CoverageMap (sorted, byte-stable)
    <dir>/findings.json        deduplicated findings with witnesses
    <dir>/entries/<id>.json    one file per corpus entry
    <dir>/campaign.sqlite3     the campaign store (when no --store is given)

Every export file is written atomically (tmp + fsync + ``os.replace``), and
the export first clears ``*.tmp`` siblings a killed export left behind, so
re-running the export after any crash rewrites the same bytes.

Every entry records *provenance*, not just its artifact: generated roots
carry their ``(campaign seed, index)`` derivation, mutants their parent id,
operator name, operator seed and optional crossover mate — the **mutation
trail**.  :func:`rebuild_candidate` re-derives any entry's source from seed +
trail alone, which is what makes corpora replayable and auditable.  Nothing
in any exported file depends on wall-clock time or process identity.

Dedup is by coverage fingerprint: an entry whose run's full feature set
matches an existing entry's is not admitted, so one behaviour cannot flood
the corpus however many mutants re-discover it.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.distrib import CampaignStore
from repro.fuzz.generate import (
    derive_seed,
    random_monitor,
    roles_from_json,
    roles_to_json,
)
from repro.fuzz.mutate import Candidate, apply_operator
from repro.resilience import atomic_write_json


class CorruptCorpusError(RuntimeError):
    """A campaign's stored state is one the campaign refuses to build on.

    Raised instead of a traceback deep in the loader, with the offending
    path and a one-line diagnosis; ``expresso fuzz`` maps it to exit code 2.
    """

    def __init__(self, root, detail: str):
        self.root = Path(root) if root is not None else None
        self.detail = detail
        super().__init__(f"corrupt corpus at {self.root}: {detail}")


@dataclasses.dataclass
class CorpusEntry:
    """One corpus seed: a monitor candidate plus provenance and coverage."""

    entry_id: str
    name: str
    source: str
    roles: Tuple
    threads: int
    ops: int
    #: Provenance: generated roots have (gen_seed, gen_index); mutants have
    #: parent/op/op_seed (+ mate for crossover).
    gen_seed: Optional[int] = None
    gen_index: Optional[int] = None
    parent: Optional[str] = None
    op: Optional[str] = None
    op_seed: Optional[int] = None
    mate: Optional[str] = None
    #: Coverage bookkeeping (all deterministic; no timing anywhere).
    fingerprint: Optional[str] = None
    features: Optional[dict] = None
    gain: int = 0                  # new features this entry's run added
    schedules_run: int = 0
    #: Power-schedule state (not persisted: rebuilt per campaign).
    picks: int = dataclasses.field(default=0, compare=False)

    def candidate(self) -> Candidate:
        return Candidate(self.name, self.source, roles_from_json(self.roles),
                         self.threads, self.ops)

    def to_dict(self) -> dict:
        record = {
            "entry_id": self.entry_id,
            "name": self.name,
            "source": self.source,
            "roles": roles_to_json(roles_from_json(self.roles)),
            "threads": self.threads,
            "ops": self.ops,
            "gen_seed": self.gen_seed,
            "gen_index": self.gen_index,
            "parent": self.parent,
            "op": self.op,
            "op_seed": self.op_seed,
            "mate": self.mate,
            "fingerprint": self.fingerprint,
            "features": ({axis: sorted(values)
                          for axis, values in sorted(self.features.items())}
                         if self.features is not None else None),
            "gain": self.gain,
            "schedules_run": self.schedules_run,
        }
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        return cls(
            entry_id=data["entry_id"], name=data["name"], source=data["source"],
            roles=tuple(roles_from_json(data["roles"])),
            threads=data["threads"], ops=data["ops"],
            gen_seed=data.get("gen_seed"), gen_index=data.get("gen_index"),
            parent=data.get("parent"), op=data.get("op"),
            op_seed=data.get("op_seed"), mate=data.get("mate"),
            fingerprint=data.get("fingerprint"),
            features=data.get("features"), gain=data.get("gain", 0),
            schedules_run=data.get("schedules_run", 0))


def entry_from_generated(seed: int, index: int) -> CorpusEntry:
    """A corpus root: monitor *index* of the generated corpus for *seed*."""
    generated = random_monitor(seed, index)
    return CorpusEntry(
        entry_id=f"gen-{seed}-{index}".replace("--", "-n"),
        name=generated.name, source=generated.source,
        roles=generated.roles,
        threads=3, ops=2, gen_seed=seed, gen_index=index)


def rebuild_candidate(entry: CorpusEntry,
                      lookup: Dict[str, CorpusEntry]) -> Optional[Candidate]:
    """Re-derive an entry's candidate from provenance alone (seed + trail).

    Generated roots regenerate from ``(gen_seed, gen_index)``; mutants
    rebuild their parent (and mate) recursively, then re-apply the recorded
    operator with its recorded seed.  Returns ``None`` when the trail is
    broken (missing parent) — corpora imported from elsewhere may legally
    carry source-only entries.
    """
    if entry.gen_seed is not None and entry.gen_index is not None:
        generated = random_monitor(entry.gen_seed, entry.gen_index)
        return Candidate(generated.name, generated.source, generated.roles,
                         entry.threads, entry.ops)
    if entry.parent is None or entry.op is None:
        return None
    parent = lookup.get(entry.parent)
    if parent is None:
        return None
    parent_candidate = rebuild_candidate(parent, lookup)
    if parent_candidate is None:
        return None
    # A mutated root keeps the *parent's* stored bounds (resize-bounds is the
    # only operator that changes them, and it does so deterministically).
    parent_candidate = dataclasses.replace(
        parent_candidate, threads=parent.threads, ops=parent.ops)
    mate_candidate = None
    if entry.mate is not None:
        mate_entry = lookup.get(entry.mate)
        if mate_entry is None:
            return None
        mate_candidate = rebuild_candidate(mate_entry, lookup)
        if mate_candidate is None:
            return None
    return apply_operator(entry.op, parent_candidate, entry.op_seed,
                          mate_candidate)


class CorpusStore:
    """The corpus directory export (or a fully in-memory run with ``None``)."""

    STORE_NAME = "campaign.sqlite3"

    def __init__(self, root: Optional[str] = None):
        self.root = Path(root) if root is not None else None

    def state_path(self, store: Optional[str] = None) -> Optional[Path]:
        """Where the campaign's durable state lives: the explicit ``--store``
        path, else ``<root>/campaign.sqlite3`` (``None``: nothing persists)."""
        if store:
            return Path(store)
        return self.root / self.STORE_NAME if self.root is not None else None

    # -- the export -----------------------------------------------------------

    def export(self, entries: Sequence[CorpusEntry], coverage: dict,
               findings: Sequence[dict], meta: dict) -> None:
        """Write the deterministic export of one committed campaign state."""
        if self.root is None:
            return
        # A killed export leaves ``*.tmp`` siblings behind; clear them.
        for directory in (self.root, self.root / "entries"):
            for path in directory.glob("*.tmp"):
                path.unlink(missing_ok=True)
        for entry in entries:
            self.save_entry(entry)
        self.save_state(coverage, findings, meta)

    def save_entry(self, entry: CorpusEntry) -> None:
        entries_dir = self.root / "entries"
        entries_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_json(entries_dir / f"{entry.entry_id}.json",
                          entry.to_dict())

    def save_state(self, coverage: dict, findings: Sequence[dict],
                   meta: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.root / "coverage.json", coverage)
        atomic_write_json(self.root / "findings.json", list(findings))
        atomic_write_json(self.root / "meta.json", meta)

    # -- repair ---------------------------------------------------------------

    def repair(self, store: Optional[str] = None) -> dict:
        """Verify the campaign store and drop the corrupt rows it re-derives.

        Delegates to :meth:`CampaignStore.repair`, which raises
        :class:`~repro.distrib.store.CorruptRowError` naming any corrupt
        corpus or checkpoint row instead of dropping it.  The export is
        not touched: the resume that follows rewrites it.
        """
        cstore = CampaignStore(self.state_path(store))
        try:
            return cstore.repair()
        finally:
            cstore.close()
