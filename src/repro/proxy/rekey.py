"""Re-encryption of LRS state after a key rotation (footnote 1).

When a layer's keys rotate, the LRS database still holds pseudonyms
minted under the retired keys.  The paper lists three responses:

1. drop the database and restart with new secrets
   (:meth:`repro.proxy.service.PProxService.breach_response`);
2. download the LRS state, re-encrypt it locally, re-upload it, and
   provision fresh enclaves — implemented here;
3. an LRS-specific proxy re-encryption scheme (out of scope).

Option 2 preserves the accumulated interaction history (and hence
model quality) at the cost of a pass over the database.  The
re-encryption is performed by the RaaS *client application*, which is
the party that generated both the old and the new keys.

:class:`OnlineRekeyer` is the resumable, batched pass the live rotation
drill (:mod:`repro.proxy.epochs`) runs in the background while traffic
flows; a stop-the-world pass is one :meth:`OnlineRekeyer.run_batch`
whose limit covers the store.  Its target is the store prefix present
at construction time: rows inserted later were pseudonymized forward
under the *new* epoch by the proxy layers, so the prefix is a fixed
cut-over barrier, not a moving one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.crypto.envelope import EnvelopeCodec
from repro.crypto.keys import LayerKeys
from repro.crypto.provider import CryptoProvider
from repro.lrs.store import EventStore

__all__ = ["RekeyReport", "OnlineRekeyer"]


@dataclass(frozen=True)
class RekeyReport:
    """Summary of one re-encryption pass.

    The translate-cache counters expose the pass's crypto cost: each
    miss is one depseudonymize + one pseudonymize provider call, each
    hit is a dictionary lookup.  ``hits + misses == events_processed``.
    """

    events_processed: int
    users_rekeyed: int
    items_rekeyed: int
    layer: str
    translate_cache_hits: int = 0
    translate_cache_misses: int = 0


@dataclass
class OnlineRekeyer:
    """Resumable, batched re-pseudonymization of one layer's column.

    Construction snapshots ``target = len(store)``; :meth:`run_batch`
    rewrites up to *limit* rows in place and returns how many it
    processed.  The cursor survives between calls, so a coordinator
    can interleave batches with live traffic — or stop entirely (a
    crash, an overload pause) and resume where it stood.  A row's one
    identifier is read and rewritten by sequence in one
    :meth:`repro.lrs.store.EventStore.translate` call, no record built,
    which keeps the user/item indexes consistent mid-pass: gets served
    between batches see a store that is simply part-old, part-new, and
    the dual-epoch response path resolves both.
    """

    store: EventStore
    provider: CryptoProvider
    old_keys: LayerKeys
    new_keys: LayerKeys
    layer: str = "IA"
    cursor: int = 0
    target: int = 0
    users_rekeyed: int = 0
    items_rekeyed: int = 0
    translate_cache_hits: int = 0
    translate_cache_misses: int = 0
    batches_run: int = 0
    _translated: Dict[str, str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.layer not in ("UA", "IA"):
            raise ValueError(f"unknown layer {self.layer!r}")
        self.target = len(self.store)

    @property
    def done(self) -> bool:
        """True once the snapshot prefix is fully re-encrypted."""
        return self.cursor >= self.target

    @property
    def progress_ratio(self) -> float:
        """Fraction of the snapshot prefix already rewritten."""
        if self.target == 0:
            return 1.0
        return min(1.0, self.cursor / self.target)

    def _translate(self, value: str) -> str:
        cached = self._translated.get(value)
        if cached is not None:
            self.translate_cache_hits += 1
            return cached
        self.translate_cache_misses += 1
        plain = self.provider.depseudonymize(
            self.old_keys.symmetric_key, EnvelopeCodec.wire_blob(value)
        )
        fresh = EnvelopeCodec.wire_text(
            self.provider.pseudonymize(self.new_keys.symmetric_key, plain)
        )
        self._translated[value] = fresh
        return fresh

    def run_batch(self, limit: int = 64) -> int:
        """Rewrite up to *limit* rows; returns the number processed."""
        processed = 0
        store = self.store
        column = "user" if self.layer == "UA" else "item"
        while processed < limit and self.cursor < self.target:
            store.translate(self.cursor, column, self._translate)
            if self.layer == "UA":
                self.users_rekeyed += 1
            else:
                self.items_rekeyed += 1
            self.cursor += 1
            processed += 1
        if processed:
            self.batches_run += 1
        return processed

    def report(self) -> RekeyReport:
        """Snapshot of the pass so far (final when :attr:`done`)."""
        return RekeyReport(
            events_processed=self.cursor,
            users_rekeyed=self.users_rekeyed,
            items_rekeyed=self.items_rekeyed,
            layer=self.layer,
            translate_cache_hits=self.translate_cache_hits,
            translate_cache_misses=self.translate_cache_misses,
        )

