"""Per-vertex memory accounting.

The paper's headline contribution is the *individual memory requirement*
during preprocessing (Tables 1-2 report "Memory per vertex").  To measure it
honestly, every vertex of the simulated network owns a :class:`MemoryMeter`;
distributed algorithms register every word they retain across rounds through
the meter, and the meter tracks the high-water mark.  Benchmarks report
``max`` / ``mean`` high-water over vertices.

Conventions used across the library:

* Keys are strings namespaced by protocol stage, e.g. ``"tree/ancestors"``.
* Storing an existing key *replaces* its footprint (the common "update my
  distance estimate in place" pattern keeps a constant footprint).
* Words in flight inside a single round (the message being forwarded right
  now) are *not* charged -- matching the model, where relaying is free of
  storage as long as nothing is retained between rounds.  The relay buffers
  of a cost-charged pipeline (Lemma 1 broadcasts and convergecasts) live
  only inside one ``charge_rounds`` call, so they are charged as a
  *transient*: :meth:`MemoryMeter.charge_transient` raises the high-water
  to ``current + words`` without creating a key, so no round observer or
  :meth:`snapshot` ever sees a relay buffer (none could see one between a
  store and a free inside that call either).

Prefix index
------------
Stage teardown (:meth:`free_prefix`, ``Network.free_all``) used to scan
every live key at every vertex.  The meter now maintains a *group index* --
keys bucketed by their first slash segment, the same grouping
:meth:`snapshot` reports -- so freeing a slash-qualified prefix like
``"tree/"`` or ``"hopset/scratch-"`` only examines the keys of that one
group, not everything the vertex ever stored.  ``last_prefix_scan`` exposes
how many keys the most recent :meth:`free_prefix` examined; the regression
test in ``tests/test_congest_memory.py`` pins that teardown cost no longer
scales with the total live key count.

Holder index
------------
The meters of one network share a *holder index* (:class:`MeterBank`): key
-> the meters currently holding it.  A meter touches it only when a key
appears (the new-key path of :meth:`MemoryMeter.store`) or disappears
(:meth:`MemoryMeter.free` / :meth:`MemoryMeter.free_prefix`).
:meth:`MeterBank.free_key` walks the holders of one key instead of all n
meters, so a stage teardown costs what the stage stored: a cluster tree of
30 vertices inside a 2000-vertex graph frees at 30 meters.  Meters that do
not hold the key are not visited, so their ``last_prefix_scan`` is left as
it was; only holders reset it to 0.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

from ..errors import MemoryAccountingError

#: key -> the meters holding it (a dict used as an insertion-ordered set).
HolderIndex = Dict[str, Dict["MemoryMeter", None]]


def _group_of(key: str) -> str:
    """The index bucket of ``key``: its first slash segment (incl. the
    slash), or the whole key when it has none -- mirroring
    :meth:`MemoryMeter.snapshot`'s grouping."""
    head, sep, _ = key.partition("/")
    return head + "/" if sep else head


class MemoryMeter:
    """Tracks the words a single vertex retains, with a high-water mark."""

    __slots__ = ("_items", "_groups", "_holders", "_current", "_high_water",
                 "last_prefix_scan")

    def __init__(self, holders: Optional[HolderIndex] = None) -> None:
        self._items: Dict[str, int] = {}
        #: Group index: first slash segment -> ordered set of live keys
        #: (a dict used as an insertion-ordered set).
        self._groups: Dict[str, Dict[str, None]] = {}
        #: Holder index shared with the other meters of the same
        #: :class:`MeterBank` (a private one for a standalone meter).
        self._holders: HolderIndex = {} if holders is None else holders
        self._current = 0
        self._high_water = 0
        #: Keys examined by the most recent :meth:`free_prefix` call
        #: (test probe for the teardown-cost regression pin).
        self.last_prefix_scan = 0

    # -- mutation -----------------------------------------------------------

    def store(self, key: str, words: int) -> None:
        """Record that this vertex now retains ``words`` words under ``key``.

        Re-storing a key replaces its previous footprint.
        """
        if words < 0:
            raise MemoryAccountingError(f"negative store of {words} words for {key!r}")
        previous = self._items.get(key)
        if previous is None:
            previous = 0
            self._groups.setdefault(_group_of(key), {})[key] = None
            self._holders.setdefault(key, {})[self] = None
        self._items[key] = words
        self._current += words - previous
        if self._current > self._high_water:
            self._high_water = self._current

    def add(self, key: str, words: int) -> None:
        """Grow the footprint under ``key`` by ``words`` (list-append pattern)."""
        self.store(key, self._items.get(key, 0) + words)

    def charge_transient(self, words: int) -> None:
        """Charge ``words`` that live only for the duration of one
        cost-charged phase (a Lemma 1 relay buffer): the high-water rises
        to ``current + words`` if that is higher; nothing is stored.

        Exactly ``store(fresh, words); free(fresh)`` for a key held nowhere,
        minus the key: items, snapshot, current and high-water end up the
        same (``last_prefix_scan`` is not touched).
        """
        if words < 0:
            raise MemoryAccountingError(f"negative transient charge of {words} words")
        peak = self._current + words
        if peak > self._high_water:
            self._high_water = peak

    def free(self, key: str) -> None:
        """Release everything stored under ``key``.

        Freeing an absent key is a no-op: stages free their scratch space
        unconditionally on exit.

        An exact-key free resolves through the item index without scanning
        any keys, so it resets ``last_prefix_scan`` to 0: the probe always
        describes the *most recent* teardown operation at this meter.  A
        bulk ``Network.free_key`` calls this only at the key's holders, so
        meters that never held the key keep their pin.  Relay buffers never
        pass through here: they are charged through :meth:`charge_transient`.
        """
        self.last_prefix_scan = 0
        self._release(key)

    def _release(self, key: str) -> None:
        """Drop ``key`` from the footprint and all three indexes without
        touching ``last_prefix_scan`` (so :meth:`free_prefix`'s loop does
        not clobber the scan count it just recorded)."""
        previous = self._items.pop(key, None)
        if previous is not None:
            self._current -= previous
            group = _group_of(key)
            members = self._groups[group]
            del members[key]
            if not members:
                del self._groups[group]
            holders = self._holders[key]
            del holders[self]
            if not holders:
                del self._holders[key]

    def free_prefix(self, prefix: str) -> None:
        """Release every key starting with ``prefix`` (stage teardown).

        A prefix containing a slash (``"tree/"``, ``"hopset/scratch-"``)
        resolves through the group index: only the live keys of that
        prefix's first-segment group are examined.  A slash-free prefix
        may span groups and falls back to a full key scan.
        """
        slash = prefix.find("/")
        if slash >= 0:
            members = self._groups.get(prefix[: slash + 1])
            if members is None:
                self.last_prefix_scan = 0
                return
            self.last_prefix_scan = len(members)
            matches = [k for k in members if k.startswith(prefix)]
        else:
            self.last_prefix_scan = len(self._items)
            matches = [k for k in self._items if k.startswith(prefix)]
        for key in matches:
            self._release(key)

    # -- inspection ----------------------------------------------------------

    @property
    def current(self) -> int:
        """Words currently retained."""
        return self._current

    @property
    def high_water(self) -> int:
        """Maximum words ever retained simultaneously."""
        return self._high_water

    def high_water_excluding(self, prefix: str) -> int:
        """High-water is global; this helper reports the *current* footprint
        excluding keys under ``prefix``."""
        return self._current - sum(
            words for key, words in self._items.items() if key.startswith(prefix)
        )

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, int]:
        """Breakdown of the *current* footprint by key prefix.

        With no ``prefix``, keys are grouped by their first slash segment
        (``"tree/ancestors"`` counts under ``"tree/"``; a key without a
        slash groups under itself), so the result maps protocol stage to
        retained words — what the flight recorder samples per round.  With
        a ``prefix``, the exact keys under it are returned instead
        (``snapshot("tree/")`` -> ``{"tree/ancestors": 3, ...}``).
        """
        out: Dict[str, int] = {}
        items = self._items
        if prefix is None:
            for group, members in self._groups.items():
                out[group] = sum(items[k] for k in members)
        else:
            for key, words in items.items():
                if key.startswith(prefix):
                    out[key] = words
        return out

    def items(self) -> Iterable[Tuple[str, int]]:
        return self._items.items()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryMeter(current={self._current}, high_water={self._high_water})"


class MeterBank(Dict[Hashable, MemoryMeter]):
    """The meters of one network, vertex -> :class:`MemoryMeter`, sharing
    one holder index.  Both round engines keep their meters in a bank and
    delegate their bulk memory operations to it."""

    def __init__(self, nodes: Iterable[Hashable]) -> None:
        super().__init__()
        #: key -> the meters currently holding it; maintained by the meters.
        self.holders: HolderIndex = {}
        for v in nodes:
            self[v] = MemoryMeter(self.holders)

    def store_all(self, key: str, words: int) -> None:
        """Store ``words`` under ``key`` at every meter."""
        for meter in self.values():
            meter.store(key, words)

    def free_key(self, key: str) -> None:
        """Free ``key`` at the meters holding it: O(holders), not O(n)."""
        holders = self.holders.get(key)
        if holders:
            for meter in list(holders):
                meter.free(key)

    def free_prefix(self, prefix: str) -> None:
        """Free every key under ``prefix`` at every meter."""
        for meter in self.values():
            meter.free_prefix(prefix)

    def charge_transient(self, words: int) -> None:
        """:meth:`MemoryMeter.charge_transient` at every meter."""
        if words < 0:
            raise MemoryAccountingError(f"negative transient charge of {words} words")
        # The meter method, inlined: this loop runs once per charged
        # broadcast over every vertex of the network.
        for meter in self.values():
            peak = meter._current + words
            if peak > meter._high_water:
                meter._high_water = peak
