"""The crash-state model: persist units, the ordering DAG, and crash
cuts.

A recorded event stream is grouped into **persist units** — the atomic
granules of the hardware model:

* every outermost ``_flush_node`` bracket is one unit (an eviction
  writes one node; its WPQ admission and line write are inseparable),
* within a ``write_data`` bracket, TREE-region line writes each get
  their *own* unit (an in-operation ancestor persist is a separate WPQ
  entry and is exactly the granule a top-down bug reorders),
* everything else inside the bracket — the counter-block and data-line
  writes plus root-register updates — forms the operation's unit
  (leaf-write-through persists data+counter together; splitting them
  would model a weaker queue than ADR provides),
* events outside any bracket (delayed root-update landings) are
  singleton units.

Units are ordered by a **conflict partial order** built from events:
unit A precedes B iff some non-enqueue event of A conflicts with a
later non-enqueue event of B.  Two events conflict when they touch the
same NVM line, the same ``(register, slot)``, or — only when the scheme
publishes a :class:`~repro.analysis.protocol.ProtocolSpec` — the same
tree branch (interned ``branch_coords`` ancestors).  The spec is what
*licenses* same-branch ordering: its ``Precedes`` obligations are the
scheme's hardware-enforced persist order, so branch-overlapping units
may not reorder.  Schemes without a spec get only the physical
(same-line/same-register) edges — strictly more interleavings, i.e.
the conservative direction.

The unit graph is topologically reindexed (a cycle, which no recorded
run has produced, raises :class:`~repro.errors.SimulationError`), after
which a **crash cut** is any downward-closed set of units: the persists
that made it to media before power failed.
:meth:`CrashStateModel.iter_cuts` enumerates cuts shard-by-shard (by
newest unit index) with an optional ``max_lag`` bound on how many older
units may still be in flight; :func:`brute_force_cuts` is the
independent reference enumeration used by the pruning-soundness tests.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.explorer.record import (
    KIND_ENQUEUE, KIND_LINE, KIND_REG_ADD, KIND_REG_SET,
    PersistEvent, Recording,
)
from repro.analysis.protocol import spec_for
from repro.errors import SimulationError
from repro.mem.address import Region


@dataclass
class PersistUnit:
    """An atomic group of persist events (see module docstring)."""

    index: int
    kind: str                       # "op" | "flush" | "ancestor" | "solo"
    events: list[PersistEvent]
    lines: frozenset[int] = frozenset()
    branches: frozenset[tuple[int, int]] = frozenset()
    registers: frozenset[tuple[str, int]] = frozenset()

    @property
    def first_seq(self) -> int:
        return self.events[0].seq


@dataclass
class CrashState:
    """A materialized post-crash image: NVM lines, root registers, and
    the data-MAC/plaintext shadows of the newest durable data writes."""

    cut: frozenset[int]
    lines: dict[int, bytes]
    roots: dict[str, list[int]]
    data_macs: dict[int, int]
    plaintexts: dict[int, bytes]
    canonical: str


class CrashStateModel:
    """Persist units + ordering DAG + cut enumeration for one run."""

    def __init__(self, recording: Recording,
                 max_lag: int | None = None) -> None:
        self.recording = recording
        self.max_lag = max_lag
        self.amap = recording.config.address_map()
        self.spec = spec_for(recording.scheme)
        self.units = self._build_units()
        self._event_domains = self._domain_table()
        self._link_units()
        self._down_cache: dict[int, frozenset[int]] = {}

    # -- unit formation -------------------------------------------------
    def _build_units(self) -> list[PersistUnit]:
        region_of = self.amap.region_of
        groups: dict[tuple, tuple[str, list[PersistEvent]]] = {}
        for event in self.recording.events:
            if event.flush >= 0:
                key, kind = ("flush", event.flush), "flush"
            elif event.op >= 0:
                if event.kind == KIND_LINE and \
                        region_of(event.addr) is Region.TREE:
                    key, kind = ("ancestor", event.seq), "ancestor"
                else:
                    key, kind = ("op", event.op), "op"
            else:
                key, kind = ("solo", event.seq), "solo"
            groups.setdefault(key, (kind, []))[1].append(event)
        raw = sorted(groups.values(), key=lambda entry: entry[1][0].seq)
        units = []
        for index, (kind, events) in enumerate(raw):
            lines, branches, registers = self._footprints(events)
            units.append(PersistUnit(index, kind, events, lines,
                                     branches, registers))
        return units

    def _footprints(self, events: list[PersistEvent]):
        lines: set[int] = set()
        branches: set[tuple[int, int]] = set()
        registers: set[tuple[str, int]] = set()
        for event in events:
            if event.kind == KIND_LINE:
                lines.add(event.addr)
                branches.update(self._branch_of(event))
            elif event.kind in (KIND_REG_ADD, KIND_REG_SET):
                registers.add((event.register, event.slot))
        return frozenset(lines), frozenset(branches), frozenset(registers)

    def _branch_of(self, event: PersistEvent) -> frozenset[tuple[int, int]]:
        """Interned branch coordinates (node + all tree ancestors) of a
        metadata line write; DATA lines have no branch footprint."""
        amap = self.amap
        region = amap.region_of(event.addr)
        if region is Region.COUNTER:
            coords = (0, amap.counter_block_index(event.addr))
        elif region is Region.TREE:
            coords = amap.tree_node_coords(event.addr)
        else:
            return frozenset()
        out = set()
        level, index = coords
        while True:
            out.add((level, index))
            if level + 1 >= amap.tree_levels:
                break
            level, index = amap.parent_coords(level, index)
        return frozenset(out)

    def _domain_table(self) -> dict[int, frozenset]:
        """seq -> conflict tokens of that event (enqueues: empty)."""
        use_branches = self.spec is not None
        table: dict[int, frozenset] = {}
        for unit in self.units:
            for event in unit.events:
                if event.kind == KIND_ENQUEUE:
                    table[event.seq] = frozenset()
                elif event.kind == KIND_LINE:
                    tokens = {("line", event.addr)}
                    if use_branches:
                        tokens.update(("branch", c)
                                      for c in self._branch_of(event))
                    table[event.seq] = frozenset(tokens)
                else:
                    table[event.seq] = frozenset(
                        {("reg", event.register, event.slot)})
        return table

    # -- ordering DAG ---------------------------------------------------
    def _link_units(self) -> None:
        n = len(self.units)
        succs: list[set[int]] = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                fwd, back = self._directions(self.units[i], self.units[j])
                if fwd:
                    succs[i].add(j)
                if back:
                    succs[j].add(i)
        self._topo_reindex(succs)

    def _directions(self, a: PersistUnit,
                    b: PersistUnit) -> tuple[bool, bool]:
        """(a-before-b, b-before-a) over conflicting event pairs."""
        fwd = back = False
        domains = self._event_domains
        for ea in a.events:
            da = domains[ea.seq]
            if not da:
                continue
            for eb in b.events:
                if da & domains[eb.seq]:
                    if ea.seq < eb.seq:
                        fwd = True
                    else:
                        back = True
                if fwd and back:
                    return True, True
        return fwd, back

    def _topo_reindex(self, succs: list[set[int]]) -> None:
        """Kahn topological sort (ties broken by first event seq) and
        unit reindex, so every edge points low -> high index and the
        per-shard cut math (newest-unit = max index) is valid."""
        n = len(self.units)
        indegree = [0] * n
        for out in succs:
            for j in out:
                indegree[j] += 1
        ready = sorted((i for i in range(n) if indegree[i] == 0),
                       key=lambda i: self.units[i].first_seq)
        topo: list[int] = []
        while ready:
            node = ready.pop(0)
            topo.append(node)
            freed = []
            for j in succs[node]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    freed.append(j)
            if freed:
                ready.extend(freed)
                ready.sort(key=lambda i: self.units[i].first_seq)
        if len(topo) != n:
            raise SimulationError(
                "persist-unit graph is cyclic: two units each persist "
                "after the other")
        rank = {old: new for new, old in enumerate(topo)}
        self.units = [self.units[old] for old in topo]
        for idx, unit in enumerate(self.units):
            unit.index = idx
        self.succs: list[frozenset[int]] = [frozenset()] * n
        self.preds: list[frozenset[int]] = [frozenset()] * n
        preds: list[set[int]] = [set() for _ in range(n)]
        for old_i, out in enumerate(succs):
            i = rank[old_i]
            mapped = frozenset(rank[j] for j in out)
            self.succs[i] = mapped
            for j in mapped:
                preds[j].add(i)
        self.preds = [frozenset(p) for p in preds]

    # -- cut enumeration ------------------------------------------------
    def down_set(self, index: int) -> frozenset[int]:
        """``index`` plus all transitive predecessors."""
        cached = self._down_cache.get(index)
        if cached is not None:
            return cached
        out = {index}
        stack = [index]
        while stack:
            node = stack.pop()
            for p in self.preds[node]:
                if p not in out:
                    out.add(p)
                    stack.append(p)
        result = frozenset(out)
        self._down_cache[index] = result
        return result

    def iter_cuts(self, lo: int = 0,
                  hi: int | None = None) -> Iterator[frozenset[int]]:
        """Yield every legal crash cut whose newest unit has (topo)
        index in ``[lo, hi)``; the empty cut is yielded when lo == 0.

        A cut with newest unit *m* is ``down(m)`` plus any subset of the
        older non-predecessors that excludes an *upward-closed* lag set
        R (if a persist is still in flight, everything ordered after it
        is too).  ``max_lag`` bounds |R| — the modelled WPQ depth.
        """
        n = len(self.units)
        hi = n if hi is None else min(hi, n)
        if lo == 0:
            yield frozenset()
        for m in range(max(lo, 0), hi):
            down = self.down_set(m)
            others = [i for i in range(m) if i not in down]
            others_fs = frozenset(others)
            succs_in = {i: [s for s in self.succs[i] if s in others_fs]
                        for i in others}
            yield down | others_fs
            seen: set[frozenset[int]] = {frozenset()}
            frontier: list[frozenset[int]] = [frozenset()]
            while frontier:
                grown: list[frozenset[int]] = []
                for lag in frontier:
                    for i in others:
                        if i in lag:
                            continue
                        if any(s not in lag for s in succs_in[i]):
                            continue
                        bigger = lag | {i}
                        if bigger in seen:
                            continue
                        seen.add(bigger)
                        if self.max_lag is not None and \
                                len(bigger) > self.max_lag:
                            continue
                        grown.append(bigger)
                        yield down | (others_fs - bigger)
                frontier = grown

    # -- state materialization ------------------------------------------
    def state_of(self, cut: frozenset[int]) -> CrashState:
        """Replay the cut's events (in seq order) over the baseline
        image and produce the canonical post-crash state."""
        recording = self.recording
        lines = dict(recording.baseline_lines)
        roots = {name: list(values)
                 for name, values in recording.baseline_roots.items()}
        mask = (1 << recording.counter_bits) - 1
        data_macs: dict[int, int] = {}
        plaintexts: dict[int, bytes] = {}
        events = sorted((event for index in cut
                         for event in self.units[index].events),
                        key=lambda e: e.seq)
        for event in events:
            if event.kind == KIND_LINE:
                lines[event.addr] = event.payload
                if event.data_mac is not None:
                    data_macs[event.addr] = event.data_mac
                if event.plaintext is not None:
                    plaintexts[event.addr] = event.plaintext
            elif event.kind == KIND_REG_ADD:
                counters = roots[event.register]
                counters[event.slot] = \
                    (counters[event.slot] + event.value) & mask
            elif event.kind == KIND_REG_SET:
                roots[event.register][event.slot] = event.value & mask
        canonical = _canonical_hash(recording.scheme, lines, roots,
                                    data_macs)
        return CrashState(cut=cut, lines=lines, roots=roots,
                          data_macs=data_macs, plaintexts=plaintexts,
                          canonical=canonical)


def _canonical_hash(scheme: str, lines: dict[int, bytes],
                    roots: dict[str, list[int]],
                    data_macs: dict[int, int]) -> str:
    """sha256 over the post-crash metadata image.  Line payloads are the
    node-image packing (``to_bytes``) the store wrote, so two cuts that
    leave identical media and register state collapse to one hash."""
    digest = hashlib.sha256()
    digest.update(scheme.encode())
    for addr in sorted(lines):
        digest.update(addr.to_bytes(8, "little"))
        digest.update(lines[addr])
    for name in sorted(roots):
        digest.update(name.encode())
        for value in roots[name]:
            digest.update(value.to_bytes(8, "little"))
    for addr in sorted(data_macs):
        digest.update(addr.to_bytes(8, "little"))
        digest.update((data_macs[addr] & ((1 << 64) - 1))
                      .to_bytes(8, "little"))
    return digest.hexdigest()


def brute_force_cuts(model: CrashStateModel) -> set[frozenset[int]]:
    """Reference enumeration of *all* downward-closed unit sets by
    direct closure growth — a different algorithm from
    :meth:`CrashStateModel.iter_cuts`, used to prove the sharded
    enumeration sound and complete (ignores ``max_lag``)."""
    n = len(model.units)
    preds = model.preds
    results: set[frozenset[int]] = set()
    stack: list[frozenset[int]] = [frozenset()]
    while stack:
        included = stack.pop()
        if included in results:
            continue
        results.add(included)
        for i in range(n):
            if i not in included and preds[i] <= included:
                stack.append(included | {i})
    return results
