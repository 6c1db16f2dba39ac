"""Seeded-bug schemes for ``tests/analysis/test_broken_schemes.py``.
The ordering bug is caught by the runtime sanitizer's bottom-up rule
once a workload drives the broken path.  The dropped verify result is
caught by the integrity check a clean controller performs.

The module is genuinely runnable — both schemes construct and execute
writes — so the tests drive real controllers."""

from repro.obs import events as ev
from repro.secure.eager import EagerController
from repro.secure.scue import SCUEController


class BrokenEagerScheme(EagerController):
    """Persists the freshly-bumped PARENT before the leaf, inside a
    helper the hook calls.  This inverts the eager family's bottom-up
    obligation (Fig 6a/6b):
    a crash between the two persists leaves a durable ancestor whose
    counter sum no longer matches its still-volatile leaf."""

    name = "eager"

    def _on_leaf_persist(self, leaf, leaf_index, dummy_delta, cycle):
        plevel, pindex = self.amap.parent_coords(0, leaf_index)
        parent, fetch_latency = self.fetch_node(plevel, pindex,
                                                charge=True)
        slot = self.amap.parent_slot(leaf_index)
        parent.bump_counter(slot, dummy_delta)
        leaf.seal(self.mac, self.store.node_addr(0, leaf_index),
                  parent.counter(slot))
        wpq_stall = self._persist_top_down(parent, leaf, cycle)
        return fetch_latency + wpq_stall

    def _persist_top_down(self, parent, leaf, cycle):
        stall = self._persist_node(parent, cycle)  # ancestor first: bug
        stall += self._persist_node(leaf, cycle)
        if self.obs.enabled:
            self.obs.instant(ev.EV_LEAF_PERSIST, ev.TRACK_CTL,
                             scheme=self.name, cycles=stall)
        return stall


class DroppedVerifyScheme(SCUEController):
    """Routes the chain verification through a helper and then drops
    the helper's boolean — the check can never fail, so a tampered node
    is silently accepted."""

    def _node_ok(self, node, line, parent_counter):
        return node.verify(self.mac, line, parent_counter)

    def _fetch_chain(self, level, index):
        line = self.store.node_addr(level, index)
        hit = self.meta_cache.lookup(line)
        if hit is not None:
            return hit.payload, 0, 0
        parent_counter, latency, fetched = \
            self._parent_counter_chain(level, index)
        latency = max(latency, self.nvm.read_latency(line))
        node = self.store.load(level, index)
        self._meta_reads.add()
        self._node_ok(node, line, parent_counter)  # result dropped: bug
        self._install(line, node, dirty=False)
        return node, latency, fetched + 1
