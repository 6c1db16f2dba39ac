"""Host-time spans around the simulator's layers, taken from outside it.

The benchmark never edits the package.  It times a layer by replacing
methods of *live instances* (``system.controller.wpq.enqueue = ...``)
with wrappers that record a span per call.  Every hot call in the
scalar access loop goes through such an instance attribute lookup, so
the wrappers see every call; the reconciliation in ``units.py`` checks
that they do.

Any instance attribute on an entry of ``_SEAM_METHODS`` in
``repro.sim.epoch`` makes ``engine="auto"`` fall back to the scalar
loop, so the inner split measured here is the *scalar* engine's.

Spans stay in memory.  The few outer spans (cells, trials, runs) are
kept whole as ``(name, start_ns, end_ns, parent)``; the millions of
inner spans are folded as they close into per-site totals of self
time, calls and child spans, which is all the layer split needs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: The ten inner layers and the methods wrapped for each, as
#: ``(layer, ((component, methods), ...))``.  Components are resolved
#: from a ``System`` by :func:`components`.
LAYERS: tuple[tuple[str, tuple[tuple[str, tuple[str, ...]], ...]], ...] = (
    ("sim.loop", (("system", ("execute",)),)),
    ("mem.cpu_caches", (("hierarchy", ("load", "store", "persist")),)),
    ("secure.controller",
     (("controller", ("read_data", "write_data", "tick")),)),
    ("secure.scheme", (("controller", ("_on_leaf_persist", "_flush_node")),)),
    ("secure.verify_chain", (("controller", ("fetch_node",)),)),
    ("secure.meta_cache", (("meta_cache", ("lookup", "peek", "insert")),)),
    ("tree.store", (("store", ("load", "save")),)),
    ("crypto", (("mac", ("mac", "mac_uncached")),
                ("cme", ("encrypt", "decrypt")),
                ("hash_engine", ("charge",)))),
    ("mem.wpq", (("wpq", ("enqueue", "advance_to")),)),
    ("mem.nvm", (("nvm", ("read_line", "write_line", "read_latency")),)),
)
LAYER_NAMES = tuple(layer for layer, _ in LAYERS)


def components(system) -> dict:
    """The live objects whose methods :data:`LAYERS` wraps."""
    ctl = system.controller
    return {"system": system, "hierarchy": system.hierarchy,
            "controller": ctl, "meta_cache": ctl.meta_cache,
            "store": ctl.store, "mac": ctl.mac, "cme": ctl.cme,
            "hash_engine": ctl.hash_engine, "wpq": ctl.wpq,
            "nvm": ctl.nvm}


class Tracer:
    """In-memory span recorder with per-site self-time accounting.

    A *site* is one ``(layer, method)`` pair.  When a span closes, its
    duration minus the durations of its direct children is added to the
    site's self time, and the parent frame learns the child's duration.
    ``slow`` = ``(layer, seconds)`` busy-waits that long inside every
    span of one layer; only the slowed-layer test sets it.
    """

    def __init__(self, slow: tuple[str, float] | None = None) -> None:
        self.sites: list[tuple[str, str]] = []
        self._index: dict[tuple[str, str], int] = {}
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        #: Spans whose parent span belongs to this site.
        self.children: list[int] = []
        self._stack: list[list[int]] = []
        #: Outer spans kept whole: (name, start_ns, end_ns, parent id).
        self.spans: list[tuple[str, int, int, int]] = []
        self._open: list[int] = []
        self._slow = slow

    # -- sites ----------------------------------------------------------
    def site(self, layer: str, method: str) -> int:
        key = (layer, method)
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = len(self.sites)
            self.sites.append(key)
            self.self_ns.append(0)
            self.calls.append(0)
            self.children.append(0)
        return index

    def calls_of(self, layer: str, method: str) -> int:
        index = self._index.get((layer, method))
        return 0 if index is None else self.calls[index]

    # -- wrapping -------------------------------------------------------
    def instrument(self, system) -> None:
        """Wrap every method of :data:`LAYERS` on this system's parts."""
        parts = components(system)
        for layer, groups in LAYERS:
            for component, methods in groups:
                obj = parts[component]
                for method in methods:
                    self.wrap(obj, method, layer)

    def wrap(self, obj, method: str, layer: str) -> None:
        fn = getattr(obj, method)
        index = self.site(layer, method)
        stack, self_ns, calls, children = \
            self._stack, self.self_ns, self.calls, self.children
        clock = time.perf_counter_ns
        delay_ns = int(self._slow[1] * 1e9) \
            if self._slow and self._slow[0] == layer else 0

        def wrapper(*args, **kwargs):
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                if delay_ns:
                    until = start + delay_ns
                    while clock() < until:
                        pass
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_ns[index] += duration - frame[1]
                calls[index] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    children[parent[0]] += 1

        setattr(obj, method, wrapper)

    @contextmanager
    def outer(self, name: str):
        """A span the benchmark opens around a call it makes itself.

        It joins the self-time stack, so inner spans below it are
        subtracted from it, and it is also kept whole in :attr:`spans`.
        """
        index = self.site(name, "")
        frame = [index, 0]
        parent = self._open[-1] if self._open else -1
        span_id = len(self.spans)
        self.spans.append((name, 0, 0, parent))
        self._open.append(span_id)
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            duration = end - start
            self._stack.pop()
            self._open.pop()
            self.spans[span_id] = (name, start, end, parent)
            self.self_ns[index] += duration - frame[1]
            self.calls[index] += 1
            if self._stack:
                up = self._stack[-1]
                up[1] += duration
                self.children[up[0]] += 1

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> dict[str, tuple[int, int, int]]:
        """``{layer: (self_ns, calls, child spans)}`` summed over sites."""
        out: dict[str, list[int]] = {}
        for index, (layer, _) in enumerate(self.sites):
            row = out.setdefault(layer, [0, 0, 0])
            row[0] += self.self_ns[index]
            row[1] += self.calls[index]
            row[2] += self.children[index]
        return {layer: tuple(row) for layer, row in out.items()}

    def site_table(self) -> list[dict]:
        return [{"layer": layer, "method": method,
                 "self_ns": self.self_ns[i], "calls": self.calls[i],
                 "children": self.children[i]}
                for i, (layer, method) in enumerate(self.sites)]


def corrected_self_s(snapshot: dict[str, tuple[int, int, int]],
                     calibration: dict[str, float]) -> dict[str, float]:
    """Self seconds per layer with the wrappers' own cost taken out.

    A span's measured interval holds ``inner_ns`` of wrapper work; each
    child span also leaves ``outer_ns`` of wrapper work in its parent's
    self time, outside the child's interval.
    """
    inner, outer = calibration["inner_ns"], calibration["outer_ns"]
    return {layer: (self_ns - calls * inner - kids * outer) / 1e9
            for layer, (self_ns, calls, kids) in snapshot.items()}


class _Probe:
    def leaf(self):
        return None

    def parent(self):
        return self.leaf()


def calibrate(calls: int = 200_000, rounds: int = 5) -> dict[str, float]:
    """Per-span wrapper cost in ns, as the median over ``rounds``.

    ``inner_ns`` is what a wrapped no-op records beyond the plain cost
    of calling it; ``outer_ns`` is what a wrapped child adds to its
    parent's self time outside the child's interval (the extra call
    into the wrapper and its bookkeeping).
    """
    inner, outer = [], []
    for _ in range(rounds):
        plain = _Probe()
        start = time.perf_counter_ns()
        for _ in range(calls):
            plain.leaf()
        plain_ns = (time.perf_counter_ns() - start) / calls
        tracer = Tracer()
        probe = _Probe()
        tracer.wrap(probe, "leaf", "leaf")
        tracer.wrap(probe, "parent", "parent")
        for _ in range(calls):
            probe.parent()
        table = tracer.snapshot()
        inner_ns = max(0.0, table["leaf"][0] / calls - plain_ns)
        parent_self_ns = table["parent"][0] / calls
        inner.append(inner_ns)
        outer.append(max(0.0, parent_self_ns - plain_ns - inner_ns))
    inner.sort()
    outer.sort()
    return {"inner_ns": inner[rounds // 2], "outer_ns": outer[rounds // 2]}
