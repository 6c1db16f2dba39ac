"""Worklist dataflow engine over :mod:`repro.analysis.cfg` graphs.

The engine runs a *forward must* analysis propagating sets of opaque
string facts (e.g. ``"enqueued"``, ``"recovery-root-updated"``) through
a CFG: a fact holds at a point only when it holds on *every* path
reaching it — joins intersect.  Unreached blocks carry the TOP element
(``None``), which is the identity for intersection, so facts are never
weakened by dead paths.  Rules use it to prove obligations ("on all
paths, the enqueue precedes the store").

The transfer function is a plain callable ``flow(facts, node) -> facts``
applied to each leaf statement in block order; :meth:`ForwardAnalysis.
facts_before` replays a block's prefix so rules can query the state
immediately before any individual statement.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Callable

from repro.analysis.cfg import CFG, Block

Facts = frozenset[str]
FlowFn = Callable[[Facts, ast.AST], Facts]

#: TOP: "unreached, so vacuously every fact holds".
TOP = None


class ForwardAnalysis:
    """Run a forward must analysis to fixpoint on construction."""

    def __init__(self, cfg: CFG, flow: FlowFn, *,
                 entry_facts: Facts = frozenset()) -> None:
        self.cfg = cfg
        self.flow = flow
        self.entry_facts = frozenset(entry_facts)
        self._in: dict[int, Facts | None] = {}
        self._out: dict[int, Facts | None] = {}
        self._run()

    # ------------------------------------------------------------------
    def _initial(self, block: Block) -> Facts | None:
        if block is self.cfg.entry:
            return self.entry_facts
        return TOP

    def _join(self, values: list[Facts | None]) -> Facts | None:
        real = [v for v in values if v is not None]
        if not real:
            return TOP
        out = real[0]
        for other in real[1:]:
            out = out & other
        return out

    def _transfer(self, block: Block, facts: Facts | None) -> Facts | None:
        if facts is None:
            return None
        for node in block.stmts:
            facts = self.flow(facts, node)
        return facts

    def _run(self) -> None:
        for block in self.cfg.blocks:
            self._in[block.bid] = self._initial(block)
            self._out[block.bid] = self._transfer(
                block, self._in[block.bid])
        worklist: deque[Block] = deque(self.cfg.blocks)
        queued = {block.bid for block in self.cfg.blocks}
        while worklist:
            block = worklist.popleft()
            queued.discard(block.bid)
            if block.preds:
                merged = self._join(
                    [self._out[pred.bid] for pred, _ in block.preds])
                if block is self.cfg.entry:
                    # entry with back-edges still seeds entry_facts
                    merged = self._join([merged, self.entry_facts])
                self._in[block.bid] = merged
            out = self._transfer(block, self._in[block.bid])
            if out != self._out[block.bid]:
                self._out[block.bid] = out
                for succ, _ in block.succs:
                    if succ.bid not in queued:
                        worklist.append(succ)
                        queued.add(succ.bid)

    # ------------------------------------------------------------------
    def facts_before(self, node: ast.AST) -> Facts | None:
        """State immediately before ``node`` (a leaf statement stored in
        some block), or None when the node is unreachable / unlocated."""
        loc = self.cfg.location(node)
        if loc is None:
            return None
        block, idx = loc
        facts = self._in[block.bid]
        if facts is None:
            return None
        for prev in block.stmts[:idx]:
            facts = self.flow(facts, prev)
        return facts

    def facts_at_exit(self) -> Facts | None:
        return self._in[self.cfg.exit.bid]


def gen_kill_flow(gen: Callable[[ast.AST], Facts],
                  kill: Callable[[ast.AST], Facts] | None = None) -> FlowFn:
    """Build a flow function from per-node gen/kill callbacks."""
    def flow(facts: Facts, node: ast.AST) -> Facts:
        if kill is not None:
            killed = kill(node)
            if killed:
                facts = facts - killed
        added = gen(node)
        if added:
            facts = facts | added
        return facts
    return flow
