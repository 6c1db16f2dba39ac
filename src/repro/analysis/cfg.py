"""Per-function control-flow graphs over Python ASTs.

:func:`build_cfg` turns one ``ast.FunctionDef`` into a graph of
:class:`Block`\\ s whose statements are *leaf* AST nodes only — compound
statements contribute their guard expressions (an ``if``/``while`` test,
a ``for`` target, a ``with`` context expression, a ``match`` subject) to
the blocks and their bodies become further blocks.  That property is what
makes the dataflow engine sound: walking a stored node with ``ast.walk``
never reaches statements that belong to a different block.

Handled control flow: ``if``/``elif``/``else``, ``while``/``else`` (with
constant-test pruning so ``while True:`` has no false edge), ``for``/
``else``, ``break``/``continue``, ``try``/``except``/``else``/``finally``
(including ``return`` inside ``try`` routing through the ``finally``
chain), ``with``, ``match`` (wildcard detection), ``return``, ``raise``
and generator functions (``yield`` is an ordinary expression).

Async functions build the same graph shape (``async for`` iterates like
``for``, ``async with`` flattens like ``with``) but additionally record
*interference points*: leaf statements at which the coroutine may
suspend and other event-loop tasks may run.  A statement interferes when
it contains an ``ast.Await``, when it is the acquisition of an ``async
with`` context (the implicit ``__aenter__`` await), or when it is an
``async for`` loop header (the per-iteration ``__anext__`` await).
Leaving an ``async with`` body awaits ``__aexit__``; that is recorded as
interference *after* the body's last leaf statement.  Query with
:meth:`CFG.interferes` / :meth:`CFG.interferes_after`; the atomicity
pass (:mod:`repro.analysis.atomicity`) is built on these marks.

Deliberate approximations, chosen to be conservative for the must-
analyses built on top (extra paths can only *remove* facts, never invent
them):

* a ``finally`` body is built once and acts as a join point — all exits
  that route through it (fall-through, ``return``, ``raise``, ``break``)
  share its blocks and its outgoing continuation edges;
* exception edges into ``except`` handlers leave from the block *before*
  the ``try`` (the handler therefore sees the facts held at try entry,
  never facts established inside the body);
* ``assert`` and arbitrary raising expressions do not get their own
  exceptional edges.

Every function exit is one of two distinguished blocks: ``exit`` (normal
return) and ``raise_exit`` (an explicit uncaught ``raise``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

#: Edge kinds, for tests and debugging.  "fall" is plain sequencing.
EDGE_KINDS = ("fall", "true", "false", "iter", "exhausted", "loop",
              "except", "return", "raise", "break", "continue", "case",
              "no-match", "finally")


class Block:
    """One basic block: straight-line leaf statements / guard exprs."""

    __slots__ = ("bid", "stmts", "succs", "preds")

    def __init__(self, bid: int) -> None:
        self.bid = bid
        self.stmts: list[ast.AST] = []
        self.succs: list[tuple[Block, str]] = []
        self.preds: list[tuple[Block, str]] = []

    def link(self, other: "Block", kind: str = "fall") -> None:
        if any(b is other and k == kind for b, k in self.succs):
            return
        self.succs.append((other, kind))
        other.preds.append((self, kind))

    def unlink(self, other: "Block", kind: str) -> None:
        self.succs = [(b, k) for b, k in self.succs
                      if not (b is other and k == kind)]
        other.preds = [(b, k) for b, k in other.preds
                       if not (b is self and k == kind)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Block#{self.bid}({len(self.stmts)} stmts)"


class CFG:
    """The finished graph plus a node -> (block, index) locator."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                 blocks: list[Block], entry: Block, exit_block: Block,
                 raise_exit: Block,
                 interference: set[int] | None = None,
                 post_interference: set[int] | None = None) -> None:
        self.func = func
        self.blocks = blocks
        self.entry = entry
        self.exit = exit_block
        self.raise_exit = raise_exit
        self._loc: dict[int, tuple[Block, int]] = {}
        self._interference: set[int] = set(interference or ())
        self._post_interference: set[int] = set(post_interference or ())
        for block in blocks:
            for idx, node in enumerate(block.stmts):
                self._loc[id(node)] = (block, idx)
                # The leaf property guarantees ast.walk stays inside
                # this block, so an Await found here belongs here.
                if any(isinstance(sub, ast.Await) for sub in ast.walk(node)):
                    self._interference.add(id(node))

    @property
    def is_async(self) -> bool:
        return isinstance(self.func, ast.AsyncFunctionDef)

    def interferes(self, node: ast.AST) -> bool:
        """True when executing ``node`` may suspend the coroutine (an
        await happens within the statement)."""
        return id(node) in self._interference

    def interferes_after(self, node: ast.AST) -> bool:
        """True when control *leaving* ``node`` awaits first (the node
        is the last leaf of an ``async with`` body, whose ``__aexit__``
        is awaited)."""
        return id(node) in self._post_interference

    def interference_points(self) -> list[ast.AST]:
        """Every stored leaf node that is (or is followed by) an
        interference point, in block order."""
        return [node for _, _, node in self.nodes()
                if id(node) in self._interference
                or id(node) in self._post_interference]

    def location(self, node: ast.AST) -> tuple[Block, int] | None:
        return self._loc.get(id(node))

    def nodes(self) -> Iterator[tuple[Block, int, ast.AST]]:
        for block in self.blocks:
            for idx, node in enumerate(block.stmts):
                yield block, idx, node

    def edges(self) -> Iterator[tuple[Block, Block, str]]:
        for block in self.blocks:
            for succ, kind in block.succs:
                yield block, succ, kind

    # ------------------------------------------------------------------
    def label(self, block: Block,
              source_lines: list[str] | None = None) -> str:
        """Human-stable block label for hand-written test edge lists:
        the stripped source text of the block's first statement."""
        if block is self.entry and not block.stmts:
            return "<entry>"
        if block is self.exit:
            return "<exit>"
        if block is self.raise_exit:
            return "<raise>"
        if not block.stmts:
            return f"<empty#{block.bid}>"
        anchor = block.stmts[0]
        lineno = getattr(anchor, "lineno", 0)
        if source_lines and 1 <= lineno <= len(source_lines):
            return source_lines[lineno - 1].strip()
        return f"<block@{lineno}>"

    def edge_list(self, source_lines: list[str] | None = None
                  ) -> list[tuple[str, str, str]]:
        """Sorted, labelled edges — what the CFG tests assert against."""
        return sorted((self.label(src, source_lines),
                       self.label(dst, source_lines), kind)
                      for src, dst, kind in self.edges())


class _FinallyCtx:
    __slots__ = ("entry", "end")

    def __init__(self, entry: Block, end: Block | None) -> None:
        self.entry = entry
        self.end = end


def _const_truth(expr: ast.expr) -> bool | None:
    """Literal truthiness of a loop test, or None when not a constant."""
    if isinstance(expr, ast.Constant):
        return bool(expr.value)
    return None


def _is_wildcard_case(case: "ast.match_case") -> bool:
    return (case.guard is None
            and isinstance(case.pattern, ast.MatchAs)
            and case.pattern.pattern is None)


class _Builder:
    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.blocks: list[Block] = []
        self.entry = self._new()
        self.exit = self._new()
        self.raise_exit = self._new()
        #: (continue_target, break_target, finally_depth_at_loop_entry)
        self.loops: list[tuple[Block, Block, int]] = []
        self.finallies: list[_FinallyCtx] = []
        #: Implicit awaits the AST does not spell out: ``async with``
        #: acquisition / ``async for`` headers (interference at the
        #: node) and ``async with`` body exits (interference after).
        self.interference: set[int] = set()
        self.post_interference: set[int] = set()

    def _new(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    # ------------------------------------------------------------------
    def build(self) -> CFG:
        end = self._body(self.func.body, self.entry)
        if end is not None:
            end.link(self.exit, "fall")
        self._compress()
        return CFG(self.func, self.blocks, self.entry, self.exit,
                   self.raise_exit, interference=self.interference,
                   post_interference=self.post_interference)

    def _compress(self) -> None:
        """Splice out empty non-special blocks so edge lists stay
        readable; drop unreachable empties."""
        special = {self.entry.bid, self.exit.bid, self.raise_exit.bid}
        changed = True
        while changed:
            changed = False
            for block in list(self.blocks):
                if block.bid in special or block.stmts:
                    continue
                if not block.preds:
                    if not block.succs:
                        self.blocks.remove(block)
                        changed = True
                    continue
                if not block.succs:
                    continue
                for pred, pkind in list(block.preds):
                    for succ, skind in list(block.succs):
                        pred.link(succ, pkind if pkind != "fall" else skind)
                for pred, pkind in list(block.preds):
                    pred.unlink(block, pkind)
                for succ, skind in list(block.succs):
                    block.unlink(succ, skind)
                self.blocks.remove(block)
                changed = True

    # ------------------------------------------------------------------
    def _body(self, stmts: list[ast.stmt],
              current: Block | None) -> Block | None:
        for stmt in stmts:
            if current is None:
                # Dead code after a terminator: still build its blocks
                # (they stay unreachable, which the dataflow engine
                # treats as "no facts to check").
                current = self._new()
            current = self._stmt(stmt, current)
        return current

    def _exit_through_finallies(self, current: Block, target: Block,
                                kind: str, stop_depth: int = 0) -> None:
        hop, hop_kind = current, kind
        for ctx in reversed(self.finallies[stop_depth:]):
            hop.link(ctx.entry, hop_kind)
            if ctx.end is None:
                return  # the finally itself diverges
            hop, hop_kind = ctx.end, "finally"
        hop.link(target, hop_kind)

    # ------------------------------------------------------------------
    def _stmt(self, stmt: ast.stmt, current: Block) -> Block | None:
        if isinstance(stmt, ast.Return):
            current.stmts.append(stmt)
            self._exit_through_finallies(current, self.exit, "return")
            return None
        if isinstance(stmt, ast.Raise):
            current.stmts.append(stmt)
            self._exit_through_finallies(current, self.raise_exit, "raise")
            return None
        if isinstance(stmt, ast.Break):
            if self.loops:
                _, brk, depth = self.loops[-1]
                self._exit_through_finallies(current, brk, "break", depth)
            return None
        if isinstance(stmt, ast.Continue):
            if self.loops:
                cont, _, depth = self.loops[-1]
                self._exit_through_finallies(current, cont, "continue",
                                             depth)
            return None
        if isinstance(stmt, ast.If):
            return self._if(stmt, current)
        if isinstance(stmt, ast.While):
            return self._while(stmt, current)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                current.stmts.append(item.context_expr)
                if isinstance(stmt, ast.AsyncWith):
                    # ``__aenter__`` awaits before the body runs.
                    self.interference.add(id(item.context_expr))
                if item.optional_vars is not None:
                    current.stmts.append(item.optional_vars)
            end = self._body(stmt.body, current)
            if isinstance(stmt, ast.AsyncWith):
                # ``__aexit__`` awaits when the body falls off its end.
                # (Exceptional exits share the try/finally approximation
                # documented in the module docstring.)
                anchor = end if end is not None else None
                if anchor is not None and anchor.stmts:
                    self.post_interference.add(id(anchor.stmts[-1]))
                elif stmt.items:
                    self.post_interference.add(
                        id(stmt.items[-1].context_expr))
            return end
        if isinstance(stmt, ast.Match):
            return self._match(stmt, current)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # A nested definition executes as a binding, but its body
            # belongs to a different CFG — store nothing, so ast.walk
            # over this function's blocks never leaks into it.
            return current
        current.stmts.append(stmt)
        return current

    def _if(self, stmt: ast.If, current: Block) -> Block:
        current.stmts.append(stmt.test)
        after = self._new()
        then_block = self._new()
        current.link(then_block, "true")
        then_end = self._body(stmt.body, then_block)
        if then_end is not None:
            then_end.link(after, "fall")
        if stmt.orelse:
            else_block = self._new()
            current.link(else_block, "false")
            else_end = self._body(stmt.orelse, else_block)
            if else_end is not None:
                else_end.link(after, "fall")
        else:
            current.link(after, "false")
        return after

    def _while(self, stmt: ast.While, current: Block) -> Block:
        header = self._new()
        current.link(header, "fall")
        header.stmts.append(stmt.test)
        truth = _const_truth(stmt.test)
        after = self._new()
        body_block = self._new()
        if truth is not False:
            header.link(body_block, "true")
        self.loops.append((header, after, len(self.finallies)))
        body_end = self._body(stmt.body, body_block)
        self.loops.pop()
        if body_end is not None:
            body_end.link(header, "loop")
        if truth is not True:
            if stmt.orelse:
                else_block = self._new()
                header.link(else_block, "false")
                else_end = self._body(stmt.orelse, else_block)
                if else_end is not None:
                    else_end.link(after, "fall")
            else:
                header.link(after, "false")
        return after

    def _for(self, stmt: ast.For | ast.AsyncFor, current: Block) -> Block:
        current.stmts.append(stmt.iter)
        header = self._new()
        current.link(header, "fall")
        header.stmts.append(stmt.target)
        if isinstance(stmt, ast.AsyncFor):
            # Every iteration awaits ``__anext__`` at the header.
            self.interference.add(id(stmt.target))
        after = self._new()
        body_block = self._new()
        header.link(body_block, "iter")
        self.loops.append((header, after, len(self.finallies)))
        body_end = self._body(stmt.body, body_block)
        self.loops.pop()
        if body_end is not None:
            body_end.link(header, "loop")
        if stmt.orelse:
            else_block = self._new()
            header.link(else_block, "exhausted")
            else_end = self._body(stmt.orelse, else_block)
            if else_end is not None:
                else_end.link(after, "fall")
        else:
            header.link(after, "exhausted")
        return after

    def _try(self, stmt: ast.Try, current: Block) -> Block:
        pre = current
        fin_entry: Block | None = None
        fin_end: Block | None = None
        if stmt.finalbody:
            fin_entry = self._new()
            fin_end = self._body(stmt.finalbody, fin_entry)
            self.finallies.append(_FinallyCtx(fin_entry, fin_end))
        body_block = self._new()
        pre.link(body_block, "fall")
        body_end = self._body(stmt.body, body_block)
        if stmt.orelse and body_end is not None:
            body_end = self._body(stmt.orelse, body_end)
        handler_ends: list[Block | None] = []
        for handler in stmt.handlers:
            handler_block = self._new()
            pre.link(handler_block, "except")
            handler_ends.append(self._body(handler.body, handler_block))
        if stmt.finalbody:
            self.finallies.pop()
        after = self._new()
        ends = [end for end in [body_end, *handler_ends] if end is not None]
        if fin_entry is not None:
            for end in ends:
                end.link(fin_entry, "fall")
            # An exception no handler catches still runs the finally.
            pre.link(fin_entry, "except")
            if fin_end is not None:
                fin_end.link(after, "finally")
                fin_end.link(self.raise_exit, "raise")
        else:
            for end in ends:
                end.link(after, "fall")
        return after

    def _match(self, stmt: ast.Match, current: Block) -> Block:
        current.stmts.append(stmt.subject)
        after = self._new()
        saw_wildcard = False
        for case in stmt.cases:
            case_block = self._new()
            current.link(case_block, "case")
            if case.guard is not None:
                case_block.stmts.append(case.guard)
            end = self._body(case.body, case_block)
            if end is not None:
                end.link(after, "fall")
            if _is_wildcard_case(case):
                saw_wildcard = True
        if not saw_wildcard:
            current.link(after, "no-match")
        return after


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder(func).build()
