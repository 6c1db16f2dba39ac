"""RPL014's engine: blocking calls reachable inside ``async def``\\ s.

:func:`check_blocking_calls` flags synchronous blocking work reachable
on the event loop: ``time.sleep``, ``subprocess``, sqlite
connections/cursors, synchronous file IO and the known
process-supervising repro helpers, found either directly inside an
``async def`` or transitively through exact call edges into sync
helpers.  Work handed to ``asyncio.to_thread`` / ``run_in_executor``
is passed as a *reference*, never a call expression, so offloaded
paths naturally produce no call edge and are accepted.  A function is
read through :func:`~repro.analysis.callgraph.own_nodes`, so a sync
``def`` nested in an ``async def`` counts only where it is called.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.callgraph import FunctionInfo, ProjectIndex, own_nodes

__all__ = [
    "Finding",
    "check_blocking_calls",
]


@dataclass(frozen=True)
class Finding:
    """One RPL014 finding, in the shape lint.py rules re-wrap."""

    relpath: str
    line: int
    column: int
    message: str


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


#: Exact dotted calls that block the calling thread.
_BLOCKING_DOTTED = {
    "time.sleep": "time.sleep",
    "os.system": "os.system",
    "sqlite3.connect": "sqlite3.connect",
    "urllib.request.urlopen": "urllib.request.urlopen",
    "socket.create_connection": "socket.create_connection",
}

#: Dotted prefixes that block (any subprocess entry point).
_BLOCKING_PREFIXES = ("subprocess.",)

#: Attribute calls that perform synchronous file IO on any receiver.
#: Metadata-only operations (is_file/exists/stat/unlink/mkdir) are
#: deliberately exempt: they are cheap point lookups the serve layer
#: relies on for loop-synchronous classification.
_SYNC_IO_ATTRS = frozenset({
    "read_text", "read_bytes", "write_text", "write_bytes",
})

#: Known process-supervising repro helpers (each runs worker processes
#: or a whole campaign to completion).
_BLOCKING_HELPERS = frozenset({"run_cell", "execute_cell",
                               "run_campaign"})

#: Cursor/connection methods that hit sqlite synchronously.
_SQLITE_METHODS = frozenset({
    "execute", "executemany", "executescript", "commit", "rollback",
    "fetchone", "fetchall", "fetchmany", "close",
})


def _sqlite_attrs(cls_node: ast.ClassDef) -> frozenset[str]:
    """Attributes of the class that hold a sqlite connection: assigned
    from ``sqlite3.connect(...)`` directly or through a local."""
    found: set[str] = set()
    for method in cls_node.body:
        if not isinstance(method, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
            continue
        locals_from_connect: set[str] = set()
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            is_connect = (isinstance(value, ast.Call)
                          and _dotted(value.func) == "sqlite3.connect")
            from_local = (isinstance(value, ast.Name)
                          and value.id in locals_from_connect)
            if not (is_connect or from_local):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and is_connect:
                    locals_from_connect.add(target.id)
                elif isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    found.add(target.attr)
    return frozenset(found)


def _describe_blocking_call(call: ast.Call,
                            fn: FunctionInfo) -> str | None:
    """Why this call blocks the event loop, or None when it does not."""
    func = call.func
    dotted = _dotted(func)
    if dotted is not None:
        if dotted in _BLOCKING_DOTTED:
            return f"'{dotted}()' blocks the calling thread"
        if any(dotted.startswith(p) for p in _BLOCKING_PREFIXES):
            return f"'{dotted}()' runs a subprocess synchronously"
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "'open()' performs synchronous file IO"
        if func.id in _BLOCKING_HELPERS:
            return (f"'{func.id}()' supervises worker processes to "
                    "completion")
    if isinstance(func, ast.Attribute):
        if func.attr in _SYNC_IO_ATTRS:
            return (f"'.{func.attr}()' performs synchronous file IO")
        if func.attr in _BLOCKING_HELPERS:
            return (f"'{func.attr}()' supervises worker processes to "
                    "completion")
        if func.attr in _SQLITE_METHODS and fn.cls is not None:
            recv = func.value
            if isinstance(recv, ast.Attribute) and \
                    isinstance(recv.value, ast.Name) and \
                    recv.value.id == "self" and \
                    recv.attr in _sqlite_attrs(fn.cls.node):
                return (f"'self.{recv.attr}.{func.attr}()' is a "
                        "synchronous sqlite operation")
    return None


class _BlockingSummaries:
    """Memoised "does calling this sync function block?" summaries,
    propagated over exact call edges only."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self._memo: dict[str, str | None] = {}

    def why_call(self, call: ast.Call, fn: FunctionInfo, _depth: int = 0,
                 _stack: frozenset[str] = frozenset()) -> str | None:
        """Why ``call`` inside ``fn`` blocks: it blocks itself, or its
        exactly resolved sync callee does."""
        why = _describe_blocking_call(call, fn)
        if why is not None:
            return why
        callee = self.index.resolve_call(call, fn)
        if callee is None or isinstance(callee.node, ast.AsyncFunctionDef):
            return None
        deeper = self.why_blocking(callee, _depth, _stack)
        if deeper is None:
            return None
        return f"{deeper} (reached via '{callee.name}')"

    def why_blocking(self, fn: FunctionInfo, _depth: int = 0,
                     _stack: frozenset[str] = frozenset()) -> str | None:
        cached = self._memo.get(fn.qualname, "?")
        if cached != "?":
            return cached
        if fn.qualname in _stack or _depth > 4:
            return None
        result: str | None = None
        for node in own_nodes(fn):
            if isinstance(node, ast.Call):
                result = self.why_call(node, fn, _depth + 1,
                                       _stack | {fn.qualname})
                if result is not None:
                    break
        self._memo[fn.qualname] = result
        return result


def check_blocking_calls(index: ProjectIndex,
                         relpaths: frozenset[str] | None = None
                         ) -> list[Finding]:
    """Run the RPL014 search over every async function."""
    summaries = _BlockingSummaries(index)
    findings: list[Finding] = []
    for fn in index.functions.values():
        if relpaths is not None and fn.relpath not in relpaths:
            continue
        if not isinstance(fn.node, ast.AsyncFunctionDef):
            continue
        for node in own_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            why = summaries.why_call(node, fn)
            if why is None:
                continue
            findings.append(Finding(
                relpath=fn.relpath,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0) + 1,
                message=(
                    f"{why} inside async '{fn.name}' — the event "
                    "loop stalls for its whole duration; offload "
                    "with await asyncio.to_thread(...) or "
                    "loop.run_in_executor(...)")))
    findings.sort(key=lambda f: (f.relpath, f.line, f.column))
    return findings
