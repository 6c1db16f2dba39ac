"""reprolint — the AST lint enforcing simulator-domain invariants.

Two kinds of checks coexist:

* **flat rules** (:class:`LintRule`) — single-module AST scans:
  RPL004, RPL005 and RPL009–RPL011;
* **project rules** (:class:`ProjectRule`) — checks that run once over
  the whole scanned tree with the call graph
  (:class:`~repro.analysis.callgraph.ProjectIndex`) in hand: the
  file-write rule RPL013 and the blocking-call rule RPL014.

Persist order is not linted: the runtime sanitizer
(:mod:`repro.analysis.sanitizer`) and the crash-state explorer check it
on executed runs.  Nor is the serve scheduler's await discipline: the
scheduler tests check that its ledgers come to rest (docs/analysis.md,
"Retired rules").

Both kinds produce the same :class:`~repro.analysis.rules.Violation`
records, honour the same ``# reprolint: disable=<rule>`` suppression
comments and carry the same line-independent fingerprint.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.analysis.blocking import check_blocking_calls
from repro.analysis.callgraph import FunctionInfo, ProjectIndex, own_nodes
from repro.analysis.explorer.seams import EXPLORED_ROOT_REGISTERS
from repro.analysis.rules import ALL_RULES, RuleInfo, Violation, get_rule

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([\w\-, ]+)")
_FIXTURE_PATH_RE = re.compile(r"#\s*reprolint-fixture-path:\s*(\S+)")


class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    def __init__(self, path: Path, relpath: str) -> None:
        self.path = path
        self.source = path.read_text()
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))
        self.relpath = relpath
        # Fixture files may pin the path rules see (test machinery).
        for line in self.lines[:3]:
            match = _FIXTURE_PATH_RE.search(line)
            if match:
                self.relpath = match.group(1)
                break
        self.suppressions: dict[int, set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                names = {token.strip()
                         for token in match.group(1).split(",")
                         if token.strip()}
                self.suppressions[lineno] = names

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def suppressed(self, lineno: int, rule_name: str) -> bool:
        names = self.suppressions.get(lineno, ())
        return rule_name in names or "all" in names


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted form of an attribute chain for messages."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


class LintRule:
    """Base class: path scoping + the shared violation constructor."""

    #: Path prefixes (relative to the scan root) the rule applies to.
    #: An empty tuple means everywhere.
    paths: tuple[str, ...] = ()
    #: Path prefixes exempt from the rule.
    exclude: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.info: RuleInfo = get_rule(self.name)

    name = ""  # overridden

    def applies(self, relpath: str) -> bool:
        if any(relpath.startswith(prefix) for prefix in self.exclude):
            return False
        if not self.paths:
            return True
        return any(relpath.startswith(prefix) for prefix in self.paths)

    def violation(self, mod: ParsedModule, node: ast.AST,
                  message: str) -> Violation:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(rule=self.info, path=mod.relpath, line=lineno,
                         column=col + 1, message=message,
                         snippet=mod.snippet(lineno))

    def check(self, mod: ParsedModule) -> Iterator[Violation]:
        raise NotImplementedError


class ProjectRule(LintRule):
    """A rule that needs the whole scanned tree and the call graph."""

    def check(self, mod: ParsedModule) -> Iterator[Violation]:
        raise NotImplementedError("project rules run via check_project")

    def check_project(self, modules: list[ParsedModule],
                      index: ProjectIndex) -> Iterator[Violation]:
        raise NotImplementedError

    @staticmethod
    def by_relpath(modules: list[ParsedModule]
                   ) -> dict[str, ParsedModule]:
        return {mod.relpath: mod for mod in modules}

    def violation_at(self, mods: dict[str, ParsedModule], relpath: str,
                     line: int, column: int, message: str) -> Violation:
        mod = mods.get(relpath)
        snippet = mod.snippet(line) if mod is not None else ""
        return Violation(rule=self.info, path=relpath, line=line,
                         column=column, message=message, snippet=snippet)


# ======================================================================
# RPL004 — no assert-based runtime validation
# ======================================================================
class BareAssertRule(LintRule):
    """``assert`` disappears under ``python -O``; library code must
    raise typed :mod:`repro.errors` exceptions instead."""

    name = "bare-assert"
    exclude = ("analysis/",)

    def check(self, mod: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Assert):
                yield self.violation(
                    mod, node,
                    "bare assert in library code is stripped under "
                    "python -O — raise a typed repro.errors exception")


# ======================================================================
# RPL005 — counters registered before increment
# ======================================================================
class StatCounterDisciplineRule(LintRule):
    """Chained ``stats.counter("x").add(...)`` creates-or-fetches the
    counter on the hot path (and silently mints a fresh zero counter on
    a typo); counters must be bound once at construction."""

    name = "stat-counter-discipline"
    exclude = ("util/stats.py",)

    _FACTORY_CALLS = ("counter", "mean", "histogram")

    def check(self, mod: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add"):
                continue
            receiver = node.func.value
            if isinstance(receiver, ast.Call) and \
                    isinstance(receiver.func, ast.Attribute) and \
                    receiver.func.attr in self._FACTORY_CALLS:
                yield self.violation(
                    mod, node,
                    f"'{_dotted(receiver.func)}(...).add(...)' "
                    "registers the statistic at increment time — bind "
                    "it to an attribute at construction instead")


# ======================================================================
# RPL009 — no per-access allocation on the hot path
# ======================================================================
class HotPathAllocationRule(LintRule):
    """Container/bytes construction inside a declared hot-path method.

    The methods in :data:`HOT_FUNCTIONS` run once or more per simulated
    memory access; an allocation there is multiplied by the whole
    workload (docs/performance.md).  Cold branches that legitimately
    allocate (overflow handling re-encrypts 64 lines anyway) carry an
    inline ``# reprolint: disable=hot-path-allocation`` next to the
    justified line, so any *new* allocation still surfaces."""

    name = "hot-path-allocation"
    paths = ("secure/", "mem/hierarchy.py")

    #: The per-access call tree: the write/read entry points and the
    #: fetch / bump / persist helpers they reach on every access, and
    #: the CPU hierarchy's steps, which both engines call on every
    #: access.  A declarative list (not call-graph discovery) so the
    #: rule's scope is reviewable in one place and stable under
    #: refactors.
    HOT_FUNCTIONS = frozenset({
        "write_data", "read_data", "fetch_node", "_fetch_chain",
        "_parent_counter_chain", "_bump_leaf", "_bump_parent",
        "_update_parent_counter", "_on_leaf_persist", "_flush_node",
        "_persist_node", "_mark_dirty", "_install",
        "load", "store", "persist",
    })

    _ALLOC_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    @staticmethod
    def _is_bytes(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) \
            and isinstance(node.value, bytes)

    def _describe(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.List):
            return "list display"
        if isinstance(node, ast.Dict):
            return "dict display"
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return "comprehension"
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) \
                    and node.func.id in self._ALLOC_CALLS:
                return f"{node.func.id}() call"
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "join" \
                    and self._is_bytes(node.func.value):
                return "bytes join"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) \
                and (self._is_bytes(node.left)
                     or self._is_bytes(node.right)):
            return "bytes concatenation"
        return None

    def check(self, mod: ParsedModule) -> Iterator[Violation]:
        for func in ast.walk(mod.tree):
            if not isinstance(func,
                              (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or func.name not in self.HOT_FUNCTIONS:
                continue
            for node in ast.walk(func):
                what = self._describe(node)
                if what is not None:
                    yield self.violation(
                        mod, node,
                        f"{what} in hot-path method '{func.name}' "
                        "allocates on every access — hoist to "
                        "__init__, reuse a preallocated buffer, or "
                        "memoize by content where a measured hit rate "
                        "pays for it")


# ======================================================================
# RPL010 — every metadata persist path is an explorer event seam
# ======================================================================
class UnexploredPersistBoundaryRule(LintRule):
    """A scheme persisting metadata where the crash-state explorer
    cannot see it (docs/crash-exploration.md).

    Two escapes exist: ``poke_line`` (the uncounted media path — legal
    for recovery code, which runs *after* a crash, but a runtime persist
    routed through it never reaches the recorder's ``write_line`` seam)
    and a ``RootRegister`` constructed under a name missing from
    :data:`repro.analysis.explorer.seams.EXPLORED_ROOT_REGISTERS`
    (durable register state the explorer would neither snapshot nor
    replay).  ``secure/`` holds no recovery code — the recovery walk
    lives in ``crash/`` — so every hit here is runtime persist logic."""

    name = "unexplored-persist-boundary"
    paths = ("secure/",)

    def check(self, mod: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "poke_line":
                yield self.violation(
                    mod, node,
                    "poke_line bypasses the explorer's write_line seam; "
                    "persist through the WPQ/write_line path or move "
                    "this to the recovery walk in crash/")
            elif isinstance(node.func, ast.Name) \
                    and node.func.id == "RootRegister" \
                    and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str) \
                    and node.args[0].value not in EXPLORED_ROOT_REGISTERS:
                yield self.violation(
                    mod, node,
                    f"root register {node.args[0].value!r} is not an "
                    "explorer seam; add it to repro.analysis.explorer."
                    "seams.EXPLORED_ROOT_REGISTERS so crash exploration "
                    "snapshots and replays it")


# ======================================================================
# RPL011 — report bundles are pure functions of (campaign, seed)
# ======================================================================
class NondeterministicReportRule(LintRule):
    """Wall-clock or unseeded randomness inside the report pipeline.

    The golden-bundle guarantee (docs/figures.md) is checked in CI by
    rendering the same campaign twice and diffing sha256 per file, so
    any entropy source in ``repro.viz`` that is not the explicit report
    seed breaks a release gate.  The only sanctioned RNG shape is
    ``random.Random(seed)`` / ``Random(seed)`` with an argument; module-
    level ``random.*`` calls share interpreter-global state and argless
    constructors seed from the OS."""

    name = "nondeterministic-report"
    paths = ("viz/",)

    #: datetime attribute chains that read the wall clock.
    _WALL_CLOCK = {"datetime.now", "datetime.utcnow", "date.today",
                   "datetime.datetime.now", "datetime.datetime.utcnow",
                   "datetime.date.today"}

    @staticmethod
    def _dotted(node: ast.AST) -> str | None:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def check(self, mod: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = self._dotted(node.func)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            if head == "random":
                if rest == "Random" and (node.args or node.keywords):
                    continue    # the sanctioned seeded shape
                yield self.violation(
                    mod, node,
                    f"{dotted}() draws from interpreter-global or OS-"
                    "seeded randomness; reports must derive every "
                    "random draw from random.Random(report_seed)")
            elif dotted == "Random" and not (node.args or node.keywords):
                yield self.violation(
                    mod, node,
                    "Random() with no seed argument seeds from the OS; "
                    "pass the report seed explicitly")
            elif head == "time" and rest:
                yield self.violation(
                    mod, node,
                    f"{dotted}() reads the wall clock; bundle bytes "
                    "must not depend on when the report runs — derive "
                    "labels from the campaign cache instead")
            elif dotted in self._WALL_CLOCK:
                yield self.violation(
                    mod, node,
                    f"{dotted}() stamps wall-clock time into the "
                    "report; bundles are compared byte-for-byte across "
                    "runs, so timestamps belong in the campaign cache, "
                    "not the bundle")


# ======================================================================
# RPL014 — blocking calls in async code (engine in blocking.py)
# ======================================================================
class BlockingCallInAsyncRule(ProjectRule):
    """Synchronous blocking work — ``time.sleep``, subprocess, sqlite
    operations, sync file IO, the process-supervising repro helpers —
    reachable inside an ``async def`` through exact call edges stalls
    every task on the event loop.  Offloaded work
    (``asyncio.to_thread`` / ``run_in_executor``) passes the callable
    by reference, creates no call edge, and is accepted."""

    name = "blocking-call-in-async"
    exclude = ("analysis/",)

    def check_project(self, modules: list[ParsedModule],
                      index: ProjectIndex) -> Iterator[Violation]:
        mods = self.by_relpath(modules)
        scope = frozenset(r for r in mods if self.applies(r))
        for finding in check_blocking_calls(index, scope):
            yield self.violation_at(mods, finding.relpath, finding.line,
                                    finding.column, finding.message)


# ======================================================================
# RPL013 — torn final-path file writes
# ======================================================================
class TornFileWriteRule(ProjectRule):
    """A write that lands on a final path directly (``open(p, "w")``,
    ``Path.write_text``, ``json.dump``, a sqlite database created
    without WAL journaling) can be torn by a crash mid-write.  The
    sanctioned discipline is stage-to-temp -> fsync -> ``os.replace``
    (:mod:`repro.util.atomic`); a write is accepted when its function
    participates in that discipline itself (it calls ``os.replace`` or
    targets a ``tempfile``-staged name) or — via the call graph — when
    every exact caller of the staging helper performs the
    ``os.replace``."""

    name = "torn-file-write"
    paths = ("campaign/", "serve/", "viz/", "perf/")

    _STAGING_CTORS = ("tempfile.mkstemp", "tempfile.NamedTemporaryFile",
                      "tempfile.mkdtemp", "tempfile.TemporaryDirectory")

    def check_project(self, modules: list[ParsedModule],
                      index: ProjectIndex) -> Iterator[Violation]:
        mods = self.by_relpath(modules)
        self._index = index
        self._has_replace_memo: dict[str, bool] = {}
        for fn in index.functions.values():
            if fn.relpath not in mods or not self.applies(fn.relpath):
                continue
            yield from self._check_function(fn, mods)

    # -- per-function facts ---------------------------------------------
    def _has_replace(self, fn: FunctionInfo) -> bool:
        cached = self._has_replace_memo.get(fn.qualname)
        if cached is None:
            cached = any(
                isinstance(node, ast.Call)
                and _dotted(node.func) == "os.replace"
                for node in own_nodes(fn))
            self._has_replace_memo[fn.qualname] = cached
        return cached

    def _callers_all_replace(self, fn: FunctionInfo) -> bool:
        """Call-graph acceptance: the function is a staging helper whose
        every exact caller completes the rename."""
        callers = self._index.callers_of(fn)
        return bool(callers) and all(
            self._has_replace(caller) for caller, _ in callers)

    @staticmethod
    def _staged_names(fn: FunctionInfo) -> set[str]:
        staged: set[str] = set()
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            dotted = _dotted(value.func) if isinstance(value, ast.Call) \
                else None
            if dotted not in TornFileWriteRule._STAGING_CTORS:
                continue
            for target in node.targets:
                elts = target.elts if isinstance(target, ast.Tuple) \
                    else [target]
                staged.update(e.id for e in elts
                              if isinstance(e, ast.Name))
        return staged

    @staticmethod
    def _handle_names(fn: FunctionInfo) -> set[str]:
        """Locals bound to file handles opened in this function — a
        ``json.dump`` into one is judged by where the *open* points."""
        handles: set[str] = set()

        def opens_file(value: ast.expr) -> bool:
            return (isinstance(value, ast.Call)
                    and (_dotted(value.func) in ("os.fdopen",)
                         or (isinstance(value.func, ast.Name)
                             and value.func.id == "open")
                         or (isinstance(value.func, ast.Attribute)
                             and value.func.attr == "open")))

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and opens_file(node.value):
                handles.update(t.id for t in node.targets
                               if isinstance(t, ast.Name))
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if opens_file(item.context_expr) and \
                            isinstance(item.optional_vars, ast.Name):
                        handles.add(item.optional_vars.id)
        return handles

    @staticmethod
    def _write_mode(call: ast.Call) -> bool:
        mode: ast.expr | None = call.args[1] if len(call.args) >= 2 \
            else None
        for kw in call.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if isinstance(mode, ast.Constant) and \
                isinstance(mode.value, str):
            return any(c in mode.value for c in "wax+")
        return False  # no/unknown mode: open() defaults to read

    @staticmethod
    def _root_name(expr: ast.expr) -> str:
        while isinstance(expr, ast.Attribute):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else ""

    # -- the check -------------------------------------------------------
    def _check_function(self, fn: FunctionInfo,
                        mods: dict[str, ParsedModule]
                        ) -> Iterator[Violation]:
        staged = self._staged_names(fn)
        handles = self._handle_names(fn)
        atomic = self._has_replace(fn) or self._callers_all_replace(fn)
        wal_ok = any(
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "journal_mode" in node.value
            for node in own_nodes(fn))

        def flag(call: ast.Call, desc: str) -> Violation:
            return self.violation_at(
                mods, fn.relpath, call.lineno, call.col_offset + 1,
                f"{desc} writes the final path directly — a crash "
                "mid-write leaves a torn file; stage to a temp file, "
                "fsync, then os.replace() (repro.util.atomic), or "
                "route the write through an atomic-write helper")

        for node in own_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = _dotted(func)
            if dotted == "sqlite3.connect":
                if not wal_ok:
                    yield self.violation_at(
                        mods, fn.relpath, node.lineno,
                        node.col_offset + 1,
                        "sqlite database opened without WAL "
                        "journaling in this function — a crash "
                        "mid-transaction can corrupt the file; "
                        "execute PRAGMA journal_mode=WAL right after "
                        "sqlite3.connect()")
                continue
            if atomic:
                continue
            if isinstance(func, ast.Name) and func.id == "open" and \
                    self._write_mode(node):
                target = node.args[0] if node.args else None
                if isinstance(target, ast.Name) and target.id in staged:
                    continue
                yield flag(node, "open(..., 'w')")
            elif isinstance(func, ast.Attribute) and \
                    func.attr == "open" and self._write_mode(node):
                if self._root_name(func.value) in staged:
                    continue
                yield flag(node, f"'{_dotted(func) or 'open'}(...)'")
            elif isinstance(func, ast.Attribute) and \
                    func.attr in ("write_text", "write_bytes"):
                if self._root_name(func.value) in staged:
                    continue
                yield flag(node, f"'.{func.attr}()'")
            elif dotted == "json.dump":
                handle = node.args[1] if len(node.args) >= 2 else None
                if isinstance(handle, ast.Name) and \
                        handle.id in (handles | staged):
                    continue  # judged at the open() it came from
                yield flag(node, "json.dump(...)")


_FLAT_RULE_CLASSES: tuple[type[LintRule], ...] = (
    BareAssertRule,
    StatCounterDisciplineRule,
    HotPathAllocationRule,
    UnexploredPersistBoundaryRule,
    NondeterministicReportRule,
)

_PROJECT_RULE_CLASSES: tuple[type[ProjectRule], ...] = (
    TornFileWriteRule,
    BlockingCallInAsyncRule,
)

# Every registered RuleInfo must have an implementation and vice versa.
_IMPLEMENTED = {cls.name for cls in _FLAT_RULE_CLASSES} | \
    {cls.name for cls in _PROJECT_RULE_CLASSES}
if _IMPLEMENTED != {r.name for r in ALL_RULES}:
    raise RuntimeError("lint rule registry out of sync with rules.py")


class Linter:
    """Walk a tree of Python files and run every (selected) rule.

    Each file is parsed once; the flat rules run module by module, then
    the project rules run once over the whole tree.
    """

    def __init__(self, root: Path,
                 select: Iterable[str] | None = None) -> None:
        self.root = Path(root)
        self._wanted: set[str] | None = None if select is None else {
            get_rule(token).name for token in select}

    def iter_files(self) -> Iterator[Path]:
        if self.root.is_file():
            yield self.root
            return
        for path in sorted(self.root.rglob("*.py")):
            if "egg-info" in path.parts or "__pycache__" in path.parts:
                continue
            yield path

    def relpath_of(self, path: Path) -> str:
        try:
            return path.relative_to(self.root).as_posix()
        except ValueError:
            return path.name

    def _selected(self, classes):
        return [cls() for cls in classes
                if self._wanted is None or cls.name in self._wanted]

    def run(self, files: Iterable[Path] | None = None) -> list[Violation]:
        paths = files if files is not None else self.iter_files()
        mods = [ParsedModule(Path(path), self.relpath_of(Path(path)))
                for path in paths]
        violations: list[Violation] = []
        flat_rules = self._selected(_FLAT_RULE_CLASSES)
        for mod in mods:
            for rule in flat_rules:
                if not rule.applies(mod.relpath):
                    continue
                violations.extend(
                    violation for violation in rule.check(mod)
                    if not mod.suppressed(violation.line, rule.name))
        project_rules = self._selected(_PROJECT_RULE_CLASSES)
        if project_rules and mods:
            index = ProjectIndex([(m.relpath, m.tree) for m in mods])
            by_path = {m.relpath: m for m in mods}
            for rule in project_rules:
                for violation in rule.check_project(mods, index):
                    mod = by_path.get(violation.path)
                    if mod is None or \
                            not mod.suppressed(violation.line, rule.name):
                        violations.append(violation)
        violations.sort(key=lambda v: (v.path, v.line, v.rule.id))
        return violations
