"""Declarative persist-protocol conformance checking (RPL007).

This module is the *engine* behind the project-wide rule registered in
:mod:`repro.analysis.lint`; it has no dependency on the lint framework
itself (only on the CFG/dataflow/callgraph layers), so it can be unit
tested — and reused — in isolation.

Each update scheme in ``secure/`` declares (via :data:`PROTOCOLS`) the
persist-ordering obligations its recovery argument depends on — the same
rules the runtime sanitizer (:mod:`repro.analysis.sanitizer`) checks on
*executed* paths, here proven on *all static paths*:

* SCUE: the ``Recovery_root`` shortcut update precedes the leaf persist
  (§IV-A2 / :class:`~repro.analysis.sanitizer.ShortcutRootRule`);
* eager family: a leaf persists before any of its ancestors
  (Fig 6a/6b / :class:`~repro.analysis.sanitizer.LeafBeforeParentRule`).

The checker anchors at each scheme's ``_on_leaf_persist`` override,
assigns *roles* to its parameters (the second parameter is the leaf),
tracks parent-tainted locals (tuple-unpacked results of
``self.fetch_node(...)``), and follows role bindings through exact call
edges into helpers — a parent persisted inside a helper called from the
hook is found exactly where it happens.  Obligations are verified with a
forward *must* analysis: an event ``second`` on any reachable static
path where fact ``first`` does not yet hold is a violation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.callgraph import ClassInfo, FunctionInfo, ProjectIndex
from repro.analysis.dataflow import Facts, ForwardAnalysis

#: Recursion depth for following role bindings / summaries into helpers.
_MAX_DEPTH = 3


@dataclass(frozen=True)
class Finding:
    """A protocol-engine finding, not yet a lint Violation (the lint
    layer owns rule metadata, snippets and suppression handling)."""

    relpath: str
    line: int
    column: int
    message: str


# ======================================================================
# Protocol specs (RPL007)
# ======================================================================
@dataclass(frozen=True)
class Precedes:
    """On every static path, event ``first`` must have happened before
    any event ``second``."""

    first: str
    second: str
    clause: str  # paper-facing justification, appended to the message


@dataclass(frozen=True)
class ProtocolSpec:
    """Ordering obligations for a family of schemes, anchored at the
    persist hook every scheme overrides."""

    schemes: tuple[str, ...]
    obligations: tuple[Precedes, ...]
    anchor: str = "_on_leaf_persist"
    #: Index of the leaf parameter in the anchor's signature (after self).
    leaf_param: int = 1


PROTOCOLS: tuple[ProtocolSpec, ...] = (
    ProtocolSpec(
        schemes=("scue",),
        obligations=(
            Precedes(
                first="recovery-root-update",
                second="leaf-persist",
                clause="the Recovery_root shortcut update must precede "
                       "the leaf persist on every path (§IV-A2): a "
                       "crash between them leaves the root behind the "
                       "persisted leaves — the exact inconsistency SCUE "
                       "exists to prevent"),
        ),
    ),
    ProtocolSpec(
        schemes=("eager", "plp", "lazy", "bmt-eager"),
        obligations=(
            Precedes(
                first="leaf-persist",
                second="ancestor-persist",
                clause="eager-family updates persist bottom-up "
                       "(Fig 6a/6b): an ancestor made durable before "
                       "its leaf breaks counter-summing reconstruction "
                       "after a crash"),
        ),
    ),
)


def spec_for(scheme_name: object) -> ProtocolSpec | None:
    for spec in PROTOCOLS:
        if scheme_name in spec.schemes:
            return spec
    return None


# ======================================================================
# AST helpers
# ======================================================================
def _chain_names(expr: ast.expr) -> list[str]:
    """All identifiers along an attribute chain: ``self.a.b(...)`` ->
    ``["self", "a", "b"]`` (calls inside the chain are traversed)."""
    names: list[str] = []
    while True:
        if isinstance(expr, ast.Attribute):
            names.append(expr.attr)
            expr = expr.value
        elif isinstance(expr, ast.Call):
            expr = expr.func
        elif isinstance(expr, ast.Name):
            names.append(expr.id)
            return names
        else:
            return names


def _fetch_unpack_targets(fn: FunctionInfo) -> set[str]:
    """Parent-tainted locals: first element of a tuple unpack of
    ``self.fetch_node(...)`` (the idiom every parent fetch uses)."""
    tainted: set[str] = set()
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Tuple) and target.elts
                and isinstance(target.elts[0], ast.Name)):
            continue
        value = node.value
        if isinstance(value, ast.Call) and \
                isinstance(value.func, ast.Attribute) and \
                value.func.attr == "fetch_node":
            tainted.add(target.elts[0].id)
    return tainted


# ======================================================================
# RPL007 checker
# ======================================================================
class ProtocolChecker:
    """Check every scheme class in the index against its declared spec."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.findings: list[Finding] = []
        self._reported: set[tuple[str, int, str]] = set()
        self._visiting: set[tuple] = set()
        self._summaries: dict[tuple, Facts] = {}
        self._mentions: dict[str, bool] = {}
        self._helpers_memo: dict[tuple[str, int],
                                 list[tuple[ast.Call, FunctionInfo]]] = {}

    # -- entry ----------------------------------------------------------
    def run(self) -> list[Finding]:
        for bucket in self.index.classes.values():
            for cls in bucket:
                self._check_class(cls)
        self.findings.sort(key=lambda f: (f.relpath, f.line))
        return self.findings

    def _check_class(self, cls: ClassInfo) -> None:
        spec = spec_for(self.index.mro_const_attr(cls, "name"))
        if spec is None:
            return
        anchor = cls.methods.get(spec.anchor)
        if anchor is None:
            return  # inherits the hook: the defining class is checked
        params = anchor.params
        roles: dict[str, str] = {}
        if len(params) > spec.leaf_param:
            roles[params[spec.leaf_param]] = "leaf"
        self._check_fn(anchor, roles, frozenset(), spec, depth=0)

    # -- events ---------------------------------------------------------
    def _events_in(self, stmt: ast.AST, leaves: set[str],
                   taints: set[str]) -> list[tuple[str, ast.Call]]:
        events: list[tuple[str, ast.Call]] = []
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr == "_persist_node" and node.args and \
                    isinstance(node.args[0], ast.Name):
                arg = node.args[0].id
                if arg in leaves:
                    events.append(("leaf-persist", node))
                elif arg in taints:
                    events.append(("ancestor-persist", node))
            elif attr == "add" and \
                    "recovery_root" in _chain_names(node.func):
                events.append(("recovery-root-update", node))
        return events

    def _helper_calls(self, stmt: ast.AST, fn: FunctionInfo
                      ) -> list[tuple[ast.Call, FunctionInfo]]:
        """Exact-resolved method calls worth following: the callee's body
        mentions the protocol vocabulary."""
        memo_key = (fn.qualname, id(stmt))
        cached = self._helpers_memo.get(memo_key)
        if cached is not None:
            return cached
        out: list[tuple[ast.Call, FunctionInfo]] = []
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "_persist_node":
                continue  # primitive: the event is the call itself
            res = self.index.resolve_call(node, fn)
            if not (res.exact and len(res.targets) == 1):
                continue
            target = res.targets[0]
            if target.cls is None:
                continue
            if self._mentions_vocabulary(target):
                out.append((node, target))
        self._helpers_memo[memo_key] = out
        return out

    def _mentions_vocabulary(self, fn: FunctionInfo) -> bool:
        got = self._mentions.get(fn.qualname)
        if got is None:
            names = {n.attr for n in ast.walk(fn.node)
                     if isinstance(n, ast.Attribute)}
            got = bool(names & {"_persist_node", "recovery_root"})
            self._mentions[fn.qualname] = got
        return got

    def _bind_roles(self, call: ast.Call, target: FunctionInfo,
                    roles: dict[str, str]) -> dict[str, str]:
        params = target.params
        bound: dict[str, str] = {}
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Name) and arg.id in roles and \
                    i + 1 < len(params):
                bound[params[i + 1]] = roles[arg.id]
        for kw in call.keywords:
            if kw.arg and isinstance(kw.value, ast.Name) and \
                    kw.value.id in roles:
                bound[kw.arg] = roles[kw.value.id]
        return bound

    # -- summaries ------------------------------------------------------
    def _always_events(self, fn: FunctionInfo, roles: dict[str, str],
                       depth: int) -> Facts:
        """Events guaranteed (must) to have happened once ``fn`` returns,
        under the given role binding."""
        key = (fn.qualname, tuple(sorted(roles.items())))
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        if key in self._visiting or depth > _MAX_DEPTH:
            return frozenset()
        self._visiting.add(key)
        try:
            analysis = self._analyse(fn, roles, frozenset(), depth)
            exit_facts = analysis.facts_at_exit()
            result = exit_facts if exit_facts is not None else frozenset()
        finally:
            self._visiting.discard(key)
        self._summaries[key] = result
        return result

    # -- core -----------------------------------------------------------
    def _analyse(self, fn: FunctionInfo, roles: dict[str, str],
                 entry: Facts, depth: int) -> ForwardAnalysis:
        leaves = {name for name, role in roles.items() if role == "leaf"}
        taints = {name for name, role in roles.items()
                  if role == "parent"} | _fetch_unpack_targets(fn)

        binding = dict(roles)
        for name in taints:
            binding.setdefault(name, "parent")

        def flow(facts: Facts, node: ast.AST) -> Facts:
            for event, _ in self._events_in(node, leaves, taints):
                facts = facts | {event}
            for call, target in self._helper_calls(node, fn):
                bound = self._bind_roles(call, target, binding)
                facts = facts | self._always_events(target, bound,
                                                    depth + 1)
            return facts

        return ForwardAnalysis(self.index.cfg(fn), flow, entry_facts=entry)

    def _check_fn(self, fn: FunctionInfo, roles: dict[str, str],
                  entry: Facts, spec: ProtocolSpec, depth: int) -> None:
        if depth > _MAX_DEPTH:
            return
        leaves = {name for name, role in roles.items() if role == "leaf"}
        taints = {name for name, role in roles.items()
                  if role == "parent"} | _fetch_unpack_targets(fn)
        binding = dict(roles)
        for name in taints:
            binding.setdefault(name, "parent")
        analysis = self._analyse(fn, roles, entry, depth)
        cfg = analysis.cfg
        for _, _, node in cfg.nodes():
            facts = None  # computed lazily, only when a check needs it
            for event, call in self._events_in(node, leaves, taints):
                for ob in spec.obligations:
                    if ob.second != event:
                        continue
                    if facts is None:
                        facts = analysis.facts_before(node)
                    if facts is None:  # unreachable statement
                        continue
                    if ob.first not in facts:
                        self._report(fn, call, ob)
            for call, target in self._helper_calls(node, fn):
                before = analysis.facts_before(node)
                if before is None:
                    continue
                bound = self._bind_roles(call, target, binding)
                self._check_fn(target, bound, before, spec, depth + 1)

    def _report(self, fn: FunctionInfo, call: ast.Call,
                ob: Precedes) -> None:
        key = (fn.relpath, call.lineno, ob.second)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(Finding(
            relpath=fn.relpath, line=call.lineno,
            column=call.col_offset + 1,
            message=f"'{ob.second}' reached on a path where "
                    f"'{ob.first}' has not happened — {ob.clause}"))


def check_protocols(index: ProjectIndex) -> list[Finding]:
    """RPL007 entry point: all scheme classes vs. their declared specs."""
    return ProtocolChecker(index).run()

