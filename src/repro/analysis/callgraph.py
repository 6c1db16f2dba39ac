"""Project-wide call graph over the ``src/repro`` tree.

:class:`ProjectIndex` indexes every function/method and class in the
scanned modules and resolves call expressions to their targets.  The
resolver is deliberately *conservative*: a resolution is either

* **exact** — a single target found through one of the trusted routes
  (same-module bare name; a ``from repro.x import f`` import edge;
  ``self.method`` through the class MRO; ``self.attr.method`` through
  lightweight attribute-type inference of ``self.attr = ClassName(...)``
  and ``self.attr = param`` (annotated parameter) assignments; a local
  variable or parameter whose class is known from an assignment or
  annotation; ``mod.f`` through a ``from repro.pkg import mod``
  submodule import), or
* **ambiguous** — a bucket of same-named methods across the project.

Rules only impose *obligations on callers* through exact resolutions
(otherwise an unrelated ``save()`` somewhere else in the tree would
create phantom call edges), while *summaries of callees* may consult
ambiguous buckets as long as the answer is the conservative one for the
analysis at hand.

The index also memoises per-function CFGs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.cfg import CFG, build_cfg

#: An ambiguous bucket larger than this is treated as unresolvable.
_AMBIGUOUS_CAP = 8

#: Names too generic to resolve through the simple-name bucket.
_SKIP_BUCKET = {"__init__", "__repr__", "__eq__", "__hash__", "run",
                "main", "get", "items", "values", "keys", "append",
                "add", "update", "check", "close", "read", "write"}


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    name: str
    qualname: str            # "relpath::Class.method" or "relpath::func"
    relpath: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module_key: str
    cls: "ClassInfo | None" = None

    def __hash__(self) -> int:
        return hash(self.qualname)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FunctionInfo)
                and other.qualname == self.qualname)


@dataclass
class ClassInfo:
    """One class definition with its methods, bases and inferred
    attribute types."""

    name: str
    relpath: str
    node: ast.ClassDef
    module_key: str
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: inferred instance attribute types: ``self.store = SITStore(...)``
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolving one call expression."""

    targets: tuple[FunctionInfo, ...]
    exact: bool

    def __bool__(self) -> bool:
        return bool(self.targets)


_UNRESOLVED = Resolution(targets=(), exact=False)


def _base_name(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return ""


def _class_of_call(expr: ast.expr, class_names: set[str]) -> str | None:
    """``ClassName(...)`` or ``pkg.ClassName(...)`` -> ``ClassName``."""
    if isinstance(expr, ast.Call):
        name = _base_name(expr.func)
        if name in class_names:
            return name
    return None


class ProjectIndex:
    """Index of functions, classes and call edges across the tree."""

    def __init__(self, modules: list[tuple[str, ast.Module]]) -> None:
        #: qualname -> FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        #: class name -> every ClassInfo with that name (usually one)
        self.classes: dict[str, list[ClassInfo]] = {}
        #: simple function name -> bucket of same-named definitions
        self.by_simple_name: dict[str, list[FunctionInfo]] = {}
        #: (module_key, name) -> module-level function
        self.module_funcs: dict[tuple[str, str], FunctionInfo] = {}
        #: module_key -> local name -> candidate (source relpath,
        #: original name) pairs from ``from repro.x.y import name``
        self.imports: dict[str, dict[str,
                           tuple[tuple[str, str], ...]]] = {}
        #: module_key -> local name -> imported submodule relpath
        #: from ``from repro.x import mod`` imports
        self.module_imports: dict[str, dict[str, str]] = {}
        self._cfgs: dict[str, CFG] = {}
        self._local_envs: dict[str, dict[str, str]] = {}
        self._callers: dict[str, list[tuple[FunctionInfo, ast.Call]]] | \
            None = None
        for relpath, tree in modules:
            self._index_module(relpath, tree)
        class_names = set(self.classes)
        for bucket in self.classes.values():
            for cls in bucket:
                self._infer_attr_types(cls, class_names)

    # -- construction ---------------------------------------------------
    @staticmethod
    def _module_relpaths(dotted: str) -> tuple[str, ...]:
        """Candidate relpaths for ``repro.serve.storage``: the scan
        root is ``src/repro``, so the module lives at
        ``serve/storage.py`` or, if it is a package, at
        ``serve/storage/__init__.py``."""
        parts = dotted.split(".")
        if parts[0] != "repro":
            return ()
        if len(parts) == 1:
            return ("__init__.py",)
        stem = "/".join(parts[1:])
        return (f"{stem}.py", f"{stem}/__init__.py")

    def _index_imports(self, relpath: str, tree: ast.Module) -> None:
        for node in tree.body:
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            sources = self._module_relpaths(node.module or "")
            if not sources:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                # ``from repro.pkg import name`` is either a function
                # defined in pkg (module or package __init__) or the
                # submodule pkg/name.py — record every candidate;
                # resolution checks which one exists in the index.
                self.imports.setdefault(relpath, {})[local] = tuple(
                    (source, alias.name) for source in sources)
                stem = node.module.split(".", 1)[1].replace(".", "/") \
                    if "." in node.module else ""
                sub = f"{stem}/{alias.name}.py" if stem \
                    else f"{alias.name}.py"
                self.module_imports.setdefault(relpath, {})[local] = sub

    def _index_module(self, relpath: str, tree: ast.Module) -> None:
        self._index_imports(relpath, tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    name=node.name, qualname=f"{relpath}::{node.name}",
                    relpath=relpath, node=node, module_key=relpath)
                self._register(info)
                self.module_funcs[(relpath, node.name)] = info
            elif isinstance(node, ast.ClassDef):
                self._index_class(relpath, node)

    def _index_class(self, relpath: str, node: ast.ClassDef) -> None:
        cls = ClassInfo(
            name=node.name, relpath=relpath, node=node,
            module_key=relpath,
            bases=tuple(_base_name(b) for b in node.bases if _base_name(b)))
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    name=item.name,
                    qualname=f"{relpath}::{node.name}.{item.name}",
                    relpath=relpath, node=item, module_key=relpath,
                    cls=cls)
                cls.methods[item.name] = info
                self._register(info)
        self.classes.setdefault(node.name, []).append(cls)

    def _register(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info
        if info.name not in _SKIP_BUCKET and \
                not info.name.startswith("__"):
            self.by_simple_name.setdefault(info.name, []).append(info)

    def _infer_attr_types(self, cls: ClassInfo,
                          class_names: set[str]) -> None:
        for method in cls.methods.values():
            args = method.node.args
            annotated = {}
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                ann_name = _base_name(arg.annotation) \
                    if arg.annotation is not None else ""
                if ann_name in class_names:
                    annotated[arg.arg] = ann_name
            for node in ast.walk(method.node):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                value = node.value
                if value is None:
                    continue
                typed = _class_of_call(value, class_names)
                if typed is None and isinstance(value, ast.Name):
                    # ``self.store = store`` where the parameter is
                    # annotated with a project class.
                    typed = annotated.get(value.id)
                if typed is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self":
                        cls.attr_types.setdefault(target.attr, typed)

    # -- lookups --------------------------------------------------------
    def class_named(self, name: str) -> ClassInfo | None:
        bucket = self.classes.get(name, [])
        return bucket[0] if bucket else None

    def mro_method(self, cls: ClassInfo, name: str,
                   _depth: int = 0) -> FunctionInfo | None:
        if _depth > 8:
            return None
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            base_cls = self.class_named(base)
            if base_cls is not None:
                found = self.mro_method(base_cls, name, _depth + 1)
                if found is not None:
                    return found
        return None

    def mro_attr_type(self, cls: ClassInfo, attr: str,
                      _depth: int = 0) -> str | None:
        if _depth > 8:
            return None
        if attr in cls.attr_types:
            return cls.attr_types[attr]
        for base in cls.bases:
            base_cls = self.class_named(base)
            if base_cls is not None:
                found = self.mro_attr_type(base_cls, attr, _depth + 1)
                if found is not None:
                    return found
        return None

    def cfg(self, fn: FunctionInfo) -> CFG:
        got = self._cfgs.get(fn.qualname)
        if got is None:
            got = build_cfg(fn.node)
            self._cfgs[fn.qualname] = got
        return got

    def _local_env(self, fn: FunctionInfo) -> dict[str, str]:
        """Locals / params with a statically-known class type."""
        env = self._local_envs.get(fn.qualname)
        if env is not None:
            return env
        env = {}
        class_names = set(self.classes)
        args = fn.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            ann = arg.annotation
            name = _base_name(ann) if ann is not None else ""
            if name in class_names:
                env[arg.arg] = name
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                typed = _class_of_call(node.value, class_names)
                if typed is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            env.setdefault(target.id, typed)
        self._local_envs[fn.qualname] = env
        return env

    # -- resolution -----------------------------------------------------
    def resolve_call(self, call: ast.Call,
                     caller: FunctionInfo) -> Resolution:
        func = call.func
        if isinstance(func, ast.Name):
            target = self.module_funcs.get((caller.module_key, func.id))
            if target is not None:
                return Resolution((target,), exact=True)
            # ``from repro.x.y import f`` import edge.
            for source, orig in self.imports.get(
                    caller.module_key, {}).get(func.id, ()):
                target = self.module_funcs.get((source, orig))
                if target is not None:
                    return Resolution((target,), exact=True)
            return _UNRESOLVED
        if not isinstance(func, ast.Attribute):
            return _UNRESOLVED
        attr = func.attr
        recv = func.value
        # self.method(...) / cls.method(...)
        if isinstance(recv, ast.Name):
            if recv.id in ("self", "cls") and caller.cls is not None:
                method = self.mro_method(caller.cls, attr)
                if method is not None:
                    return Resolution((method,), exact=True)
            else:
                typed = self._local_env(caller).get(recv.id)
                if typed is not None:
                    method = self._method_on(typed, attr)
                    if method is not None:
                        return Resolution((method,), exact=True)
                # ``from repro.pkg import mod`` then ``mod.f(...)``.
                source = self.module_imports.get(
                    caller.module_key, {}).get(recv.id)
                if source is not None:
                    target = self.module_funcs.get((source, attr))
                    if target is not None:
                        return Resolution((target,), exact=True)
        # self.attrname.method(...)
        if isinstance(recv, ast.Attribute) and \
                isinstance(recv.value, ast.Name) and \
                recv.value.id == "self" and caller.cls is not None:
            typed = self.mro_attr_type(caller.cls, recv.attr)
            if typed is not None:
                method = self._method_on(typed, attr)
                if method is not None:
                    return Resolution((method,), exact=True)
        bucket = self.by_simple_name.get(attr, [])
        if 0 < len(bucket) <= _AMBIGUOUS_CAP:
            return Resolution(tuple(bucket), exact=False)
        return _UNRESOLVED

    def _method_on(self, class_name: str, attr: str) -> FunctionInfo | None:
        cls = self.class_named(class_name)
        if cls is None:
            return None
        return self.mro_method(cls, attr)

    # -- inverted edges -------------------------------------------------
    def callers_of(self, fn: FunctionInfo
                   ) -> list[tuple[FunctionInfo, ast.Call]]:
        """Exact-resolution call sites targeting ``fn`` (obligations are
        only imposed through edges we are sure about)."""
        if self._callers is None:
            self._callers = {}
            for caller in self.functions.values():
                for node in ast.walk(caller.node):
                    if not isinstance(node, ast.Call):
                        continue
                    res = self.resolve_call(node, caller)
                    if res.exact:
                        for target in res.targets:
                            self._callers.setdefault(
                                target.qualname, []).append((caller, node))
        return self._callers.get(fn.qualname, [])
