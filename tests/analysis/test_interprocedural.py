"""Interprocedural RPL001: caller-side enqueues credit callees,
branch-sensitive paths are proven on the CFG (not by line order), and
guard falsification prunes impossible edges.  A replica of the old flat
rule shows the upgrade strictly reduces the suppressions it would have
demanded."""

import ast
import textwrap

from repro.analysis import Linter

PIN = "# reprolint-fixture-path: tree/mod.py\n"


def lint(tmp_path, source, select):
    path = tmp_path / "mod.py"
    path.write_text(PIN + textwrap.dedent(source))
    return Linter(path, select=select).run()


def line_of(tmp_path, needle):
    text = (tmp_path / "mod.py").read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not in fixture")


CALLER_CREDITS = """
class Store:
    def save(self, node):
        self.nvm.write_line(node.addr, node.raw)

class Controller:
    def __init__(self, nvm):
        self.store = Store(nvm)

    def persist(self, node, cycle):
        self.wpq.enqueue(node.addr, cycle, metadata=True)
        return self.store.save(node)
"""


class TestCallerCredit:
    def test_enqueue_in_the_caller_satisfies_the_callee_store(
            self, tmp_path):
        assert lint(tmp_path, CALLER_CREDITS,
                    ["nvm-direct-store"]) == []

    def test_without_the_caller_enqueue_the_store_is_flagged(
            self, tmp_path):
        source = CALLER_CREDITS.replace(
            "        self.wpq.enqueue(node.addr, cycle, metadata=True)\n",
            "")
        (v,) = lint(tmp_path, source, ["nvm-direct-store"])
        assert v.line == line_of(tmp_path, "write_line")
        assert "callers" in v.message

    def test_transitive_caller_chain_carries_the_credit(self, tmp_path):
        source = """
        class Store:
            def save(self, node):
                self.nvm.write_line(node.addr, node.raw)

        class Controller:
            def __init__(self, nvm):
                self.store = Store(nvm)

            def _flush(self, node):
                return self.store.save(node)

            def persist(self, node, cycle):
                self.wpq.enqueue(node.addr, cycle, metadata=True)
                return self._flush(node)
        """
        assert lint(tmp_path, source, ["nvm-direct-store"]) == []


class TestBranchSensitivity:
    SKIPPING = """
    class Controller:
        def persist(self, node, cycle, urgent):
            if urgent:
                self.wpq.enqueue(node.addr, cycle, metadata=True)
            self.nvm.write_line(node.addr, node.raw)
    """

    def test_an_enqueue_on_one_branch_does_not_cover_the_store(
            self, tmp_path):
        (v,) = lint(tmp_path, self.SKIPPING, ["nvm-direct-store"])
        assert v.line == line_of(tmp_path, "write_line")

    def test_the_old_line_order_rule_would_have_passed_it(self, tmp_path):
        # The pre-CFG rule accepted any enqueue at an earlier line in
        # the same scope: this path was invisible before the upgrade.
        assert flat_rpl001(textwrap.dedent(self.SKIPPING)) == 0

    def test_enqueue_on_both_branches_covers_the_store(self, tmp_path):
        source = """
        class Controller:
            def persist(self, node, cycle, urgent):
                if urgent:
                    self.wpq.enqueue(node.addr, cycle, metadata=True)
                else:
                    self.wpq.enqueue(node.addr, cycle)
                self.nvm.write_line(node.addr, node.raw)
        """
        assert lint(tmp_path, source, ["nvm-direct-store"]) == []


GUARDED = """
class Store:
    def save(self, node, counted=True):
        if counted:
            self.nvm.write_line(node.addr, node.raw)

class Injector:
    def __init__(self, nvm):
        self.store = Store(nvm)

    def poke(self, node):
        self.store.save(node, counted=False)
"""


class TestGuardFalsification:
    def test_a_site_falsifying_the_guard_is_exempt(self, tmp_path):
        assert lint(tmp_path, GUARDED, ["nvm-direct-store"]) == []

    def test_positional_false_also_falsifies(self, tmp_path):
        source = GUARDED.replace("save(node, counted=False)",
                                 "save(node, False)")
        assert lint(tmp_path, source, ["nvm-direct-store"]) == []

    def test_a_true_site_without_an_enqueue_still_flags(self, tmp_path):
        source = GUARDED.replace("counted=False", "counted=True")
        (v,) = lint(tmp_path, source, ["nvm-direct-store"])
        assert v.line == line_of(tmp_path, "write_line")


class TestFlatFallbackScopes:
    def test_module_level_store_without_enqueue_flags(self, tmp_path):
        source = """
        nvm.write_line(0, b"x")
        """
        (v,) = lint(tmp_path, source, ["nvm-direct-store"])
        assert "no preceding wpq.enqueue" in v.message

    def test_module_level_store_after_enqueue_passes(self, tmp_path):
        source = """
        wpq.enqueue(0, 0)
        nvm.write_line(0, b"x")
        """
        assert lint(tmp_path, source, ["nvm-direct-store"]) == []

    def test_nested_function_store_keeps_the_flat_check(self, tmp_path):
        source = """
        def outer(nvm, wpq):
            wpq.enqueue(0, 0)
            def flush():
                nvm.write_line(0, b"x")
            return flush
        """
        # The nested def is its own scope: the outer enqueue does not
        # cover it, and nested defs are outside the indexed call graph.
        (v,) = lint(tmp_path, source, ["nvm-direct-store"])
        assert v.line == line_of(tmp_path, "write_line")


def flat_rpl001(source):
    """Replica of the pre-upgrade RPL001: flag a ``write_line`` unless
    an ``enqueue`` appears at an earlier line in the same function."""
    count = 0
    for fn in [n for n in ast.walk(ast.parse(source))
               if isinstance(n, ast.FunctionDef)]:
        enq = [n.lineno for n in ast.walk(fn)
               if isinstance(n, ast.Call)
               and isinstance(n.func, ast.Attribute)
               and n.func.attr == "enqueue"]
        first = min(enq) if enq else None
        for n in ast.walk(fn):
            if isinstance(n, ast.Call) and \
                    isinstance(n.func, ast.Attribute) and \
                    n.func.attr == "write_line" and \
                    (first is None or n.lineno < first):
                count += 1
    return count


class TestStrictlyFewerSuppressions:
    def test_caller_credit_shrinks_the_flat_suppression_set(
            self, tmp_path):
        # The flat rule demands a suppression for Store.save (no local
        # enqueue in sight); the interprocedural rule proves the caller
        # covers it and demands none.
        assert flat_rpl001(textwrap.dedent(CALLER_CREDITS)) == 1
        assert lint(tmp_path, CALLER_CREDITS,
                    ["nvm-direct-store"]) == []

    def test_guard_falsification_shrinks_it_too(self, tmp_path):
        assert flat_rpl001(textwrap.dedent(GUARDED)) == 1
        assert lint(tmp_path, GUARDED, ["nvm-direct-store"]) == []
