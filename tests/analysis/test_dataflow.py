"""Worklist dataflow engine: must joins, loops reaching fixpoint, and
facts_before replaying block prefixes."""

import ast
import textwrap

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import ForwardAnalysis, gen_kill_flow


def analyse(source, *, entry_facts=frozenset()):
    func = ast.parse(textwrap.dedent(source)).body[0]
    cfg = build_cfg(func)

    def gen(node):
        # A call to mark_X() generates fact "X"; drop_X() kills it.
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            callee = node.value.func
            if isinstance(callee, ast.Name):
                if callee.id.startswith("mark_"):
                    return frozenset({callee.id[5:]})
        return frozenset()

    def kill(node):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            callee = node.value.func
            if isinstance(callee, ast.Name) and callee.id.startswith("drop_"):
                return frozenset({callee.id[5:]})
        return frozenset()

    return cfg, ForwardAnalysis(cfg, gen_kill_flow(gen, kill),
                                entry_facts=entry_facts)


class TestMust:
    def test_fact_on_both_branches_survives_the_join(self):
        _, a = analyse("""
        def f(c):
            if c:
                mark_x()
            else:
                mark_x()
            tail()
        """)
        assert a.facts_at_exit() == {"x"}

    def test_fact_on_one_branch_dies_at_the_join(self):
        _, a = analyse("""
        def f(c):
            if c:
                mark_x()
            tail()
        """)
        assert a.facts_at_exit() == frozenset()

    def test_loop_body_fact_does_not_leak_to_exit(self):
        _, a = analyse("""
        def f(xs):
            for x in xs:
                mark_x()
            tail()
        """)
        # Zero-iteration path skips the body: not a must-fact.
        assert a.facts_at_exit() == frozenset()

    def test_fact_before_the_loop_survives_it(self):
        _, a = analyse("""
        def f(xs):
            mark_x()
            for x in xs:
                step()
            tail()
        """)
        assert a.facts_at_exit() == {"x"}

    def test_entry_facts_seed_the_analysis(self):
        _, a = analyse("""
        def f():
            tail()
        """, entry_facts=frozenset({"seeded"}))
        assert a.facts_at_exit() == {"seeded"}

    def test_unreachable_code_is_top(self):
        func = ast.parse(textwrap.dedent("""
        def f():
            return 1
            dead()
        """)).body[0]
        cfg = build_cfg(func)
        analysis = ForwardAnalysis(cfg, lambda facts, node: facts)
        dead = [node for _, _, node in cfg.nodes()
                if isinstance(node, ast.Expr)]
        assert dead and analysis.facts_before(dead[0]) is None


class TestFactsBefore:
    def test_prefix_replay_within_a_block(self):
        source = """
        def f():
            mark_x()
            middle()
            drop_x()
            tail()
        """
        cfg, a = analyse(source)
        calls = {node.value.func.id: node for _, _, node in cfg.nodes()
                 if isinstance(node, ast.Expr)
                 and isinstance(node.value, ast.Call)
                 and isinstance(node.value.func, ast.Name)}
        assert a.facts_before(calls["mark_x"]) == frozenset()
        assert a.facts_before(calls["middle"]) == {"x"}
        assert a.facts_before(calls["tail"]) == frozenset()

    def test_handler_sees_pre_try_facts_only(self):
        source = """
        def f():
            try:
                mark_x()
                risky()
            except ValueError:
                handler()
            tail()
        """
        cfg, a = analyse(source)
        handler = [node for _, _, node in cfg.nodes()
                   if isinstance(node, ast.Expr)
                   and isinstance(node.value, ast.Call)
                   and isinstance(node.value.func, ast.Name)
                   and node.value.func.id == "handler"][0]
        # The exception edge leaves from before the try: "x" must not
        # be assumed inside the handler.
        assert a.facts_before(handler) == frozenset()
