"""Protocol-conformance engine (RPL007) unit tests, below the lint
layer: specs are proven on all static paths and roles follow exact call
edges into helpers."""

import ast
import textwrap

from repro.analysis.callgraph import ProjectIndex
from repro.analysis.protocol import check_protocols, spec_for


def findings_for(source):
    tree = ast.parse(textwrap.dedent(source))
    return check_protocols(ProjectIndex([("secure/mod.py", tree)]))


class TestSpecs:
    def test_every_paper_scheme_has_a_spec(self):
        for scheme in ("scue", "eager", "plp", "lazy", "bmt-eager"):
            assert spec_for(scheme) is not None

    def test_baseline_has_no_obligations(self):
        assert spec_for("baseline") is None


class TestScueShortcut:
    CONFORMING = """
    class Good:
        name = "scue"

        def _on_leaf_persist(self, leaf, leaf_index, delta, cycle):
            self.recovery_root.add(self._slot(leaf_index), delta)
            return self._persist_node(leaf, cycle)
    """

    def test_shortcut_before_leaf_is_clean(self):
        assert findings_for(self.CONFORMING) == []

    def test_inverted_order_is_flagged(self):
        findings = findings_for("""
        class Bad:
            name = "scue"

            def _on_leaf_persist(self, leaf, leaf_index, delta, cycle):
                stall = self._persist_node(leaf, cycle)
                self.recovery_root.add(self._slot(leaf_index), delta)
                return stall
        """)
        (f,) = findings
        assert "'leaf-persist'" in f.message
        assert "'recovery-root-update'" in f.message
        assert "IV-A2" in f.message

    def test_shortcut_on_one_branch_only_is_flagged(self):
        # The update happens on the happy path but a branch skips it:
        # must-analysis kills the fact at the join.
        findings = findings_for("""
        class Branchy:
            name = "scue"

            def _on_leaf_persist(self, leaf, leaf_index, delta, cycle):
                if delta:
                    self.recovery_root.add(self._slot(leaf_index), delta)
                return self._persist_node(leaf, cycle)
        """)
        assert len(findings) == 1

    def test_shortcut_in_a_helper_credits_the_anchor(self):
        assert findings_for("""
        class Routed:
            name = "scue"

            def _shortcut(self, slot, delta):
                self.recovery_root.add(slot, delta)

            def _on_leaf_persist(self, leaf, leaf_index, delta, cycle):
                self._shortcut(self._slot(leaf_index), delta)
                return self._persist_node(leaf, cycle)
        """) == []


class TestEagerBottomUp:
    def test_leaf_before_parent_is_clean(self):
        assert findings_for("""
        class Good:
            name = "eager"

            def _on_leaf_persist(self, leaf, leaf_index, delta, cycle):
                parent, latency = self.fetch_node(1, leaf_index // 8)
                stall = self._persist_node(leaf, cycle)
                stall += self._persist_node(parent, cycle)
                return latency + stall
        """) == []

    def test_parent_before_leaf_is_flagged_at_the_parent_persist(self):
        source = """
        class Bad:
            name = "eager"

            def _on_leaf_persist(self, leaf, leaf_index, delta, cycle):
                parent, latency = self.fetch_node(1, leaf_index // 8)
                stall = self._persist_node(parent, cycle)
                stall += self._persist_node(leaf, cycle)
                return latency + stall
        """
        (f,) = findings_for(source)
        assert "'ancestor-persist'" in f.message
        assert "bottom-up" in f.message
        wanted = [lineno for lineno, line in
                  enumerate(textwrap.dedent(source).splitlines(), 1)
                  if "_persist_node(parent" in line]
        assert f.line == wanted[0]

    def test_parent_taint_follows_into_a_helper(self):
        # The inversion sits in a helper the anchor calls, with the
        # tainted parent passed as an argument: the role binding must
        # carry "parent" across the call edge.
        findings = findings_for("""
        class CrossCall:
            name = "eager"

            def _on_leaf_persist(self, leaf, leaf_index, delta, cycle):
                parent, latency = self.fetch_node(1, leaf_index // 8)
                return latency + self._flush(parent, leaf, cycle)

            def _flush(self, node, leaf, cycle):
                stall = self._persist_node(node, cycle)
                stall += self._persist_node(leaf, cycle)
                return stall
        """)
        (f,) = findings
        assert "'ancestor-persist'" in f.message

    def test_unrelated_scheme_names_are_not_checked(self):
        assert findings_for("""
        class Other:
            name = "experimental"

            def _on_leaf_persist(self, leaf, leaf_index, delta, cycle):
                parent, latency = self.fetch_node(1, leaf_index // 8)
                return self._persist_node(parent, cycle)
        """) == []

    def test_name_is_inherited_through_the_mro(self):
        findings = findings_for("""
        class Base:
            name = "eager"

            def _on_leaf_persist(self, leaf, leaf_index, delta, cycle):
                return self._persist_node(leaf, cycle)

        class Sub(Base):
            def _on_leaf_persist(self, leaf, leaf_index, delta, cycle):
                parent, latency = self.fetch_node(1, leaf_index // 8)
                return self._persist_node(parent, cycle)
        """)
        assert len(findings) == 1

