"""Counter-summing reconstruction (§IV-B, Fig 8): the recovery core."""

import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import attach_sanitizer
from repro.cme.counters import CounterBlock
from repro.crash.attacks import (
    combined_attack,
    replay_leaf,
    roll_forward_leaf,
    snapshot_leaf,
)
from repro.crash.recovery import (
    METADATA_FETCH_NS,
    ReconstructionResult,
    counter_summing_reconstruction,
)
from repro.mem.nvm import ZERO_LINE
from repro.secure import make_controller
from repro.secure.bmf import BMFIdealController
from repro.secure.eager import EagerController
from repro.secure.scue import SCUEController
from repro.tree.node import SITNode
from repro.util.bitfield import checked_sum

from tests.conftest import small_config


def written_controller(n=60, seed=3, **overrides) -> SCUEController:
    controller = SCUEController(small_config("scue", **overrides))
    # Runtime persist-ordering sanitizer: any SCUE ordering regression
    # in these histories fails loudly here, not as a wrong Fig 8.
    attach_sanitizer(controller)
    rng = random.Random(seed)
    for i in range(n):
        controller.write_data(
            rng.randrange(0, controller.config.data_capacity, 64),
            None, cycle=i * 100)
    controller.crash()
    return controller


def reconstruct(controller, write_back=True):
    return counter_summing_reconstruction(
        controller.store, controller.amap, controller.mac,
        controller.recovery_root, write_back=write_back)


class TestReconstruction:
    def test_clean_state_reconstructs(self):
        controller = written_controller()
        result = reconstruct(controller)
        assert result.clean
        assert result.root_matched
        assert not result.leaf_hmac_failures

    def test_reads_whole_leaf_level(self):
        controller = written_controller()
        result = reconstruct(controller)
        assert result.metadata_reads == controller.amap.num_counter_blocks

    def test_recovery_seconds_model(self):
        controller = written_controller()
        result = reconstruct(controller)
        assert result.recovery_seconds == pytest.approx(
            result.metadata_reads * METADATA_FETCH_NS * 1e-9)

    def test_rebuilds_every_intermediate_level(self):
        controller = written_controller()
        result = reconstruct(controller)
        assert result.rebuilt_levels == controller.amap.tree_levels - 1

    def test_written_back_nodes_are_self_consistent(self):
        """After write-back, every rebuilt node must verify under the
        SCUE convention (parent counter == own dummy)."""
        controller = written_controller()
        reconstruct(controller)
        amap, store, mac = controller.amap, controller.store, controller.mac
        for level in range(1, amap.tree_levels):
            for index in range(amap.level_width(level)):
                node = store.load(level, index, counted=False)
                addr = store.node_addr(level, index)
                assert node.verify(mac, addr, node.dummy_counter())

    def test_rebuilt_parent_counters_are_child_sums(self):
        controller = written_controller()
        reconstruct(controller)
        amap, store = controller.amap, controller.store
        for level in range(1, amap.tree_levels):
            for index in range(amap.level_width(level)):
                node = store.load(level, index, counted=False)
                assert isinstance(node, SITNode)
                for child_level, child_index in \
                        amap.child_coords(level, index):
                    child = store.load(child_level, child_index,
                                       counted=False)
                    slot = amap.parent_slot(child_index)
                    assert node.counter(slot) == child.dummy_counter()

    def test_dry_run_does_not_touch_media(self):
        controller = written_controller()
        images = {
            controller.amap.tree_node_addr(1, i):
            controller.nvm.peek_line(controller.amap.tree_node_addr(1, i))
            for i in range(controller.amap.level_width(1))}
        result = reconstruct(controller, write_back=False)
        assert result.clean
        assert result.metadata_writes == 0
        for addr, image in images.items():
            assert controller.nvm.peek_line(addr) == image

    def test_root_mismatch_reported(self):
        controller = written_controller()
        controller.recovery_root.add(0, 1)  # poison the register
        result = reconstruct(controller)
        assert not result.root_matched
        assert not result.clean
        assert result.metadata_writes == 0  # no write-back on failure

    @given(st.lists(st.integers(0, 500), min_size=0, max_size=40))
    @settings(max_examples=15, deadline=None)
    def test_reconstruction_over_arbitrary_histories(self, lines):
        controller = SCUEController(small_config("scue"))
        attach_sanitizer(controller)
        for i, line in enumerate(lines):
            controller.write_data(line * 64, None, cycle=i * 100)
        controller.crash()
        assert reconstruct(controller).clean


class TestTallTrees:
    def test_nine_level_geometry(self):
        controller = written_controller(tree_levels=9)
        result = reconstruct(controller)
        assert result.clean
        assert result.rebuilt_levels == 8


# ----------------------------------------------------------------------
# Dense reference: every leaf of the level, written or not
# ----------------------------------------------------------------------
def dense_reconstruction(store, amap, mac, recovery_root,
                         write_back=True) -> ReconstructionResult:
    """The reconstruction as a scan of all ``num_counter_blocks`` leaves,
    sealing every rebuilt node; the sparse pass must match it field for
    field and line for line."""
    result = ReconstructionResult(root_counters=[], root_matched=False)
    bits = amap.counter_bits
    dummies: list[int] = []
    for index in range(amap.num_counter_blocks):
        leaf = store.load(0, index, counted=False)
        result.metadata_reads += 1
        addr = amap.counter_block_addr(index)
        if not leaf.verify(mac, addr, leaf.dummy_counter(bits)):
            result.leaf_hmac_failures.append(index)
        dummies.append(leaf.dummy_counter(bits))
    rebuilt: list[list[SITNode]] = []
    for level in range(1, amap.tree_levels):
        nodes = []
        for index in range(amap.level_width(level)):
            chunk = dummies[index * amap.arity:(index + 1) * amap.arity]
            chunk = chunk + [0] * (amap.arity - len(chunk))
            nodes.append(SITNode(level, index, counters=chunk,
                                 arity=amap.arity))
        for node in nodes:
            node.seal(mac, store.node_addr(level, node.index),
                      node.dummy_counter())
        rebuilt.append(nodes)
        dummies = [node.dummy_counter() for node in nodes]
        result.rebuilt_levels += 1
    root_counters = dummies + [0] * (amap.arity - len(dummies))
    result.root_counters = [checked_sum([c], bits) for c in root_counters]
    result.root_matched = recovery_root.matches(result.root_counters)
    if write_back and result.clean:
        for nodes in rebuilt:
            for node in nodes:
                store.save(node, counted=False)
                result.metadata_writes += 1
    return result


def dense_bmf_failures(controller: BMFIdealController) -> list[int]:
    """BMF's leaf check as a scan of every leaf against its nvMC root
    (a missing root means all-zero counters)."""
    amap = controller.amap
    failures = []
    for index in range(amap.num_counter_blocks):
        leaf = controller.store.load(0, index, counted=False)
        root = controller._nvmc.get(index // amap.arity)
        parent = 0 if root is None else root.counter(index % amap.arity)
        if not leaf.verify(controller.mac, amap.counter_block_addr(index),
                           parent):
            failures.append(index)
    return failures


#: Data lines of ``small_config`` (1 MiB): 256 counter blocks.
LINES = 1024 * 1024 // 64

#: Write histories: lines spread over the whole region (many leaves,
#: evictions from the 4 KiB metadata cache), or a few hot lines of one
#: leaf written past the 6-bit minor limit (counter overflow).
histories = st.one_of(
    st.lists(st.integers(0, LINES - 1), max_size=40),
    st.lists(st.integers(0, 3), min_size=64, max_size=140))

#: ``zeroed`` leaves a blank leaf on media; ``rolled_to_zero`` keeps the
#: leaf's HMAC over all-zero counters: a dummy of 0 that must still fail.
ATTACKS = ("none", "roll_forward", "replay", "combined", "zeroed",
           "rolled_to_zero")


#: Every scheme on the paper's 8-ary SIT (ids: the scheme's name) and
#: on the 16- and 32-ary layouts of §VII.
LAYOUTS = [pytest.param(scheme, arity, id=scheme if arity == 8
                        else f"{scheme}-arity{arity}")
           for arity in (8, 16, 32)
           for scheme in ("scue", "plp", "eager", "lazy")]


def leaf_of(line: int) -> int:
    return line // 64


def crashed(scheme: str, lines: list[int], attack: str, **overrides):
    """Run ``lines`` as persists, power-fail, then apply ``attack``."""
    controller = make_controller(small_config(scheme, **overrides))
    for i, line in enumerate(lines):
        controller.write_data(line * 64, None, cycle=i * 100)
    target = leaf_of(lines[0]) if lines else 0
    store = controller.store
    if attack == "replay":
        cycle = len(lines) * 100
        controller.write_data(target * 64 * 64, None, cycle=cycle)
        snapshot = snapshot_leaf(store, target)
        controller.write_data(target * 64 * 64, None, cycle=cycle + 100)
    controller.crash()
    if attack == "roll_forward":
        roll_forward_leaf(store, target, slot=3, amount=2)
    elif attack == "replay":
        replay_leaf(store, snapshot)
    elif attack == "combined":
        # The back half may land on a never-written leaf: it is then
        # stored as a zero line, a blank leaf the media holds.
        combined_attack(store, forward_index=target,
                        back_index=(target + 1) % 256, slot=2, amount=1)
    elif attack == "zeroed":
        controller.nvm.poke_line(controller.amap.counter_block_addr(target),
                                 ZERO_LINE)
    elif attack == "rolled_to_zero":
        leaf = store.load(0, target, counted=False)
        leaf.major, leaf.minors = 0, [0] * len(leaf.minors)
        store.save(leaf, counted=False)
    return controller


class TestSparseMatchesDense:
    """Skipping never-written leaves changes no result field and no
    media line, in content or in insertion order."""

    @pytest.mark.parametrize("attack", ATTACKS)
    @pytest.mark.parametrize("scheme, arity", LAYOUTS)
    @given(lines=histories)
    @settings(max_examples=6, deadline=None)
    def test_reconstruction(self, scheme, arity, attack, lines):
        controller = crashed(scheme, lines, attack, tree_arity=arity)
        root = controller.recovery_root if scheme == "scue" \
            else controller.running_root
        nvm = controller.nvm
        crashed_media = dict(nvm._lines)
        for write_back in (False, True):
            nvm._lines = dict(crashed_media)
            want = dense_reconstruction(controller.store, controller.amap,
                                        controller.mac, root, write_back)
            want_media = list(nvm._lines.items())
            nvm._lines = dict(crashed_media)
            got = counter_summing_reconstruction(
                controller.store, controller.amap, controller.mac, root,
                write_back)
            assert asdict(got) == asdict(want)
            assert list(nvm._lines.items()) == want_media

    @pytest.mark.parametrize("zeroed", [False, True])
    @given(lines=histories)
    @settings(max_examples=15, deadline=None)
    def test_bmf_without_write_through(self, zeroed, lines):
        """Without leaf write-through a leaf can sit under a non-zero
        nvMC counter while the media holds nothing for it: the sweep of
        the nvMC must report it as the dense scan does."""
        controller = crashed("bmf-ideal", lines,
                             "zeroed" if zeroed else "none",
                             leaf_write_through=False)
        want = dense_bmf_failures(controller)
        assert controller.recover().leaf_hmac_failures == want

    def test_bmf_reports_unwritten_leaves(self):
        lines = random.Random(5).sample(range(LINES), 40)
        controller = crashed("bmf-ideal", lines, "none",
                             leaf_write_through=False)
        report = controller.recover()
        assert report.leaf_hmac_failures
        assert report.leaf_hmac_failures == dense_bmf_failures(controller)


class TestRecoveryCost:
    def test_parses_only_the_leaves_the_media_holds(self, monkeypatch):
        """At 1 GiB (262,144 leaves) an eager recovery after 20 writes
        parses at most one counter block per stored counter line, while
        it still charges the modelled read of every leaf."""
        controller = EagerController(small_config(
            "eager", data_capacity=1 << 30))
        rng = random.Random(11)
        for i in range(20):
            controller.write_data(
                rng.randrange(0, controller.config.data_capacity, 64),
                None, cycle=i * 100)
        controller.crash()
        amap = controller.amap
        stored = sum(1 for addr in controller.nvm._lines
                     if amap.counter_base <= addr < amap.tree_base)
        parse = CounterBlock.from_bytes
        parsed = []

        def counting(cls, index, data):
            parsed.append(index)
            return parse(index, data)

        monkeypatch.setattr(CounterBlock, "from_bytes",
                            classmethod(counting))
        report = controller.recover()
        assert 0 < len(parsed) <= stored
        assert report.metadata_reads == amap.num_counter_blocks == 262144

    def test_builds_only_the_nodes_above_written_leaves(self, monkeypatch):
        """At 1 GiB a clean SCUE recovery after 20 scattered writes still
        writes all 37,448 intermediate nodes, but it builds and seals a
        ``SITNode`` only for those with a written descendant: blank
        nodes are written from one keyed state."""
        controller = SCUEController(small_config(
            "scue", data_capacity=1 << 30))
        rng = random.Random(11)
        for i in range(20):
            controller.write_data(
                rng.randrange(0, controller.config.data_capacity, 64),
                None, cycle=i * 100)
        controller.crash()
        amap = controller.amap
        indices = {(addr - amap.counter_base) // 64
                   for addr in controller.nvm._lines
                   if amap.counter_base <= addr < amap.tree_base}
        non_blank = 0
        for _ in range(1, amap.tree_levels):
            indices = {index // amap.arity for index in indices}
            non_blank += len(indices)
        built = []
        post_init = SITNode.__post_init__

        def counting(node):
            built.append((node.level, node.index))
            post_init(node)

        monkeypatch.setattr(SITNode, "__post_init__", counting)
        report = controller.recover()
        assert report.success
        assert 0 < len(built) <= non_blank
        assert report.metadata_writes == sum(
            amap.level_width(level)
            for level in range(1, amap.tree_levels)) == 37448
