"""White-box tests for Cowbird-P4 engine internals."""

import pytest

from repro.experiments.common import build_microbench
from repro.rdma.packets import psn_add


def build(num_instances=1, **p4_kwargs):
    return build_microbench(
        "cowbird-p4", num_instances, remote_bytes=1 << 20,
        engine_config=p4_kwargs,
    )


class TestChannels:
    def test_three_channels_per_single_pool_instance(self):
        dep = build()
        state = dep.engine._instances[0]
        assert state.probe_channel is not None
        assert state.data_channel is not None
        assert len(state.pool_channels) == 1
        # Distinct virtual QPNs, all registered in the demux map.
        vqpns = {
            state.probe_channel.virtual_qpn,
            state.data_channel.virtual_qpn,
            next(iter(state.pool_channels.values())).virtual_qpn,
        }
        assert len(vqpns) == 3
        for vqpn in vqpns:
            assert vqpn in dep.engine._channels_by_vqpn

    def test_probe_channel_uses_lowest_priority(self):
        from repro.sim.network import PRIORITY_LOW, PRIORITY_NORMAL

        dep = build()
        state = dep.engine._instances[0]
        assert state.probe_channel.priority == PRIORITY_LOW
        assert state.data_channel.priority == PRIORITY_NORMAL

    def test_psn_ranges_allocated_contiguously(self):
        dep = build()
        state = dep.engine._instances[0]
        channel = state.data_channel
        op1 = channel.emit_read(0x1000, 100, kind="meta", instance=state)
        op2 = channel.emit_read(0x2000, 3000, kind="meta", instance=state)
        assert op1.first_psn == 0 and op1.num_psns == 1
        assert op2.first_psn == 1 and op2.num_psns == 3  # 3000 B / 1024 MTU
        assert channel.send_psn == 4

    def test_match_finds_covering_op_and_skips_done(self):
        dep = build()
        state = dep.engine._instances[0]
        channel = state.data_channel
        op = channel.emit_read(0x1000, 3000, kind="meta", instance=state)
        assert channel.match(op.first_psn) is op
        assert channel.match(psn_add(op.first_psn, 2)) is op
        assert channel.match(psn_add(op.first_psn, 3)) is None
        channel.retire(op)
        assert channel.match(op.first_psn) is None

    def test_go_back_n_rewinds_psn(self):
        dep = build()
        engine = dep.engine
        state = engine._instances[0]
        channel = state.data_channel
        op1 = channel.emit_read(0x1000, 100, kind="meta", instance=state)
        op2 = channel.emit_read(0x2000, 100, kind="meta", instance=state)
        del op2
        psn_before = channel.send_psn
        assert psn_before == 2
        engine._go_back_n(channel)
        # The rewind resets to the oldest incomplete op's first PSN and
        # re-allocates; meta replays re-enter via _maybe_fetch_metadata,
        # so the counter never exceeds its pre-failure value.
        assert channel.send_psn <= psn_before
        assert engine.stats.go_back_n_events == 1


class TestProbePolicies:
    def test_round_robin_cycles_uniformly(self):
        dep = build(num_instances=3)
        engine = dep.engine
        targets = [engine._next_probe_target() for _ in range(6)]
        names = [t.descriptor.instance_id for t in targets]
        assert names == [0, 1, 2, 0, 1, 2]

    def test_weighted_skips_idle_instances(self):
        dep = build(num_instances=2, probe_policy="weighted", idle_stride=4)
        engine = dep.engine
        hot, idle = engine._instances
        hot.activity_ttl = 16
        idle.activity_ttl = 0
        picks = [engine._next_probe_target() for _ in range(10)]
        hot_picks = sum(1 for p in picks if p is hot)
        idle_picks = sum(1 for p in picks if p is idle)
        assert hot_picks > idle_picks
        assert idle_picks >= 1  # stride guarantees eventual service

    def test_weighted_all_idle_still_probes_eventually(self):
        dep = build(num_instances=2, probe_policy="weighted", idle_stride=3)
        engine = dep.engine
        for state in engine._instances:
            state.activity_ttl = 0
        picks = [engine._next_probe_target() for _ in range(12)]
        assert any(p is not None for p in picks)

    def test_double_engine_on_switch_rejected(self):
        dep = build()
        from repro.cowbird.p4_engine import CowbirdP4Engine

        with pytest.raises(RuntimeError, match="pipeline"):
            CowbirdP4Engine(dep.sim, dep.bed.switch)

    def test_start_requires_instances(self):
        from repro.cowbird.p4_engine import CowbirdP4Engine
        from repro.testbed import Testbed

        bed = Testbed()
        engine = CowbirdP4Engine(bed.sim, bed.switch)
        with pytest.raises(RuntimeError, match="no instances"):
            engine.start()

    def test_double_start_rejected(self):
        dep = build()
        with pytest.raises(RuntimeError, match="already started"):
            dep.engine.start()
