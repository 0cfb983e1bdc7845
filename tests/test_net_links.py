"""Tests for network links, loss models and path composition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    BernoulliLoss,
    CapacityLink,
    Datagram,
    DelayLine,
    EventLoop,
    GilbertElliottLoss,
    NetworkPath,
    NoLoss,
)


def make_datagram(size=1000):
    return Datagram(size_bytes=size, payload=None)


class TestDatagram:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            Datagram(size_bytes=0, payload=None)

    def test_one_way_delay_nan_before_delivery(self):
        d = make_datagram()
        assert np.isnan(d.one_way_delay)

    def test_uids_are_unique(self):
        a, b = make_datagram(), make_datagram()
        assert a.uid != b.uid

    def test_uids_are_sequential(self):
        a, b, c = make_datagram(), make_datagram(), make_datagram()
        assert (b.uid, c.uid) == (a.uid + 1, a.uid + 2)

    def test_reset_restarts_uid_sequence(self):
        """Sessions reset the counter so a run's uids do not depend on
        how many datagrams earlier runs in the same process created."""
        from repro.net.packet import reset_datagram_ids

        reset_datagram_ids()
        first_pass = [make_datagram().uid for _ in range(3)]
        reset_datagram_ids()
        second_pass = [make_datagram().uid for _ in range(3)]
        assert first_pass == second_pass == [1, 2, 3]

    def test_datagram_is_slotted(self):
        d = make_datagram()
        assert not hasattr(d, "__dict__")
        with pytest.raises(AttributeError):
            d.unexpected_attribute = 1


class TestCapacityLink:
    def test_serialization_time_matches_rate(self):
        loop = EventLoop()
        arrived = []
        link = CapacityLink(loop, lambda t: 8e6, lambda d, done: arrived.append(done))
        link.send(make_datagram(1000))  # 8000 bits at 8 Mbps = 1 ms
        loop.run()
        assert arrived == [pytest.approx(0.001)]

    def test_fifo_order_and_back_to_back_serialization(self):
        loop = EventLoop()
        arrived = []
        link = CapacityLink(
            loop, lambda t: 8e6, lambda d, done: arrived.append((d.uid, done))
        )
        d1, d2 = make_datagram(1000), make_datagram(1000)
        link.send(d1)
        link.send(d2)
        loop.run()
        assert [uid for uid, _ in arrived] == [d1.uid, d2.uid]
        assert arrived[1][1] == pytest.approx(0.002)

    def test_buffer_overflow_drops_tail(self):
        loop = EventLoop()
        arrived = []
        link = CapacityLink(
            loop, lambda t: 8e6, lambda d, done: arrived.append(d), buffer_bytes=2500
        )
        for _ in range(5):
            link.send(make_datagram(1000))
        loop.run()
        # one in flight immediately + two queued (2000 <= 2500); rest dropped
        assert len(arrived) == 3
        assert link.stats.dropped_overflow == 2

    def test_outage_holds_queued_packets(self):
        loop = EventLoop()
        arrived = []
        link = CapacityLink(loop, lambda t: 8e6, lambda d, done: arrived.append(done))
        link.set_up(False)
        link.send(make_datagram(1000))
        loop.call_at(1.0, lambda: link.set_up(True))
        loop.run()
        assert arrived == [pytest.approx(1.001)]

    def test_rate_change_applies_at_next_packet(self):
        loop = EventLoop()
        arrived = []
        rates = {0: 8e6}
        link = CapacityLink(
            loop,
            lambda t: 8e6 if t < 0.0005 else 4e6,
            lambda d, done: arrived.append(done),
        )
        link.send(make_datagram(1000))
        link.send(make_datagram(1000))
        loop.run()
        assert arrived[0] == pytest.approx(0.001)
        assert arrived[1] == pytest.approx(0.001 + 0.002)

    def test_min_rate_floor_prevents_divide_blowup(self):
        loop = EventLoop()
        arrived = []
        link = CapacityLink(loop, lambda t: 0.0, lambda d, done: arrived.append(done))
        link.send(make_datagram(125))  # 1000 bits at 10 kbps floor = 0.1 s
        loop.run()
        assert arrived == [pytest.approx(0.1)]


def run_ticked_link(scenario, *, with_horizon):
    """Drive one link through ``scenario``; return its hand-offs and drops.

    The rate changes only at tick times, an outage starts at a tick and
    ends at any time, and the run stops at ``run_end``. Every tick,
    outage end and send is scheduled before the run, in that order, so
    the event order is the same with and without a horizon. Hand-offs
    are ``(send index, done)`` in hand-off order; drops are send indices.
    """
    times, rates, outages, sends, buffer_bytes, run_end = scenario
    loop = EventLoop()
    state = {"k": -1, "rate": 1e6}

    def horizon():
        k = state["k"] + 1
        return times[k] if k < len(times) else run_end

    handoffs = []
    link = CapacityLink(
        loop,
        lambda now: state["rate"],
        lambda d, done: handoffs.append((d.payload, done)),
        buffer_bytes=buffer_bytes,
        horizon=horizon if with_horizon else None,
    )

    def tick(k):
        state["k"] = k
        state["rate"] = rates[k]
        if k in outages:
            link.set_up(False)

    drops = []

    def send(index, size):
        dropped = link.stats.dropped_overflow
        link.send(Datagram(size_bytes=size, payload=index))
        if link.stats.dropped_overflow > dropped:
            drops.append(index)

    for k, t in enumerate(times):
        loop.schedule_at(t, lambda k=k: tick(k))
    for k, length in outages.items():
        loop.schedule_at(times[k] + length, lambda: link.set_up(True))
    for index, (t, size) in enumerate(sends):
        loop.schedule_at(t, lambda i=index, n=size: send(i, n))
    loop.run_until(run_end)
    return handoffs, drops


@st.composite
def tick_scenarios(draw):
    period = draw(st.sampled_from([0.01, 0.1]))
    run_end = draw(st.floats(0.0, 1.0))
    times = []
    while len(times) * period <= run_end:
        times.append(len(times) * period)
    # Log-uniform from below the link's rate floor to 4 Mbps: a packet
    # takes from a few hundred microseconds to longer than the run.
    rates = draw(st.lists(
        st.floats(3.7, 6.6).map(lambda exponent: 10.0 ** exponent),
        min_size=len(times), max_size=len(times),
    ))
    outages = draw(st.dictionaries(
        st.integers(0, len(times) - 1), st.floats(1e-4, 0.3), max_size=4
    ))
    # Bursts of packets sent at one instant, as a frame leaves the
    # pacer, some at a tick's instant (after the tick).
    bursts = sorted(draw(st.lists(
        st.tuples(
            st.one_of(st.floats(0.0, run_end), st.sampled_from(times)),
            st.lists(st.integers(40, 1500), min_size=1, max_size=8),
        ),
        min_size=1, max_size=10,
    )), key=lambda burst: burst[0])
    sends = [(t, size) for t, sizes in bursts for size in sizes]
    buffer_bytes = draw(st.integers(1500, 8000))
    return times, rates, outages, sends, buffer_bytes, run_end


class TestTickHorizon:
    """A link serializing ahead to the next tick is the no-horizon link."""

    @given(scenario=tick_scenarios())
    @settings(max_examples=300, deadline=None)
    def test_horizon_link_equals_no_horizon_link(self, scenario):
        reference = run_ticked_link(scenario, with_horizon=False)
        handoffs, drops = run_ticked_link(scenario, with_horizon=True)
        assert handoffs == reference[0]
        assert drops == reference[1]
        run_end = scenario[-1]
        assert all(done <= run_end for _, done in handoffs)

    def test_serializes_ahead_until_the_horizon(self):
        loop = EventLoop()
        handed = []
        link = CapacityLink(
            loop,
            lambda t: 8e6,
            lambda d, done: handed.append((loop.now, done)),
            horizon=lambda: 0.0025,
        )
        for _ in range(3):
            link.send(make_datagram(1000))  # 1 ms each at 8 Mbps
        # The first two finish before the horizon and leave at once;
        # the third finishes past it and waits for its finish event.
        assert handed == [(0.0, pytest.approx(0.001)), (0.0, pytest.approx(0.002))]
        assert loop.pending() == 1
        loop.run()
        assert handed[2] == (pytest.approx(0.003), pytest.approx(0.003))

    def test_unstarted_packets_count_against_the_buffer(self):
        loop = EventLoop()
        link = CapacityLink(
            loop, lambda t: 8e6, lambda d, done: None,
            buffer_bytes=2500, horizon=lambda: 1.0,
        )
        for _ in range(5):
            link.send(make_datagram(1000))
        # All three admitted packets are handed off at once, but only
        # the first has started: the other two still fill the buffer.
        assert link.stats.dropped_overflow == 2
        assert link.queued_bytes == 2000
        loop.run_until(0.0015)
        assert link.queued_bytes == 1000


class TestDelayLine:
    def test_fixed_delay(self):
        loop = EventLoop()
        arrived = []
        line = DelayLine(loop, lambda d: arrived.append(loop.now), base_delay=0.05)
        line.send(make_datagram())
        loop.run()
        assert arrived == [pytest.approx(0.05)]

    def test_jitter_never_reorders(self):
        loop = EventLoop()
        arrived = []
        rng = np.random.default_rng(0)
        line = DelayLine(
            loop,
            lambda d: arrived.append(d.uid),
            base_delay=0.02,
            jitter_std=0.01,
            rng=rng,
        )
        datagrams = [make_datagram() for _ in range(50)]
        for i, d in enumerate(datagrams):
            loop.call_at(i * 0.001, lambda d=d: line.send(d))
        loop.run()
        assert arrived == [d.uid for d in datagrams]

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            DelayLine(EventLoop(), lambda d: None, base_delay=0.0, jitter_std=0.01)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayLine(EventLoop(), lambda d: None, base_delay=-1.0)


class TestLossModels:
    def test_no_loss_never_drops(self):
        model = NoLoss()
        assert not any(model.should_drop() for _ in range(1000))

    def test_bernoulli_rate(self):
        model = BernoulliLoss(0.3, np.random.default_rng(1))
        drops = sum(model.should_drop() for _ in range(20_000))
        assert drops / 20_000 == pytest.approx(0.3, abs=0.02)

    def test_bernoulli_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5, np.random.default_rng(0))

    def test_gilbert_elliott_stationary_rate(self):
        model = GilbertElliottLoss.from_rate_and_burst(
            0.01, 3.0, np.random.default_rng(2)
        )
        assert model.stationary_loss_rate == pytest.approx(0.01, rel=1e-6)
        drops = sum(model.should_drop() for _ in range(200_000))
        assert drops / 200_000 == pytest.approx(0.01, rel=0.25)

    def test_gilbert_elliott_burstiness(self):
        model = GilbertElliottLoss.from_rate_and_burst(
            0.02, 4.0, np.random.default_rng(3)
        )
        outcomes = [model.should_drop() for _ in range(200_000)]
        bursts = []
        run = 0
        for dropped in outcomes:
            if dropped:
                run += 1
            elif run:
                bursts.append(run)
                run = 0
        assert np.mean(bursts) == pytest.approx(4.0, rel=0.3)

    def test_absorbing_bad_state_rejected(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(0.1, 0.0, np.random.default_rng(0))

    def test_zero_rate_never_drops(self):
        model = GilbertElliottLoss.from_rate_and_burst(
            0.0, 3.0, np.random.default_rng(4)
        )
        assert not any(model.should_drop() for _ in range(1000))

    @given(
        rate=st.floats(0.0, 0.5),
        burst=st.floats(1.0, 10.0),
    )
    @settings(max_examples=30)
    def test_from_rate_and_burst_stationary_matches(self, rate, burst):
        model = GilbertElliottLoss.from_rate_and_burst(
            rate, burst, np.random.default_rng(0)
        )
        assert model.stationary_loss_rate == pytest.approx(rate, abs=1e-9)


class TestNetworkPath:
    def test_stamps_send_and_receive_times(self):
        loop = EventLoop()
        received = []
        path = NetworkPath(
            loop, lambda t: 8e6, received.append, base_delay=0.05, jitter_std=0.0
        )
        loop.call_at(1.0, lambda: path.send(make_datagram(1000)))
        loop.run()
        datagram = received[0]
        assert datagram.sent_at == pytest.approx(1.0)
        assert datagram.received_at == pytest.approx(1.0 + 0.001 + 0.05)
        assert datagram.one_way_delay == pytest.approx(0.051)

    def test_loss_gate_counts_drops(self):
        loop = EventLoop()
        received = []
        path = NetworkPath(
            loop,
            lambda t: 1e9,
            received.append,
            base_delay=0.0,
            jitter_std=0.0,
            loss_model=BernoulliLoss(1.0, np.random.default_rng(0)),
        )
        for _ in range(10):
            path.send(make_datagram())
        loop.run()
        assert received == []
        assert path.lost_packets == 10

    def test_jitter_requires_rng(self):
        loop = EventLoop()
        with pytest.raises(ValueError, match="rng is required"):
            NetworkPath(
                loop, lambda t: 8e6, lambda d: None, base_delay=0.0, jitter_std=0.001
            )

    def test_outage_propagates_to_capacity_link(self):
        loop = EventLoop()
        received = []
        path = NetworkPath(
            loop, lambda t: 8e6, received.append, base_delay=0.0, jitter_std=0.0
        )
        path.set_up(False)
        path.send(make_datagram(1000))
        loop.call_at(0.5, lambda: path.set_up(True))
        loop.run()
        assert received[0].received_at == pytest.approx(0.501)
