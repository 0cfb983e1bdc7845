"""Tests for the GCC components: filter, detector, AIMD, loss control."""

import numpy as np
import pytest

from repro.cc.base import SentPacket
from repro.cc.gcc import (
    AimdRateControl,
    BandwidthUsage,
    GccController,
    InterArrival,
    LossBasedController,
    OveruseDetector,
    OveruseEstimator,
)
from repro.rtp.twcc import TwccFeedback


class TestInterArrival:
    def test_groups_by_burst_window(self):
        ia = InterArrival(burst_delta=0.005)
        assert ia.add_packet(0.000, 0.040, 1200) is None
        assert ia.add_packet(0.002, 0.042, 1200) is None  # same group
        delta = ia.add_packet(0.010, 0.050, 1200)  # new group: closes none yet
        assert delta is None  # only one complete previous group exists now
        delta = ia.add_packet(0.020, 0.061, 1200)
        assert delta is not None
        assert delta.send_delta == pytest.approx(0.010 - 0.002)
        assert delta.arrival_delta == pytest.approx(0.050 - 0.042)

    def test_delay_variation_zero_for_constant_delay(self):
        ia = InterArrival()
        deltas = []
        for i in range(20):
            delta = ia.add_packet(i * 0.01, i * 0.01 + 0.05, 1200)
            if delta is not None:
                deltas.append(delta.delay_variation)
        assert all(abs(d) < 1e-12 for d in deltas)

    def test_positive_variation_when_queue_builds(self):
        ia = InterArrival()
        deltas = []
        for i in range(20):
            # Arrival spacing grows: queue building.
            delta = ia.add_packet(i * 0.01, i * 0.012 + 0.05, 1200)
            if delta is not None:
                deltas.append(delta.delay_variation)
        assert all(d > 0 for d in deltas)

    def test_reset_clears_state(self):
        ia = InterArrival()
        ia.add_packet(0.0, 0.05, 1200)
        ia.reset()
        assert ia.add_packet(1.0, 1.05, 1200) is None

    def test_invalid_burst_delta(self):
        with pytest.raises(ValueError):
            InterArrival(burst_delta=0.0)


class TestOveruseEstimator:
    def test_offset_near_zero_on_clean_channel(self):
        est = OveruseEstimator()
        rng = np.random.default_rng(0)
        for _ in range(500):
            noise = rng.normal(0.0, 0.0002)
            est.update(0.01 + noise, 0.01, 0, in_stable_state=True)
        assert abs(est.offset_ms) < 1.0

    def test_offset_grows_under_sustained_queueing(self):
        est = OveruseEstimator()
        for _ in range(100):
            # Every group takes 2 ms longer to arrive than to send.
            est.update(0.012, 0.010, 0, in_stable_state=True)
        assert est.offset_ms > 0.5

    def test_offset_recovers_after_congestion_clears(self):
        est = OveruseEstimator()
        for _ in range(100):
            est.update(0.012, 0.010, 0, in_stable_state=False)
        peak = est.offset_ms
        for _ in range(300):
            est.update(0.010, 0.010, 0, in_stable_state=True)
        assert est.offset_ms < peak / 2

    def test_num_of_deltas_caps_at_60(self):
        est = OveruseEstimator()
        for _ in range(100):
            est.update(0.01, 0.01, 0, in_stable_state=True)
        assert est.num_of_deltas == 60


class TestOveruseDetector:
    def test_normal_on_small_offsets(self):
        det = OveruseDetector()
        for i in range(50):
            state = det.detect(0.01, 5.0, 60, now=i * 0.05)
        assert state is BandwidthUsage.NORMAL

    def test_overuse_requires_sustained_positive_offset(self):
        det = OveruseDetector()
        # One spike is not enough...
        state = det.detect(5.0, 5.0, 60, now=0.0)
        assert state is not BandwidthUsage.OVERUSING
        # ...but growing, sustained offsets are.
        states = [
            det.detect(5.0 + i * 0.1, 20.0, 60, now=0.05 * (i + 1))
            for i in range(10)
        ]
        assert BandwidthUsage.OVERUSING in states

    def test_underuse_on_negative_offset(self):
        det = OveruseDetector()
        state = det.detect(-5.0, 5.0, 60, now=0.0)
        assert state is BandwidthUsage.UNDERUSING

    def test_threshold_adapts_upward_under_offset_pressure(self):
        det = OveruseDetector()
        initial = det.threshold_ms
        for i in range(200):
            det.detect(0.3, 5.0, 60, now=i * 0.05)  # T=18, above threshold
        assert det.threshold_ms > initial

    def test_threshold_bounded(self):
        det = OveruseDetector()
        for i in range(2000):
            det.detect(9.0, 5.0, 60, now=i * 0.05)
        assert det.threshold_ms <= det.max_threshold


class TestAimdRateControl:
    def test_startup_ramp_is_aggressive(self):
        aimd = AimdRateControl(initial_bitrate=2e6)
        rate = 2e6
        for i in range(12):
            rate = aimd.update(BandwidthUsage.NORMAL, rate * 1.0, float(i))
        # Roughly startup_factor^11 growth from 2 Mbps.
        assert rate > 10e6

    def test_overuse_decreases_toward_acked_rate(self):
        aimd = AimdRateControl(initial_bitrate=10e6)
        rate = aimd.update(BandwidthUsage.OVERUSING, 8e6, 1.0)
        assert rate == pytest.approx(0.85 * 8e6)

    def test_decrease_floor_half_current(self):
        aimd = AimdRateControl(initial_bitrate=20e6)
        rate = aimd.update(BandwidthUsage.OVERUSING, 1e6, 1.0)
        assert rate == pytest.approx(10e6)  # not 0.85 Mbps

    def test_decrease_rate_limited(self):
        aimd = AimdRateControl(initial_bitrate=20e6)
        aimd.update(BandwidthUsage.OVERUSING, 18e6, 1.0)
        first = aimd.rate
        # A second overuse within RTT+100ms must not cut again.
        aimd.update(BandwidthUsage.OVERUSING, 10e6, 1.01)
        assert aimd.rate == first

    def test_underuse_holds(self):
        aimd = AimdRateControl(initial_bitrate=10e6)
        rate = aimd.update(BandwidthUsage.UNDERUSING, 9e6, 1.0)
        assert rate == pytest.approx(10e6)

    def test_rate_clamped_to_range(self):
        aimd = AimdRateControl(initial_bitrate=2e6, min_bitrate=2e6, max_bitrate=25e6)
        for i in range(200):
            aimd.update(BandwidthUsage.NORMAL, 100e6, float(i))
        assert aimd.rate <= 25e6
        aimd2 = AimdRateControl(initial_bitrate=2e6, min_bitrate=2e6)
        for i in range(20):
            aimd2.update(BandwidthUsage.OVERUSING, 0.1e6, float(i))
        assert aimd2.rate >= 2e6

    def test_recovery_after_decrease_uses_fast_ramp(self):
        aimd = AimdRateControl(initial_bitrate=20e6)
        aimd.update(BandwidthUsage.OVERUSING, 20e6, 0.0)  # remembers ~20 Mbps
        # Crash the rate far below the remembered capacity.
        for i in range(5):
            aimd.update(BandwidthUsage.OVERUSING, 3e6, 1.0 + i)
        low = aimd.rate
        assert aimd.in_startup is False
        rate = low
        for i in range(6):
            rate = aimd.update(BandwidthUsage.NORMAL, rate, 10.0 + i)
        # Fast (startup-like) recovery: >= 20 %/s compounded.
        assert rate > low * 1.2**5


class TestLossBasedController:
    def test_decrease_on_high_loss(self):
        ctrl = LossBasedController(initial_bitrate=10e6)
        rate = ctrl.update(lost=20, total=100)  # 20 % loss
        assert rate == pytest.approx(10e6 * (1 - 0.5 * 0.2))

    def test_increase_on_low_loss(self):
        ctrl = LossBasedController(initial_bitrate=10e6)
        rate = ctrl.update(lost=0, total=100)
        assert rate == pytest.approx(10.5e6)

    def test_hold_between_thresholds(self):
        ctrl = LossBasedController(initial_bitrate=10e6)
        rate = ctrl.update(lost=5, total=100)  # 5 %
        assert rate == pytest.approx(10e6)

    def test_empty_interval_ignored(self):
        ctrl = LossBasedController(initial_bitrate=10e6)
        assert ctrl.update(lost=0, total=0) == 10e6

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            LossBasedController(initial_bitrate=1e6, high_loss=0.01, low_loss=0.1)


class TestGccController:
    def _feed(self, controller, base_seq, send_times, arrivals, size=1200):
        for i, send_time in enumerate(send_times):
            controller.on_packet_sent(
                SentPacket(
                    sequence=i,
                    transport_seq=(base_seq + i) % (1 << 16),
                    size_bytes=size,
                    send_time=send_time,
                ),
                send_time,
            )
        feedback = TwccFeedback(
            base_seq=base_seq,
            reference_time=arrivals[0] if arrivals else 0.0,
            feedback_count=0,
            arrivals=arrivals,
        )
        controller.on_feedback(feedback, max(a for a in arrivals if a) + 0.02)

    def test_requires_transport_seq(self):
        controller = GccController()
        with pytest.raises(ValueError):
            controller.on_packet_sent(
                SentPacket(sequence=0, transport_seq=None, size_bytes=100, send_time=0.0),
                0.0,
            )

    def test_rejects_wrong_feedback_type(self):
        with pytest.raises(TypeError):
            GccController().on_feedback(object(), 0.0)

    def test_rate_grows_on_clean_feedback(self):
        controller = GccController(initial_bitrate=2e6)
        t = 0.0
        seq = 0
        for round_idx in range(60):
            # Send at the controller's current target so the acked-
            # bitrate cap does not clamp growth (as the encoder does).
            target = controller.target_bitrate(t)
            count = max(2, int(target * 0.05 / 8 / 1200))
            sends = [t + i * (0.05 / count) for i in range(count)]
            arrivals = [s + 0.04 for s in sends]
            self._feed(controller, seq, sends, arrivals)
            seq += count
            t += 0.05
        assert controller.target_bitrate(t) > 3e6

    def test_loss_reported_in_feedback_lowers_target(self):
        controller = GccController(initial_bitrate=20e6)
        t = 0.0
        seq = 0
        for _ in range(20):
            sends = [t + i * 0.01 for i in range(10)]
            # 30 % of packets lost.
            arrivals = [
                (s + 0.04 if i % 3 else None) for i, s in enumerate(sends)
            ]
            self._feed(controller, seq, sends, arrivals)
            seq += 10
            t += 0.1
        assert controller.target_bitrate(t) < 20e6

    def test_acked_bitrate_estimate(self):
        controller = GccController()
        sends = [i * 0.01 for i in range(50)]
        arrivals = [s + 0.04 for s in sends]
        self._feed(controller, 0, sends, arrivals)
        rate = controller.acked_bitrate(1.0)
        # 1200 B every 10 ms ~ 0.96 Mbps.
        assert rate == pytest.approx(0.96e6, rel=0.2)

    def test_history_cap_keeps_newest_sends_across_wrap(self):
        # 70,000 sends with no feedback pass the 16-bit wrap and the
        # 20,000-record cap: the newest sends carry the numerically
        # smallest transport sequence numbers, and must stay.
        controller = GccController()
        sent = []
        for i in range(70_000):
            packet = SentPacket(
                sequence=i % (1 << 16),
                transport_seq=i % (1 << 16),
                size_bytes=1200,
                send_time=i * 1e-4,
            )
            controller.on_packet_sent(packet, packet.send_time)
            sent.append(packet)
        last = sent[-10:]
        feedback = TwccFeedback(
            base_seq=last[0].transport_seq,
            reference_time=last[0].send_time + 0.04,
            feedback_count=0,
            arrivals=[packet.send_time + 0.04 for packet in last],
        )
        controller.on_feedback(feedback, last[-1].send_time + 0.06)
        assert all(packet.acked for packet in last)
        assert not any(packet.acked for packet in sent[:-10])

    def test_pacing_rate_scales_with_target(self):
        controller = GccController(initial_bitrate=4e6)
        assert controller.pacing_rate(0.0) == pytest.approx(2.5 * 4e6)
