"""RTP jitter buffer modelled after GStreamer's ``rtpjitterbuffer``.

The paper buffers packets for 150 ms "to cushion the variable packet
arrival rate and handle out-of-order packets" and identifies the
buffer as one of the two main playback-latency contributors. Appendix
A.4 additionally discusses the ``drop-on-latency`` property — dropping
packets that are already older than the buffer latency instead of
releasing them late — as a potential improvement for remote piloting;
both behaviours are implemented here and compared by the jitter-buffer
ablation bench.

Operation: the first received packet anchors a mapping from RTP
timestamps to local playout deadlines ``deadline = anchor + media_time
+ latency``. Packets are released in timestamp order when their
deadline passes; packets arriving after their deadline are released
immediately (default) or discarded (``drop_on_latency``).

**Sequence-gap stalling.** GStreamer's jitter buffer arms per-packet
"lost" timers when it sees a hole in the sequence-number space and
holds subsequent packets while waiting. SCReAM's sender-side RTP-queue
discards tear holes of hundreds of sequence numbers into the stream at
high bitrates, so the buffer repeatedly waits on packets that will
never arrive — the most plausible mechanism behind the paper's
otherwise-unexplained ~1 s playback-latency plateaus during SCReAM
urban runs (Section 4.2.2). We model it as a gap penalty added to the
playout deadline, proportional to the hole size and decaying slowly.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from repro.rtp.packets import (
    RtpPacket,
    SEQ_MOD,
    TS_MOD,
    VIDEO_CLOCK_RATE,
    seq_distance,
)
from repro.net.simulator import EventHandle, EventLoop
from repro.obs import NULL_RECORDER, NullRecorder
from repro.util.units import to_ms

ReleaseFn = Callable[[RtpPacket, float], None]


class JitterBuffer:
    """Delay-equalizing packet buffer.

    Parameters
    ----------
    loop:
        Event loop for scheduling releases.
    release:
        Callback ``(packet, release_time)`` invoked in playout order.
    latency:
        Buffering target in seconds (paper: 0.150).
    drop_on_latency:
        When ``True``, packets that arrive after their playout
        deadline are dropped instead of released late (App. A.4).
    clock_rate:
        RTP clock rate for timestamp-to-seconds conversion.
    gap_wait_per_packet:
        Extra playout delay accrued per missing sequence number when a
        hole is detected (the per-packet "lost" timer).
    gap_penalty_threshold:
        Holes of up to this many packets are absorbed by the normal
        ``latency`` budget; only the excess accrues penalty. Loss
        bursts and small rural-bitrate discards stay harmless, while
        the hundreds-of-packets holes SCReAM tears at 25 Mbps trigger
        the pathological waiting (the paper's urban-only plateaus).
    gap_penalty_cap:
        Upper bound on the accumulated gap penalty in seconds.
    gap_penalty_tau:
        Exponential decay time constant of the penalty, seconds.
    """

    def __init__(
        self,
        loop: EventLoop,
        release: ReleaseFn,
        *,
        latency: float = 0.150,
        drop_on_latency: bool = False,
        clock_rate: int = VIDEO_CLOCK_RATE,
        gap_wait_per_packet: float = 0.002,
        gap_penalty_threshold: int = 100,
        gap_penalty_cap: float = 1.0,
        gap_penalty_tau: float = 4.0,
        obs: NullRecorder = NULL_RECORDER,
    ) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self._loop = loop
        self.obs = obs
        self._release = release
        self.latency = latency
        self.drop_on_latency = drop_on_latency
        self.clock_rate = clock_rate
        self.gap_wait_per_packet = gap_wait_per_packet
        self.gap_penalty_threshold = gap_penalty_threshold
        self.gap_penalty_cap = gap_penalty_cap
        self.gap_penalty_tau = gap_penalty_tau
        self._offset: float | None = None  # min(arrival - media) seen
        self._flushed = False
        self._released = 0
        self._dropped_late = 0
        self._last_media_time: float | None = None
        self._expected_seq: int | None = None
        self._gap_penalty = 0.0
        self._gap_penalty_time = 0.0
        self._last_deadline = 0.0
        #: Deadlines are monotone (enforced in :meth:`push`), so the
        #: waiting packets form a FIFO and one armed loop event — at
        #: the head deadline — serves the whole queue, instead of a
        #: per-packet closure plus a tracked handle per packet.
        self._waiting: deque[tuple[RtpPacket, float]] = deque()
        self._head_handle: EventHandle | None = None
        self.gap_events = 0

    @property
    def released_packets(self) -> int:
        """Packets handed to the depacketizer so far."""
        return self._released

    @property
    def dropped_late_packets(self) -> int:
        """Packets discarded because they missed their deadline."""
        return self._dropped_late

    def _media_time(self, timestamp: int) -> float:
        """Unwrapped media time in seconds for an RTP timestamp."""
        media = timestamp / self.clock_rate
        if self._last_media_time is not None:
            span = TS_MOD / self.clock_rate
            # unwrap: choose the representation closest to the last one,
            # in both directions — a reordered pre-wrap packet arriving
            # just after the wrap must map slightly *backward*, not a
            # full span into the future (which would stall the FIFO).
            while media < self._last_media_time - span / 2:
                media += span
            while media > self._last_media_time + span / 2:
                media -= span
        last = self._last_media_time or media
        self._last_media_time = media if media > last else last
        return media

    def push(self, packet: RtpPacket, arrival: float) -> None:
        """Insert a packet received at ``arrival``.

        The playout offset tracks the *minimum* observed
        ``arrival - media`` (GStreamer's clock-skew estimation), so
        the buffer holds packets ``latency`` seconds beyond the
        fastest network path rather than beyond whatever delay the
        first packet happened to see.
        """
        media = self._media_time(packet.timestamp)
        skew = arrival - media
        if self._offset is None or skew < self._offset:
            self._offset = skew
        sequence = packet.sequence
        if sequence == self._expected_seq:
            # In-order packet: no gap to account.
            self._expected_seq = (sequence + 1) % SEQ_MOD
        else:
            self._note_sequence(sequence, arrival)
        # An inactive penalty still adds 0.0, as _current_penalty
        # would return it (a -0.0 offset sum must become 0.0).
        penalty = (
            0.0 if self._gap_penalty <= 0.0 else self._current_penalty(arrival)
        )
        deadline = self._offset + media + self.latency + penalty
        # Releases are strictly in arrival order: a decaying gap
        # penalty must never let a later packet overtake an earlier
        # one (the buffer is a FIFO, like GStreamer's).
        last = self._last_deadline
        if last > deadline:
            deadline = last
        self._last_deadline = deadline
        now = self._loop.now
        if deadline <= now:
            if self.drop_on_latency:
                self._dropped_late += 1
                if self.obs.enabled:
                    self.obs.count("jitter/dropped_late")
                return
            self._do_release(packet, now)
            return
        self._waiting.append((packet, deadline))
        if self._head_handle is None:
            self._head_handle = self._loop.call_at(deadline, self._fire)

    def _fire(self) -> None:
        self._head_handle = None
        if self._flushed:
            return
        now = self._loop.now
        waiting = self._waiting
        while waiting and waiting[0][1] <= now:
            packet, deadline = waiting.popleft()
            self._do_release(packet, deadline)
        if waiting:
            self._head_handle = self._loop.call_at(waiting[0][1], self._fire)

    def _note_sequence(self, sequence: int, now: float) -> None:
        if self._expected_seq is not None:
            gap = seq_distance(self._expected_seq, sequence)
            if gap > 0:
                # ``gap`` sequence numbers will never arrive: the
                # buffer waits on each of them before giving up.
                self.gap_events += 1
                excess = gap - self.gap_penalty_threshold
                if excess > 0:
                    penalty = self._current_penalty(now) + min(
                        excess * self.gap_wait_per_packet,
                        self.gap_penalty_cap,
                    )
                    self._gap_penalty = min(penalty, self.gap_penalty_cap)
                    self._gap_penalty_time = now
                if self.obs.enabled:
                    self.obs.event(
                        "jitter.gap",
                        t=now,
                        packets=gap,
                        penalty_ms=to_ms(self._current_penalty(now)),
                    )
                    self.obs.count("jitter/gap_events")
                    self.obs.count("jitter/gap_packets", gap)
        self._expected_seq = (sequence + 1) % SEQ_MOD

    def _current_penalty(self, now: float) -> float:
        if self._gap_penalty <= 0.0:
            return 0.0
        decay = math.exp(-(now - self._gap_penalty_time) / self.gap_penalty_tau)
        return self._gap_penalty * decay

    def _do_release(self, packet: RtpPacket, when: float) -> None:
        if self._flushed:
            return
        self._released += 1
        self._release(packet, when)

    def flush(self) -> None:
        """Discard all scheduled releases (session teardown).

        Cancels the release events still queued on the loop, so
        teardown leaves it clean and ``EventLoop.pending()`` stays
        meaningful.
        """
        self._flushed = True
        if self._head_handle is not None:
            self._head_handle.cancel()
            self._head_handle = None
        self._waiting.clear()
