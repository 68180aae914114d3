"""Differential test: the per-channel indexed medium against a linear scan.

``BruteForceMedium`` keeps one flat list of transmissions and one dict
of listeners and scans both on every query, collision check and edge.
A hypothesis state machine drives it and :class:`repro.sim.medium.Medium`
through the same transmissions, clock advances and (un)subscriptions,
and after every step checks that carrier sense, the latest start,
collision flags, busy-time integrals and the exact sequence of
busy/idle callbacks agree.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.mac.frames import data_frame
from repro.sim.engine import Engine
from repro.sim.medium import DEFAULT_PSD_RATIO, Medium, Transmission

NUM_CHANNELS = 8
NODES = ("n0", "n1", "n2", "n3", "n4")
WIDTHS = (5.0, 10.0, 20.0)

spans = st.lists(
    st.integers(0, NUM_CHANNELS - 1), min_size=1, max_size=4, unique=True
).map(tuple)
widths = st.sampled_from(WIDTHS)
durations = st.sampled_from((0.0, 10.0, 20.0, 50.0))
delays = st.sampled_from((0.0, 5.0, 10.0, 25.0, 60.0))

#: Every contiguous span plus the whole band, queried after each step.
QUERY_SPANS = [
    tuple(range(lo, lo + n))
    for n in range(1, 5)
    for lo in range(NUM_CHANNELS - n + 1)
] + [tuple(range(NUM_CHANNELS))]
QUERY_WIDTHS = (None, *WIDTHS)


class BruteForceMedium:
    """The medium as one flat scan: every query visits everything."""

    def __init__(self, engine: Engine, num_channels: int, sensing: str):
        self.engine = engine
        self.sensing = sensing
        self.psd_ratio = DEFAULT_PSD_RATIO
        self.active: list[Transmission] = []
        self.listeners: dict = {}
        self.count = [0] * num_channels
        self.busy_since = [0.0] * num_channels
        self.integral = [0.0] * num_channels

    def sensable(self, tx_width, observer_width):
        return self.sensing == "perfect" or tx_width < observer_width * self.psd_ratio

    def _on(self, span):
        return [tx for tx in self.active if set(tx.span) & set(span)]

    def is_busy(self, span, observer_width=None):
        return any(
            observer_width is None or self.sensable(tx.width_mhz, observer_width)
            for tx in self._on(span)
        )

    def latest_start_on(self, span, observer_width=None):
        return max(
            (
                tx.start_us
                for tx in self._on(span)
                if observer_width is None
                or self.sensable(tx.width_mhz, observer_width)
            ),
            default=float("-inf"),
        )

    def busy_integral_us(self, c):
        open_part = self.engine.now_us - self.busy_since[c] if self.count[c] else 0.0
        return self.integral[c] + open_part

    def subscribe(self, node_id, span, width, callback):
        self.listeners[node_id] = (span, width, callback)

    def unsubscribe(self, node_id):
        self.listeners.pop(node_id, None)

    def _notify(self, changed, busy, tx_width):
        for span, width, callback in list(self.listeners.values()):
            if set(span) & set(changed) and self.sensable(tx_width, width):
                if busy or not self.is_busy(span, width):
                    callback(busy)

    def _collide(self, a, b):
        if self.sensing == "psd":
            if a.width_mhz * self.psd_ratio <= b.width_mhz:
                b.corrupted = True
                return
            if b.width_mhz * self.psd_ratio <= a.width_mhz:
                a.corrupted = True
                return
        a.corrupted = b.corrupted = True

    def begin(self, node_id, bss_id, span, width, duration, data_duration, frame):
        now = self.engine.now_us
        tx = Transmission(
            node_id, bss_id, tuple(span), width, now, now + duration,
            now + data_duration, frame,
        )
        for other in self._on(span):
            self._collide(tx, other)
        newly_busy = tuple(c for c in span if self.count[c] == 0)
        for c in span:
            if self.count[c] == 0:
                self.busy_since[c] = now
            self.count[c] += 1
        self.active.append(tx)
        if newly_busy:
            self._notify(newly_busy, True, width)
        self.engine.schedule(duration, self._end, tx)
        return tx

    def _end(self, tx):
        now = self.engine.now_us
        self.active = [t for t in self.active if t is not tx]
        newly_idle = []
        for c in tx.span:
            self.count[c] -= 1
            if self.count[c] == 0:
                self.integral[c] += now - self.busy_since[c]
                newly_idle.append(c)
        if newly_idle:
            self._notify(tuple(newly_idle), False, tx.width_mhz)


class Side:
    """One medium under test with its own engine, callback log and txs."""

    def __init__(self, factory, sensing: str):
        self.engine = Engine()
        self.medium = factory(self.engine, NUM_CHANNELS, sensing)
        self.edges: list[tuple[str, bool]] = []
        self.txs: list[Transmission] = []

    def begin(self, node, span, width, duration):
        frame = data_frame(node, "x", 100)
        tx = self.medium.begin(node, node, span, width, duration, duration, frame)
        self.txs.append(tx)

    def listener(self, node, victim):
        def callback(busy):
            self.edges.append((node, busy))
            if victim is not None:
                self.medium.unsubscribe(victim)

        return callback


class MediumIndexMachine(RuleBasedStateMachine):
    @initialize(sensing=st.sampled_from(("psd", "perfect")))
    def setup(self, sensing):
        self.sides = (
            Side(lambda e, n, s: Medium(e, n, sensing=s), sensing),
            Side(BruteForceMedium, sensing),
        )
        self.live: set[str] = set()

    @rule(node=st.sampled_from(NODES), span=spans, width=widths, duration=durations)
    def begin(self, node, span, width, duration):
        for side in self.sides:
            side.begin(node, span, width, duration)

    @rule(
        delay=delays, node=st.sampled_from(NODES), span=spans, width=widths,
        duration=durations,
    )
    def schedule_begin(self, delay, node, span, width, duration):
        for side in self.sides:
            side.engine.schedule(delay, side.begin, node, span, width, duration)

    @rule(delay=delays)
    def advance(self, delay):
        for side in self.sides:
            side.engine.run_until(side.engine.now_us + delay)

    @rule(
        node=st.sampled_from(NODES), span=spans, width=widths,
        victim=st.none() | st.sampled_from(NODES),
    )
    def subscribe(self, node, span, width, victim):
        for side in self.sides:
            side.medium.subscribe(node, span, width, side.listener(node, victim))
        self.live.add(node)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), span=spans, width=widths)
    def resubscribe_live(self, data, span, width):
        node = data.draw(st.sampled_from(sorted(self.live)))
        for side in self.sides:
            side.medium.subscribe(node, span, width, side.listener(node, None))

    @rule(node=st.sampled_from(NODES))
    def unsubscribe(self, node):
        for side in self.sides:
            side.medium.unsubscribe(node)
        self.live.discard(node)

    @invariant()
    def same_observable_state(self):
        indexed, brute = self.sides
        assert indexed.edges == brute.edges
        assert [t.corrupted for t in indexed.txs] == [t.corrupted for t in brute.txs]
        assert len(indexed.medium.active) == len(brute.medium.active)
        for span in QUERY_SPANS:
            for width in QUERY_WIDTHS:
                assert indexed.medium.is_busy(span, width) == brute.medium.is_busy(
                    span, width
                )
                assert indexed.medium.latest_start_on(
                    span, width
                ) == brute.medium.latest_start_on(span, width)
        for c in range(NUM_CHANNELS):
            assert indexed.medium.busy_integral_us(c) == brute.medium.busy_integral_us(c)


MediumIndexMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestMediumIndex = MediumIndexMachine.TestCase
