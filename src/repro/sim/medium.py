"""The shared wireless medium with per-UHF-channel occupancy.

Implements the paper's QualNet carrier-sense modification: a node
spanning multiple UHF channels senses busy if *any* spanned channel
carries energy, and two transmissions collide when they overlap in both
time and spanned channels.  All nodes share one collision domain; its
transmissions and busy/idle listeners are indexed per UHF channel, so a
query, collision check or edge visits only the channels of its span.

The medium also keeps a per-channel busy-time integral (the union of
transmission intervals per channel), which is what an ideal SIFT-based
airtime sensor would measure, and a registry of operating APs per
channel for the ``B_c`` estimate.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import SimulationError
from repro.mac.frames import Frame
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.node import SimNode


@dataclass
class Transmission:
    """An in-flight reservation of a set of UHF channels.

    Attributes:
        node_id: the transmitting node.
        bss_id: the transmitter's BSS (for sensor self-exclusion).
        span: UHF channel indices occupied.
        width_mhz: the transmitter's channel width (determines the power
            spectral density other nodes can sense).
        start_us / end_us: reservation interval (data + SIFS + ACK for
            unicast exchanges).
        data_end_us: end of the data portion (collision window).
        frame: the MAC frame being carried.
        corrupted: set True when an interfering transmission overlapped.
        on_complete: optional callback fired when the reservation ends,
            receiving the transmission (used by the sender's MAC to learn
            the outcome).
    """

    node_id: str
    bss_id: str
    span: tuple[int, ...]
    width_mhz: float
    start_us: float
    end_us: float
    data_end_us: float
    frame: Frame
    corrupted: bool = False
    on_complete: Callable[["Transmission"], None] | None = None


#: Default PSD ratio governing cross-width carrier sense and capture.
#: A transmission of width ``W_tx`` concentrates its (fixed) transmit
#: power over ``W_tx`` MHz, so its power spectral density seen by a node
#: of width ``W_rx`` is ``W_rx / W_tx`` relative to a same-width signal.
#: With a ratio of 4, a 5 MHz node cannot sense a 20 MHz transmission
#: (PSD 6 dB down, below the energy-detect threshold), and a 5 MHz
#: frame survives (captures over) an overlapping 20 MHz transmission.
DEFAULT_PSD_RATIO = 4.0


def _merged(table: list[dict], span: Iterable[int]) -> dict:
    """The union of the per-channel dicts of *span*, each key once."""
    merged: dict = {}
    for c in span:
        merged.update(table[c])
    return merged


class Medium:
    """Single-collision-domain medium with per-channel accounting.

    Carrier sense is PSD-aware by default (``sensing="psd"``): a node
    senses a transmission only when the transmission's spectral density
    is within ``psd_ratio`` of the node's own bandwidth reference.  This
    reproduces the physical wide-channel fragility the paper's QualNet
    noise-level adjustments capture: narrowband background pairs do not
    defer to a wideband WhiteFi transmission and stomp on it instead.
    ``sensing="perfect"`` disables the asymmetry (any energy on a spanned
    channel defers everyone) — an ablation configuration.

    Args:
        engine: the simulation engine (clock and busy-edge callbacks).
        num_channels: UHF index space size.
        sensing: "psd" (default) or "perfect".
        psd_ratio: sensing/capture bandwidth ratio threshold.
    """

    def __init__(
        self,
        engine: Engine,
        num_channels: int,
        sensing: str = "psd",
        psd_ratio: float = DEFAULT_PSD_RATIO,
    ):
        if sensing not in ("psd", "perfect"):
            raise SimulationError(
                f"unknown sensing model {sensing!r}; expected 'psd' or 'perfect'"
            )
        self.engine = engine
        self.num_channels = num_channels
        self.sensing = sensing
        self.psd_ratio = psd_ratio
        # Per channel: the transmissions on it (id() -> tx), its busy-time
        # integral, and its edge listeners in subscription order
        # (node_id -> (seq, (span, observer width, callback))).
        self._active_on: list[dict] = [{} for _ in range(num_channels)]
        self._busy_since = [0.0] * num_channels
        self._busy_integral = [0.0] * num_channels
        self._listening_on: list[dict] = [{} for _ in range(num_channels)]
        # node_id -> (seq, span).  A re-subscribing node keeps its seq, so
        # edges go out in the order of one dict of subscriptions.
        self._subscriptions: dict[str, tuple[int, tuple[int, ...]]] = {}
        self._subscription_seq = itertools.count()
        # AP registry: bss_id -> span, for B_c ground truth.
        self._ap_spans: dict[str, tuple[int, ...]] = {}
        # Per-(bss_id, channel) reservation-time integral for sensor
        # self-exclusion.
        self._own_integral: dict[tuple[str, int], float] = {}
        # Rolling log of successfully completed transmissions, for
        # secondary-radio monitoring (chirp detection on the backup
        # channel).  Entries are (end_us, span, frame).
        self.frame_log: deque[tuple[float, tuple[int, ...], Frame]] = deque(
            maxlen=10_000
        )

    # -- carrier sense --------------------------------------------------------

    def sensable(self, tx_width_mhz: float, observer_width_mhz: float) -> bool:
        """Can a node of *observer_width_mhz* sense a *tx_width_mhz* signal?

        Under PSD sensing, a much wider transmission spreads its power too
        thin for a narrow node's energy detector.
        """
        if self.sensing == "perfect":
            return True
        return tx_width_mhz < observer_width_mhz * self.psd_ratio

    def is_busy(
        self, span: Iterable[int], observer_width_mhz: float | None = None
    ) -> bool:
        """True when *span* carries energy sensable by the observer.

        With ``observer_width_mhz=None`` any energy counts (the scanner's
        view — SIFT's threshold sits far below carrier-sense levels).
        """
        if observer_width_mhz is None or self.sensing == "perfect":
            return any(self._active_on[c] for c in span)
        limit = observer_width_mhz * self.psd_ratio
        for c in span:
            for tx in self._active_on[c].values():
                if tx.width_mhz < limit:
                    return True
        return False

    def latest_start_on(
        self, span: Iterable[int], observer_width_mhz: float | None = None
    ) -> float:
        """Most recent start among sensable transmissions on *span*.

        Returns ``-inf`` when the span is idle.  Used for the CSMA
        sensing-vulnerability window: energy that appeared within the
        last slot time is not yet sensable, so a node whose backoff just
        expired transmits into it (a collision), exactly as in slotted
        DCF analysis.
        """
        latest = float("-inf")
        for tx in _merged(self._active_on, span).values():
            if (
                observer_width_mhz is None
                or self.sensable(tx.width_mhz, observer_width_mhz)
            ):
                latest = max(latest, tx.start_us)
        return latest

    @property
    def active(self) -> list[Transmission]:
        """Every transmission on the air, once each (diagnostics)."""
        return list(_merged(self._active_on, range(self.num_channels)).values())

    # -- listeners -------------------------------------------------------------

    def subscribe(
        self,
        node_id: str,
        span: tuple[int, ...],
        observer_width_mhz: float,
        callback: Callable[[bool], None],
    ) -> None:
        """Register for busy/idle edges on *span*.

        The callback receives True on a busy edge (the span just went
        from idle to carrying sensable energy) and False on an idle edge.
        Edges from transmissions the observer cannot sense (PSD below its
        detector) are filtered out.  Re-subscribing a registered node
        replaces its registration but keeps its place in the edge order.
        """
        old = self._subscriptions.get(node_id)
        seq = next(self._subscription_seq) if old is None else old[0]
        self.unsubscribe(node_id)
        for c in span:
            self._listening_on[c][node_id] = (seq, (span, observer_width_mhz, callback))
        self._subscriptions[node_id] = (seq, span)

    def unsubscribe(self, node_id: str) -> None:
        """Remove a listener registration (no-op when absent)."""
        for c in self._subscriptions.pop(node_id, (None, ()))[1]:
            self._listening_on[c].pop(node_id, None)

    def _notify(
        self, changed_span: tuple[int, ...], busy: bool, tx_width_mhz: float
    ) -> None:
        # A snapshot in subscription order, taken before any callback can
        # (un)subscribe.
        listeners = _merged(self._listening_on, changed_span).values()
        for _, (span, width, callback) in sorted(listeners, key=itemgetter(0)):
            if not self.sensable(tx_width_mhz, width):
                continue
            # An edge on a subset of a listener's span only matters if
            # the listener's overall (sensable) state matches the edge.
            if busy or not self.is_busy(span, width):
                callback(busy)

    # -- transmission lifecycle --------------------------------------------------

    def _mark_collision(self, a: Transmission, b: Transmission) -> None:
        """Corrupt overlapping transmissions, honouring PSD capture.

        A much narrower transmission concentrates its power and survives
        an overlap with a much wider one (capture); otherwise both are
        lost.
        """
        if self.sensing == "psd":
            if a.width_mhz * self.psd_ratio <= b.width_mhz:
                b.corrupted = True  # a captures
                return
            if b.width_mhz * self.psd_ratio <= a.width_mhz:
                a.corrupted = True  # b captures
                return
        a.corrupted = True
        b.corrupted = True

    def begin(
        self,
        node_id: str,
        bss_id: str,
        span: tuple[int, ...],
        width_mhz: float,
        duration_us: float,
        data_duration_us: float,
        frame: Frame,
    ) -> Transmission:
        """Start a reservation of *span* for *duration_us*.

        Already-active transmissions overlapping the span collide with
        the new one (subject to PSD capture).  An end event is scheduled
        automatically.

        Args:
            width_mhz: transmitter channel width.
            duration_us: full reservation (data + SIFS + ACK for unicast).
            data_duration_us: the collision-vulnerable data portion.
        """
        if not span:
            raise SimulationError("cannot transmit on an empty span")
        for c in span:
            if not 0 <= c < self.num_channels:
                raise SimulationError(
                    f"span channel {c} outside 0..{self.num_channels - 1}"
                )
        now = self.engine.now_us
        tx = Transmission(
            node_id=node_id,
            bss_id=bss_id,
            span=tuple(span),
            width_mhz=width_mhz,
            start_us=now,
            end_us=now + duration_us,
            data_end_us=now + data_duration_us,
            frame=frame,
        )
        active_on = self._active_on
        # Collision check against concurrent transmissions.
        for other in _merged(active_on, tx.span).values():
            self._mark_collision(tx, other)
        newly_busy = tuple(c for c in tx.span if not active_on[c])
        for c in tx.span:
            if not active_on[c]:
                self._busy_since[c] = now
            active_on[c][id(tx)] = tx
        if newly_busy:
            self._notify(newly_busy, True, tx.width_mhz)
        self.engine.schedule(duration_us, self._end, tx)
        return tx

    def _end(self, tx: Transmission) -> None:
        now = self.engine.now_us
        newly_idle = []
        for c in tx.span:
            on = self._active_on[c]
            del on[id(tx)]
            if not on:
                self._busy_integral[c] += now - self._busy_since[c]
                newly_idle.append(c)
        duration = tx.end_us - tx.start_us
        for c in tx.span:
            key = (tx.bss_id, c)
            self._own_integral[key] = self._own_integral.get(key, 0.0) + duration
        if not tx.corrupted:
            self.frame_log.append((now, tx.span, tx.frame))
        if newly_idle:
            self._notify(tuple(newly_idle), False, tx.width_mhz)
        if tx.on_complete is not None:
            tx.on_complete(tx)

    # -- accounting ----------------------------------------------------------------

    def busy_integral_us(self, uhf_index: int) -> float:
        """Cumulative busy time on a channel, including any open interval."""
        total = self._busy_integral[uhf_index]
        if self._active_on[uhf_index]:
            total += self.engine.now_us - self._busy_since[uhf_index]
        return total

    def busy_integral_excluding(
        self, uhf_index: int, bss_id: str
    ) -> float:
        """Busy integral approximation excluding one BSS's own traffic.

        Exact per-BSS de-overlapping is not tracked; the approximation
        subtracts the excluded BSS's reservation time on the channel,
        which is exact whenever that BSS's transmissions do not overlap
        others on the same channel (CSMA makes same-channel overlap rare).
        """
        return self.busy_integral_us(uhf_index) - self._own_integral.get(
            (bss_id, uhf_index), 0.0
        )

    # -- AP registry ---------------------------------------------------------------

    def register_ap(self, bss_id: str, span: tuple[int, ...]) -> None:
        """Declare that BSS *bss_id* currently operates on *span*."""
        self._ap_spans[bss_id] = tuple(span)

    def unregister_ap(self, bss_id: str) -> None:
        """Remove a BSS from the registry."""
        self._ap_spans.pop(bss_id, None)

    def ap_count_on(self, uhf_index: int, excluding_bss: str = "") -> int:
        """Number of registered APs (other than *excluding_bss*) on a channel."""
        return sum(
            1
            for bss, span in self._ap_spans.items()
            if bss != excluding_bss and uhf_index in span
        )

    def frames_on(
        self, span: Iterable[int], since_us: float
    ) -> list[tuple[float, Frame]]:
        """Successfully completed frames on *span* since *since_us*.

        This is the secondary radio's monitoring view: the AP's scanner,
        parked periodically on the backup channel, reports the chirps it
        heard there (Section 4.3).
        """
        span_set = set(span)
        return [
            (t, frame)
            for t, tx_span, frame in self.frame_log
            if t >= since_us and any(c in span_set for c in tx_span)
        ]
