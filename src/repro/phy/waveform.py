"""Time-domain burst synthesis: what the scanner actually sees.

An OFDM transmission observed through a 1 MHz slice of the USRP front end
looks like complex-Gaussian "noise" at elevated power for the duration of
the frame — the amplitude is Rayleigh-distributed and occasionally dips
to very low values mid-packet, which is precisely why SIFT smooths with a
moving average (Section 4.2.1, Figure 5).

One hardware quirk matters for Table 1: at 5 MHz width our prototype's
packets begin at reduced amplitude ("the initial portion of a packet at
5 MHz channel width is sent at a lower amplitude than the rest of the
packet"), which occasionally makes SIFT mis-measure the packet length.
``BurstSpec.ramp_fraction`` reproduces that artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro import constants
from repro.errors import SignalError
from repro.phy.iq import IqTrace, samples_for_duration
from repro.phy.noise import DEFAULT_NOISE_RMS, DEFAULT_SIGNAL_RMS, awgn_amplitude

#: Fraction of a 5 MHz frame transmitted at reduced amplitude.
#: Calibrated so that, under mild bench-static fading, the leading edge
#: occasionally slips below SIFT's threshold and spoils the length match
#: for ~1-2% of packets (Table 1's slightly-lower 5 MHz row).
FIVE_MHZ_RAMP_FRACTION = 0.06

#: Amplitude multiplier during the 5 MHz ramp.
FIVE_MHZ_RAMP_LEVEL = 0.55


@dataclass(frozen=True)
class BurstSpec:
    """One on-air frame as seen in the time domain.

    Attributes:
        start_us: burst start relative to the capture start.
        duration_us: on-air duration.
        amplitude_rms: received RMS amplitude in ADC counts.
        ramp_fraction: leading fraction transmitted at ``ramp_level`` times
            the nominal amplitude (the 5 MHz prototype artifact).
        ramp_level: amplitude multiplier during the ramp.
        label: optional tag for debugging/tests ("data", "ack", ...).
    """

    start_us: float
    duration_us: float
    amplitude_rms: float = DEFAULT_SIGNAL_RMS
    ramp_fraction: float = 0.0
    ramp_level: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.duration_us <= 0:
            raise SignalError(f"burst duration must be positive, got {self.duration_us}")
        if self.amplitude_rms < 0:
            raise SignalError(f"burst amplitude must be >= 0, got {self.amplitude_rms}")
        if not 0.0 <= self.ramp_fraction <= 1.0:
            raise SignalError(f"ramp fraction {self.ramp_fraction} outside [0, 1]")

    @property
    def end_us(self) -> float:
        """Burst end time relative to the capture start."""
        return self.start_us + self.duration_us


def ramp_for_width(width_mhz: float) -> tuple[float, float]:
    """(ramp_fraction, ramp_level) reproducing the per-width artifacts.

    Only 5 MHz shows the reduced-amplitude leading edge.
    """
    if width_mhz == 5.0:
        return FIVE_MHZ_RAMP_FRACTION, FIVE_MHZ_RAMP_LEVEL
    return 0.0, 1.0


def synthesize_bursts(
    bursts: Sequence[BurstSpec],
    capture_duration_us: float,
    *,
    noise_rms: float = DEFAULT_NOISE_RMS,
    sample_period_us: float = constants.SAMPLE_PERIOD_US,
    rng: np.random.Generator | None = None,
    start_us: float = 0.0,
) -> IqTrace:
    """Render a capture window containing *bursts* over a noise floor.

    Bursts that fall partially outside the window are clipped; fully
    outside bursts are ignored.  Overlapping bursts add as complex
    voltages (power sums on average), matching concurrent transmissions.

    Args:
        bursts: frames on the air, with ``start_us`` relative to the
            capture start.
        capture_duration_us: length of the synthetic capture.
        noise_rms: RMS amplitude of the noise floor.
        sample_period_us: scanner sample period.
        rng: deterministic random source (default: a fresh Generator
            seeded with :data:`repro.constants.FALLBACK_RNG_SEED`, so
            two bare calls produce identical captures).
        start_us: environment-clock timestamp stored on the trace.

    Returns:
        The captured IQ trace.
    """
    if capture_duration_us <= 0:
        raise SignalError(
            f"capture duration must be positive, got {capture_duration_us}"
        )
    if rng is None:
        rng = np.random.default_rng(constants.FALLBACK_RNG_SEED)
    num_samples = samples_for_duration(capture_duration_us, sample_period_us)
    samples = awgn_amplitude(num_samples, noise_rms, rng)

    for burst in bursts:
        first = int(np.floor(burst.start_us / sample_period_us))
        last = int(np.ceil(burst.end_us / sample_period_us))
        first = max(first, 0)
        last = min(last, num_samples)
        if last <= first:
            continue
        length = last - first
        sigma = burst.amplitude_rms / np.sqrt(2.0)
        signal = np.empty(length, dtype=complex)
        signal.real = rng.normal(0.0, sigma, length)
        signal.imag = rng.normal(0.0, sigma, length)
        if burst.ramp_fraction > 0.0 and burst.ramp_level != 1.0:
            ramp_samples = int(round(length * burst.ramp_fraction))
            if ramp_samples > 0:
                signal[:ramp_samples] *= burst.ramp_level
        samples[first:last] += signal
    return IqTrace(samples, sample_period_us, start_us)


def data_ack_bursts(
    width_mhz: float,
    payload_bytes: int,
    first_start_us: float,
    *,
    amplitude_rms: float = DEFAULT_SIGNAL_RMS,
) -> tuple[BurstSpec, BurstSpec]:
    """The canonical DATA + SIFS + ACK burst pair at a width.

    This is the time-domain signature SIFT matches (Section 4.2.1): the
    ACK is the smallest MAC frame, and the SIFS gap between the two bursts
    is width-specific.
    """
    from repro.phy.timing import timing_for_width

    timing = timing_for_width(width_mhz)
    ramp_fraction, ramp_level = ramp_for_width(width_mhz)
    data = BurstSpec(
        start_us=first_start_us,
        duration_us=timing.data_duration_us(payload_bytes),
        amplitude_rms=amplitude_rms,
        ramp_fraction=ramp_fraction,
        ramp_level=ramp_level,
        label="data",
    )
    ack = BurstSpec(
        start_us=data.end_us + timing.sifs_us,
        duration_us=timing.ack_duration_us,
        amplitude_rms=amplitude_rms,
        label="ack",
    )
    return data, ack


def beacon_cts_bursts(
    width_mhz: float,
    first_start_us: float,
    *,
    amplitude_rms: float = DEFAULT_SIGNAL_RMS,
) -> tuple[BurstSpec, BurstSpec]:
    """A BEACON + SIFS + CTS-to-self pair at a width.

    Section 4.2.1: "We require APs to send a short packet, such as a
    CTS-to-self, one SIFS interval after sending a beacon packet" so that
    SIFT can fingerprint beacons the same way it fingerprints Data-ACK.
    """
    from repro.phy.timing import timing_for_width

    timing = timing_for_width(width_mhz)
    ramp_fraction, ramp_level = ramp_for_width(width_mhz)
    beacon = BurstSpec(
        start_us=first_start_us,
        duration_us=timing.beacon_duration_us,
        amplitude_rms=amplitude_rms,
        ramp_fraction=ramp_fraction,
        ramp_level=ramp_level,
        label="beacon",
    )
    cts = BurstSpec(
        start_us=beacon.end_us + timing.sifs_us,
        duration_us=timing.cts_duration_us,
        amplitude_rms=amplitude_rms,
        label="cts",
    )
    return beacon, cts


def traffic_bursts(
    width_mhz: float,
    payload_bytes: int,
    num_packets: int,
    inter_packet_gap_us: float,
    *,
    start_us: float = 0.0,
    amplitude_rms: float = DEFAULT_SIGNAL_RMS,
    jitter_us: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[BurstSpec]:
    """A stream of Data-ACK exchanges with a fixed inter-packet gap.

    Reproduces the Table 1 / Figure 6 workload: ``num_packets`` frames of
    ``payload_bytes`` at a given injection rate.

    Args:
        inter_packet_gap_us: idle time between the end of one exchange and
            the start of the next.
        jitter_us: optional uniform jitter on each gap.
    """
    if num_packets < 0:
        raise SignalError(f"num_packets must be >= 0, got {num_packets}")
    if inter_packet_gap_us < 0:
        raise SignalError(
            f"inter-packet gap must be >= 0, got {inter_packet_gap_us}"
        )
    if rng is None:
        rng = np.random.default_rng(constants.FALLBACK_RNG_SEED)
    bursts: list[BurstSpec] = []
    t = start_us
    for _ in range(num_packets):
        data, ack = data_ack_bursts(
            width_mhz, payload_bytes, t, amplitude_rms=amplitude_rms
        )
        bursts.extend((data, ack))
        gap = inter_packet_gap_us
        if jitter_us > 0:
            gap += float(rng.uniform(0.0, jitter_us))
        t = ack.end_us + gap
    return bursts
