"""Noise and attenuation models for the synthetic RF front end.

Amplitudes are in arbitrary ADC counts, matching the scale of Figure 5
(signal amplitudes around 600-1400 counts over a noise floor of tens of
counts).  Attenuation (Figure 7) scales amplitude by ``10^(-dB/20)``.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.errors import SignalError

#: Default RMS amplitude of the complex-Gaussian noise floor (ADC counts).
DEFAULT_NOISE_RMS = 20.0

#: Default received signal RMS amplitude with no attenuation (ADC counts).
DEFAULT_SIGNAL_RMS = 900.0


def attenuate_db(amplitude: float, attenuation_db: float) -> float:
    """Scale an *amplitude* (not power) by ``attenuation_db`` decibels.

    >>> attenuate_db(1000.0, 20.0)
    100.0
    """
    if attenuation_db < 0:
        raise SignalError(f"attenuation must be >= 0 dB, got {attenuation_db}")
    return amplitude * 10.0 ** (-attenuation_db / 20.0)


def awgn_amplitude(
    num_samples: int,
    rms: float = DEFAULT_NOISE_RMS,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Complex AWGN samples with the requested RMS amplitude.

    The amplitude of complex Gaussian noise is Rayleigh-distributed; the
    RMS of the magnitude equals ``rms`` when each quadrature has standard
    deviation ``rms / sqrt(2)``.
    """
    if num_samples < 0:
        raise SignalError(f"num_samples must be >= 0, got {num_samples}")
    if rms < 0:
        raise SignalError(f"noise RMS must be >= 0, got {rms}")
    if rng is None:
        rng = np.random.default_rng(constants.FALLBACK_RNG_SEED)
    sigma = rms / np.sqrt(2.0)
    # One complex array filled in place: the same two draws, in the same
    # order, as ``normal() + 1j * normal()``, without the temporaries.
    out = np.empty(num_samples, dtype=complex)
    out.real = rng.normal(0.0, sigma, num_samples)
    out.imag = rng.normal(0.0, sigma, num_samples)
    return out


def snr_db(signal_rms: float, noise_rms: float) -> float:
    """Signal-to-noise ratio in dB from RMS amplitudes."""
    if signal_rms <= 0 or noise_rms <= 0:
        raise SignalError("RMS amplitudes must be positive for SNR")
    return 20.0 * np.log10(signal_rms / noise_rms)


def decode_success_probability(
    snr_db_value: float,
    frame_bytes: int,
    *,
    snr_50_db: float = 5.0,
    ber_slope_per_db: float = 0.6,
) -> float:
    """Probability that a transceiver decodes a frame at the given SNR.

    The bit error rate falls exponentially (in dB) with SNR — the classic
    waterfall curve — and a frame succeeds only if every bit does.  This
    produces the *smooth* sniffer-detection falloff of Figure 7, in
    contrast with SIFT's hard amplitude-threshold cliff.

    Args:
        snr_db_value: received SNR in dB.
        frame_bytes: frame size (longer frames fail earlier).
        snr_50_db: SNR at which a 1000-byte frame is decoded 50% of the
            time.
        ber_slope_per_db: decades of BER improvement per dB of SNR.
    """
    if frame_bytes <= 0:
        raise SignalError(f"frame size must be positive, got {frame_bytes}")
    bits = frame_bytes * 8
    # Anchor: BER at snr_50_db makes an 8000-bit frame succeed 50% of
    # the time; each dB above improves BER by ber_slope_per_db decades.
    log10_ber_at_anchor = np.log10(np.log(2.0) / 8000.0)
    log10_ber = log10_ber_at_anchor - ber_slope_per_db * (
        snr_db_value - snr_50_db
    )
    ber = min(0.5, 10.0**log10_ber)
    p_frame = float(np.exp(-bits * ber))
    return min(1.0, max(0.0, p_frame))
