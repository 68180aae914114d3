"""Band-plan, regulatory, and timing constants for WhiteFi.

All values trace back to the paper (Bahl et al., SIGCOMM 2009) or to the
variable-channel-width study it builds on (Chandra et al., SIGCOMM 2008):

* The US UHF white spaces considered are TV channels 21-51, excluding
  channel 37 (reserved for radio astronomy): 30 usable channels of 6 MHz,
  spanning 512-698 MHz.
* WhiteFi channels are (F, W) tuples with W in {5, 10, 20} MHz, always
  centered on a UHF channel's center frequency.  A 5 MHz channel fits one
  UHF channel, 10 MHz spans three, 20 MHz spans five: 30 + 28 + 26 = 84
  candidate channels.
* MAC/PHY timing scales inversely with channel width: halving the width
  doubles the OFDM symbol period, SIFS, slot time, and packet durations.
  The 20 MHz base values are the 802.11a numbers; the paper states the
  minimum SIFS in the system (20 MHz) is 10 us.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# UHF band plan (United States, post-DTV transition)
# --------------------------------------------------------------------------

#: First usable UHF TV channel number.
FIRST_UHF_CHANNEL = 21

#: Last usable UHF TV channel number.
LAST_UHF_CHANNEL = 51

#: Channel reserved for radio astronomy; never available to white space
#: devices.
RESERVED_UHF_CHANNEL = 37

#: Width of one US UHF TV channel in MHz.
UHF_CHANNEL_WIDTH_MHZ = 6.0

#: Lower band edge of UHF channel 21 in MHz (512-518 MHz).
UHF_BAND_START_MHZ = 512.0

#: Upper band edge of UHF channel 51 in MHz.
UHF_BAND_END_MHZ = 698.0

#: Number of usable UHF channels for portable white space devices
#: (21..51 minus channel 37).
NUM_UHF_CHANNELS = 30

#: Supported WhiteFi channel widths, in MHz, narrowest first.
CHANNEL_WIDTHS_MHZ = (5.0, 10.0, 20.0)

#: Number of UHF channels spanned by each WhiteFi width.
SPAN_BY_WIDTH_MHZ = {5.0: 1, 10.0: 3, 20.0: 5}

#: Reference width used to normalise the MCham metric ("we use a 5 MHz
#: channel as our reference point because it fits into one single UHF
#: channel").
REFERENCE_WIDTH_MHZ = 5.0

# --------------------------------------------------------------------------
# Regulatory / sensing constants
# --------------------------------------------------------------------------

#: FCC-permitted maximum transmit power for portable devices (40 mW).
FCC_MAX_TX_POWER_DBM = 16.0

#: TV signal detection threshold achieved by the KNOWS scanner (dBm).
TV_DETECTION_THRESHOLD_DBM = -114.0

#: Wireless microphone detection threshold achieved by the scanner (dBm).
MIC_DETECTION_THRESHOLD_DBM = -110.0

#: TV receiver decoding threshold (dBm); the ~30 dB gap between this and
#: the detection threshold is the hidden-terminal protection buffer.
TV_DECODING_THRESHOLD_DBM = -85.0

# --------------------------------------------------------------------------
# PHY timing (20 MHz base; scales by 20/W for width W)
# --------------------------------------------------------------------------

#: OFDM symbol period at 20 MHz (microseconds).
BASE_SYMBOL_US = 4.0

#: SIFS at 20 MHz (microseconds).  The paper: "the lowest SIFS value in our
#: system is for a 20 MHz transmission, which is 10 us or 10 samples".
BASE_SIFS_US = 10.0

#: Slot time at 20 MHz (microseconds).
BASE_SLOT_US = 9.0

#: PLCP preamble + SIGNAL field at 20 MHz (microseconds): 16 us preamble
#: plus one 4 us SIGNAL symbol.
BASE_PREAMBLE_US = 20.0

#: Nominal data rate of the prototype at 20 MHz width (Mbps).  WhiteFi runs
#: at a single rate; rate adaptation is out of scope for the paper.
BASE_DATA_RATE_MBPS = 6.0

#: MAC service bits added to every PSDU: 16 SERVICE + 6 tail bits.
PSDU_OVERHEAD_BITS = 22

#: DIFS = SIFS + 2 * slot (by definition at every width).
BASE_DIFS_US = BASE_SIFS_US + 2 * BASE_SLOT_US

#: Minimum / maximum DCF contention window (slots).
CW_MIN = 15
CW_MAX = 1023

#: Maximum MAC retransmissions before a frame is dropped.
MAX_RETRIES = 7

#: Beacon interval (microseconds).  Classic Wi-Fi TBTT of ~100 ms.
BEACON_INTERVAL_US = 102_400.0

# --------------------------------------------------------------------------
# Frame sizes (bytes on air, MAC header + payload + FCS)
# --------------------------------------------------------------------------

#: ACK frame: the smallest MAC-layer frame (14 bytes), per the paper.
ACK_FRAME_BYTES = 14

#: CTS-to-self frame size (bytes); used one SIFS after each beacon so that
#: SIFT can fingerprint beacons in the time domain.
CTS_FRAME_BYTES = 14

#: Nominal beacon frame size (bytes): management header + timestamp,
#: interval, capabilities, SSID, rates, and the WhiteFi backup-channel IE.
BEACON_FRAME_BYTES = 90

#: MAC header + FCS overhead added to a data payload (bytes).
DATA_HEADER_BYTES = 28

# --------------------------------------------------------------------------
# Scanner (USRP / TVRX) model
# --------------------------------------------------------------------------

#: Scanner sampling period (microseconds per sample).  The USRP delivers
#: complex samples at ~1 MS/s; the paper uses 1.024 us per sample.
SAMPLE_PERIOD_US = 1.024

#: Samples per block delivered by the USRP to the host.
USRP_BLOCK_SAMPLES = 2048

#: Usable RF span of one scanner capture (MHz).  The USRP front end is
#: limited to an 8 MHz span per the paper.
SCANNER_SPAN_MHZ = 8.0

#: Bandwidth actually sampled around the scan center frequency (MHz).
SCANNER_SAMPLE_BANDWIDTH_MHZ = 1.0

#: SIFT moving-average window (samples).  Must stay below the minimum SIFS
#: in samples (10); the paper picks 5.
SIFT_WINDOW_SAMPLES = 5

# --------------------------------------------------------------------------
# WhiteFi control plane defaults
# --------------------------------------------------------------------------

#: How often the AP's main radio revisits the backup channel to listen for
#: chirps (microseconds).  Section 5.3: "the AP switched to the backup
#: channel once every 3 seconds".
BACKUP_SCAN_INTERVAL_US = 3_000_000.0

#: Worst-case end-to-end reconnection budget (microseconds).  Section 5.3:
#: "the system is operational again after a lag of at most 4 seconds".
RECONNECT_BUDGET_US = 4_000_000.0

#: Default relative hysteresis margin: a voluntary switch requires the new
#: channel's score to beat the incumbent choice by this fraction.
HYSTERESIS_MARGIN = 0.10

#: Default PLL retune latency for the main transceiver (microseconds);
#: "known to be a few milliseconds" per Section 4.3.
PLL_SWITCH_US = 5_000.0

#: Dwell time needed to reliably observe one beacon on a channel
#: (microseconds): one beacon interval plus margin.
BEACON_DWELL_US = BEACON_INTERVAL_US * 1.1

#: Seed for the RNG a signal-path helper constructs when the caller
#: passes none.  Determinism contract: *no* code path may fall back to
#: OS entropy (``np.random.default_rng()`` bare), so convenience
#: defaults derive from this fixed seed instead — two bare calls of the
#: same helper produce identical output.  The value is the paper's
#: conference date (SIGCOMM'09, August 17 2009).
FALLBACK_RNG_SEED = 20090817


def span_channels(width_mhz: float) -> int:
    """Number of 6 MHz UHF channels spanned by a WhiteFi channel of *width_mhz*.

    >>> span_channels(20.0)
    5
    """
    try:
        return SPAN_BY_WIDTH_MHZ[float(width_mhz)]
    except KeyError:
        raise ValueError(
            f"unsupported channel width {width_mhz!r} MHz; "
            f"expected one of {CHANNEL_WIDTHS_MHZ}"
        ) from None


def width_scale(width_mhz: float) -> float:
    """Timing scale factor for *width_mhz* relative to the 20 MHz base.

    Halving the channel width doubles every on-air duration, so the scale
    factor is ``20 / W``:

    >>> width_scale(5.0)
    4.0
    """
    if width_mhz <= 0:
        raise ValueError(f"channel width must be positive, got {width_mhz!r}")
    return 20.0 / float(width_mhz)
