"""The MCham (multichannel airtime) metric — Section 4.1.

For a node *n* and UHF channel *c*, the expected share of *c* is

    rho_n(c) = max(1 - A_c^n,  1 / (B_c^n + 1))            (Eq. 1)

where ``A_c^n`` is the busy-airtime fraction measured at *n* and
``B_c^n`` the number of other APs observed on *c*.  The intuition: when
the channel is mostly free, the residual airtime ``1 - A`` predicts the
share; when it is saturated by ``B`` contending APs, CSMA still grants a
fair share ``1/(B+1)``.

For a candidate WhiteFi channel ``(F, W)`` spanning UHF channels
``c in (F, W)``:

    MCham_n(F, W) = (W / 5 MHz) * prod_{c} rho_n(c)        (Eq. 2)

The product — not the min or max — is essential: traffic on a narrower
overlapping channel contends with the whole wider channel, so shares
multiply.  The ``W / 5 MHz`` factor scales by the optimal capacity of the
candidate relative to the single-UHF-channel reference.

The AP's final objective (Section 4.1, "Channel selection") weights its
own metric by the number of clients, reflecting downlink-dominated
traffic:

    score(F, W) = N * MCham_AP(F, W) + sum_n MCham_n(F, W)
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from repro import constants
from repro.errors import ChannelError
from repro.spectrum.airtime import AirtimeObservation
from repro.spectrum.channels import WhiteFiChannel


def expected_share(busy_fraction: float, other_ap_count: int) -> float:
    """Equation 1: ``rho_n(c) = max(1 - A, 1/(B + 1))``.

    Args:
        busy_fraction: measured airtime utilization ``A`` in [0, 1].
        other_ap_count: number of other APs ``B`` on the channel (>= 0).

    >>> expected_share(0.9, 1)
    0.5
    >>> expected_share(0.2, 1)
    0.8
    """
    if not 0.0 <= busy_fraction <= 1.0:
        raise ChannelError(f"busy fraction {busy_fraction!r} outside [0, 1]")
    if other_ap_count < 0:
        raise ChannelError(f"AP count must be >= 0, got {other_ap_count}")
    return max(1.0 - busy_fraction, 1.0 / (other_ap_count + 1))


#: Ways to combine a node's per-UHF-channel shares: "product" is the
#: paper's metric, "min"/"max" the ablation's alternatives.
AGGREGATIONS = ("product", "min", "max")


def mcham(
    channel: WhiteFiChannel,
    observation: AirtimeObservation,
    *,
    aggregation: str = "product",
) -> float:
    """Equation 2: the multichannel airtime metric for one node.

    Args:
        channel: candidate ``(F, W)``.
        observation: the node's per-UHF-channel ``A_c`` / ``B_c`` view.
        aggregation: "product" (the paper's metric); "min" and "max" are
            provided for the ablation showing they underestimate
            contention across overlapping widths.

    Returns:
        The predicted throughput in units of one empty 5 MHz channel.
        With no load anywhere this is 1, 2, 4 for W = 5, 10, 20 MHz.
    """
    shares = [
        expected_share(observation.busy(c), observation.aps(c))
        for c in channel.spanned_indices
    ]
    if aggregation == "product":
        combined = math.prod(shares)
    elif aggregation == "min":
        combined = min(shares)
    elif aggregation == "max":
        combined = max(shares)
    else:
        raise ChannelError(
            f"unknown aggregation {aggregation!r}; "
            "expected 'product', 'min', or 'max'"
        )
    return channel.capacity_factor() * combined


def mcham_all_nodes(
    channel: WhiteFiChannel,
    observations: Sequence[AirtimeObservation],
    *,
    aggregation: str = "product",
) -> list[float]:
    """MCham of *channel* at every node, in observation order."""
    return [mcham(channel, obs, aggregation=aggregation) for obs in observations]


def network_score(
    channel: WhiteFiChannel,
    ap_observation: AirtimeObservation,
    client_observations: Sequence[AirtimeObservation],
    *,
    ap_weight: float | None = None,
    aggregation: str = "product",
) -> float:
    """The AP's channel-selection objective.

    ``N * MCham_AP + sum_n MCham_n`` with ``N`` the client count; the AP
    weight is overridable for the weighting ablation (``ap_weight=1``
    gives the unweighted sum).

    With no clients, the score is just the AP's own MCham (bootstrap,
    Section 4.1: "When bootstrapping, the AP will not have any clients
    and will perform channel selection without client input").
    """
    ap_metric = mcham(channel, ap_observation, aggregation=aggregation)
    if not client_observations:
        return ap_metric
    n = len(client_observations)
    weight = float(n) if ap_weight is None else float(ap_weight)
    return weight * ap_metric + sum(
        mcham(channel, obs, aggregation=aggregation)
        for obs in client_observations
    )


def channel_preference_key(
    score: float, channel: WhiteFiChannel
) -> tuple[float, float, int]:
    """The canonical channel-ranking key (higher tuple = preferred).

    Score first; ties prefer wider channels, then lower center
    indices, so repeated evaluations are stable.  Shared by
    :func:`best_channel` and any ranked candidate list (the citywide
    backup-channel ordering) so primary and backup preferences can
    never diverge.
    """
    return (score, channel.width_mhz, -channel.center_index)


def best_channel(
    candidates: Iterable[WhiteFiChannel],
    score: Callable[[WhiteFiChannel], float],
) -> tuple[WhiteFiChannel | None, float]:
    """Argmax of *score* over *candidates* (deterministic tie-break).

    Ties break via :func:`channel_preference_key`.
    """
    best: WhiteFiChannel | None = None
    best_score = -math.inf
    for channel in candidates:
        s = score(channel)
        if best is None or channel_preference_key(
            s, channel
        ) > channel_preference_key(best_score, best):
            best, best_score = channel, s
    return best, best_score
