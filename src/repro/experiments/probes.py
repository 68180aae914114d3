"""Composable metric probes shared by the built-in run kinds.

Each probe reads one family of raw artifacts (see the conventional keys
below) and emits a flat mapping; :func:`repro.experiments.registry.assemble_result`
routes keys that name ``ExperimentResult`` fields into the typed record
and everything else into the per-kind ``metrics`` payload.

Conventional artifact keys:

* ``"run"`` — a :class:`~repro.experiments.runs.RunResult` (or None),
  produced by the world-simulation kinds (static / opt / whitefi).
* ``"duration_us"`` — measured-window fallback when ``"run"`` is None
  (an OPT sweep with no valid channel).
* ``"bss"`` / ``"horizon_us"`` / ``"boot_channel"`` — a finished
  :class:`~repro.core.network.WhiteFiBss` (protocol kind).
* ``"outcome"`` / ``"ap_channel"`` — a
  :class:`~repro.core.discovery.DiscoveryOutcome` plus the hidden AP's
  channel (discovery kind).
* ``"scan"`` / ``"workload"`` — a SIFT scan over a synthesized capture
  plus its ground truth (sift kind).
* ``"city"`` — the plain-data report of one
  :func:`repro.wsdb.citywide.simulate_citywide` session (citywide
  kind).
* ``"roaming"`` — the plain-data report of one
  :func:`repro.wsdb.mobility.simulate_roaming` session (roaming kind).
* ``"storm"`` — the plain-data report of one
  :func:`repro.wsdb.cluster.simulate_querystorm` session (querystorm
  kind).

A new kind composes these freely — reusing ``"run"`` gets the whole
throughput/airtime/switch-log family for free — or adds its own probe
emitting payload metrics only.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping

__all__ = [
    "AirtimeProbe",
    "BaselinesProbe",
    "CitywideProbe",
    "DisconnectionProbe",
    "DiscoveryProbe",
    "MchamTimelineProbe",
    "ProtocolGoodputProbe",
    "ProtocolSwitchLogProbe",
    "QuerystormProbe",
    "ReplayProbe",
    "RoamingProbe",
    "SiftAccuracyProbe",
    "SiftConfusionProbe",
    "SwitchLogProbe",
    "ThroughputProbe",
    "TimelineProbe",
    "channel_tuple",
]


def channel_tuple(channel) -> tuple[int, float] | None:
    """(center_index, width_mhz) of a WhiteFiChannel (None passthrough)."""
    if channel is None:
        return None
    return (channel.center_index, channel.width_mhz)


class ThroughputProbe:
    """Goodput over the measured window (from a ``RunResult``)."""

    name = "throughput"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        run = raw.get("run")
        if run is None:
            return {
                "aggregate_mbps": 0.0,
                "per_client_mbps": 0.0,
                "duration_us": float(raw.get("duration_us", 0.0)),
            }
        return {
            "aggregate_mbps": run.aggregate_mbps,
            "per_client_mbps": run.per_client_mbps,
            "duration_us": run.duration_us,
        }


class SwitchLogProbe:
    """The (time, channel) switch log of a ``RunResult``."""

    name = "switch-log"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        run = raw.get("run")
        if run is None:
            return {"channel_history": ()}
        return {
            "channel_history": tuple(
                (t, c.center_index, c.width_mhz) for t, c in run.channel_history
            )
        }


class TimelineProbe:
    """Windowed throughput samples of a ``RunResult``."""

    name = "throughput-timeline"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        run = raw.get("run")
        return {
            "throughput_timeline": ()
            if run is None
            else tuple(run.throughput_timeline)
        }


class AirtimeProbe:
    """Per-UHF-channel busy fraction of a ``RunResult``."""

    name = "airtime"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        run = raw.get("run")
        return {
            "airtime_by_channel": ()
            if run is None
            else tuple(sorted(run.airtime_by_channel.items()))
        }


class MchamTimelineProbe:
    """Per-width best MCham score samples of a ``RunResult``."""

    name = "mcham-timeline"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        run = raw.get("run")
        return {
            "mcham_timeline": ()
            if run is None
            else tuple(
                (t, tuple(sorted(scores.items())))
                for t, scores in run.mcham_timeline
            )
        }


class BaselinesProbe:
    """Pass-through for pre-converted per-baseline sub-results (OPT)."""

    name = "baselines"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        return {"baselines": raw.get("baselines", ())}


class ProtocolGoodputProbe:
    """BSS-wide goodput over the full protocol horizon."""

    name = "protocol-goodput"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        bss = raw["bss"]
        horizon = raw["horizon_us"]
        delivered = bss.ap_node.delivered_bytes + sum(
            node.delivered_bytes for _, node in bss.clients
        )
        mbps = delivered * 8.0 / horizon if horizon > 0 else 0.0
        return {
            "aggregate_mbps": mbps,
            "per_client_mbps": mbps / max(len(bss.clients), 1),
            "duration_us": horizon,
        }


class ProtocolSwitchLogProbe:
    """Boot channel plus every post-recovery retune of the BSS."""

    name = "protocol-switch-log"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        bss = raw["bss"]
        boot = raw["boot_channel"]
        history: list[tuple[float, int, float]] = []
        if boot is not None:
            history.append((0.0, boot.center_index, boot.width_mhz))
        for episode in bss.disconnections:
            if (
                episode.reconnected_us is not None
                and episode.new_channel is not None
            ):
                history.append(
                    (
                        episode.reconnected_us,
                        episode.new_channel.center_index,
                        episode.new_channel.width_mhz,
                    )
                )
        return {"channel_history": tuple(history)}


class DisconnectionProbe:
    """The Section 5.3 disconnection/recovery episode timeline."""

    name = "disconnections"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        from repro.experiments.results import DisconnectionRecord

        bss = raw["bss"]
        return {
            "disconnections": tuple(
                DisconnectionRecord(
                    mic_onset_us=e.mic_onset_us,
                    vacated_us=e.vacated_us,
                    chirp_heard_us=e.chirp_heard_us,
                    reconnected_us=e.reconnected_us,
                    new_channel=channel_tuple(e.new_channel),
                )
                for e in bss.disconnections
            )
        }


class DiscoveryProbe:
    """AP-discovery race metrics (Figures 8-9).

    Emits the discovered channel as the run's single switch-log entry
    (so ``final_channel`` works uniformly) plus a payload with the
    latency breakdown: total elapsed time, SIFT scans, beacon dwells,
    and whether the race found the hidden AP.
    """

    name = "discovery"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        outcome = raw["outcome"]
        found = channel_tuple(outcome.channel)
        history = (
            ((outcome.elapsed_us, found[0], found[1]),) if found else ()
        )
        return {
            "duration_us": outcome.elapsed_us,
            "channel_history": history,
            "discovery_us": outcome.elapsed_us,
            "discovery_succeeded": outcome.succeeded,
            "discovered_channel": found,
            "ap_channel": channel_tuple(raw["ap_channel"]),
            "sift_scans": outcome.sift_scans,
            "beacon_dwells": outcome.beacon_dwells,
            "scanned_indices": tuple(outcome.scanned_indices),
        }


class CitywideProbe:
    """City-scale deployment metrics off one ``simulate_citywide`` report.

    Routes the city's aggregate/mean throughput into the typed result
    fields (per "client" reads per AP at city scale) and everything
    else — assignment outcomes, mic-displacement accounting, the
    availability-disagreement summary, and the flattened wsdb cache
    counters (``db_*``) — into the payload.
    """

    name = "citywide"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        city = raw["city"]
        metrics: dict[str, Any] = {
            "aggregate_mbps": city["aggregate_mbps"],
            "per_client_mbps": city["mean_ap_mbps"],
            "duration_us": city["duration_us"],
        }
        for key in (
            "num_aps",
            "assigned_aps",
            "unserved_aps",
            "min_ap_mbps",
            "width_counts",
            "availability_disagreement",
            "mic_events",
            "displaced_aps",
            "backup_recoveries",
            "full_reassignments",
            "outages",
            "noncompliant_aps",
            "per_ap",
        ):
            metrics[key] = city[key]
        for key, value in city["db"].items():
            metrics[f"db_{key}"] = value
        if "telemetry" in city:
            metrics["telemetry"] = city["telemetry"]
        return metrics


class RoamingProbe:
    """Mobile-client metrics off one ``simulate_roaming`` report.

    Everything is payload: re-query counts (the pull-based 100 m
    re-check rule), handoffs, channel vacations, connectivity and
    violation-free fractions, the mic-displacement accounting shared
    with the citywide kind, and the flattened wsdb cache counters
    (``db_*`` — the cell-granular protocol's hit rate is the headline
    number for dense mobile deployments).
    """

    name = "roaming"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        roaming = raw["roaming"]
        metrics: dict[str, Any] = {"duration_us": roaming["duration_us"]}
        for key in (
            "num_aps",
            "num_clients",
            "tick_us",
            "speed_mps",
            "recheck_m",
            "assigned_aps",
            "requeries",
            "requeries_per_client",
            "handoffs",
            "vacations",
            "connected_ticks",
            "disconnected_ticks",
            "connected_fraction",
            "violation_ticks",
            "violation_free_fraction",
            "mic_events",
            "displaced_aps",
            "backup_recoveries",
            "full_reassignments",
            "outages",
            "per_client",
        ):
            metrics[key] = roaming[key]
        for key, value in roaming["db"].items():
            metrics[f"db_{key}"] = value
        if "telemetry" in roaming:
            metrics["telemetry"] = roaming["telemetry"]
        if "spans" in roaming:
            metrics["spans"] = roaming["spans"]
        return metrics


class QuerystormProbe:
    """Cluster metrics off one ``simulate_querystorm`` report.

    Everything is payload: storm/admission accounting (requests, shed,
    served-stale, coalesced — flattened ``frontend_*``), push fan-out
    (``push_*``, None-safe when the run was pull-only), the mobility
    and compliance numbers shared with the roaming kind, the
    per-shard database snapshots, and the aggregated cluster counters
    (``db_*`` — ``db_candidates_per_query`` is the sharding headline).
    """

    name = "querystorm"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        storm = raw["storm"]
        metrics: dict[str, Any] = {"duration_us": storm["duration_us"]}
        for key in (
            "num_aps",
            "num_clients",
            "num_shards",
            "shard_grid",
            "tick_us",
            "speed_mps",
            "recheck_m",
            "offered_qps",
            "push",
            "rate_limit_qps",
            "shed_policy",
            "storm_queries",
            "assigned_aps",
            "requeries",
            "deferred_requeries",
            "push_refreshes",
            "handoffs",
            "vacations",
            "connected_ticks",
            "disconnected_ticks",
            "connected_fraction",
            "violation_ticks",
            "violation_us",
            "violation_free_fraction",
            "mic_events",
            "displaced_aps",
            "backup_recoveries",
            "full_reassignments",
            "outages",
            "per_shard",
        ):
            metrics[key] = storm[key]
        for key, value in storm["frontend"].items():
            metrics[f"frontend_{key}"] = value
        for key, value in (storm["push_stats"] or {}).items():
            metrics[f"push_{key}"] = value
        for key, value in storm["db"].items():
            metrics[f"db_{key}"] = value
        if "telemetry" in storm:
            metrics["telemetry"] = storm["telemetry"]
        if "spans" in storm:
            metrics["spans"] = storm["spans"]
        return metrics


class ReplayProbe(QuerystormProbe):
    """The querystorm metrics plus trace-replay provenance.

    A replayed storm reports through the full querystorm metric set
    (so source and replay runs compare key-for-key), with two
    annotations on top: ``storm_trace`` (the trace the workload came
    from) and ``replayed_queries`` (the storm queries actually
    re-issued — the trace's query-event count once the run covers the
    whole recording).
    """

    name = "replay"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        metrics = dict(super().extract(raw))
        metrics["storm_trace"] = raw["spec"].params.storm_trace
        metrics["replayed_queries"] = raw["storm"]["storm_queries"]
        return metrics


class SiftAccuracyProbe:
    """Table 1 detection-rate metrics over one synthesized iperf run."""

    name = "sift-accuracy"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        workload = raw["workload"]
        return {
            "duration_us": workload["capture_us"],
            "sift_sent": workload["sent"],
            "sift_detected": workload["detected"],
            "detection_rate": workload["detection_rate"],
            "airtime_measured": workload["airtime_fraction"],
            "busy_us_measured": workload["busy_us_measured"],
            "busy_us_true": workload["busy_us_true"],
        }


class SiftConfusionProbe:
    """Width-classification confusion counts of one SIFT scan.

    For a capture whose ground truth is a single width, a perfect
    classifier puts every matched exchange in that width's bucket;
    off-width counts are confusions (the reduced-amplitude 5 MHz
    leading edge is the paper's canonical source).
    """

    name = "sift-confusion"

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        scan = raw["scan"]
        true_width = raw["true_width_mhz"]
        counts = Counter(e.width_mhz for e in scan.exchanges)
        total = sum(counts.values())
        correct = counts.get(true_width, 0)
        return {
            "true_width_mhz": true_width,
            "width_counts": tuple(sorted(counts.items())),
            "classification_accuracy": correct / total if total else 0.0,
        }
