"""The built-in run kinds: the paper's whole evaluation matrix.

Each kind is a :class:`~repro.experiments.registry.RunKind` plugin
owning its spec validation, its world-building hook on
:class:`~repro.experiments.scenario.ScenarioBuilder`, its execution,
and its probe set:

========== ==================================================== =========================================
kind       simulates                                            probes
========== ==================================================== =========================================
static     foreground BSS fixed on one (F, W)                   throughput, switch-log, timeline, airtime
opt        omniscient per-width static baselines (Figs 10-13)   + nested per-baseline records
whitefi    adaptive MCham assignment loop (Figs 10-13)          + MCham timeline
protocol   full message-level BSS (Fig 14 / Section 5.3)        goodput, switch-log, disconnections
discovery  L-SIFT / J-SIFT / baseline AP races (Figs 8-9)       discovery latency + scan counters
sift       SIFT detection/classification accuracy (Table 1)     detection rate + width confusion
citywide   many APs on one metro wsdb (post-FCC-2010 regime)    per-AP throughput, disagreement, db cache
roaming    mobile clients on the wsdb (100 m re-check rule)     re-queries, handoffs, hit rate, violations
querystorm sharded wsdb cluster under storm load (+ push)       shed/coalesce counters, shard stats, violations
replay     a recorded storm trace re-driven through the cluster querystorm metrics + trace provenance
========== ==================================================== =========================================

Importing this module registers all ten; adding an evaluation axis is
a new ``RunKind`` subclass plus ``register_run_kind`` — no dispatcher
edits anywhere.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from repro import constants
from repro.errors import SimulationError
from repro.experiments.probes import (
    AirtimeProbe,
    BaselinesProbe,
    CitywideProbe,
    DisconnectionProbe,
    DiscoveryProbe,
    MchamTimelineProbe,
    ProtocolGoodputProbe,
    ProtocolSwitchLogProbe,
    QuerystormProbe,
    ReplayProbe,
    RoamingProbe,
    SiftAccuracyProbe,
    SiftConfusionProbe,
    SwitchLogProbe,
    ThroughputProbe,
    TimelineProbe,
)
from repro.experiments.registry import (
    RunKind,
    assemble_result,
    register_run_kind,
)
from repro.experiments.results import ExperimentResult
from repro.experiments.runs import (
    run_opt_baselines,
    run_protocol,
    run_static,
    run_whitefi,
)
from repro.experiments.scenario import ScenarioBuilder, build_config
from repro.experiments.spec import ExperimentSpec, TrafficSpec
from repro.spectrum.channels import WhiteFiChannel

__all__ = [
    "CitywideKind",
    "DiscoveryKind",
    "OptKind",
    "ProtocolKind",
    "QuerystormKind",
    "RoamingKind",
    "SiftKind",
    "StaticKind",
    "WhiteFiKind",
]


# -- shared validation helpers -------------------------------------------------
#
# The philosophy (unchanged from the monolithic ExperimentSpec checks):
# reject scenario features and kind-specific knobs a run kind would
# silently ignore where intent is unambiguous — plausible-looking
# results from an unsimulated feature are worse than an error.  Knobs
# with None defaults are unambiguous (setting one states intent) and
# are rejected outside their owner kind; tuning knobs with non-None
# defaults (reeval_interval_us, probe_duration_us, aggregation, ...)
# stay unchecked so one scenario template can be reused across kinds.


def _reject_mics(
    spec: ExperimentSpec,
    reason: str = (
        "does not simulate microphone incumbents; "
        "use kind 'protocol' or drop mics"
    ),
) -> None:
    if spec.scenario.mics:
        raise SimulationError(f"kind {spec.kind!r} {reason}")


def _reject_backgrounds(spec: ExperimentSpec) -> None:
    if spec.scenario.backgrounds or spec.scenario.background_pool:
        raise SimulationError(
            f"kind {spec.kind!r} does not simulate background pairs; "
            "use a scenario without backgrounds"
        )


def _reject_channel(spec: ExperimentSpec) -> None:
    if spec.channel is not None:
        raise SimulationError(
            f"kind {spec.kind!r} picks its own channel; "
            "a fixed channel only applies to kind 'static'"
        )


def _reject_timeline(spec: ExperimentSpec) -> None:
    if spec.timeline_interval_us is not None:
        raise SimulationError(
            f"kind {spec.kind!r} does not sample a throughput timeline"
        )


def _reject_custom_traffic(spec: ExperimentSpec, reason: str) -> None:
    if spec.scenario.traffic != TrafficSpec():
        raise SimulationError(
            f"kind {spec.kind!r} {reason}; "
            "a custom TrafficSpec would be ignored"
        )


def _reject_spatial(spec: ExperimentSpec) -> None:
    if spec.scenario.spatial is not None:
        raise SimulationError(
            f"kind {spec.kind!r} uses a single client-side spectrum map; "
            "spatial variation only applies to the world-simulation kinds"
        )


def _reject_foreign_knobs(spec: ExperimentSpec, *owned: str) -> None:
    """Reject kind-specific knobs (None defaults) set for another kind."""
    owners = {
        "hysteresis_margin": ("whitefi",),
        "ap_weight": ("whitefi",),
        "run_until_us": ("protocol",),
        "discovery_algorithm": ("discovery",),
        "sift_width_mhz": ("sift",),
        "sift_rate_mbps": ("sift",),
        "sift_num_packets": ("sift",),
        "citywide_aps": ("citywide", "roaming", "querystorm", "replay"),
        "citywide_extent_km": ("citywide", "roaming", "querystorm", "replay"),
        "citywide_mic_events": (
            "citywide",
            "roaming",
            "querystorm",
            "replay",
        ),
        "roaming_clients": ("roaming", "querystorm", "replay"),
        "roaming_speed_mps": ("roaming", "querystorm", "replay"),
        "roaming_recheck_m": ("roaming", "querystorm", "replay"),
        "storm_shards": ("querystorm", "replay"),
        "storm_offered_qps": ("querystorm", "replay"),
        "storm_push": ("querystorm", "replay"),
        "storm_rate_limit_qps": ("querystorm", "replay"),
        "storm_shed_policy": ("querystorm", "replay"),
        "engine": ("roaming", "querystorm", "replay"),
        "storm_trace": ("querystorm", "replay"),
        "telemetry": ("citywide", "roaming", "querystorm", "replay"),
        "spans": ("roaming", "querystorm", "replay"),
        "span_sample": ("roaming", "querystorm", "replay"),
    }
    for knob, owner_kinds in owners.items():
        if knob not in owned and getattr(spec, knob) is not None:
            names = " / ".join(repr(k) for k in owner_kinds)
            raise SimulationError(
                f"kind {spec.kind!r} does not use {knob}; "
                f"it only applies to kind {names}"
            )


# -- shared wsdb deployment knobs ----------------------------------------------
#
# The citywide_* knobs describe the metro deployment every wsdb kind
# (citywide / roaming / querystorm) runs against; one validator and one
# resolver keep the three kinds agreeing on their semantics instead of
# each carrying its own copy of the checks and the km -> m conversion.


def _validate_citywide_deployment(spec: ExperimentSpec) -> None:
    """Validate the shared citywide_* metro-deployment knobs."""
    if spec.citywide_aps is None or spec.citywide_aps < 1:
        raise SimulationError(
            f"kind {spec.kind!r} requires citywide_aps >= 1 "
            f"(the fixed metro deployment), got {spec.citywide_aps!r}"
        )
    if spec.citywide_extent_km is not None and spec.citywide_extent_km <= 0:
        raise SimulationError(
            f"citywide_extent_km must be > 0, got {spec.citywide_extent_km!r}"
        )
    if spec.citywide_mic_events is not None and spec.citywide_mic_events < 0:
        raise SimulationError(
            "citywide_mic_events must be >= 0, "
            f"got {spec.citywide_mic_events!r}"
        )


def _citywide_extent_m(spec: ExperimentSpec) -> float | None:
    """The metro plane edge in meters (None: the wsdb default)."""
    if spec.citywide_extent_km is None:
        return None
    return spec.citywide_extent_km * 1_000.0


def _finite_positive(value: float | None, allow_zero: bool = False) -> bool:
    """True for None, or a finite value > 0 (>= 0 with *allow_zero*)."""
    return value is None or (
        math.isfinite(value) and (value > 0 or (allow_zero and value == 0))
    )


def _validate_roaming_clients(spec: ExperimentSpec) -> None:
    """Validate the mobile-population knobs roaming and querystorm share.

    Non-finite values fail here, at spec build, rather than hanging or
    silently skewing a run inside a ``ParallelRunner`` worker.
    """
    if not _finite_positive(spec.roaming_speed_mps):
        raise SimulationError(
            "roaming_speed_mps must be finite and > 0, "
            f"got {spec.roaming_speed_mps!r}"
        )
    if not _finite_positive(spec.roaming_recheck_m):
        raise SimulationError(
            "roaming_recheck_m must be finite and > 0, "
            f"got {spec.roaming_recheck_m!r}"
        )


def _validate_engine(spec: ExperimentSpec) -> None:
    """Validate the mobile-engine knob roaming and querystorm share."""
    # Imported lazily like every wsdb reach-down: the mobility driver
    # owns the engine registry.
    from repro.wsdb.mobility import ENGINES

    if spec.engine is not None and spec.engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {spec.engine!r}; expected one of {ENGINES}"
        )


def _validate_telemetry(spec: ExperimentSpec) -> None:
    """Validate the telemetry knob every wsdb kind shares."""
    from repro.telemetry import TELEMETRY_MODES

    if spec.telemetry is not None and spec.telemetry not in TELEMETRY_MODES:
        raise SimulationError(
            f"unknown telemetry mode {spec.telemetry!r}; "
            f"expected one of {TELEMETRY_MODES}"
        )


def _telemetry_session(spec: ExperimentSpec):
    """A fresh sim-clock registry when the spec asks for one, else None.

    None keeps the driver's pre-telemetry path byte-identical — the
    ``telemetry="off"`` parity contract.
    """
    if spec.telemetry != "on":
        return None
    from repro.telemetry import MetricsRegistry

    return MetricsRegistry()


def _validate_spans(spec: ExperimentSpec) -> None:
    """Validate the span-tracing knobs the mobile wsdb kinds share."""
    from repro.telemetry.spans import SPANS_MODES, parse_span_sample

    if spec.spans is not None and spec.spans not in SPANS_MODES:
        raise SimulationError(
            f"unknown spans mode {spec.spans!r}; "
            f"expected one of {SPANS_MODES}"
        )
    if spec.span_sample is not None:
        if spec.spans != "on":
            raise SimulationError(
                "span_sample requires spans='on' "
                f"(got spans={spec.spans!r})"
            )
        parse_span_sample(spec.span_sample)


def _spans_session(spec: ExperimentSpec):
    """A fresh span recorder when the spec asks for one, else None.

    None keeps the driver's spans-free path byte-identical — the
    ``spans="off"`` parity contract.
    """
    if spec.spans != "on":
        return None
    from repro.telemetry.spans import SpanRecorder

    return SpanRecorder(sample=spec.span_sample)


def _roaming_kwargs(spec: ExperimentSpec) -> dict[str, float]:
    """Driver overrides for the set mobile-population tuning knobs."""
    kwargs: dict[str, float] = {}
    if spec.roaming_speed_mps is not None:
        kwargs["speed_mps"] = spec.roaming_speed_mps
    if spec.roaming_recheck_m is not None:
        kwargs["recheck_m"] = spec.roaming_recheck_m
    return kwargs


def _reject_wsdb_world_features(spec: ExperimentSpec, traffic_reason: str) -> None:
    """The scenario features none of the wsdb kinds simulate."""
    _reject_channel(spec)
    _reject_backgrounds(spec)
    _reject_spatial(spec)
    _reject_timeline(spec)
    _reject_custom_traffic(spec, traffic_reason)
    _reject_mics(
        spec,
        "generates its own microphone registrations; "
        "use citywide_mic_events instead of scenario mics",
    )


#: The probe set every RunResult-producing kind shares.
_RUN_PROBES = (
    ThroughputProbe(),
    SwitchLogProbe(),
    TimelineProbe(),
    AirtimeProbe(),
)


def _archive_run(
    kind: RunKind, run, spec: ExperimentSpec, kind_name: str
) -> ExperimentResult:
    """Archive a rich in-process RunResult under an explicit kind name.

    Used for the nested per-baseline records of kind "opt", whose kind
    strings ("opt-5mhz", ...) differ from the producing spec's.
    """
    return assemble_result(
        kind,
        spec,
        {"run": run},
        kind_name=kind_name,
        probes=_RUN_PROBES + (MchamTimelineProbe(),),
    )


# -- world-simulation kinds (engine/medium worlds) -----------------------------


class StaticKind(RunKind):
    """Foreground BSS fixed on one (F, W) for the whole run."""

    name = "static"
    summary = "foreground BSS fixed on one (F, W) channel"
    probes = _RUN_PROBES

    def validate_spec(self, spec: ExperimentSpec) -> None:
        if spec.channel is None:
            raise SimulationError("kind 'static' requires a channel")
        _reject_mics(spec)
        _reject_foreign_knobs(spec)

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        config = build_config(spec.scenario)
        run = run_static(
            config,
            WhiteFiChannel(*spec.channel),
            timeline_interval_us=spec.timeline_interval_us,
        )
        return {"spec": spec, "run": run}


class WhiteFiKind(RunKind):
    """The adaptive WhiteFi spectrum-assignment loop (Figures 10-13)."""

    name = "whitefi"
    summary = "adaptive MCham assignment loop with hysteresis"
    probes = _RUN_PROBES + (MchamTimelineProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _reject_channel(spec)
        _reject_mics(spec)
        _reject_foreign_knobs(spec, "hysteresis_margin", "ap_weight")

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        config = build_config(spec.scenario)
        run = run_whitefi(
            config,
            reeval_interval_us=spec.reeval_interval_us,
            hysteresis_margin=(
                constants.HYSTERESIS_MARGIN
                if spec.hysteresis_margin is None
                else spec.hysteresis_margin
            ),
            ap_weight=spec.ap_weight,
            aggregation=spec.aggregation,
            timeline_interval_us=spec.timeline_interval_us,
        )
        return {"spec": spec, "run": run}


class OptKind(RunKind):
    """The paper's omniscient per-width static baselines."""

    name = "opt"
    summary = "omniscient OPT 5/10/20 MHz static baselines"
    probes = _RUN_PROBES + (BaselinesProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _reject_channel(spec)
        _reject_mics(spec)
        _reject_timeline(spec)
        _reject_foreign_knobs(spec)

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        config = build_config(spec.scenario)
        baselines = run_opt_baselines(
            config, probe_duration_us=spec.probe_duration_us
        )
        converted = tuple(
            (name, None if run is None else _archive_run(self, run, spec, name))
            for name, run in baselines.items()
            if name != "opt"
        )
        return {
            "spec": spec,
            "run": baselines["opt"],
            "duration_us": config.duration_us,
            "baselines": converted,
        }


class ProtocolKind(RunKind):
    """The full message-level BSS (Section 5.3 / Figure 14)."""

    name = "protocol"
    summary = "full BSS protocol: beacons, sensing, chirps, recovery"
    probes = (
        ProtocolGoodputProbe(),
        ProtocolSwitchLogProbe(),
        DisconnectionProbe(),
    )

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _reject_channel(spec)
        _reject_backgrounds(spec)
        _reject_timeline(spec)
        _reject_foreign_knobs(spec, "run_until_us")
        _reject_custom_traffic(
            spec, "uses the BSS's built-in saturating downlink flow"
        )

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        bss, horizon, boot = run_protocol(
            spec.scenario, run_until_us=spec.run_until_us
        )
        return {
            "spec": spec,
            "bss": bss,
            "horizon_us": horizon,
            "boot_channel": boot,
        }


# -- measurement kinds (RF-environment worlds) ---------------------------------


class DiscoveryKind(RunKind):
    """AP-discovery races: baseline vs L-SIFT vs J-SIFT (Figures 8-9)."""

    name = "discovery"
    summary = "timed AP-discovery race on the scenario's spectrum map"
    probes = (DiscoveryProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        from repro.core.discovery import DISCOVERY_ALGORITHMS, discovery_algorithm
        from repro.errors import DiscoveryError

        if spec.discovery_algorithm is None:
            raise SimulationError(
                "kind 'discovery' requires discovery_algorithm; one of "
                f"{tuple(sorted(DISCOVERY_ALGORITHMS))}"
            )
        try:
            # The algorithm registry owns the unknown-name message.
            discovery_algorithm(spec.discovery_algorithm)
        except DiscoveryError as err:
            raise SimulationError(str(err)) from None
        _reject_channel(spec)
        _reject_mics(spec)
        _reject_backgrounds(spec)
        _reject_spatial(spec)
        _reject_timeline(spec)
        _reject_custom_traffic(
            spec, "races a lone beaconing AP against a scanning client"
        )
        _reject_foreign_knobs(spec, "discovery_algorithm")

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        from repro.core.discovery import discovery_algorithm

        session, ap_channel = ScenarioBuilder(
            spec.scenario
        ).build_discovery_session()
        outcome = discovery_algorithm(spec.discovery_algorithm).discover(
            session
        )
        return {"spec": spec, "outcome": outcome, "ap_channel": ap_channel}


class SiftKind(RunKind):
    """SIFT detection/classification accuracy sweeps (Table 1)."""

    name = "sift"
    summary = "SIFT accuracy over one synthesized iperf capture"
    probes = (SiftAccuracyProbe(), SiftConfusionProbe())

    def validate_spec(self, spec: ExperimentSpec) -> None:
        if spec.sift_width_mhz is None or spec.sift_rate_mbps is None:
            raise SimulationError(
                "kind 'sift' requires sift_width_mhz and sift_rate_mbps"
            )
        if spec.sift_width_mhz not in constants.CHANNEL_WIDTHS_MHZ:
            raise SimulationError(
                f"sift_width_mhz {spec.sift_width_mhz!r} is not a WhiteFi "
                f"width; expected one of {constants.CHANNEL_WIDTHS_MHZ}"
            )
        if spec.sift_rate_mbps <= 0:
            raise SimulationError(
                f"sift_rate_mbps must be > 0, got {spec.sift_rate_mbps!r}"
            )
        if spec.sift_num_packets is not None and spec.sift_num_packets < 1:
            raise SimulationError(
                f"sift_num_packets must be >= 1, got {spec.sift_num_packets!r}"
            )
        _reject_channel(spec)
        _reject_mics(spec)
        _reject_backgrounds(spec)
        _reject_spatial(spec)
        _reject_timeline(spec)
        _reject_custom_traffic(
            spec, "synthesizes its own iperf burst schedule"
        )
        _reject_foreign_knobs(
            spec, "sift_width_mhz", "sift_rate_mbps", "sift_num_packets"
        )

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        from repro.sift.analyzer import SiftAnalyzer
        from repro.sift.workloads import sift_workload_metrics

        trace, bursts, duration_us = ScenarioBuilder(
            spec.scenario
        ).build_sift_capture(
            spec.sift_width_mhz, spec.sift_rate_mbps, spec.sift_num_packets
        )
        scan = SiftAnalyzer().scan(trace)
        workload = sift_workload_metrics(
            # One Data-ACK pair per sent packet is the ground truth.
            scan, bursts, duration_us, spec.sift_width_mhz, len(bursts) // 2
        )
        return {
            "spec": spec,
            "scan": scan,
            "workload": workload,
            "true_width_mhz": spec.sift_width_mhz,
        }


class CitywideKind(RunKind):
    """City-scale White-Fi over a geolocation database (wsdb).

    Many APs across a metro plane query the
    :class:`~repro.wsdb.service.WhiteSpaceDatabase` (instead of
    sensing), pick channels with the existing MCham assignment, and
    recover from mid-session microphone registrations via their backup
    channels.  The scenario's occupied channels seed the metro dial;
    every placement, EIRP, and mic event derives from the scenario
    seed.
    """

    name = "citywide"
    summary = "many APs sharing one metro white-space database"
    probes = (CitywideProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _validate_citywide_deployment(spec)
        _validate_telemetry(spec)
        _reject_wsdb_world_features(
            spec, "models AP load analytically via MCham, not packet flows"
        )
        _reject_foreign_knobs(
            spec,
            "citywide_aps",
            "citywide_extent_km",
            "citywide_mic_events",
            "telemetry",
        )

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        from repro.wsdb.citywide import simulate_citywide

        db = ScenarioBuilder(spec.scenario).build_citywide_db(
            extent_m=_citywide_extent_m(spec)
        )
        city = simulate_citywide(
            db,
            num_aps=spec.citywide_aps,
            duration_us=spec.scenario.duration_us,
            seed=spec.scenario.seed,
            mic_events=spec.citywide_mic_events or 0,
            telemetry=_telemetry_session(spec),
        )
        return {"spec": spec, "city": city}


class RoamingKind(RunKind):
    """Mobile clients roaming a metro wsdb under the 100 m re-check rule.

    The portable-device workload of the FCC regime: ``roaming_clients``
    mobile clients follow seeded waypoint paths across the
    ``citywide_aps`` deployment, re-querying the
    :class:`~repro.wsdb.service.WhiteSpaceDatabase` only on crossing a
    quantization-square boundary (``roaming_recheck_m``) or TTL
    expiry, associating with the nearest AP their response permits and
    vacating channels when a path enters a mic protection zone.
    ``roaming_recheck_m`` also sets the database's response cell edge,
    keeping the cell-granular protocol aligned with the re-check rule.
    """

    name = "roaming"
    summary = "mobile clients re-querying a metro wsdb as they move"
    probes = (RoamingProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        if spec.roaming_clients is None or spec.roaming_clients < 1:
            raise SimulationError(
                "kind 'roaming' requires roaming_clients >= 1, "
                f"got {spec.roaming_clients!r}"
            )
        _validate_citywide_deployment(spec)
        _validate_roaming_clients(spec)
        _validate_engine(spec)
        _validate_telemetry(spec)
        _validate_spans(spec)
        _reject_wsdb_world_features(
            spec, "models association and compliance, not packet flows"
        )
        _reject_foreign_knobs(
            spec,
            "roaming_clients",
            "roaming_speed_mps",
            "roaming_recheck_m",
            "citywide_aps",
            "citywide_extent_km",
            "citywide_mic_events",
            "engine",
            "telemetry",
            "spans",
            "span_sample",
        )

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        from repro.wsdb.mobility import simulate_roaming

        db = ScenarioBuilder(spec.scenario).build_citywide_db(
            extent_m=_citywide_extent_m(spec),
            cache_resolution_m=spec.roaming_recheck_m,
        )
        roaming = simulate_roaming(
            db,
            num_aps=spec.citywide_aps,
            num_clients=spec.roaming_clients,
            duration_us=spec.scenario.duration_us,
            seed=spec.scenario.seed,
            mic_events=spec.citywide_mic_events or 0,
            engine=spec.engine or "scalar",
            telemetry=_telemetry_session(spec),
            spans=_spans_session(spec),
            **_roaming_kwargs(spec),
        )
        return {"spec": spec, "roaming": roaming}


class QuerystormKind(RunKind):
    """A sharded wsdb cluster under storm load, with optional push.

    The service-tier workload: ``storm_shards`` cell-aligned shards
    (each its own database over its territory's incumbent subset)
    behind a batching frontend, serving ``storm_offered_qps`` synthetic
    requests per second *plus* the ``roaming_clients`` mobile
    population and the ``citywide_aps`` deployment's control traffic.
    With ``storm_push`` the clients register for PAWS-style zone
    notifications and vacate protected channels the tick a microphone
    registers, instead of riding a stale response to the next FCC
    re-check — the violation-window closure ``bench_wsdb_cluster``
    measures against pull-only runs.

    ``storm_trace`` optionally replaces the synthetic generator with a
    recorded trace's query stream (``repro.traces``); the ``replay``
    kind below is the same run with the trace *required* — the
    bench-against-captured-traffic configuration.
    """

    name = "querystorm"
    summary = "sharded wsdb cluster under a query storm (optional push)"
    probes = (QuerystormProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        # Imported lazily like every wsdb reach-down: the cluster
        # geometry and policy registry own these checks' semantics.
        from repro.wsdb.cluster.frontend import SHED_POLICIES
        from repro.wsdb.cluster.router import cells_per_side, shard_grid
        from repro.wsdb.model import DEFAULT_EXTENT_M
        from repro.wsdb.service import DEFAULT_CACHE_RESOLUTION_M

        if spec.storm_shards is None or spec.storm_shards < 1:
            raise SimulationError(
                f"kind {spec.kind!r} requires storm_shards >= 1, "
                f"got {spec.storm_shards!r}"
            )
        if not _finite_positive(spec.storm_offered_qps, allow_zero=True):
            raise SimulationError(
                "storm_offered_qps must be finite and >= 0, "
                f"got {spec.storm_offered_qps!r}"
            )
        if not _finite_positive(spec.storm_rate_limit_qps):
            raise SimulationError(
                "storm_rate_limit_qps must be finite and > 0 (or None for "
                f"unlimited), got {spec.storm_rate_limit_qps!r}"
            )
        if (
            spec.storm_shed_policy is not None
            and spec.storm_shed_policy not in SHED_POLICIES
        ):
            raise SimulationError(
                f"unknown storm_shed_policy {spec.storm_shed_policy!r}; "
                f"expected one of {tuple(sorted(SHED_POLICIES))}"
            )
        if spec.roaming_clients is not None and spec.roaming_clients < 0:
            raise SimulationError(
                f"{spec.kind} roaming_clients must be >= 0, "
                f"got {spec.roaming_clients!r}"
            )
        _validate_citywide_deployment(spec)
        _validate_roaming_clients(spec)
        _validate_engine(spec)
        _validate_telemetry(spec)
        _validate_spans(spec)
        # Shard-grid feasibility, checked eagerly with the same
        # geometry the router will use: an infeasible spec must fail
        # at construction, not mid-fan-out inside a ParallelRunner.
        extent_m = _citywide_extent_m(spec) or DEFAULT_EXTENT_M
        resolution_m = spec.roaming_recheck_m or DEFAULT_CACHE_RESOLUTION_M
        cells = cells_per_side(extent_m, resolution_m)
        cols, rows = shard_grid(spec.storm_shards)
        if cols > cells or rows > cells:
            raise SimulationError(
                f"storm_shards={spec.storm_shards} needs a {cols}x{rows} "
                f"grid, but the metro has only {cells} response cells per "
                "axis; lower storm_shards, raise citywide_extent_km, or "
                "shrink roaming_recheck_m"
            )
        _reject_wsdb_world_features(
            spec, "models cluster load and compliance, not packet flows"
        )
        _reject_foreign_knobs(
            spec,
            "storm_shards",
            "storm_offered_qps",
            "storm_push",
            "storm_rate_limit_qps",
            "storm_shed_policy",
            "roaming_clients",
            "roaming_speed_mps",
            "roaming_recheck_m",
            "citywide_aps",
            "citywide_extent_km",
            "citywide_mic_events",
            "engine",
            "storm_trace",
            "telemetry",
            "spans",
            "span_sample",
        )

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        from repro.wsdb.cluster import simulate_querystorm

        router = ScenarioBuilder(spec.scenario).build_wsdb_cluster(
            num_shards=spec.storm_shards,
            extent_m=_citywide_extent_m(spec),
            cache_resolution_m=spec.roaming_recheck_m,
        )
        storm_source = None
        if spec.storm_trace is not None:
            from repro.traces.replay import TraceWorkload

            storm_source = TraceWorkload.open(spec.storm_trace)
        storm = simulate_querystorm(
            router,
            num_aps=spec.citywide_aps,
            num_clients=spec.roaming_clients or 0,
            duration_us=spec.scenario.duration_us,
            seed=spec.scenario.seed,
            offered_qps=spec.storm_offered_qps or 0.0,
            push=bool(spec.storm_push),
            mic_events=spec.citywide_mic_events or 0,
            rate_limit_qps=spec.storm_rate_limit_qps,
            policy=spec.storm_shed_policy or "reject",
            engine=spec.engine or "scalar",
            storm_source=storm_source,
            telemetry=_telemetry_session(spec),
            spans=_spans_session(spec),
            **_roaming_kwargs(spec),
        )
        return {"spec": spec, "storm": storm}


class ReplayKind(QuerystormKind):
    """A recorded storm trace re-driven through the cluster.

    Identical to ``querystorm`` except the workload: ``storm_trace``
    is *required*, and its recorded query stream is fed back through
    the frontend in place of the synthetic generator — benches run
    against captured traffic.  ``storm_offered_qps`` is accepted purely
    as a report annotation (set it to the source run's value and the
    replay's metrics compare key-for-key equal to the source's);
    the replayed load itself comes entirely from the trace.

    Replaying a run recorded with the same deployment/seed knobs
    reproduces the source report bit-identically on either engine —
    the contract ``tests/experiments/test_replay_kind.py`` and the
    ``bench_trace_replay`` smoke pin.
    """

    name = "replay"
    summary = "re-drive a recorded storm trace through the wsdb cluster"
    probes = (ReplayProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        if not spec.storm_trace:
            raise SimulationError(
                "kind 'replay' requires storm_trace (a recorded "
                f"repro.traces file), got {spec.storm_trace!r}"
            )
        super().validate_spec(spec)


for _kind in (
    StaticKind(),
    WhiteFiKind(),
    OptKind(),
    ProtocolKind(),
    DiscoveryKind(),
    SiftKind(),
    CitywideKind(),
    RoamingKind(),
    QuerystormKind(),
    ReplayKind(),
):
    register_run_kind(_kind)
