"""The built-in run kinds: the paper's whole evaluation matrix.

Each kind is a :class:`~repro.experiments.registry.RunKind` plugin
owning its parameter block (a ``KindParams`` dataclass defined next to
it, holding exactly the knobs it reads), its scenario validation, its
world-building hook on
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
a new ``RunKind`` subclass (with its ``params`` block) plus
``register_run_kind`` — no dispatcher edits anywhere.  The wsdb blocks
nest (``CitywideParams`` → ``RoamingParams`` → ``QuerystormParams`` →
``ReplayParams``), so those kinds agree on their shared knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Iterable, Mapping

from repro import constants
from repro.core.discovery import DISCOVERY_ALGORITHMS, discovery_algorithm
from repro.core.mcham import AGGREGATIONS
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
    KindParams,
    RunKind,
    assemble_result,
    check_positive,
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
from repro.sift.analyzer import SiftAnalyzer
from repro.sift.workloads import PACKETS_PER_RUN, sift_workload_metrics
from repro.spectrum.channels import WhiteFiChannel
from repro.telemetry import TELEMETRY_MODES, MetricsRegistry
from repro.telemetry.spans import SPANS_MODES, SpanRecorder, parse_span_sample
from repro.traces.replay import TraceWorkload
from repro.wsdb.citywide import simulate_citywide
from repro.wsdb.cluster import simulate_querystorm
from repro.wsdb.cluster.frontend import SHED_POLICIES
from repro.wsdb.cluster.router import cells_per_side, shard_grid
from repro.wsdb.mobility import DEFAULT_SPEED_MPS, ENGINES, simulate_roaming
from repro.wsdb.model import DEFAULT_EXTENT_M
from repro.wsdb.service import DEFAULT_CACHE_RESOLUTION_M

__all__ = [
    "CitywideKind",
    "CitywideParams",
    "DiscoveryKind",
    "DiscoveryParams",
    "OptKind",
    "OptParams",
    "ProtocolKind",
    "ProtocolParams",
    "QuerystormKind",
    "QuerystormParams",
    "ReplayKind",
    "ReplayParams",
    "RoamingKind",
    "RoamingParams",
    "SiftKind",
    "SiftParams",
    "StaticKind",
    "StaticParams",
    "WhiteFiKind",
    "WhiteFiParams",
]


# -- shared validation helpers -------------------------------------------------
#
# Knob checks live in each kind's parameter block; a kind's
# validate_spec only rejects scenario features the kind would silently
# ignore where intent is unambiguous — plausible-looking results from
# an unsimulated feature are worse than an error.


def _check_choice(name: str, value: str, choices: Iterable[str]) -> None:
    if value not in choices:
        raise SimulationError(
            f"unknown {name} {value!r}; expected one of {tuple(sorted(choices))}"
        )


def _check_width(name: str, width: float) -> None:
    if width not in constants.CHANNEL_WIDTHS_MHZ:
        raise SimulationError(
            f"{name} {width!r} is not a WhiteFi width; "
            f"expected one of {constants.CHANNEL_WIDTHS_MHZ}"
        )


#: Why the kinds other than "protocol" reject scenario mics.
_NO_MICS = (
    "does not simulate microphone incumbents; use kind 'protocol' or drop mics"
)

#: Why the wsdb kinds reject scenario mics.
_WSDB_MICS = (
    "generates its own microphone registrations; "
    "use citywide_mic_events instead of scenario mics"
)


def _reject_mics(spec: ExperimentSpec, reason: str = _NO_MICS) -> None:
    if spec.scenario.mics:
        raise SimulationError(f"kind {spec.kind!r} {reason}")


def _reject_backgrounds(spec: ExperimentSpec) -> None:
    if spec.scenario.backgrounds or spec.scenario.background_pool:
        raise SimulationError(
            f"kind {spec.kind!r} does not simulate background pairs; "
            "use a scenario without backgrounds"
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


def _reject_world_features(
    spec: ExperimentSpec, traffic_reason: str, mic_reason: str = _NO_MICS
) -> None:
    """The scenario features the measurement and wsdb kinds do not
    simulate: mics, background pairs, spatial variation, custom traffic."""
    _reject_mics(spec, mic_reason)
    _reject_backgrounds(spec)
    _reject_spatial(spec)
    _reject_custom_traffic(spec, traffic_reason)


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


@dataclass(frozen=True, kw_only=True)
class StaticParams(KindParams):
    """Knobs of kind "static".

    Attributes:
        channel: the fixed (center_index, width_mhz); the width is one
            of the WhiteFi widths (5, 10 or 20 MHz).
        timeline_interval_us: optional throughput sampling period.
    """

    channel: tuple[int, float]
    timeline_interval_us: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_width("channel width", self.channel[1])
        check_positive(self, "timeline_interval_us")


class StaticKind(RunKind):
    """Foreground BSS fixed on one (F, W) for the whole run."""

    name = "static"
    summary = "foreground BSS fixed on one (F, W) channel"
    params = StaticParams
    probes = _RUN_PROBES

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _reject_mics(spec)

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        config = build_config(spec.scenario)
        run = run_static(
            config,
            WhiteFiChannel(*spec.params.channel),
            timeline_interval_us=spec.params.timeline_interval_us,
        )
        return {"spec": spec, "run": run}


@dataclass(frozen=True, kw_only=True)
class WhiteFiParams(KindParams):
    """Knobs of kind "whitefi".

    Attributes:
        reeval_interval_us: assignment-loop period.
        hysteresis_margin: voluntary-switch margin (default: the
            paper's).
        ap_weight: AP weighting override (None = the paper's N-times
            rule).
        aggregation: MCham aggregation ("product"/"min"/"max").
        timeline_interval_us: optional throughput sampling period.
    """

    reeval_interval_us: float = 2_000_000.0
    hysteresis_margin: float = constants.HYSTERESIS_MARGIN
    ap_weight: float | None = None
    aggregation: str = "product"
    timeline_interval_us: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(self, "reeval_interval_us", "timeline_interval_us")
        check_positive(self, "hysteresis_margin", allow_zero=True)
        _check_choice("aggregation", self.aggregation, AGGREGATIONS)


class WhiteFiKind(RunKind):
    """The adaptive WhiteFi spectrum-assignment loop (Figures 10-13)."""

    name = "whitefi"
    summary = "adaptive MCham assignment loop with hysteresis"
    params = WhiteFiParams
    probes = _RUN_PROBES + (MchamTimelineProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _reject_mics(spec)

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        p = spec.params
        run = run_whitefi(
            build_config(spec.scenario),
            reeval_interval_us=p.reeval_interval_us,
            hysteresis_margin=p.hysteresis_margin,
            ap_weight=p.ap_weight,
            aggregation=p.aggregation,
            timeline_interval_us=p.timeline_interval_us,
        )
        return {"spec": spec, "run": run}


@dataclass(frozen=True, kw_only=True)
class OptParams(KindParams):
    """Knobs of kind "opt".

    Attributes:
        probe_duration_us: per-candidate probe length.
    """

    probe_duration_us: float = 1_500_000.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(self, "probe_duration_us")


class OptKind(RunKind):
    """The paper's omniscient per-width static baselines."""

    name = "opt"
    summary = "omniscient OPT 5/10/20 MHz static baselines"
    params = OptParams
    probes = _RUN_PROBES + (BaselinesProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _reject_mics(spec)

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        config = build_config(spec.scenario)
        baselines = run_opt_baselines(
            config, probe_duration_us=spec.params.probe_duration_us
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


@dataclass(frozen=True, kw_only=True)
class ProtocolParams(KindParams):
    """Knobs of kind "protocol".

    Attributes:
        run_until_us: simulation horizon (None = warmup + duration).
    """

    run_until_us: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(self, "run_until_us")


class ProtocolKind(RunKind):
    """The full message-level BSS (Section 5.3 / Figure 14)."""

    name = "protocol"
    summary = "full BSS protocol: beacons, sensing, chirps, recovery"
    params = ProtocolParams
    probes = (
        ProtocolGoodputProbe(),
        ProtocolSwitchLogProbe(),
        DisconnectionProbe(),
    )

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _reject_backgrounds(spec)
        _reject_custom_traffic(
            spec, "uses the BSS's built-in saturating downlink flow"
        )

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        bss, horizon, boot = run_protocol(
            spec.scenario, run_until_us=spec.params.run_until_us
        )
        return {
            "spec": spec,
            "bss": bss,
            "horizon_us": horizon,
            "boot_channel": boot,
        }


# -- measurement kinds (RF-environment worlds) ---------------------------------


@dataclass(frozen=True, kw_only=True)
class DiscoveryParams(KindParams):
    """Knobs of kind "discovery".

    Attributes:
        discovery_algorithm: "baseline", "l-sift" or "j-sift".
    """

    discovery_algorithm: str

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_choice(
            "discovery algorithm", self.discovery_algorithm, DISCOVERY_ALGORITHMS
        )


class DiscoveryKind(RunKind):
    """AP-discovery races: baseline vs L-SIFT vs J-SIFT (Figures 8-9)."""

    name = "discovery"
    summary = "timed AP-discovery race on the scenario's spectrum map"
    params = DiscoveryParams
    probes = (DiscoveryProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _reject_world_features(
            spec, "races a lone beaconing AP against a scanning client"
        )

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        session, ap_channel = ScenarioBuilder(
            spec.scenario
        ).build_discovery_session()
        outcome = discovery_algorithm(
            spec.params.discovery_algorithm
        ).discover(session)
        return {"spec": spec, "outcome": outcome, "ap_channel": ap_channel}


@dataclass(frozen=True, kw_only=True)
class SiftParams(KindParams):
    """Knobs of kind "sift".

    Attributes:
        sift_width_mhz: true channel width of the synthesized capture.
        sift_rate_mbps: iperf injection rate.
        sift_num_packets: packets per run (default: the paper's 110).
    """

    sift_width_mhz: float
    sift_rate_mbps: float
    sift_num_packets: int = PACKETS_PER_RUN

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_width("sift_width_mhz", self.sift_width_mhz)
        check_positive(self, "sift_rate_mbps", "sift_num_packets")


class SiftKind(RunKind):
    """SIFT detection/classification accuracy sweeps (Table 1)."""

    name = "sift"
    summary = "SIFT accuracy over one synthesized iperf capture"
    params = SiftParams
    probes = (SiftAccuracyProbe(), SiftConfusionProbe())

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _reject_world_features(spec, "synthesizes its own iperf burst schedule")

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        p = spec.params
        trace, bursts, duration_us = ScenarioBuilder(
            spec.scenario
        ).build_sift_capture(
            p.sift_width_mhz, p.sift_rate_mbps, p.sift_num_packets
        )
        scan = SiftAnalyzer().scan(trace)
        workload = sift_workload_metrics(
            # One Data-ACK pair per sent packet is the ground truth.
            scan, bursts, duration_us, p.sift_width_mhz, len(bursts) // 2
        )
        return {
            "spec": spec,
            "scan": scan,
            "workload": workload,
            "true_width_mhz": p.sift_width_mhz,
        }


# -- wsdb kinds (one metro white-space database) -------------------------------
#
# The blocks nest: every wsdb kind runs against the citywide
# metro deployment, the mobile kinds add a client population, and the
# cluster kinds add the sharded service tier.


def _telemetry_session(params: CitywideParams):
    """A fresh sim-clock registry when the spec asks for one, else None.

    None keeps the driver's pre-telemetry path byte-identical — the
    ``telemetry="off"`` parity contract.
    """
    return MetricsRegistry() if params.telemetry == "on" else None


def _spans_session(params: RoamingParams):
    """A fresh span recorder when the spec asks for one, else None.

    None keeps the driver's spans-free path byte-identical — the
    ``spans="off"`` parity contract.
    """
    if params.spans != "on":
        return None
    return SpanRecorder(sample=params.span_sample)


@dataclass(frozen=True, kw_only=True)
class CitywideParams(KindParams):
    """Knobs of kind "citywide", shared by every wsdb kind.

    Attributes:
        citywide_aps: number of APs placed across the metro plane.
        citywide_extent_km: metro plane edge length (default: the wsdb
            default, 20 km).
        citywide_mic_events: mid-session microphone registrations.
        telemetry: "on" attaches a sim-clock :class:`repro.telemetry`
            metrics registry to the run and surfaces its snapshot as
            the result's ``metrics["telemetry"]`` payload; "off" keeps
            every report byte-identical to the pre-telemetry path.
            Metrics are deterministic functions of the spec, never of
            wall-clock time, so they cache and replay like any other
            result field.
    """

    citywide_aps: int
    citywide_extent_km: float = DEFAULT_EXTENT_M / 1_000.0
    citywide_mic_events: int = 0
    telemetry: str = "off"

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(self, "citywide_aps", "citywide_extent_km")
        check_positive(self, "citywide_mic_events", allow_zero=True)
        _check_choice("telemetry mode", self.telemetry, TELEMETRY_MODES)

    @property
    def extent_m(self) -> float:
        """The metro plane edge in meters."""
        return self.citywide_extent_km * 1_000.0


@dataclass(frozen=True, kw_only=True)
class RoamingParams(CitywideParams):
    """Knobs of kind "roaming": the deployment plus mobile clients.

    Attributes:
        roaming_clients: mobile clients following seeded waypoint
            paths.
        roaming_speed_mps: client speed (default: the mobility
            default, 14 m/s).
        roaming_recheck_m: movement granularity of the FCC re-check
            rule; also sets the database's response cell edge so the
            protocol and the rule stay aligned (default: the wsdb
            default, 100 m).
        engine: the mobile-client engine: "scalar" (the reference
            per-client loop) or "vector" (the columnar numpy engine,
            bit-identical reports, scales to millions of clients).
        spans: "on" attaches a sim-clock
            :class:`repro.telemetry.spans.SpanRecorder` to the run and
            surfaces its span table as the result's ``metrics["spans"]``
            payload (request-scoped trees with tail-latency
            attribution); "off" keeps every report byte-identical to
            the spans-free path.
        span_sample: the deterministic sampling policy when
            ``spans="on"``: "off" (keep every trace, as does the None
            default), "head-N" (keep 1-in-N by trace-id hash), or
            "tail" (keep only traces that waited, i.e. nonzero
            duration).  Latency bucket counts and the tail threshold
            always cover *all* served requests; sampling limits only
            which trees are retained.
    """

    #: Whether a run without mobile clients is legal.
    allow_no_clients: ClassVar[bool] = False

    roaming_clients: int
    roaming_speed_mps: float = DEFAULT_SPEED_MPS
    roaming_recheck_m: float = DEFAULT_CACHE_RESOLUTION_M
    engine: str = "scalar"
    spans: str = "off"
    span_sample: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(
            self, "roaming_clients", allow_zero=self.allow_no_clients
        )
        check_positive(self, "roaming_speed_mps", "roaming_recheck_m")
        _check_choice("engine", self.engine, ENGINES)
        _check_choice("spans mode", self.spans, SPANS_MODES)
        if self.span_sample is not None:
            if self.spans != "on":
                raise SimulationError(
                    f"span_sample requires spans='on' (got spans={self.spans!r})"
                )
            parse_span_sample(self.span_sample)


@dataclass(frozen=True, kw_only=True)
class QuerystormParams(RoamingParams):
    """Knobs of kind "querystorm": the mobile deployment plus a cluster.

    Attributes:
        roaming_clients: as for "roaming", but 0 (the default, a pure
            storm) is legal.
        storm_shards: cell-aligned shard count of the database cluster.
        storm_offered_qps: synthetic storm load in requests per
            simulated second.
        storm_push: register clients for PAWS-style push
            notifications, closing the pull model's violation window.
        storm_rate_limit_qps: frontend token-bucket admission rate
            (None = unlimited, nothing is shed).
        storm_shed_policy: how over-limit requests are answered:
            "reject" or "serve-stale".
        storm_trace: path to a recorded trace (``repro.traces`` JSONL
            or columnar ``.npz``) whose query stream replaces the
            synthetic storm generator.  The *path string* participates
            in ``spec_hash`` (the file's content does not — re-recording
            over a path invalidates caches manually).
    """

    allow_no_clients: ClassVar[bool] = True

    roaming_clients: int = 0
    storm_shards: int
    storm_offered_qps: float = 0.0
    storm_push: bool = False
    storm_rate_limit_qps: float | None = None
    storm_shed_policy: str = "reject"
    storm_trace: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(self, "storm_shards", "storm_rate_limit_qps")
        check_positive(self, "storm_offered_qps", allow_zero=True)
        _check_choice("storm_shed_policy", self.storm_shed_policy, SHED_POLICIES)
        # Shard-grid feasibility, checked eagerly with the same
        # geometry the router will use: an infeasible spec must fail
        # at construction, not mid-fan-out inside a ParallelRunner.
        cells = cells_per_side(self.extent_m, self.roaming_recheck_m)
        cols, rows = shard_grid(self.storm_shards)
        if cols > cells or rows > cells:
            raise SimulationError(
                f"storm_shards={self.storm_shards} needs a {cols}x{rows} "
                f"grid, but the metro has only {cells} response cells per "
                "axis; lower storm_shards, raise citywide_extent_km, or "
                "shrink roaming_recheck_m"
            )


@dataclass(frozen=True, kw_only=True)
class ReplayParams(QuerystormParams):
    """Knobs of kind "replay": querystorm's, with ``storm_trace``
    required."""

    storm_trace: str


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
    params = CitywideParams
    probes = (CitywideProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _reject_world_features(
            spec,
            "models AP load analytically via MCham, not packet flows",
            _WSDB_MICS,
        )

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        p = spec.params
        city = simulate_citywide(
            ScenarioBuilder(spec.scenario).build_citywide_db(extent_m=p.extent_m),
            num_aps=p.citywide_aps,
            duration_us=spec.scenario.duration_us,
            seed=spec.scenario.seed,
            mic_events=p.citywide_mic_events,
            telemetry=_telemetry_session(p),
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
    params = RoamingParams
    probes = (RoamingProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _reject_world_features(
            spec,
            "models association and compliance, not packet flows",
            _WSDB_MICS,
        )

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        p = spec.params
        db = ScenarioBuilder(spec.scenario).build_citywide_db(
            extent_m=p.extent_m, cache_resolution_m=p.roaming_recheck_m
        )
        roaming = simulate_roaming(
            db,
            num_aps=p.citywide_aps,
            num_clients=p.roaming_clients,
            duration_us=spec.scenario.duration_us,
            seed=spec.scenario.seed,
            speed_mps=p.roaming_speed_mps,
            recheck_m=p.roaming_recheck_m,
            mic_events=p.citywide_mic_events,
            engine=p.engine,
            telemetry=_telemetry_session(p),
            spans=_spans_session(p),
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
    params = QuerystormParams
    probes = (QuerystormProbe(),)

    def validate_spec(self, spec: ExperimentSpec) -> None:
        _reject_world_features(
            spec,
            "models cluster load and compliance, not packet flows",
            _WSDB_MICS,
        )

    def execute(self, spec: ExperimentSpec) -> Mapping[str, Any]:
        p = spec.params
        router = ScenarioBuilder(spec.scenario).build_wsdb_cluster(
            num_shards=p.storm_shards,
            extent_m=p.extent_m,
            cache_resolution_m=p.roaming_recheck_m,
        )
        storm_source = None
        if p.storm_trace is not None:
            storm_source = TraceWorkload.open(p.storm_trace)
        storm = simulate_querystorm(
            router,
            num_aps=p.citywide_aps,
            num_clients=p.roaming_clients,
            duration_us=spec.scenario.duration_us,
            seed=spec.scenario.seed,
            offered_qps=p.storm_offered_qps,
            push=p.storm_push,
            speed_mps=p.roaming_speed_mps,
            recheck_m=p.roaming_recheck_m,
            mic_events=p.citywide_mic_events,
            rate_limit_qps=p.storm_rate_limit_qps,
            policy=p.storm_shed_policy,
            engine=p.engine,
            storm_source=storm_source,
            telemetry=_telemetry_session(p),
            spans=_spans_session(p),
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
    params = ReplayParams
    probes = (ReplayProbe(),)


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
