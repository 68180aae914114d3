"""Declarative scenario and experiment specifications.

Every spec here is a frozen dataclass of plain data — no engine handles,
no spectrum-map objects — so a complete experiment can be serialized to
JSON, shipped to a worker process, hashed for result caching, and diffed
in a results archive.  :mod:`repro.experiments.scenario` materializes a
spec into a live simulation world.

The scenario vocabulary follows the paper's evaluation matrix
(Section 5.4): a foreground BSS on a fragmented UHF map, a pool of
background AP/client pairs with CBR traffic, optional two-state Markov
churn or scripted activity windows (Figures 13/14), optional per-node
spatial variation of the spectrum map (Figure 12), and optional
wireless-microphone incumbents (Section 5.3).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.errors import SimulationError
from repro.experiments.registry import (
    KindParams,
    build_params,
    get_run_kind,
    run_kind_names,
)

__all__ = [
    "BackgroundPoolSpec",
    "BackgroundSpec",
    "ExperimentSpec",
    "MicSpec",
    "RUN_KINDS",
    "ScenarioSpec",
    "SpatialSpec",
    "TrafficSpec",
]


def __getattr__(name: str):
    # RUN_KINDS is derived from the RunKind registry (the single source
    # of truth), so plugin registrations show up here too.  Resolved on
    # access (PEP 562): the built-ins register on first registry use.
    if name == "RUN_KINDS":
        return run_kind_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _tuple2(value: Sequence[float] | None) -> tuple[float, float] | None:
    """Normalize an optional 2-sequence (JSON gives lists) to a tuple."""
    if value is None:
        return None
    a, b = value
    return (float(a), float(b))


@dataclass(frozen=True)
class BackgroundSpec:
    """One background AP/client pair.

    Attributes:
        uhf_index: the 5 MHz channel the pair occupies.
        inter_packet_delay_us: CBR injection period.
        payload_bytes: CBR payload size.
        churn: optional (mean_active_us, mean_passive_us) Markov gating.
        active_windows: optional scripted (start_us, end_us) activity
            windows (Figure 14); mutually exclusive with churn.
    """

    uhf_index: int
    inter_packet_delay_us: float
    payload_bytes: int = 1000
    churn: tuple[float, float] | None = None
    active_windows: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.churn is not None and self.active_windows is not None:
            raise SimulationError(
                "churn and active_windows are mutually exclusive"
            )
        object.__setattr__(self, "churn", _tuple2(self.churn))
        if self.active_windows is not None:
            object.__setattr__(
                self,
                "active_windows",
                tuple(_tuple2(w) for w in self.active_windows),
            )


@dataclass(frozen=True)
class BackgroundPoolSpec:
    """A pool of identically-parameterized background pairs.

    The builder expands the pool into concrete :class:`BackgroundSpec`
    entries: ``per_free_channel`` pairs on every free UHF channel
    (Figures 12/13 place one or two per channel), plus ``random_count``
    pairs each dropped on a uniformly-random free channel (Figure 11),
    using a stream derived deterministically from the scenario seed.

    Attributes:
        random_count: randomly-placed pairs.
        per_free_channel: deterministically-placed pairs per free channel.
        inter_packet_delay_us: CBR injection period for every pair.
        payload_bytes: CBR payload size for every pair.
        churn: optional Markov gating applied to every pair.
    """

    random_count: int = 0
    per_free_channel: int = 0
    inter_packet_delay_us: float = 30_000.0
    payload_bytes: int = 1000
    churn: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.random_count < 0 or self.per_free_channel < 0:
            raise SimulationError("background pool counts must be >= 0")
        object.__setattr__(self, "churn", _tuple2(self.churn))


@dataclass(frozen=True)
class MicSpec:
    """A wireless microphone incumbent with scripted sessions.

    Attributes:
        uhf_index: the UHF channel the microphone occupies when active.
        sessions: (start_us, end_us) activity intervals.
    """

    uhf_index: int
    sessions: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sessions", tuple(_tuple2(s) for s in self.sessions)
        )


@dataclass(frozen=True)
class TrafficSpec:
    """Foreground BSS traffic model.

    Attributes:
        downlink: AP runs a round-robin saturating source to the clients.
        uplink: every client runs a saturating source to the AP.
        payload_bytes: UDP payload size of the foreground flows.
    """

    downlink: bool = True
    uplink: bool = True
    payload_bytes: int = 1000


@dataclass(frozen=True)
class SpatialSpec:
    """Figure 12 spatial variation: per-node map bit flips.

    Attributes:
        flip_probability: probability of flipping each map entry per node.
    """

    flip_probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_probability <= 1.0:
            raise SimulationError(
                f"flip probability {self.flip_probability!r} outside [0, 1]"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable experiment scenario.

    Attributes:
        free_indices: incumbent-free UHF channels of the base map.
        num_channels: UHF index space size.
        num_clients: foreground clients associated with the AP.
        backgrounds: explicit background pairs.
        background_pool: optional pool expanded by the builder.
        mics: wireless-microphone incumbents (protocol scenarios).
        traffic: foreground traffic model.
        spatial: optional per-node spectrum-map variation.
        ap_free_indices: explicit AP map override (default: base map).
        client_free_indices: explicit per-client map overrides.
        duration_us: measured simulation time (after warmup).
        warmup_us: sensing warmup before the foreground BSS starts.
        seed: master seed; all randomness derives from it.
    """

    free_indices: tuple[int, ...]
    num_channels: int = 30
    num_clients: int = 1
    backgrounds: tuple[BackgroundSpec, ...] = ()
    background_pool: BackgroundPoolSpec | None = None
    mics: tuple[MicSpec, ...] = ()
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    spatial: SpatialSpec | None = None
    ap_free_indices: tuple[int, ...] | None = None
    client_free_indices: tuple[tuple[int, ...], ...] | None = None
    duration_us: float = 5_000_000.0
    warmup_us: float = 500_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "free_indices", tuple(self.free_indices))
        object.__setattr__(self, "backgrounds", tuple(self.backgrounds))
        object.__setattr__(self, "mics", tuple(self.mics))
        if self.ap_free_indices is not None:
            object.__setattr__(
                self, "ap_free_indices", tuple(self.ap_free_indices)
            )
        if self.client_free_indices is not None:
            object.__setattr__(
                self,
                "client_free_indices",
                tuple(tuple(m) for m in self.client_free_indices),
            )

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy of this scenario with a different master seed."""
        return replace(self, seed=seed)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain-data representation (JSON-compatible)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or parsed JSON)."""
        data = dict(data)
        data["backgrounds"] = tuple(
            BackgroundSpec(**b) for b in data.get("backgrounds", ())
        )
        pool = data.get("background_pool")
        data["background_pool"] = (
            BackgroundPoolSpec(**pool) if pool is not None else None
        )
        data["mics"] = tuple(MicSpec(**m) for m in data.get("mics", ()))
        traffic = data.get("traffic")
        if isinstance(traffic, Mapping):
            data["traffic"] = TrafficSpec(**traffic)
        spatial = data.get("spatial")
        data["spatial"] = SpatialSpec(**spatial) if spatial is not None else None
        return cls(**data)

    def to_json(self) -> str:
        """Canonical JSON (stable key order, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True, init=False)
class ExperimentSpec:
    """A scenario plus what to run on it.

    Attributes:
        scenario: the environment.
        kind: a registered run kind; the built-ins are listed in
            :mod:`repro.experiments.kinds`.
        params: the kind's parameter block, an instance of
            ``get_run_kind(kind).params`` holding exactly the knobs the
            kind reads (documented on each block).

    Knobs are usually given flat::

        ExperimentSpec(scenario, kind="sift", sift_width_mhz=10.0,
                       sift_rate_mbps=1.0)

    The constructor resolves the kind (an unknown kind raises, listing
    the registered names), rejects a knob the kind does not own (naming
    the kinds that do, as the registry records them), builds the block
    (which checks each knob), and lets the kind reject scenario
    features it would silently ignore (``RunKind.validate_spec``).  A
    knob given as None counts as not given.  A ready block may be
    passed as ``params=`` instead of flat knobs.
    """

    scenario: ScenarioSpec
    kind: str
    params: KindParams

    def __init__(
        self,
        scenario: ScenarioSpec,
        kind: str = "whitefi",
        params: KindParams | None = None,
        **knobs: Any,
    ) -> None:
        run_kind = get_run_kind(kind)
        if params is None:
            params = build_params(kind, knobs)
        elif knobs or type(params) is not run_kind.params:
            raise SimulationError(
                f"kind {kind!r} takes params as one "
                f"{run_kind.params.__name__} block and no flat knobs"
            )
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        run_kind.validate_spec(self)

    def with_seed(self, seed: int) -> "ExperimentSpec":
        """A copy of this experiment with a different scenario seed."""
        return replace(self, scenario=self.scenario.with_seed(seed))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain data: ``scenario``, ``kind`` and the kind's knobs."""
        return {
            "scenario": self.scenario.to_dict(),
            "kind": self.kind,
            **asdict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (or parsed JSON)."""
        data = dict(data)
        data["scenario"] = ScenarioSpec.from_dict(data["scenario"])
        return cls(**data)

    def to_json(self) -> str:
        """Canonical JSON (stable key order, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    @property
    def spec_hash(self) -> str:
        """A stable content hash — the result-cache key.

        Two specs hash equally iff their canonical JSON is identical,
        so the hash covers every field including the scenario seed.
        """
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]
