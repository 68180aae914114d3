"""The RunKind registry: pluggable experiment kinds and metric probes.

The paper's evaluation is one matrix — spectrum assignment (Figures
10-13), the disconnection protocol (Figure 14 / Section 5.3), AP
discovery races (Figures 8-9), and SIFT accuracy (Table 1) — and every
slice of it runs through the same pipeline::

    ExperimentSpec --> RunKind.execute --> raw artifacts --> Probes
                                                        --> ExperimentResult

A :class:`RunKind` is a registered object owning everything one
evaluation axis needs:

* **parameters** (:attr:`RunKind.params`) — a frozen :class:`KindParams`
  dataclass holding exactly the knobs the kind reads; it checks each
  knob when built, and the registry is the one record of which kinds
  own which knob;
* **scenario validation** (:meth:`RunKind.validate_spec`) — rejecting
  scenario features the kind would silently ignore;
* **execution** (:meth:`RunKind.execute`) — building a world via
  :class:`~repro.experiments.scenario.ScenarioBuilder` and running it,
  returning a dict of raw artifacts;
* **probes** (:attr:`RunKind.probes`) — composable metric extractors
  that read those artifacts and populate the
  :class:`~repro.experiments.results.ExperimentResult`: keys matching
  result fields fill the typed record, everything else lands in the
  per-kind ``metrics`` payload.

:func:`run_experiment` is a thin registry lookup; registering a new
kind makes it available to :class:`ParallelRunner` sweeps, the result
cache, and the JSON spec format with no dispatcher edits.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import math
import types
import typing
from typing import TYPE_CHECKING, Any, ClassVar, Mapping, Protocol

from repro.errors import SimulationError, UnknownRunKindError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.results import ExperimentResult
    from repro.experiments.spec import ExperimentSpec

__all__ = [
    "KindParams",
    "Probe",
    "RunKind",
    "assemble_result",
    "build_params",
    "check_positive",
    "get_run_kind",
    "probe_metrics",
    "register_run_kind",
    "run_experiment",
    "run_kind_names",
    "unregister_run_kind",
]


class Probe(Protocol):
    """A composable metric extractor.

    Probes read the raw artifacts a :class:`RunKind` produced and return
    a flat mapping.  Keys that name :class:`ExperimentResult` fields
    (``aggregate_mbps``, ``channel_history``, ...) populate the typed
    record; any other key becomes an entry of the result's per-kind
    ``metrics`` payload.  Probes must be deterministic functions of the
    artifacts — they run in worker processes and their output is part of
    the byte-identical result contract.
    """

    name: str

    def extract(self, raw: Mapping[str, Any]) -> Mapping[str, Any]:
        """Metrics extracted from the raw run artifacts."""
        ...


def _coerce(name: str, hint: Any, value: Any) -> Any:
    """*value* converted to the annotated type *hint* of knob *name*."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # ``X | None``
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else _coerce(name, inner, value)
    if value is None:
        raise SimulationError(f"{name} must not be None")
    try:
        if origin is tuple:
            if len(value) != len(args):
                raise ValueError(f"expected {len(args)} items, got {value!r}")
            return tuple(_coerce(name, a, v) for a, v in zip(args, value))
        return hint(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise SimulationError(f"bad {name}: {err}") from None


def check_positive(params: Any, *names: str, allow_zero: bool = False) -> None:
    """Reject each named knob unless it is None or finite and > 0.

    With *allow_zero* the bound is >= 0.  Non-finite values fail here,
    at spec build, instead of hanging a run or skewing it silently.
    """
    for name in names:
        value = getattr(params, name)
        if value is not None and not (
            math.isfinite(value) and (value > 0 or (allow_zero and value == 0))
        ):
            bound = ">= 0" if allow_zero else "> 0"
            raise SimulationError(
                f"{name} must be finite and {bound}, got {value!r}"
            )


@functools.cache
def _type_hints(cls: type) -> dict[str, Any]:
    # Resolving string annotations dominates block construction.
    return typing.get_type_hints(cls)


@dataclasses.dataclass(frozen=True, kw_only=True)
class KindParams:
    """A run kind's parameter block: exactly the knobs it reads.

    Subclasses are frozen ``kw_only`` dataclasses.  Construction first
    converts every field to its annotated type, so equivalent spellings
    (5 vs 5.0, a JSON list vs a tuple) share one canonical JSON form
    and therefore one ``spec_hash``; a subclass ``__post_init__`` then
    calls ``super().__post_init__()`` and checks its own knobs, raising
    :class:`SimulationError`.  A field without a default is a knob the
    kind requires.  This base has no fields: the block of a kind with
    no knobs.
    """

    def __post_init__(self) -> None:
        hints = _type_hints(type(self))
        for f in dataclasses.fields(self):
            value = _coerce(f.name, hints[f.name], getattr(self, f.name))
            object.__setattr__(self, f.name, value)


class RunKind(abc.ABC):
    """One pluggable experiment kind (an axis of the evaluation matrix).

    Subclasses define:

    Attributes:
        name: the spec's ``kind`` string (registry key).
        summary: one line for docs and error messages — what the kind
            simulates.
        params: the :class:`KindParams` subclass holding the knobs
            :meth:`execute` reads from ``spec.params``.  The default
            empty block suits a kind with no knobs; any knob given to
            such a kind is rejected.
        probes: metric extractors applied to :meth:`execute`'s artifacts.
    """

    name: ClassVar[str]
    summary: ClassVar[str] = ""
    params: ClassVar[type[KindParams]] = KindParams
    probes: ClassVar[tuple[Probe, ...]] = ()

    def validate_spec(self, spec: "ExperimentSpec") -> None:
        """Reject scenario features this kind would silently ignore.

        Called from the ``ExperimentSpec`` constructor once the
        parameter block is built (knob checks live in the block);
        raise :class:`SimulationError` on any scenario feature the kind
        does not simulate where intent is unambiguous.
        """

    @abc.abstractmethod
    def execute(self, spec: "ExperimentSpec") -> Mapping[str, Any]:
        """Run the experiment; returns the raw artifacts probes read.

        Must be fully deterministic in *spec* (derive every random
        stream from ``spec.scenario.seed``): the same spec produces the
        same artifacts — and therefore a byte-identical result — in any
        process.
        """


# -- registry ------------------------------------------------------------------

_REGISTRY: dict[str, RunKind] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Load the built-in kinds on first registry access.

    Import-time registration would cycle (kinds need the scenario
    builder, which needs the spec module, whose validation needs the
    registry), so the built-ins register lazily — any lookup path works
    even when only ``repro.experiments.spec`` was imported.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    before = set(_REGISTRY)
    try:
        import repro.experiments.kinds  # noqa: F401  (registers on import)
    except BaseException:
        # Roll back partial registrations and leave the flag unset: the
        # root-cause error must resurface identically on every access,
        # not decay into an empty registry ("unknown run kind 'static'")
        # or a wedged one ("'static' is already registered").  Sorted:
        # cleanup order must not depend on set hash order.
        for name in sorted(set(_REGISTRY) - before):
            del _REGISTRY[name]
        raise
    _BUILTINS_LOADED = True


def register_run_kind(kind: RunKind) -> RunKind:
    """Register *kind* under ``kind.name``; returns it for chaining.

    The fields of ``kind.params`` become knobs the registry attributes
    to the kind: specs of other kinds name it as their owner.

    Raises:
        SimulationError: when the name is empty or already registered —
            two kinds silently shadowing each other would make the same
            spec JSON mean different experiments.
    """
    name = getattr(kind, "name", "")
    if not name or not isinstance(name, str):
        raise SimulationError(
            f"run kind {kind!r} must define a non-empty string `name`"
        )
    if name in _REGISTRY:
        raise SimulationError(
            f"run kind {name!r} is already registered "
            f"({_REGISTRY[name].__class__.__name__}); unregister it first"
        )
    _REGISTRY[name] = kind
    return kind


def unregister_run_kind(name: str) -> RunKind:
    """Remove and return a registered kind (test/plugin teardown hook)."""
    _ensure_builtins()
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise SimulationError(f"run kind {name!r} is not registered") from None


def run_kind_names() -> tuple[str, ...]:
    """All registered kind names, sorted — the public ``RUN_KINDS`` set."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def get_run_kind(name: str) -> RunKind:
    """Look up a registered kind.

    Raises:
        UnknownRunKindError: for an unknown name, listing the
            registered kinds in sorted order.
    """
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownRunKindError(
            f"unknown run kind {name!r}; expected one of {run_kind_names()}"
        ) from None


def _knob_names(kind: RunKind) -> frozenset[str]:
    return frozenset(f.name for f in dataclasses.fields(kind.params))


def build_params(kind: str, knobs: Mapping[str, Any]) -> KindParams:
    """*kind*'s parameter block from flat keyword knobs.

    A knob given as None counts as not given (the block default).

    Raises:
        SimulationError: for a knob no registered kind owns, a knob
            owned only by other kinds (the message names its owners),
            or a required knob left out.
    """
    run_kind = get_run_kind(kind)
    owned = _knob_names(run_kind)
    owners = {
        knob: [n for n in run_kind_names() if knob in _knob_names(_REGISTRY[n])]
        for knob in sorted(set(knobs) - owned)
    }
    unknown = [knob for knob, names in owners.items() if not names]
    if unknown:
        raise SimulationError(f"unknown experiment spec fields: {unknown}")
    given = {k: v for k, v in knobs.items() if v is not None}
    for knob, names in owners.items():
        if knob in given:
            raise SimulationError(
                f"kind {kind!r} does not use {knob}; it only applies to "
                f"kind {' / '.join(repr(n) for n in names)}"
            )
    missing = [
        f.name
        for f in dataclasses.fields(run_kind.params)
        if f.name not in given
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise SimulationError(f"kind {kind!r} requires {' and '.join(missing)}")
    return run_kind.params(**given)


# -- execution -----------------------------------------------------------------


def _result_field_names() -> frozenset[str]:
    from repro.experiments.results import ExperimentResult

    return frozenset(
        f.name for f in dataclasses.fields(ExperimentResult)
    ) - {"kind", "spec_hash", "seed", "metrics"}


def probe_metrics(
    probes: tuple[Probe, ...], raw: Mapping[str, Any]
) -> tuple[dict[str, Any], tuple[tuple[str, Any], ...]]:
    """Run *probes* over *raw*; returns (result fields, metrics payload).

    Probe outputs merge in probe order; a key produced twice is a
    programming error in the probe set and raises.
    """
    field_names = _result_field_names()
    fields: dict[str, Any] = {}
    metrics: list[tuple[str, Any]] = []
    seen: set[str] = set()
    for probe in probes:
        for key, value in probe.extract(raw).items():
            if key in seen:
                raise SimulationError(
                    f"probe {probe.name!r} re-emits metric {key!r} "
                    "already produced by an earlier probe"
                )
            seen.add(key)
            if key in field_names:
                fields[key] = value
            else:
                metrics.append((key, value))
    return fields, tuple(metrics)


def assemble_result(
    kind: RunKind,
    spec: "ExperimentSpec",
    raw: Mapping[str, Any],
    *,
    kind_name: str | None = None,
    probes: tuple[Probe, ...] | None = None,
) -> "ExperimentResult":
    """Run *kind*'s probes over *raw* and build the archival record.

    Args:
        kind_name: record-kind override for sub-results whose kind
            string differs from the producing spec's (OPT's nested
            "opt-5mhz"/... baselines).
        probes: probe-set override (default: ``kind.probes``).
    """
    from repro.experiments.results import ExperimentResult

    fields, metrics = probe_metrics(
        kind.probes if probes is None else probes, raw
    )
    return ExperimentResult(
        kind=spec.kind if kind_name is None else kind_name,
        spec_hash=spec.spec_hash,
        seed=spec.scenario.seed,
        metrics=metrics,
        **fields,
    )


def run_experiment(spec: "ExperimentSpec") -> "ExperimentResult":
    """Execute one declarative experiment and archive the result.

    A thin registry dispatch: look the kind up, execute, probe.  Fully
    deterministic in *spec* — the same spec (including the scenario
    seed) produces a byte-identical ``ExperimentResult`` JSON encoding
    in any process, the property ``ParallelRunner`` relies on.

    Raises:
        SimulationError: for an unregistered ``spec.kind``.
    """
    kind = get_run_kind(spec.kind)
    return assemble_result(kind, spec, kind.execute(spec))
