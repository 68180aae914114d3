"""Declarative experiment harness: specs, run kinds, sweeps, results.

The paper's evaluation (Sections 5.1-5.4) is a matrix of scenarios —
channel widths x traffic intensities x background BSS counts x churn
rates x locales x seeds.  This package turns each cell of that matrix
into data and each axis into a plugin:

* :mod:`repro.experiments.spec` — frozen, JSON-round-trippable
  :class:`ScenarioSpec` / :class:`ExperimentSpec` dataclasses describing
  a scenario (spectrum, foreground BSS, background pool, incumbents,
  churn, traffic model, duration, seed) and what to run on it: a kind
  plus that kind's parameter block.
* :mod:`repro.experiments.registry` — the pluggable :class:`RunKind`
  registry and :class:`Probe` API: each registered kind owns its
  parameter block (:class:`KindParams`), scenario validation,
  execution, and metric extraction; :func:`run_experiment` is a thin
  registry lookup and ``RUN_KINDS`` is derived from the registry.
* :mod:`repro.experiments.kinds` — the ten built-in kinds:
  ``static``, ``opt``, ``whitefi``, ``protocol`` (world simulations,
  Figures 10-14), ``discovery`` (AP-discovery races, Figures 8-9),
  ``sift`` (detection/classification accuracy, Table 1), and the
  :mod:`repro.wsdb` kinds — ``citywide`` (many APs on one metro
  geolocation database), ``roaming`` (mobile clients under the FCC
  re-check rule), ``querystorm`` (a sharded database cluster under
  storm load, with optional PAWS-style push) and ``replay`` (a
  recorded storm trace re-driven through that cluster).
* :mod:`repro.experiments.probes` — composable metric extractors
  (throughput, airtime, switch log, disconnection timeline, discovery
  latency, SIFT confusion counts) that populate ``ExperimentResult``.
* :mod:`repro.experiments.scenario` — :class:`ScenarioBuilder`
  materializes a world from a spec (engine/medium worlds, protocol
  BSSs, discovery sessions, SIFT captures); the single place scenario
  wiring lives.
* :mod:`repro.experiments.runs` — the imperative run functions behind
  the world-simulation kinds (static, OPT baselines, adaptive WhiteFi,
  full protocol).
* :mod:`repro.experiments.results` — structured :class:`ExperimentResult`
  records with a per-kind ``metrics`` payload, aggregation helpers, and
  a spec-hash-keyed result cache.
* :mod:`repro.experiments.parallel` — :class:`ParallelRunner` fans a
  spec x seed grid across worker processes with deterministic per-seed
  streams, falling back to byte-identical sequential execution.
"""

from repro.experiments.parallel import ParallelRunner, sweep_seeds
from repro.experiments.registry import (
    KindParams,
    Probe,
    RunKind,
    get_run_kind,
    register_run_kind,
    run_experiment,
    run_kind_names,
    unregister_run_kind,
)
from repro.experiments.results import (
    ExperimentResult,
    ResultCache,
    SummaryStats,
    mean_by,
    metric_value,
    summarize,
)
from repro.experiments.runs import (
    run_opt_baselines,
    run_protocol,
    run_static,
    run_whitefi,
)
from repro.experiments.scenario import ScenarioBuilder, ScenarioConfig, World
from repro.experiments.spec import (
    BackgroundPoolSpec,
    BackgroundSpec,
    ExperimentSpec,
    MicSpec,
    ScenarioSpec,
    SpatialSpec,
    TrafficSpec,
)

# Ensure the built-in kinds are registered as soon as the package is
# imported (direct spec/registry users get them lazily regardless).
from repro.experiments import kinds as _builtin_kinds  # noqa: F401  isort: skip

__all__ = [
    "BackgroundPoolSpec",
    "BackgroundSpec",
    "ExperimentSpec",
    "ExperimentResult",
    "KindParams",
    "MicSpec",
    "ParallelRunner",
    "Probe",
    "RUN_KINDS",
    "ResultCache",
    "RunKind",
    "ScenarioBuilder",
    "ScenarioConfig",
    "ScenarioSpec",
    "SpatialSpec",
    "SummaryStats",
    "TrafficSpec",
    "World",
    "get_run_kind",
    "mean_by",
    "metric_value",
    "register_run_kind",
    "run_experiment",
    "run_kind_names",
    "run_opt_baselines",
    "run_protocol",
    "run_static",
    "run_whitefi",
    "summarize",
    "sweep_seeds",
    "unregister_run_kind",
]


def __getattr__(name: str):
    # RUN_KINDS stays importable from here while being derived from the
    # live registry (plugin registrations included).
    if name == "RUN_KINDS":
        return run_kind_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
