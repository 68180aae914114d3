"""Sim-clock distributed tracing: request-scoped span trees.

The metrics registry (:mod:`repro.telemetry.metrics`) says *that* p99
frontend latency is high; the trace recorder (:mod:`repro.traces`)
says *what* happened.  This module records *why a specific request was
slow*: a :class:`SpanRecorder` builds one parent→child span tree per
frontend request across the whole cluster tier — admission,
token-bucket wait, shed deferrals, per-shard batch fan-out, database
cache hit/miss and index scan, stale-store serves, and push fan-out —
and links latency-histogram buckets to example trace ids
(Prometheus-exemplar style), so a tail bucket resolves to the concrete
span tree that produced it.

Determinism is the same contract as everything else in the tree:

* **Ids are content-derived.**  A trace id is a hash of the request's
  kind, subject, and enqueue tick — never wall clock, never ``id()`` —
  so the scalar and vector engines (which issue the identical request
  sequence) mint identical ids.  Span ids are per-trace sequence
  numbers assigned in a fixed tree-build order.
* **Sim-clock only.**  Every timestamp in a span is simulation time;
  the module never reads a wall clock (it lives outside the detlint
  wall-clock zone on purpose).
* **Observation only.**  Recording changes no report: a driver run
  with :data:`NULL_SPANS` is byte-identical to a pre-spans run, and a
  run with a recorder attached differs only by the ``"spans"`` table.

Sampling (the ``span_sample`` spec knob) is deterministic too:
``"off"`` records every trace, ``"head-N"`` keeps one in N by trace-id
hash, and ``"tail"`` keeps only traces with a nonzero enqueue→serve
duration (the slow requests a tail investigation wants).  The
recorder's latency bucket counts always cover *all* served requests,
so the p99 threshold is exact even under sampling; only the kept trees
are exported.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import SimulationError
from repro.telemetry.metrics import DEFAULT_LATENCY_BOUNDS_US

__all__ = [
    "NULL_SPANS",
    "NullSpans",
    "SPANS_MODES",
    "SPANS_SCHEMA",
    "SpanRecorder",
    "bucket_label",
    "critical_path",
    "lookup_steps",
    "parse_span_sample",
    "path_self_times",
    "tail_attribution",
    "trace_spans",
]

#: Valid values of the ``spans`` experiment-spec knob.
SPANS_MODES = ("off", "on")

#: Version tag carried by every span table (schema evolution seam).
SPANS_SCHEMA = "repro.spans/v1"

#: Exemplar trace ids retained per latency bucket (first N distinct).
EXEMPLARS_PER_BUCKET = 4

#: The tail quantile :func:`tail_attribution` reports on.
TAIL_QUANTILE = 0.99


def parse_span_sample(sample: str | None) -> tuple:
    """Parse a ``span_sample`` knob value into a sampling mode.

    Returns ``("off",)``, ``("head", N)``, or ``("tail",)``; raises
    ``SimulationError`` on anything else.  ``None`` means "off"
    (record everything).
    """
    if sample is None or sample == "off":
        return ("off",)
    if sample == "tail":
        return ("tail",)
    if isinstance(sample, str) and sample.startswith("head-"):
        try:
            n = int(sample[len("head-"):])
        except ValueError:
            n = 0
        if n >= 1:
            return ("head", n)
    raise SimulationError(
        f"unknown span_sample {sample!r}; expected 'off', 'head-N' "
        "(N >= 1), or 'tail'"
    )


def _trace_id(req: str, subject: Any, enqueue_us: float) -> str:
    """A deterministic 64-bit trace id from the request's identity."""
    text = f"{req}:{subject}:{enqueue_us!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fmt_bound(bound: float) -> str:
    """Histogram bound rendered the way the Prometheus exporter does."""
    if bound == int(bound) and abs(bound) < 1e15:
        return str(int(bound))
    return repr(bound)


def bucket_label(bounds: Sequence[float], index: int) -> str:
    """The exemplar-map key for latency bucket *index* (``le`` style)."""
    if index < len(bounds):
        return f"le_{_fmt_bound(bounds[index])}"
    return "le_inf"


def lookup_steps(
    hit: bool, candidates: int, site: str, shard: bool = False
) -> tuple:
    """The serve-side step tree for one database cell lookup.

    ``db_lookup`` → ``cache_hit``, or ``db_lookup`` → ``cache_miss`` →
    ``index_scan`` (carrying the spatial-index candidate count); with
    ``shard=True`` the chain is wrapped in a ``shard_lookup`` span (the
    frontend's per-shard fan-out hop).
    """
    if hit:
        leaf = ("cache_hit", site, {}, ())
    else:
        leaf = (
            "cache_miss",
            site,
            {},
            (("index_scan", site, {"candidates": int(candidates)}, ()),),
        )
    chain = ("db_lookup", site, {}, (leaf,))
    if shard:
        return ("shard_lookup", site, {}, (chain,))
    return chain


class _PendingTrace:
    """A begun-but-unserved request: enqueue stamp + defer attempts."""

    __slots__ = ("req", "subject", "enqueue_us", "defers")

    def __init__(self, req: str, subject: Any, enqueue_us: float):
        self.req = req
        self.subject = subject
        self.enqueue_us = enqueue_us
        self.defers: list[float] = []


class SpanRecorder:
    """Records deterministic span trees across the cluster tier.

    Args:
        sample: the ``span_sample`` knob value — ``None``/``"off"``
            (keep every trace), ``"head-N"`` (keep one in N by trace-id
            hash), or ``"tail"`` (keep only traces with nonzero
            duration).
        latency_bounds: histogram bucket bounds the exemplar links and
            tail attribution use; must match the frontend latency
            histogram the run observes into (the shared default does).
    """

    enabled = True

    def __init__(
        self,
        sample: str | None = None,
        latency_bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_US,
    ):
        self.sample = "off" if sample is None else str(sample)
        self._mode = parse_span_sample(sample)
        self._bounds = tuple(float(b) for b in latency_bounds)
        # Served-request latency counts per bucket (+Inf last), over
        # *all* serves — sampling never skews the tail threshold.
        self._latency_counts = [0] * (len(self._bounds) + 1)
        self._pending: dict[str, _PendingTrace] = {}
        # Finished traces as (root_t0, trace_id, spans): sorted at
        # snapshot so engines that finish traces in different interleavings
        # would still export identical tables.
        self._done: list[tuple[float, str, list[dict[str, Any]]]] = []
        self._dropped = 0
        self._exemplars: dict[int, list[str]] = {}

    def _keep(self, trace_id: str, duration_us: float) -> bool:
        mode = self._mode
        if mode[0] == "off":
            return True
        if mode[0] == "head":
            return int(trace_id[:8], 16) % mode[1] == 0
        return duration_us > 0

    # -- request lifecycle (frontend path) -----------------------------------

    def request_begin(
        self, req: str, subject: Any, enqueue_us: float
    ) -> str:
        """Open (or find) the trace for one frontend request.

        The id derives from (req, subject, enqueue) — a deferred
        re-check retried with its first-attempt stamp lands back in the
        same trace, accumulating ``shed_defer`` attempts until it
        serves.
        """
        trace_id = _trace_id(req, subject, enqueue_us)
        if trace_id not in self._pending:
            self._pending[trace_id] = _PendingTrace(req, subject, enqueue_us)
        return trace_id

    def request_defer(self, trace_id: str, t_us: float) -> None:
        """Record one shed attempt (token-bucket denial) at *t_us*."""
        pending = self._pending.get(trace_id)
        if pending is not None:
            pending.defers.append(t_us)

    def request_serve(
        self,
        trace_id: str,
        t_us: float,
        site: str,
        steps: Sequence[tuple],
    ) -> bool:
        """Close a request's trace at serve time *t_us*.

        Builds the tree — root ``request`` spanning enqueue→serve, a
        ``queue_wait`` child covering the same window (carrying the
        zero-duration ``shed_defer`` attempts), then the serve-side
        *steps* chains at the serve instant — observes the duration
        into the latency bucket counts, applies sampling, and links an
        exemplar when the trace is kept.  Returns whether it was kept.
        """
        pending = self._pending.pop(trace_id, None)
        if pending is None:
            return False
        t0 = pending.enqueue_us
        duration = t_us - t0
        bucket = bisect_left(self._bounds, duration)
        self._latency_counts[bucket] += 1
        if not self._keep(trace_id, duration):
            self._dropped += 1
            return False
        spans: list[dict[str, Any]] = []
        root = self._add(
            spans,
            trace_id,
            None,
            "request",
            site,
            t0,
            t_us,
            {
                "req": pending.req,
                "subject": pending.subject,
                "latency_us": duration,
            },
        )
        wait = self._add(
            spans, trace_id, root, "queue_wait", site, t0, t_us, {}
        )
        for attempt_us in pending.defers:
            self._add(
                spans,
                trace_id,
                wait,
                "shed_defer",
                site,
                attempt_us,
                attempt_us,
                {},
            )
        for step in steps:
            self._attach(spans, trace_id, root, step, t_us)
        self._done.append((t0, trace_id, spans))
        exemplars = self._exemplars.setdefault(bucket, [])
        if (
            len(exemplars) < EXEMPLARS_PER_BUCKET
            and trace_id not in exemplars
        ):
            exemplars.append(trace_id)
        return True

    # -- one-shot trees (mic registrations, direct-db lookups) ---------------

    def record_tree(
        self,
        kind: str,
        req: str,
        subject: Any,
        t_us: float,
        site: str,
        steps: Sequence[tuple],
    ) -> str:
        """Record a complete zero-duration tree at *t_us*.

        Used for work that begins and ends inside one call today: a
        direct database lookup on the roaming path, or a microphone
        registration's invalidate + push fan-out.  Returns the trace
        id (minted even when sampling drops the tree, so callers can
        log it either way).
        """
        trace_id = _trace_id(req, subject, t_us)
        if not self._keep(trace_id, 0.0):
            self._dropped += 1
            return trace_id
        spans: list[dict[str, Any]] = []
        root = self._add(
            spans,
            trace_id,
            None,
            kind,
            site,
            t_us,
            t_us,
            {"req": req, "subject": subject},
        )
        for step in steps:
            self._attach(spans, trace_id, root, step, t_us)
        self._done.append((t_us, trace_id, spans))
        return trace_id

    # -- tree building -------------------------------------------------------

    def _add(
        self,
        spans: list[dict[str, Any]],
        trace_id: str,
        parent: int | None,
        kind: str,
        site: str,
        t0_us: float,
        t1_us: float,
        attrs: Mapping[str, Any],
    ) -> int:
        span_id = len(spans)
        spans.append(
            {
                "trace": trace_id,
                "span": span_id,
                "parent": parent,
                "kind": kind,
                "site": site,
                "t0_us": float(t0_us),
                "t1_us": float(t1_us),
                "attrs": dict(attrs),
            }
        )
        return span_id

    def _attach(
        self,
        spans: list[dict[str, Any]],
        trace_id: str,
        parent: int,
        step: tuple,
        t_us: float,
    ) -> None:
        kind, site, attrs, children = step
        span_id = self._add(
            spans, trace_id, parent, kind, site, t_us, t_us, attrs
        )
        for child in children:
            self._attach(spans, trace_id, span_id, child, t_us)

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The span table: a sorted, JSON-plain view of every kept trace.

        Traces order by (root start, trace id) and spans within a trace
        by span id, so any two runs that recorded the same trees export
        byte-identical tables regardless of finish interleaving.
        """
        spans: list[dict[str, Any]] = []
        for _, _, trace in sorted(self._done, key=lambda e: (e[0], e[1])):
            spans.extend(trace)
        exemplars = {
            bucket_label(self._bounds, bucket): list(trace_ids)
            for bucket, trace_ids in sorted(self._exemplars.items())
        }
        return {
            "schema": SPANS_SCHEMA,
            "sample": self.sample,
            "latency_bounds": list(self._bounds),
            "latency_counts": list(self._latency_counts),
            "traces": len(self._done),
            "dropped": self._dropped,
            "unserved": len(self._pending),
            "exemplars": exemplars,
            "spans": spans,
        }


class NullSpans:
    """The do-nothing recorder substituted for ``spans=None``."""

    enabled = False
    sample = "off"

    def request_begin(self, req: str, subject: Any, enqueue_us: float) -> str:
        return ""

    def request_defer(self, trace_id: str, t_us: float) -> None:
        pass

    def request_serve(
        self, trace_id: str, t_us: float, site: str, steps: Sequence[tuple]
    ) -> bool:
        return False

    def record_tree(
        self,
        kind: str,
        req: str,
        subject: Any,
        t_us: float,
        site: str,
        steps: Sequence[tuple],
    ) -> str:
        return ""

    def snapshot(self) -> dict[str, Any]:
        return {
            "schema": SPANS_SCHEMA,
            "sample": "off",
            "latency_bounds": [],
            "latency_counts": [],
            "traces": 0,
            "dropped": 0,
            "unserved": 0,
            "exemplars": {},
            "spans": [],
        }


#: Shared no-op instance.
NULL_SPANS = NullSpans()


# -- analysis over exported tables ---------------------------------------------


def _iter_traces(
    table: Mapping[str, Any],
) -> Iterator[tuple[str, list[dict[str, Any]]]]:
    """Group a table's span list into (trace_id, spans) runs.

    Tables keep each trace contiguous with the root span first, so one
    linear pass suffices.
    """
    current: list[dict[str, Any]] = []
    current_id = None
    for span in table["spans"]:
        if span["trace"] != current_id:
            if current:
                yield current_id, current
            current_id = span["trace"]
            current = []
        current.append(span)
    if current:
        yield current_id, current


def trace_spans(
    table: Mapping[str, Any], trace_id: str
) -> list[dict[str, Any]]:
    """All spans of one trace, in span-id order (empty when unknown)."""
    for tid, spans in _iter_traces(table):
        if tid == trace_id:
            return spans
    return []


def critical_path(spans: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """The root-to-leaf path following the longest child at each level.

    Ties break toward the lowest span id (the earliest-recorded child),
    so the path is deterministic even among zero-duration siblings.
    """
    if not spans:
        return []
    children: dict[int, list[Mapping[str, Any]]] = {}
    root = None
    for span in spans:
        if span["parent"] is None:
            root = span
        else:
            children.setdefault(span["parent"], []).append(span)
    if root is None:
        return []
    path = [dict(root)]
    node = root
    while True:
        kids = children.get(node["span"])
        if not kids:
            return path
        node = max(
            kids,
            key=lambda s: (s["t1_us"] - s["t0_us"], -s["span"]),
        )
        path.append(dict(node))


def path_self_times(
    path: Sequence[Mapping[str, Any]],
) -> list[tuple[str, float]]:
    """Per-kind exclusive time along a critical path.

    Each span's self time is its duration minus its on-path child's
    duration, so the self times sum exactly to the root's duration —
    the attribution invariant the tail report relies on.
    """
    out: list[tuple[str, float]] = []
    for i, span in enumerate(path):
        duration = span["t1_us"] - span["t0_us"]
        if i + 1 < len(path):
            child = path[i + 1]
            duration -= child["t1_us"] - child["t0_us"]
        out.append((span["kind"], duration))
    return out


def tail_attribution(
    table: Mapping[str, Any], quantile: float = TAIL_QUANTILE
) -> dict[str, Any]:
    """Where tail-bucket requests spent their sim-time, by span kind.

    Finds the latency bucket containing the *quantile* point of the
    recorded latency distribution (all served requests, sampled or
    not), then sums critical-path self times per span kind over every
    *kept* trace whose duration lands in that bucket or above.

    Returns ``{"quantile", "threshold_le", "requests", "traces",
    "by_kind"}`` — ``threshold_le`` is the tail bucket's lower bound
    edge (``None`` for the +Inf bucket), ``requests`` counts all served
    requests in the tail buckets, ``traces`` the kept trees among them.
    """
    bounds = table.get("latency_bounds", [])
    counts = table.get("latency_counts", [])
    report: dict[str, Any] = {
        "quantile": quantile,
        "threshold_le": None,
        "requests": 0,
        "traces": 0,
        "by_kind": {},
    }
    total = sum(counts)
    if total == 0:
        return report
    need = quantile * total
    cumulative = 0
    tail_bucket = len(counts) - 1
    for index, count in enumerate(counts):
        cumulative += count
        if cumulative >= need:
            tail_bucket = index
            break
    report["threshold_le"] = (
        float(bounds[tail_bucket]) if tail_bucket < len(bounds) else None
    )
    report["requests"] = int(sum(counts[tail_bucket:]))
    by_kind: dict[str, float] = {}
    kept = 0
    for _, spans in _iter_traces(table):
        root = spans[0]
        latency = root["attrs"].get("latency_us")
        if latency is None:
            continue
        if bisect_left(bounds, latency) < tail_bucket:
            continue
        kept += 1
        for kind, self_us in path_self_times(critical_path(spans)):
            by_kind[kind] = by_kind.get(kind, 0.0) + self_us
    report["traces"] = kept
    report["by_kind"] = {kind: by_kind[kind] for kind in sorted(by_kind)}
    return report
