"""The one observation seam of the wsdb drivers.

A wsdb run can feed three sim-clock sinks, each optional:

* a :class:`~repro.traces.record.TraceRecorder` streams dense run
  events — mic registrations and push notifications, client re-checks,
  storm queries, handoffs, violation windows and the citywide sweep.
  The caller closes it.
* a :class:`~repro.telemetry.metrics.MetricsRegistry` samples a
  per-tick series (roaming and querystorm), observes frontend batch
  sizes and enqueue→serve latencies, and at the end publishes the
  service tier's and the driver's counters; the report gains a
  ``"telemetry"`` snapshot.
* a :class:`~repro.telemetry.spans.SpanRecorder` records a span tree
  per client re-check and storm query (admission, shard lookup, cache
  hit or miss and index scan, shed deferrals, stale serves) and per mic
  registration (invalidation and push fan-out); the report gains a
  ``"spans"`` table.

:class:`RunObserver` holds all three and is the only wsdb code that
writes to them.  The drivers call it once per domain event; the service
tier (database, router, frontend) observes nothing itself and only
reports what its last call did — ``last_outcomes``, ``last_plan``,
``last_lookups`` and ``last_mic`` — which the observer reads.  Spans
are recorded live, not derived from a trace afterwards: a trace event
carries no cache hit, candidate-scan count or shard id.

Observing changes no report: with every sink attached a report differs
from a bare run's only by the ``"telemetry"`` and ``"spans"``
snapshots, and both engines produce identical traces, snapshots and
span tables.  A missing sink is its zero-overhead null twin, so a hook
with every sink off costs a few attribute tests and builds nothing.
One observer serves one run.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.telemetry.metrics import (
    DEFAULT_BATCH_BOUNDS,
    DEFAULT_LATENCY_BOUNDS_US,
    NULL_TELEMETRY,
)
from repro.telemetry.spans import NULL_SPANS, lookup_steps
from repro.traces.record import NULL_RECORDER
from repro.wsdb.service import quantize_cell

__all__ = ["RunObserver"]

#: The trace event kind of each frontend request label.
_FRONTEND_EVENTS = {"storm": "query", "recheck": "recheck"}

_ADMISSION = ("admission", "frontend", {}, ())
_COALESCED = ("coalesced", "frontend", {}, ())
_STALE_SERVE = ("stale_serve", "frontend", {}, ())


class RunObserver:
    """Trace recorder, metrics registry and span recorder of one run.

    Args:
        recorder: a :class:`~repro.traces.record.TraceRecorder` (None:
            no trace).
        telemetry: a :class:`~repro.telemetry.metrics.MetricsRegistry`
            (None: no metrics).
        spans: a :class:`~repro.telemetry.spans.SpanRecorder` (None: no
            spans).
    """

    def __init__(
        self, recorder: Any = None, telemetry: Any = None, spans: Any = None
    ):
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self.spans = NULL_SPANS if spans is None else spans
        self.tracing = self.recorder.enabled
        self.metering = self.telemetry.enabled
        self.spanning = self.spans.enabled
        #: Any sink attached: per-request hook sites test this before
        #: building their arguments.
        self.on = self.tracing or self.metering or self.spanning
        # Per-client open violation windows, sized on the first tick.
        self._viol_open: np.ndarray | None = None

    def mic(
        self,
        event,
        index: int,
        resolution_m: float,
        notified: Sequence[int] = (),
        invalidated: int = 0,
        frontend=None,
    ) -> None:
        """One mic registration, accepted by a database or a frontend.

        Emits the ``mic`` event and one ``push`` per *notified* device,
        and records the invalidation tree: at the database (which
        invalidated *invalidated* responses), or at *frontend*, whose
        ``last_mic`` holds its invalidation and stale-purge counts and
        whose push registry, when attached, adds the fan-out.
        """
        if self.tracing:
            cell = quantize_cell(event.x_m, event.y_m, resolution_m)
            emit = self.recorder.emit
            emit(
                "mic", event.t_us, subject=index, cell=cell,
                channels=(event.uhf_index,), x=event.x_m, y=event.y_m,
                aux=event.uhf_index,
            )
            for device in notified:
                emit(
                    "push", event.t_us, subject=device, cell=cell,
                    channels=(event.uhf_index,), aux=index,
                )
        if self.spanning:
            if frontend is None:
                site = "db"
                attrs = {"entries": int(invalidated)}
            else:
                site = "frontend"
                invalidated, purged = frontend.last_mic
                attrs = {"entries": int(invalidated), "stale_purged": purged}
            steps = [("invalidate", site, attrs, ())]
            if frontend is not None and frontend.push is not None:
                steps.append(
                    ("push_fanout", "push", {"notified": len(notified)}, ())
                )
            self.spans.record_tree(
                "mic_register", "mic", index, event.t_us, site, steps
            )

    def db_recheck(
        self,
        t_us: float,
        db,
        fleet,
        idx: np.ndarray,
        cells: Sequence[tuple[int, int]],
        responses: Sequence[tuple[int, ...]],
    ) -> None:
        """One roaming tick's re-check batch through the database.

        Client ``idx[j]`` asked for ``cells[j]`` and got
        ``responses[j]``; ``db.last_outcomes[j]`` says how.  Records one
        lookup tree and emits one ``recheck`` event per client.
        """
        if self.spanning:
            record = self.spans.record_tree
            for i, (hit, scanned) in zip(idx.tolist(), db.last_outcomes):
                record(
                    "request", "roam", i, t_us, "db",
                    [lookup_steps(hit, scanned, "db")],
                )
        if self.tracing:
            x, y = fleet.positions()
            emit = self.recorder.emit
            for j, i in enumerate(idx.tolist()):
                emit(
                    "recheck", t_us, subject=i, cell=cells[j],
                    channels=responses[j], x=float(x[i]), y=float(y[i]),
                    aux=1,
                )

    def frontend_batch(
        self,
        frontend,
        t_us: float,
        req: str,
        first: int,
        points: Sequence[tuple[float, float]],
        enqueued: Sequence[float],
        answers: Sequence[tuple[int, ...] | None],
    ) -> None:
        """One frontend ``query_batch`` call: a storm burst or a re-check.

        Request *j* of the call is ``(req, first + j)`` — *req* is
        ``"storm"`` or ``"recheck"`` — asked at ``points[j]``, enqueued
        at ``enqueued[j]`` and answered ``answers[j]``; the frontend's
        ``last_plan`` and ``last_lookups`` say how.  Emits one event per
        request, and records one request tree per request: the first
        admitted request of a cell carries the shard lookup, later ones
        coalesce, and a shed request defers (its retry, stamped with the
        first attempt, lands in the same trace) or serves stale.  Every
        served request observes its enqueue→serve latency.
        """
        plan = frontend.last_plan
        if self.tracing:
            kind = _FRONTEND_EVENTS[req]
            emit = self.recorder.emit
            for j, ((x_m, y_m), answer, (cell, admitted)) in enumerate(
                zip(points, answers, plan)
            ):
                emit(
                    kind, t_us, subject=first + j, cell=cell, channels=answer,
                    x=x_m, y=y_m, aux=int(admitted),
                )
        if self.spanning:
            sp = self.spans
            lookups = frontend.last_lookups
            primary: set[tuple[int, int]] = set()
            for j, ((cell, admitted), answer, enq) in enumerate(
                zip(plan, answers, enqueued)
            ):
                tid = sp.request_begin(req, first + j, enq)
                if not admitted:
                    sp.request_defer(tid, t_us)
                    if answer is not None:
                        sp.request_serve(tid, t_us, "frontend", [_STALE_SERVE])
                    continue
                if cell in primary:
                    steps = [_ADMISSION, _COALESCED]
                else:
                    primary.add(cell)
                    shard_id, hit, scanned = lookups[cell]
                    steps = [
                        _ADMISSION,
                        lookup_steps(
                            hit, scanned, f"shard{shard_id}", shard=True
                        ),
                    ]
                sp.request_serve(tid, t_us, "frontend", steps)
        if self.metering:
            tel = self.telemetry
            tel.histogram(
                "frontend_batch_requests", DEFAULT_BATCH_BOUNDS
            ).observe(float(len(answers)))
            latency = tel.histogram(
                "frontend_latency_us", DEFAULT_LATENCY_BOUNDS_US
            )
            for enq, answer in zip(enqueued, answers):
                if answer is not None:
                    latency.observe(t_us - enq)

    def tick(
        self,
        t_us: float,
        fleet,
        live_aps,
        outcome,
        trig_x: np.ndarray,
        trig_y: np.ndarray,
        columns: Callable[[], Mapping[str, float]],
    ) -> None:
        """One association tick of a mobile fleet.

        *outcome* is ``associate_and_score``'s result.  Emits the
        tick's handoffs and violation-window opens and closes (stamped
        with the trigger cell, the exact position and the sorted AP
        spans), and samples one telemetry row: handoffs and violating
        clients, plus the kind's own ``columns()``.
        """
        if self.tracing:
            _connected, new_ap, best_col, handoff_mask, violating = outcome
            if self._viol_open is None:
                self._viol_open = np.zeros(fleet.n, dtype=bool)
            viol_open = self._viol_open
            x, y = fleet.positions()
            opens = violating & ~viol_open
            events = (("handoff", handoff_mask), ("violation_open", opens))
            for kind, rows in events:
                for i in np.flatnonzero(rows).tolist():
                    self.recorder.emit(
                        kind, t_us, subject=i,
                        cell=(int(trig_x[i]), int(trig_y[i])),
                        channels=tuple(sorted(live_aps[int(best_col[i])][1])),
                        x=float(x[i]), y=float(y[i]),
                        aux=int(new_ap[i]) if kind == "handoff" else None,
                    )
            closes = viol_open & ~violating
            self._close(closes, t_us, trig_x, trig_y, x, y, aux=0)
            viol_open[opens] = True
            viol_open[closes] = False
        if self.metering:
            self.telemetry.sample_tick(
                t_us,
                handoffs=int(fleet.handoffs.sum()),
                violating=int(outcome[4].sum()),
                **columns(),
            )

    def run_end(
        self, t_us: float, fleet, trig_x: np.ndarray, trig_y: np.ndarray
    ) -> None:
        """Close the violation windows still open when the run ended.

        Closed with ``aux=1``, so analyses can tell truncation from
        recovery.
        """
        if self.tracing and self._viol_open is not None:
            x, y = fleet.positions()
            self._close(self._viol_open, t_us, trig_x, trig_y, x, y, aux=1)

    def _close(self, rows, t_us, trig_x, trig_y, x, y, aux: int) -> None:
        for i in np.flatnonzero(rows).tolist():
            self.recorder.emit(
                "violation_close", t_us, subject=i,
                cell=(int(trig_x[i]), int(trig_y[i])),
                x=float(x[i]), y=float(y[i]), aux=aux,
            )

    def sweep(
        self,
        t_us: float,
        aps,
        responses: Sequence[tuple[int, ...]],
        resolution_m: float,
    ) -> None:
        """The citywide end-of-session sweep: one query event per AP."""
        if self.tracing:
            for ap, response in zip(aps, responses):
                self.recorder.emit(
                    "query", t_us, subject=ap.ap_id,
                    cell=quantize_cell(ap.x_m, ap.y_m, resolution_m),
                    channels=response, x=ap.x_m, y=ap.y_m, aux=1,
                )

    def attach(
        self,
        report: dict[str, Any],
        service,
        counters: Mapping[str, int],
        gauges: Mapping[str, float] | None = None,
    ) -> dict[str, Any]:
        """Publish the end-of-run metrics and add the sink snapshots.

        With telemetry, *service* publishes its own counters
        (``publish_metrics``), the driver's *counters* and *gauges*
        land beside them, and *report* gains the ``"telemetry"``
        snapshot; with spans it gains the ``"spans"`` table.  Returns
        *report*.
        """
        if self.metering:
            tel = self.telemetry
            service.publish_metrics(tel)
            for name, value in counters.items():
                tel.counter(name).inc(value)
            for name, value in (gauges or {}).items():
                tel.gauge(name).set(value)
            report["telemetry"] = tel.snapshot()
        if self.spanning:
            report["spans"] = self.spans.snapshot()
        return report
