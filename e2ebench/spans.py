"""Span tracing from outside the program, and the per-layer breakdown.

The tracer wraps public callables of one assembled platform (instance
attributes on its services, gateway, web application and databases),
``parse_sql`` in each module that imports it, ``plan_select`` and
``os.fsync``.  Nothing under ``src/`` changes: uninstalling restores
every original.  Spans stay in memory until the run ends.

A span is ``(span id, parent id, request id, name, thread id, start
ns, end ns, extra)``.  On one thread the parent is the enclosing span.
Across the gateway's thread hop the request id travels in the
``X-Bench-Request-Id`` header: the worker-side ``web.handle`` span
takes the caller-side ``gateway.submit`` span of the same request id
as its parent, and every span under it inherits the request id.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from workloads import REQUEST_ID_HEADER

#: Field positions of a span tuple.
ID, PARENT, REQUEST, NAME, THREAD, START, END, EXTRA = range(8)

#: Statement class of an engine ``execute`` call, from its first word.
STATEMENT_CLASS = {"SELECT": "select", "INSERT": "dml", "UPDATE": "dml",
                   "DELETE": "dml", "CREATE": "ddl", "DROP": "ddl",
                   "ALTER": "ddl"}


class SpanRecorder:
    """Collects spans; safe to call from any thread."""

    def __init__(self) -> None:
        self.spans: List[Tuple[Any, ...]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # request id -> id of its caller-side gateway.submit span
        self.submit_span: Dict[str, int] = {}

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[str] = None,
             parent: Optional[int] = None) -> List[Any]:
        """Start a span; request and parent default to the enclosing
        span's on this thread."""
        stack = self._stack()
        if stack:
            top = stack[-1]
            parent = top[ID] if parent is None else parent
            request = top[REQUEST] if request is None else request
        elif request is None:
            # A gateway worker keeps serving its request after the web
            # layer returns (stale-cache bookkeeping re-parses the SQL).
            request = getattr(self._local, "request", None)
        span = [next(self._ids), parent, request, name,
                threading.get_ident(), time.perf_counter_ns(), 0, None]
        stack.append(span)
        return span

    def serving(self, request: Optional[str]) -> None:
        """Mark this (worker) thread as serving ``request`` until the
        next call: root spans opened here inherit its id."""
        self._local.request = request

    def close(self, span: List[Any], extra: Any = None) -> None:
        span[END] = time.perf_counter_ns()
        span[EXTRA] = extra
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(tuple(span))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def write(self, path: str) -> None:
        """Write every span, one tab-separated line each."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\trequest\tname\tthread\tstart_ns"
                         "\tend_ns\textra\n")
            for span in self.spans:
                handle.write("\t".join("" if value is None else str(value)
                                       for value in span) + "\n")


def self_time_ns(span: Tuple[Any, ...],
                 children: Iterable[Tuple[Any, ...]]) -> int:
    """A span's duration minus the part of it its children cover.

    Only children on the span's own thread count: a child on another
    thread (the worker side of a gateway hop) runs beside the parent,
    not inside it.  Overlapping children are merged first, and each
    child is clipped to the parent's interval.
    """
    intervals = sorted(
        (max(child[START], span[START]), min(child[END], span[END]))
        for child in children if child[THREAD] == span[THREAD])
    covered = 0
    current_start = current_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return (span[END] - span[START]) - covered


class PlatformTracer:
    """Installs and removes the span wrappers on one platform."""

    def __init__(self, platform: Any, recorder: SpanRecorder):
        self.platform = platform
        self.recorder = recorder
        self._undo: List[Callable[[], None]] = []

    # -- patching helpers ------------------------------------------------------

    def _set(self, owner: Any, attribute: str, replacement: Any,
             instance: bool) -> None:
        original = getattr(owner, attribute)
        setattr(owner, attribute, replacement)
        if instance:
            # Deleting the instance attribute re-exposes the method.
            self._undo.append(lambda: delattr(owner, attribute))
        else:
            self._undo.append(lambda: setattr(owner, attribute, original))

    def _wrap_method(self, owner: Any, attribute: str, name: str) -> None:
        self._set(owner, attribute,
                  self.recorder.wrap(name, getattr(owner, attribute)), True)

    def install(self) -> None:
        import repro.analysis.sql
        import repro.core.overload
        import repro.engine.database
        import repro.engine.planner

        platform, recorder = self.platform, self.recorder
        self._set(platform.gateway, "submit",
                  self._traced_submit(platform.gateway.submit), True)
        self._set(platform.web, "handle",
                  self._traced_handle(platform.web.handle), True)
        self._wrap_method(platform.admin.authentication, "validate",
                          "security.validate")
        self._wrap_method(platform.billing, "meter", "billing.meter")
        self._wrap_method(platform.metadata, "dataset_rows",
                          "metadata.dataset_rows")
        self._wrap_method(platform.reporting, "render_dashboard",
                          "reporting.render_dashboard")
        self._wrap_method(platform.analysis, "execute_mdx",
                          "analysis.execute_mdx")
        self._set(platform.integration, "run_job",
                  self._traced_run_job(platform.integration.run_job), True)
        for database in databases(platform):
            self._set(database, "execute",
                      self._traced_execute(database.execute), True)
            if database.wal is not None:
                self._set(database.wal, "commit",
                          self._traced_commit(database.wal), True)
        for module in (repro.engine.database, repro.core.overload,
                       repro.analysis.sql):
            self._set(module, "parse_sql",
                      recorder.wrap("engine.parse", module.parse_sql), False)
        self._set(repro.engine.planner, "plan_select",
                  recorder.wrap("engine.plan",
                                repro.engine.planner.plan_select), False)
        self._set(os, "fsync", recorder.wrap("wal.fsync", os.fsync), False)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- wrappers with extra behaviour --------------------------------------------

    def _traced_submit(self, submit: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self.recorder

        def traced(method, path, body=None, headers=None, query=None):
            request = (headers or {}).get(REQUEST_ID_HEADER)
            span = recorder.open("gateway.submit", request=request)
            if request is not None:
                recorder.submit_span[request] = span[ID]
            try:
                return submit(method, path, body, headers, query)
            finally:
                recorder.close(span, extra=path.rsplit("/", 1)[-1])
        return traced

    def _traced_handle(self, handle: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self.recorder

        def traced(request):
            request_id = request.header(REQUEST_ID_HEADER)
            recorder.serving(request_id)
            span = recorder.open(
                "web.handle", request=request_id,
                parent=recorder.submit_span.get(request_id))
            try:
                return handle(request)
            finally:
                recorder.close(span)
        return traced

    def _traced_execute(self, execute: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self.recorder

        def traced(sql, params=()):
            word = sql.lstrip()[:6].upper()
            span = recorder.open(
                "engine." + STATEMENT_CLASS.get(word, "other"))
            try:
                return execute(sql, params)
            finally:
                recorder.close(span)
        return traced

    def _traced_commit(self, wal: Any) -> Callable[..., Any]:
        recorder, commit = self.recorder, wal.commit

        def traced(ops):
            span = recorder.open("wal.commit")
            before = wal.offset
            try:
                return commit(ops)
            finally:
                recorder.close(span, extra=wal.offset - before)
        return traced

    def _traced_run_job(self, run_job: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self.recorder

        def traced(tenant_id, name):
            span = recorder.open("integration.run_job")
            rows = 0
            try:
                result = run_job(tenant_id, name)
                rows = result.rows_written
                return result
            finally:
                recorder.close(span, extra=rows)
        return traced


def databases(platform: Any) -> List[Any]:
    """Distinct databases of a platform: the shared one plus every
    tenant's operational and warehouse database."""
    seen: Dict[int, Any] = {}
    candidates = [platform.tenants.platform_db]
    for tenant in platform.tenants.tenant_ids():
        context = platform.tenants.context(tenant)
        candidates += [context.operational_db, context.warehouse_db]
    for database in candidates:
        seen.setdefault(id(database), database)
    return list(seen.values())


# -- counters read outside the spans ------------------------------------------------

def olap_counters(platform: Any) -> Tuple[int, int]:
    """(queries, cache hits) summed over every tenant cube engine."""
    queries = hits = 0
    for tenant in platform.tenants.tenant_ids():
        for cube in platform.analysis.cubes(tenant):
            stats = platform.analysis.engine(tenant, cube).statistics
            queries += stats["queries"]
            hits += stats["cache_hits"]
    return queries, hits


#: Gateway decisions that answer without running the request.
SHED_DECISIONS = ("shed", "rejected", "degraded", "queue-shed",
                  "queue-displaced", "expired", "brownout-shed",
                  "brownout-degraded")


def gateway_counters(platform: Any) -> Tuple[int, int]:
    """(decisions, shed decisions) the gateway made so far."""
    counts = dict(platform.gateway.decision_counts)
    total = sum(counts.values())
    shed = sum(counts.get(name, 0) for name in SHED_DECISIONS)
    return total, shed


# -- the per-layer breakdown ------------------------------------------------------

@dataclass(frozen=True)
class Layer:
    """One per-layer metric: its value and what it was computed from."""

    name: str
    unit: str
    value: float
    samples: int


def _median_us(durations_ns: List[int]) -> float:
    return statistics.median(durations_ns) / 1000.0 if durations_ns else 0.0


def per_layer(spans: List[Tuple[Any, ...]], olap: Tuple[int, int],
              gateway: Tuple[int, int], goodput_ratio: float) -> List[Layer]:
    """Every per-layer metric from the spans of the traced windows.

    ``olap`` and ``gateway`` are the counter deltas over those windows.
    Per-request ratios count only spans inside a gateway request
    (the benchmark's ETL ticks are not requests) and divide by the
    number of ``gateway.submit`` spans (requests attempted).
    """
    by_name: Dict[str, List[Tuple[Any, ...]]] = {}
    children: Dict[int, List[Tuple[Any, ...]]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)

    def named(name: str) -> List[Tuple[Any, ...]]:
        return by_name.get(name, [])

    def durations(name: str) -> List[int]:
        return [span[END] - span[START] for span in named(name)]

    submits = named("gateway.submit")
    requests = {span[REQUEST] for span in submits}
    attempted = max(1, len(submits))

    def per_request(name: str) -> Tuple[float, int]:
        count = sum(1 for span in named(name) if span[REQUEST] in requests)
        return count / attempted, count

    submit_end = {span[REQUEST]: span[END] for span in submits}
    queue_waits = [max(0, span[START] - submit_end[span[REQUEST]])
                   for span in named("web.handle")
                   if span[REQUEST] in submit_end]
    handles = named("web.handle")
    web_self = [self_time_ns(span, children.get(span[ID], ()))
                for span in handles]
    selects = [span for span in named("engine.select")
               if span[REQUEST] in requests]
    plans = sum(1 for span in named("engine.plan")
                if span[REQUEST] in requests)
    statements = sum(1 for name in ("engine.select", "engine.dml",
                                    "engine.ddl", "engine.other")
                     for span in named(name) if span[REQUEST] in requests)
    commits = [span for span in named("wal.commit")
               if span[REQUEST] in requests]
    jobs = named("integration.run_job")
    job_rows = sum(span[EXTRA] or 0 for span in jobs)
    job_ns = sum(span[END] - span[START] for span in jobs)
    olap_queries, olap_hits = olap
    decisions, shed = gateway

    out = [
        Layer("gateway.admit_us", "us", _median_us(durations("gateway.submit")),
              len(submits)),
        Layer("gateway.queue_wait_us", "us", _median_us(queue_waits),
              len(queue_waits)),
        Layer("gateway.shed_share", "ratio", shed / max(1, decisions),
              decisions),
        Layer("web.self_us", "us", _median_us(web_self), len(web_self)),
        Layer("security.validate_us", "us",
              _median_us(durations("security.validate")),
              len(named("security.validate"))),
    ]
    ratio, count = per_request("engine.parse")
    out.append(Layer("engine.parse_calls_per_request", "count", ratio,
                     count))
    sql_requests = {span[REQUEST] for span in submits if span[EXTRA] == "sql"}
    sql_parses = sum(1 for span in named("engine.parse")
                     if span[REQUEST] in sql_requests)
    out.append(Layer("engine.parse_calls_per_sql_request", "count",
                     sql_parses / max(1, len(sql_requests)),
                     len(sql_requests)))
    out.append(Layer("billing.meter_us", "us",
                     _median_us(durations("billing.meter")),
                     len(named("billing.meter"))))
    ratio, count = per_request("billing.meter")
    out.append(Layer("billing.meter_calls_per_request", "count", ratio,
                     count))
    ratio, count = per_request("wal.fsync")
    out.append(Layer("wal.fsyncs_per_request", "count", ratio, count))
    out.append(Layer("wal.fsync_us", "us", _median_us(durations("wal.fsync")),
                     len(named("wal.fsync"))))
    out.append(Layer("engine.select_us", "us",
                     _median_us(durations("engine.select")),
                     len(named("engine.select"))))
    out.append(Layer("engine.plans_built_per_select", "count",
                     plans / max(1, len(selects)), len(selects)))
    ratio, count = per_request("engine.ddl")
    out.append(Layer("engine.ddl_per_request", "count", ratio, count))
    out.append(Layer("engine.statements_per_request", "count",
                     statements / attempted, statements))
    for name, layer in (("metadata.dataset_rows", "metadata.dataset_rows_us"),
                        ("reporting.render_dashboard",
                         "reporting.render_dashboard_us"),
                        ("analysis.execute_mdx", "analysis.execute_mdx_us")):
        out.append(Layer(layer, "us", _median_us(durations(name)),
                         len(named(name))))
    out.append(Layer("olap.cache_hit_ratio", "ratio",
                     olap_hits / max(1, olap_queries), olap_queries))
    out.append(Layer("engine.dml_us", "us",
                     _median_us(durations("engine.dml")),
                     len(named("engine.dml"))))
    out.append(Layer("wal.commits_per_request", "count",
                     len(commits) / attempted, len(commits)))
    out.append(Layer("wal.bytes_per_request", "B",
                     sum(span[EXTRA] or 0 for span in commits) / attempted,
                     len(commits)))
    out.append(Layer("integration.run_job_ms", "ms",
                     _median_us(durations("integration.run_job")) / 1000.0,
                     len(jobs)))
    out.append(Layer("etl.rows_per_s", "1/s",
                     job_rows / (job_ns / 1e9) if job_ns else 0.0, job_rows))
    out.append(Layer("trace.goodput_ratio", "ratio", goodput_ratio,
                     len(submits)))
    return out
