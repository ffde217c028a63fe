"""Per-layer numbers taken from outside the server.

Three sources, none of which touches the timed region:

* ``/v1/stats`` read just before and just after it (``stats_layers``);
* ``GET /v1/jobs/<id>/trace`` on sampled jobs once it is over
  (``trace_job`` — also builds the bench's own span tree per job);
* the layers' public functions called in *this* process on inputs
  harvested from the run (``probes.py``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from . import spans
from .client import Connection, JobRecord


def shard_stats(body: Mapping) -> list[Mapping]:
    """The per-process service stats inside a ``/v1/stats`` reply: the
    reply itself, or each worker's on the cluster."""
    if "workers" in body:
        return [stats for stats in body["workers"].values() if stats]
    return [body]


def _dig(stats: Mapping, path: str) -> float:
    node = stats
    for key in path.split("."):
        if not isinstance(node, Mapping):     # e.g. "cache": null
            return 0.0
        node = node.get(key)
    return float(node or 0.0)


def _delta(before: Mapping, after: Mapping, path: str) -> float:
    """Counter growth over the region, summed over shards."""
    return (sum(_dig(s, path) for s in shard_stats(after))
            - sum(_dig(s, path) for s in shard_stats(before)))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def stats_layers(before: Mapping, after: Mapping,
                 records: Sequence[JobRecord]) -> dict:
    """Layer counters from the ``/v1/stats`` delta over the region."""

    def grew(path: str) -> float:
        return _delta(before, after, path)

    done = [r for r in records if r.done]
    claims = sum(len(r.verdicts) for r in done)
    spent = sum(r.spend.get("cost_usd", 0.0) for r in done)
    analyses = grew("sql.analyzer.queries_analyzed") + grew(
        "sql.analyzer.memo_hits")
    plans = grew("sql.optimizer.plans_vectorized") + grew(
        "sql.optimizer.plans_row_path")
    lookups = grew("cache.lookups")
    metrics = {
        "llm.calls_per_claim": (_ratio(grew("ledger.calls"), claims),
                                "calls"),
        "llm.tokens_per_claim": (_ratio(grew("ledger.tokens"), claims),
                                 "tokens"),
        "llm.cache_hit_rate": (_ratio(grew("cache.hits"), lookups),
                               "share"),
        "llm.cache_bypass_share": (
            _ratio(grew("cache.bypasses"), lookups + grew("cache.bypasses")),
            "share"),
        "llm.cache_evictions": (grew("cache.evictions"), "count"),
        "llm.retries": (grew("ledger.retries"), "count"),
        "sqlengine.executions_per_claim": (
            _ratio(grew("sql.executions"), claims), "count"),
        "sqlengine.plan_cache_hit_rate": (
            _ratio(grew("sql.plan_cache.hits"),
                   grew("sql.plan_cache.lookups")), "share"),
        "sqlengine.result_cache_hit_rate": (
            _ratio(grew("sql.result_cache.hits"),
                   grew("sql.result_cache.lookups")), "share"),
        "sqlengine.analyzer_memo_hit_rate": (
            _ratio(grew("sql.analyzer.memo_hits"), analyses), "share"),
        "sqlengine.analyzer_rejected_share": (
            _ratio(grew("sql.analyzer.rejected_pre_execution"), analyses),
            "share"),
        "sqlengine.vectorized_share": (
            _ratio(grew("sql.optimizer.plans_vectorized"), plans), "share"),
        "sqlengine.runtime_fallbacks": (
            grew("sql.strategies.vectorized_runtime_fallbacks"), "count"),
        "service.queue.rejected": (
            grew("jobs.rejected") + _shed(after) - _shed(before), "count"),
        # Per-job spend is rounded to 1e-6 USD, so that much slack each.
        "core.ledger_conserved": (
            float(abs(spent - grew("ledger.cost_usd"))
                  <= 1e-6 * (len(done) + 1)), "bool"),
    }
    if "cluster" in after:
        routed = [
            shard["routed_total"]
            - before["cluster"]["shards"][name]["routed_total"]
            for name, shard in after["cluster"]["shards"].items()
        ]
        metrics["cluster.router.shard_imbalance"] = (
            _ratio(max(routed), sum(routed) / len(routed)), "ratio")
    return metrics


def _shed(stats: Mapping) -> float:
    """Submissions the cluster router shed at admission (0 elsewhere)."""
    shed = stats.get("cluster", {}).get("jobs", {}).get("shed", {})
    return float(sum(shed.values()))


def trace_job(connection: Connection, record: JobRecord,
              log: spans.SpanLog) -> spans.Span | None:
    """File one job's span tree: the bench's spans with the server's
    tree from ``/v1/jobs/<id>/trace`` grafted underneath."""
    status, trace = connection.get_json(f"/v1/jobs/{record.job_id}/trace")
    if status != 200:
        return None
    end = record.ended if record.due is None else max(
        record.ended, record.ts_terminal)
    root = log.job(record.job_id, record.origin, end)
    root.child("POST /v1/verify", "service.http.submit",
               record.sent, record.accepted)
    wait = root.child("queued -> started", "service.queue.wait",
                      record.ts_queued, record.ts_started)
    verify = root.child("started -> done", "core.verify",
                        record.ts_started, record.ts_terminal)
    if record.followed_live:
        root.child("done -> terminal line read", "service.events.tail",
                   record.ts_terminal, record.ended)
    # The server's trace starts at 0 where the job entered it: the
    # router's admission on the cluster, the queue on a single process.
    routed = any(event.get("cat") == "rpc"
                 for event in trace.get("traceEvents", ()))
    server_roots = spans.chrome_to_trees(
        trace, epoch=record.sent if routed else record.ts_queued)
    for server_root in server_roots:
        nodes = (server_root.children if server_root.kind == "job"
                 else [server_root])
        for node in nodes:
            if node.kind == "queue_wait":
                wait.children.append(node)
            elif node.kind == "document":
                verify.children.append(node)
            else:
                root.children.append(node)      # admission, route, rpc
    return root


def trace_layers(job_roots: Sequence[spans.Span]) -> dict:
    """Self time per server span kind, in ms per sampled job."""
    if not job_roots:
        return {}
    totals = spans.self_seconds_by_kind(job_roots)
    return {
        metric: (1e3 * totals[kind] / len(job_roots), "ms")
        for kind, metric in spans.KIND_METRICS.items() if kind in totals
    }
