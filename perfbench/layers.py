"""Per-layer counters and metrics of one round.

:func:`snapshot` reads the counters the repro code already keeps (on
the simulator, the traffic meter, the GLS nodes and every component
:class:`~probes.Instances` saw built) into one flat dict; the drive's
work is the difference of two snapshots.  :func:`layer_metrics` turns
that difference, plus what a :class:`~probes.Tracer` recorded during
the drive, into the ``<layer>.<metric>`` figures of the traced run.

:data:`TARGETS` records, for each layer, the end-to-end metric it
should move and on which workload -- written down before measuring, as
the benchmark's method asks.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.deadlines import shared_pool

from probes import LAYERS
from stats import percentile

__all__ = ["snapshot", "delta", "layer_metrics", "PER_LAYER", "TARGETS"]

#: layer -> (end-to-end metric it should move, on which workload)
TARGETS: Dict[str, str] = {
    "sim.kernel": "requests_per_ref_s on hot_release (most), long_tail",
    "sim.network": "wide_area_bytes_per_request everywhere; error_ratio "
                   "on long_tail",
    "sim.transport": "requests_per_ref_s on long_tail",
    "sim.rpc": "sim_latency_p99_ms, error_ratio on long_tail; zero "
               "retries on hot_release",
    "sim.serde": "requests_per_ref_s on long_tail",
    "sim.deadlines": "requests_per_ref_s, sim_latency_p99_ms on long_tail",
    "sim.retry": "error_ratio on long_tail",
    "core.marshal": "requests_per_ref_s on update_mix (most), hot_release",
    "gns": "requests_per_ref_s on hot_release; sim_latency_p50_ms on "
           "long_tail",
    "gls": "sim_latency_p50_ms, requests_per_ref_s on long_tail; ~0 on "
           "hot_release",
    "gdn.cache": "sim_latency_p99_ms on hot_release; requests_per_ref_s "
                 "on long_tail (miss bookkeeping)",
    "core.runtime": "requests_per_ref_s on long_tail vs hot_release",
    "gdn.httpd": "error_ratio, requests_per_ref_s everywhere",
    "gos": "requests_per_ref_s, sim_write_latency_p50_ms on update_mix",
    "core.replication": "sim_write_latency_*, stale_read_ratio on "
                        "update_mix",
    "security.tls": "requests_per_ref_s on update_mix; zero elsewhere",
    "workloads": "requests_per_ref_s on hot_release (cohort driver)",
    "setup": "setup_s on long_tail",
}

#: Every per-layer metric of the traced run: (name, unit, better).
#: Each layer also has ``host_us_per_request`` and ``host_share``.
_COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.kernel.events_per_request", "count", "lower"),
    ("sim.kernel.timers_per_request", "count", "lower"),
    ("sim.kernel.timers_cancelled_per_request", "count", "lower"),
    ("sim.network.messages_per_request", "count", "lower"),
    ("sim.network.drops_per_request", "count", "lower"),
    ("sim.transport.sends_per_request", "count", "lower"),
    ("sim.rpc.calls_per_request", "count", "lower"),
    ("sim.rpc.retries_per_request", "count", "lower"),
    ("sim.rpc.timeouts_per_request", "count", "lower"),
    ("sim.serde.encoded_size_calls_per_request", "count", "lower"),
    ("sim.deadlines.armed_per_request", "count", "lower"),
    ("sim.deadlines.expired_per_request", "count", "lower"),
    ("sim.deadlines.timer_arms_per_request", "count", "lower"),
    ("sim.retry.budget_denied", "count", "lower"),
    ("core.marshal.pack_calls_per_request", "count", "lower"),
    ("core.marshal.bytes_packed_per_request", "B", "lower"),
    ("gns.resolves_per_request", "count", "lower"),
    ("gns.resolver_hit_ratio", "ratio", "higher"),
    ("gns.resolve_sim_ms_p50", "ms", "lower"),
    ("gls.lookups_per_request", "count", "lower"),
    ("gls.node_requests_per_lookup", "count", "lower"),
    ("gls.lookup_sim_ms_p50", "ms", "lower"),
    ("gls.lookup_sim_ms_p99", "ms", "lower"),
    ("gdn.cache.hit_ratio", "ratio", "higher"),
    ("gdn.cache.coalesced_per_miss", "count", "higher"),
    ("gdn.cache.upstream_lookups_per_request", "count", "lower"),
    ("gdn.cache.stale_served", "count", "lower"),
    ("core.runtime.binds_per_request", "count", "lower"),
    ("core.runtime.binding_reuse_ratio", "ratio", "higher"),
    ("gdn.httpd.rebinds_per_request", "count", "lower"),
    ("gdn.httpd.errors", "count", "lower"),
    ("gos.invocations_per_request", "count", "lower"),
    ("gos.checkpoints_per_write", "count", "lower"),
    ("core.replication.state_pushes_per_write", "count", "lower"),
    ("core.replication.snapshot_bytes_per_write", "B", "lower"),
    ("core.replication.push_failures", "count", "lower"),
    ("core.replication.remote_reads_per_request", "count", "lower"),
    ("security.tls.records_per_request", "count", "lower"),
    ("security.tls.handshakes", "count", "lower"),
    ("workloads.issued", "count", "higher"),
    ("workloads.completed", "count", "higher"),
    ("setup.publish_host_ms_per_package", "ms", "lower"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = _COUNTS + tuple(
    entry for layer in LAYERS for entry in (
        (layer + ".host_us_per_request", "us", "lower"),
        (layer + ".host_share", "ratio", "lower"))) + (
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans_per_request", "count", "lower"),
    ("ledger.flagged_layers", "count", "lower"),
)


def snapshot(workload, instances) -> Dict[str, float]:
    """Every counter the benchmark reads, as one flat dict."""
    world = workload.gdn.world
    sim = world.sim
    meter = world.network.meter
    udp = instances.of("UdpRpcClient")
    channels = instances.of("RpcChannel")
    pools = [shared_pool(sim)] + [client.deadline_pool for client in udp
                                  if client.deadline_pool is not None]
    caches = instances.of("GlsLookupCache")
    httpds = instances.of("GdnHttpd")
    nodes = [node for subnodes in workload.gdn.gls.nodes.values()
             for node in subnodes]
    return {
        "kernel.events": sim.events_processed,
        "kernel.timers": sim.timers_scheduled,
        "kernel.timers_cancelled": sim.timers_cancelled,
        "network.messages": meter.total_messages,
        "network.drops": meter.dropped_messages,
        "rpc.calls": (sum(c.calls for c in udp)
                      + sum(c.calls for c in channels)),
        "rpc.retries": (sum(c.retries_sent for c in udp)
                        + sum(c.retries_sent for c in channels)),
        "rpc.timeouts": (sum(c.timeouts_hit for c in udp)
                         + sum(c.timeouts for c in channels)),
        "deadlines.armed": sum(p.armed_total for p in pools),
        "deadlines.expired": sum(p.expired_total for p in pools),
        "deadlines.timer_arms": sum(p.timer_arms for p in pools),
        "retry.budget_denied": instances.total("RetryBudget", "denied"),
        "gns.resolves": instances.total("GlobeNameService", "resolutions"),
        "gns.resolver_lookups": instances.total("CachingResolver",
                                                "resolutions"),
        "gns.resolver_hits": instances.total("CachingResolver",
                                             "cache_hits"),
        "gls.lookups": instances.total("GlsClient", "lookups"),
        "gls.node_lookups": sum(node.lookups_handled for node in nodes),
        "cache.hits": sum(cache.hits for cache in caches),
        "cache.misses": sum(cache.misses for cache in caches),
        "cache.coalesced": sum(cache.coalesced for cache in caches),
        "cache.stale_served": sum(cache.stale_served for cache in caches),
        "cache.upstream_lookups": sum(cache.upstream.lookups
                                      for cache in caches),
        "runtime.binds": instances.total("Runtime", "binds_performed"),
        "httpd.requests": sum(h.requests_served for h in httpds),
        "httpd.errors": sum(h.errors for h in httpds),
        "httpd.binds": sum(h.runtime.binds_performed for h in httpds),
        "gos.requests": sum(g.requests_served
                            for g in instances.of("GlobeObjectServer")),
        "replication.push_failures": instances.total("ReplicationSubobject",
                                                     "push_failures"),
        "replication.remote_reads": instances.total("ReplicationSubobject",
                                                    "reads_remote"),
        "tls.records": instances.total("SecureChannel", "records_sent"),
        "tls.channels": len(instances.of("SecureChannel")),
    }


def delta(after: Dict[str, float], before: Dict[str, float]
          ) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sim_ms(spans: List, layer: str, name: str) -> List[float]:
    return [(span.sim_end - span.sim_start) * 1e3 for span in spans
            if span.layer == layer and span.name == name
            and span.sim_end is not None]


def layer_metrics(counts: Dict[str, float], traced: dict, drive,
                  setup_s: float, publish_s: float, packages: int
                  ) -> Dict[str, float]:
    """The per-layer figures of one traced drive.

    ``counts`` is the drive's counter delta, ``traced`` the tracer's
    :meth:`~probes.Tracer.since_mark`, ``drive`` the workload's
    :class:`~workloads.Drive`."""
    n = drive.issued
    writes = len(drive.write_latencies)
    calls = traced["calls"]
    spans = traced["spans"]

    def per_request(value: float) -> float:
        return _ratio(value, n)

    def call_count(*keys: str) -> int:
        return sum(calls.get(key, 0) for key in keys)

    resolve_ms = _sim_ms(spans, "gns", "resolve")
    lookup_ms = _sim_ms(spans, "gls", "lookup_detailed")
    bind_calls = call_count("core.runtime:bind")
    out = {
        "sim.kernel.events_per_request": per_request(counts["kernel.events"]),
        "sim.kernel.timers_per_request": per_request(counts["kernel.timers"]),
        "sim.kernel.timers_cancelled_per_request":
            per_request(counts["kernel.timers_cancelled"]),
        "sim.network.messages_per_request":
            per_request(counts["network.messages"]),
        "sim.network.drops_per_request": per_request(counts["network.drops"]),
        "sim.transport.sends_per_request": per_request(call_count(
            "sim.transport:send_to", "sim.transport:send")),
        "sim.rpc.calls_per_request": per_request(counts["rpc.calls"]),
        "sim.rpc.retries_per_request": per_request(counts["rpc.retries"]),
        "sim.rpc.timeouts_per_request": per_request(counts["rpc.timeouts"]),
        "sim.serde.encoded_size_calls_per_request":
            per_request(call_count("sim.serde:encoded_size")),
        "sim.deadlines.armed_per_request":
            per_request(counts["deadlines.armed"]),
        "sim.deadlines.expired_per_request":
            per_request(counts["deadlines.expired"]),
        "sim.deadlines.timer_arms_per_request":
            per_request(counts["deadlines.timer_arms"]),
        "sim.retry.budget_denied": counts["retry.budget_denied"],
        "core.marshal.pack_calls_per_request": per_request(call_count(
            "core.marshal:pack", "core.marshal:marshal_invocation",
            "core.marshal:marshal_result")),
        "core.marshal.bytes_packed_per_request": per_request(sum(
            traced["bytes"].get(key, 0) for key in (
                "core.marshal:pack", "core.marshal:marshal_invocation",
                "core.marshal:marshal_result"))),
        "gns.resolves_per_request": per_request(counts["gns.resolves"]),
        "gns.resolver_hit_ratio": _ratio(counts["gns.resolver_hits"],
                                         counts["gns.resolver_lookups"]),
        "gns.resolve_sim_ms_p50": percentile(resolve_ms, 50),
        "gls.lookups_per_request": per_request(counts["gls.lookups"]),
        "gls.node_requests_per_lookup": _ratio(counts["gls.node_lookups"],
                                               counts["gls.lookups"]),
        "gls.lookup_sim_ms_p50": percentile(lookup_ms, 50),
        "gls.lookup_sim_ms_p99": percentile(lookup_ms, 99),
        "gdn.cache.hit_ratio": _ratio(
            counts["cache.hits"],
            counts["cache.hits"] + counts["cache.misses"]),
        "gdn.cache.coalesced_per_miss": _ratio(counts["cache.coalesced"],
                                               counts["cache.misses"]),
        "gdn.cache.upstream_lookups_per_request":
            per_request(counts["cache.upstream_lookups"]),
        "gdn.cache.stale_served": counts["cache.stale_served"],
        "core.runtime.binds_per_request": per_request(counts["runtime.binds"]),
        "core.runtime.binding_reuse_ratio":
            1.0 - _ratio(counts["runtime.binds"], bind_calls)
            if bind_calls else 0.0,
        "gdn.httpd.rebinds_per_request": per_request(counts["httpd.binds"]),
        "gdn.httpd.errors": counts["httpd.errors"],
        "gos.invocations_per_request": per_request(
            call_count("gos:_handle_dso_message")),
        "gos.checkpoints_per_write": _ratio(
            call_count("gos:_checkpoint_one"), writes),
        "core.replication.state_pushes_per_write": _ratio(
            call_count("core.replication:_push_one"), writes),
        "core.replication.snapshot_bytes_per_write": _ratio(
            traced["bytes"].get("core.replication:_snapshot", 0), writes),
        "core.replication.push_failures":
            counts["replication.push_failures"],
        "core.replication.remote_reads_per_request":
            per_request(counts["replication.remote_reads"]),
        "security.tls.records_per_request":
            per_request(counts["tls.records"]),
        # Both ends of a handshake build a SecureChannel.
        "security.tls.handshakes": counts["tls.channels"] / 2.0,
        "workloads.issued": drive.issued,
        "workloads.completed": drive.ok + drive.failed,
        "setup.publish_host_ms_per_package": _ratio(publish_s * 1e3,
                                                    packages),
    }
    self_s = dict(traced["self"])
    self_s["setup"] = setup_s
    busy = sum(value for layer, value in self_s.items() if layer != "setup")
    for layer in LAYERS:
        out[layer + ".host_us_per_request"] = per_request(self_s[layer] * 1e6)
        out[layer + ".host_share"] = (0.0 if layer == "setup"
                                      else _ratio(self_s[layer], busy))
    out["trace.spans_per_request"] = per_request(len(spans))
    return out
