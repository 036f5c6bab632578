"""The GDN benchmark: one workload per invocation.

    python3 perfbench/run.py --workload hot_release --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a repository checkout; the simulator is imported
from ``src/``.  ``--trace 0`` measures end to end with tracing off: it
repeats *rounds* (set-up of a fresh deployment at the seed, then one
fixed-size drive) until ``--seconds`` have passed, takes host-clock
figures as medians over the rounds, rescaled to a reference host by
pace probes taken while they ran (``pace.py``), and simulated figures
from the drives, which must agree byte for byte.  ``--trace 1`` runs an
untraced round, a span-traced round and a cProfile round and reports
the per-layer figures (see ``layers.py``).

``--workload all`` runs every workload in turn, each in a process of
its own, and fails if any of them does.

Every run checks the outputs (``checks.py``), prints a report with
each metric's unit and sample count, writes a full record to
``--record-dir`` (spans too, when traced), and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 if any
check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# The benchmark's other modules import ``repro``, so they are imported
# inside functions, after use_sources() has put src/ on the path.

#: A run makes at least this many rounds, whatever ``--seconds`` says,
#: so host-clock figures are medians of several samples.
MIN_ROUNDS = 3
MAX_ROUNDS = 40

#: End-to-end metrics of ``--trace 0``: (name, unit, better).  Those
#: defined on every workload form the JSON result; the rest are
#: printed and recorded (the raw host-clock figures swing with the
#: host, error_ratio is 0 on a healthy run, and the write and
#: staleness figures exist only on update_mix).
END_TO_END = (
    ("requests_per_ref_s", "req/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_latency_p50_ms", "ms", "lower"),
    ("sim_latency_p99_ms", "ms", "lower"),
    ("sim_throughput_rps", "ops/s", "higher"),
    ("wide_area_bytes_per_request", "B", "lower"),
)
REPORTED_ONLY = (
    ("requests_per_wall_s", "req/s", "higher"),
    ("setup_host_s", "s", "lower"),
    ("error_ratio", "ratio", "lower"),
    ("sim_write_latency_p50_ms", "ms", "lower"),
    ("sim_write_latency_p99_ms", "ms", "lower"),
    ("stale_read_ratio", "ratio", "lower"),
)

#: Span-share and cProfile-share of one layer disagree "badly" when the
#: larger is at least this share of host time ...
FLAG_MIN_SHARE = 0.05
#: ... and the smaller is under this fraction of the larger.
FLAG_RATIO = 0.5


def use_sources() -> bool:
    """Put the checkout's ``src/`` (and this directory) on the import
    path; False, with a message, when the sources are missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: no simulator sources at %s; run from the root of "
              "a repository checkout" % src, file=sys.stderr)
        return False
    sys.path[:0] = [str(src), str(HERE)]
    return True


class Round:
    """One set-up plus one drive, and everything measured about it."""

    def __init__(self, workload_name: str, seed: int, mode: str):
        from checks import check_drive
        from layers import delta, snapshot
        from probes import Instances, Tracer, profile_ledger
        from workloads import WORKLOADS

        self.mode = mode
        self.traced: Optional[dict] = None
        self.ledger: Optional[Dict] = None
        gc.collect()
        instances = Instances().install()
        tracer = Tracer().install() if mode == "trace" else None
        try:
            workload = WORKLOADS[workload_name](seed, instances,
                                                paced=mode == "plain")
            pacer = workload.setup_pacer.start()
            workload.setup()
            pacer.stop()
            #: set-up time on the reference host, and on this one
            self.setup_s = pacer.reference_s
            self.setup_host_s = pacer.host_s
            self.publish_s = workload.publish_s
            self.packages = len(workload.versions)
            before = snapshot(workload, instances)
            if tracer is not None:
                tracer.sim = workload.gdn.world.sim
                tracer.mark()
            if mode == "profile":
                drive, self.ledger = profile_ledger(workload.drive)
            else:
                drive = workload.drive()
            if tracer is not None:
                self.traced = tracer.since_mark()
            self.counts = delta(snapshot(workload, instances), before)
            workload.settle()
        finally:
            if tracer is not None:
                tracer.uninstall()
            instances.uninstall()
        self.drive = drive
        self.problems = check_drive(drive)
        self.digest = _digest(drive, self.counts)

    @property
    def requests_per_ref_s(self) -> float:
        return self.drive.ok / self.drive.pacer.reference_s

    @property
    def requests_per_wall_s(self) -> float:
        return self.drive.ok / self.drive.pacer.host_s


def _digest(drive, counts: Dict[str, float]) -> str:
    """Hash of everything simulated about a drive: equal digests mean
    byte-identical simulated results."""
    state = {
        "issued": drive.issued, "ok": drive.ok, "failed": drive.failed,
        "errors": sorted(drive.errors.items()),
        "latencies": [repr(value) for value in drive.latencies],
        "write_latencies": [repr(value) for value in drive.write_latencies],
        "sim_elapsed": repr(drive.sim_elapsed),
        "wide_area_bytes": drive.wide_area_bytes,
        "reads": drive.reads,
        "commits": sorted((package, writes) for package, writes
                          in drive.commits.items()),
        "counts": sorted(counts.items()),
    }
    return hashlib.sha256(json.dumps(state, default=repr).encode()
                          ).hexdigest()


def sim_metrics(drive) -> Dict[str, tuple]:
    """Simulated end-to-end figures of one drive: name -> (value, n)."""
    from checks import stale_reads
    from stats import percentile

    # Browser reads only: update_mix's writes take a few hundred ms
    # more, and with them in, p99 would sit on the edge between the
    # write tail and the read tail and jump with the seed.  Writes
    # have figures of their own.
    latencies_ms = [value * 1e3 for value in drive.read_latencies]
    n = len(latencies_ms)
    offered = drive.last_arrival - drive.started
    served = sum(1 for when in drive.completions
                 if when <= drive.last_arrival)
    out = {
        "sim_latency_p50_ms": (percentile(latencies_ms, 50), n),
        "sim_latency_p99_ms": (percentile(latencies_ms, 99), n),
        # Completions while load was still being offered, per simulated
        # second of that window (a straggler's tail does not dilute it).
        "sim_throughput_rps": (served / offered if offered > 0 else 0.0,
                               served),
        "error_ratio": (drive.failed / drive.issued, drive.issued),
        "wide_area_bytes_per_request":
            (drive.wide_area_bytes / drive.issued, drive.issued),
    }
    if drive.write_latencies:
        writes_ms = [value * 1e3 for value in drive.write_latencies]
        out["sim_write_latency_p50_ms"] = (percentile(writes_ms, 50),
                                           len(writes_ms))
        out["sim_write_latency_p99_ms"] = (percentile(writes_ms, 99),
                                           len(writes_ms))
        stale, reads = stale_reads(drive)
        out["stale_read_ratio"] = (stale / reads if reads else 0.0, reads)
    return out


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_json(path: pathlib.Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def _rounds_problems(rounds: List[Round]) -> List[str]:
    problems = []
    for index, one in enumerate(rounds):
        problems.extend("round %d (%s): %s" % (index, one.mode, problem)
                        for problem in one.problems)
        if one.digest != rounds[0].digest:
            problems.append("round %d (%s) is not byte-identical to round "
                            "0 in simulated results" % (index, one.mode))
    return problems


def run_untraced(args) -> dict:
    rounds: List[Round] = []
    started = time.perf_counter()
    rounds.append(Round(args.workload, args.seed, "plain"))
    # The process's peak after one round: later rounds only repeat it,
    # and how many fit in --seconds depends on the machine's speed.
    peak_rss_mb = _peak_rss_mb()
    while len(rounds) < MIN_ROUNDS or (
            time.perf_counter() - started < args.seconds
            and len(rounds) < MAX_ROUNDS):
        rounds.append(Round(args.workload, args.seed, "plain"))
    first = rounds[0].drive
    n = len(rounds)
    metrics: Dict[str, tuple] = {
        "requests_per_ref_s": (statistics.median(
            [r.requests_per_ref_s for r in rounds]), n),
        "setup_s": (statistics.median([r.setup_s for r in rounds]), n),
        "peak_rss_mb": (peak_rss_mb, 1),
        "requests_per_wall_s": (statistics.median(
            [r.requests_per_wall_s for r in rounds]), n),
        "setup_host_s": (statistics.median(
            [r.setup_host_s for r in rounds]), n),
    }
    metrics.update(sim_metrics(first))
    return {
        "rounds": rounds,
        "metrics": metrics,
        "problems": _rounds_problems(rounds),
        "attempted": sum(r.drive.issued for r in rounds),
        "failed": sum(r.drive.failed for r in rounds),
    }


def _flagged(span_share: Dict[str, float],
             profile_share: Dict[str, float]) -> List[str]:
    flagged = []
    for layer, share in span_share.items():
        other = profile_share.get(layer, 0.0)
        larger, smaller = max(share, other), min(share, other)
        if larger >= FLAG_MIN_SHARE and smaller < FLAG_RATIO * larger:
            flagged.append(layer)
    return flagged


def run_traced(args) -> dict:
    from layers import LAYERS, layer_metrics

    started = time.perf_counter()
    plain = [Round(args.workload, args.seed, "plain")]
    traced = Round(args.workload, args.seed, "trace")
    profiled = Round(args.workload, args.seed, "profile")
    # Spend what is left of the run refining the untraced baseline.
    while (time.perf_counter() - started < args.seconds
           and len(plain) < MAX_ROUNDS):
        plain.append(Round(args.workload, args.seed, "plain"))
    rounds = plain + [traced, profiled]
    untraced_wall = statistics.median([r.drive.pacer.host_s
                                       for r in plain])
    values = layer_metrics(traced.counts, traced.traced, traced.drive,
                           plain[0].setup_host_s, plain[0].publish_s,
                           plain[0].packages)
    span_share = {layer: values[layer + ".host_share"]
                  for layer in LAYERS if layer != "setup"}
    total = sum(entry["self_s"] for entry in profiled.ledger.values())
    profile_share = {layer: entry["self_s"] / total
                     for layer, entry in profiled.ledger.items()}
    flagged = _flagged(span_share, profile_share)
    values["trace.overhead_ratio"] = (traced.drive.pacer.host_s
                                      / untraced_wall)
    values["ledger.flagged_layers"] = len(flagged)
    return {
        "rounds": rounds,
        "traced": traced,
        "layer_values": values,
        "span_share": span_share,
        "profile_share": profile_share,
        "profile_calls": {layer: entry["calls"]
                          for layer, entry in profiled.ledger.items()},
        "flagged": flagged,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced.drive.pacer.host_s,
        "profiled_wall_s": profiled.drive.pacer.host_s,
        "problems": _rounds_problems(rounds),
        "attempted": sum(r.drive.issued for r in rounds),
        "failed": sum(r.drive.failed for r in rounds),
    }


def _print_end_to_end(args, result) -> Dict[str, dict]:
    from stats import percentile

    print("perfbench %s seed=%d: %d rounds, end to end (tracing off)"
          % (args.workload, args.seed, len(result["rounds"])))
    metrics = result["metrics"]
    out = {}
    for name, unit, better in END_TO_END + REPORTED_ONLY:
        if name not in metrics:
            continue
        value, n = metrics[name]
        note = ""
        if name.endswith(("_p99_ms", "_p50_ms")):
            # Samples strictly beyond the reported percentile.
            pct = 99 if name.endswith("_p99_ms") else 50
            samples = (result["rounds"][0].drive.write_latencies
                       if "write" in name
                       else result["rounds"][0].drive.read_latencies)
            cut = percentile(samples, pct)
            note = "  (%d beyond)" % sum(1 for s in samples if s > cut)
        print("  %-30s %14.4f %-6s n=%d  %s-is-better%s"
              % (name, value, unit, n, better, note))
        out[name] = {"value": value, "unit": unit, "n": n}
    return out


def _print_layers(args, result) -> Dict[str, dict]:
    from layers import PER_LAYER, TARGETS

    values = result["layer_values"]
    print("perfbench %s seed=%d: per-layer figures of the traced drive"
          % (args.workload, args.seed))
    out = {}
    for name, unit, _better in PER_LAYER:
        print("  %-48s %14.4f %s" % (name, values[name], unit))
        out[name] = {"value": values[name], "unit": unit}
    print("  tracing overhead: traced drive %.3fs vs untraced %.3fs "
          "(x%.2f); cProfile drive %.3fs"
          % (result["traced_wall_s"], result["untraced_wall_s"],
             values["trace.overhead_ratio"], result["profiled_wall_s"]))
    print("  self-time ledger: layer, span share, cProfile share, "
          "cProfile calls")
    for layer in sorted(set(result["span_share"])
                        | set(result["profile_share"])):
        mark = "  FLAGGED" if layer in result["flagged"] else ""
        print("    %-18s %7.3f %7.3f %10d%s"
              % (layer, result["span_share"].get(layer, 0.0),
                 result["profile_share"].get(layer, 0.0),
                 result["profile_calls"].get(layer, 0), mark))
    print("  layer -> end-to-end metric it should move:")
    for layer, target in TARGETS.items():
        print("    %-18s %s" % (layer, target))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run every "
                             "workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-dir", default=".perfbench/records",
                        help="where the full record of the run is "
                             "written (relative to the checkout root)")
    args = parser.parse_args(argv)

    if not use_sources():
        return 2
    from workloads import WORKLOADS
    if args.workload == "all":
        failed = [name for name in sorted(WORKLOADS) if subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--record-dir", args.record_dir]
        ).returncode != 0]
        if failed:
            print("perfbench: failed: %s" % ", ".join(failed))
        return 1 if failed else 0
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))),
              file=sys.stderr)
        return 2

    record_dir = ROOT / args.record_dir
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        result = run_traced(args)
        metrics = _print_layers(args, result)
        spans_path = record_dir / (stem + "-spans.jsonl")
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with spans_path.open("w") as out:
            for span in result["traced"].traced["spans"]:
                out.write(json.dumps(span.to_json()) + "\n")
        extra = {"span_share": result["span_share"],
                 "profile_share": result["profile_share"],
                 "flagged": result["flagged"],
                 "spans_file": spans_path.name}
    else:
        result = run_untraced(args)
        metrics = _print_end_to_end(args, result)
        extra = {"rounds": [{"setup_s": r.setup_s,
                             "setup_host_s": r.setup_host_s,
                             "requests_per_ref_s": r.requests_per_ref_s,
                             "requests_per_wall_s": r.requests_per_wall_s,
                             "drive_host_s": r.drive.pacer.host_s,
                             "drive_probe_s": [
                                 took for _before, _after, took
                                 in r.drive.pacer.marks]}
                            for r in result["rounds"]]}
    problems = result["problems"]
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    if not problems:
        print("checks passed: every read body is a committed version, "
              "per-package write versions increase in real-time order, "
              "ok + failed == issued, deadline pools drained, no stale "
              "timers, rounds byte-identical")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "correct": not problems,
              "problems": problems, "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics,
              "digest": result["rounds"][0].digest}
    record.update(extra)
    _write_json(record_dir / (stem + ".json"), record)
    summary = {"correct": not problems,
               "attempted": result["attempted"],
               "failed": result["failed"],
               "metrics": {
                   name: {"value": metrics[name]["value"],
                          "unit": metrics[name]["unit"]}
                   for name in (
                       [entry[0] for entry in END_TO_END]
                       if not args.trace else list(metrics))}}
    print(json.dumps(summary))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
