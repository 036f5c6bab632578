"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/diff.py BASE_DIR NEW_DIR

Each directory holds the ``*.json`` records ``run.py`` writes to its
``--record-dir`` (one per run; run each side with several seeds).  For
every workload the command prints, per end-to-end metric, each side's
median and quartiles, the change of the median and whether it is
within the bound ``BENCHMARK.json`` fixes for that metric.  From the
traced records it lists the per-layer metrics that moved: those whose
median changed by more than the base side's own quartile spread, or
by any amount when every base run read the same value (a count).  It
exits 1 when an end-to-end median is worse than its bound allows.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles  # noqa: E402

#: A relative change below this is printed as no change.
_EPSILON = 1e-12


def load(directory: pathlib.Path) -> Dict[tuple, List[dict]]:
    """(workload, trace) -> records found in ``directory``."""
    records: Dict[tuple, List[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if not {"workload", "trace", "metrics"} <= set(record):
            continue
        records.setdefault((record["workload"], record["trace"]),
                           []).append(record)
    return records


def _values(records: List[dict], name: str) -> List[float]:
    return [record["metrics"][name]["value"] for record in records
            if name in record["metrics"]]


def _bounds(root: pathlib.Path) -> Dict[str, dict]:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {entry["name"]: entry for entry in spec.get("end_to_end", [])}


def _change(base: float, new: float) -> float:
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - base) / abs(base)


def compare_end_to_end(base: List[dict], new: List[dict],
                       bounds: Dict[str, dict]) -> List[str]:
    """Print the end-to-end table; return the metrics past their bound."""
    regressions = []
    names = sorted({name for record in base + new
                    for name in record["metrics"]})
    print("  %-30s %-34s %-34s %9s  %s"
          % ("metric", "base q1 / median / q3", "new q1 / median / q3",
             "change", "verdict"))
    for name in names:
        old_values, new_values = _values(base, name), _values(new, name)
        if not old_values or not new_values:
            continue
        b1, b2, b3 = quartiles(old_values)
        n1, n2, n3 = quartiles(new_values)
        change = _change(b2, n2)
        verdict = ""
        spec = bounds.get(name)
        if spec is not None:
            higher = spec["better"] == "higher"
            worse = -change if higher else change
            spread = (b3 - b1) / abs(b2) if b2 else 0.0
            all_better = (min(new_values) > max(old_values) if higher
                          else max(new_values) < min(old_values))
            if worse > spec["bound"]:
                verdict = "WORSE than bound %.2f" % spec["bound"]
                regressions.append(name)
            elif abs(change) <= _EPSILON:
                verdict = "unchanged"
            elif spread > spec["bound"] and not all_better:
                verdict = "unresolved (base spread %.2f > bound)" % spread
            elif abs(change) <= spread:
                verdict = "within base spread"
            elif worse > 0:
                verdict = "worse, within bound"
            else:
                verdict = "better"
        print("  %-30s %10.4g %10.4g %10.4g   %10.4g %10.4g %10.4g   "
              "%+8.2f%%  %s" % (name, b1, b2, b3, n1, n2, n3,
                                100 * change, verdict))
    return regressions


def compare_layers(base: List[dict], new: List[dict]) -> None:
    moved = []
    names = sorted({name for record in base + new
                    for name in record["metrics"]})
    for name in names:
        old_values, new_values = _values(base, name), _values(new, name)
        if not old_values or not new_values:
            continue
        b1, b2, b3 = quartiles(old_values)
        _n1, n2, _n3 = quartiles(new_values)
        if abs(n2 - b2) > max(b3 - b1, _EPSILON * max(abs(b2), 1.0)):
            moved.append((name, b2, n2))
    print("  per-layer metrics that moved (%d of %d):"
          % (len(moved), len(names)))
    for name, old, new_value in moved:
        print("    %-48s %12.4g -> %-12.4g (%+.1f%%)"
              % (name, old, new_value, 100 * _change(old, new_value)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args(argv)
    for directory in (args.base, args.new):
        if not directory.is_dir():
            print("diff: %s is not a directory" % directory,
                  file=sys.stderr)
            return 2
    base, new = load(args.base), load(args.new)
    bounds = _bounds(HERE.parent)
    regressions = []
    for workload in sorted({key[0] for key in base} | {key[0] for key in new}):
        print("== %s" % workload)
        plain = (base.get((workload, 0), []), new.get((workload, 0), []))
        if all(plain):
            print("  end to end: %d base runs, %d new runs"
                  % (len(plain[0]), len(plain[1])))
            regressions.extend("%s/%s" % (workload, name) for name in
                               compare_end_to_end(*plain, bounds))
        traced = (base.get((workload, 1), []), new.get((workload, 1), []))
        if all(traced):
            print("  traced: %d base runs, %d new runs"
                  % (len(traced[0]), len(traced[1])))
            compare_layers(*traced)
    if regressions:
        print("worse than the bound: %s" % ", ".join(regressions))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
