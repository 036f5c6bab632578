"""Correctness checks on one driven round.

:func:`check_drive` returns the violations it found (empty = passed);
the run command fails on any violation.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

__all__ = ["check_drive", "stale_reads"]


def _write_order_problems(package: int, writes) -> List[str]:
    """Writes to one package must be linearizable: versions distinct,
    and a write issued after another one committed gets a higher
    version.  Concurrent writes (each issued before the other's reply
    arrived) may commit in either order."""
    versions = [version for _i, _c, version, _x in writes]
    if len(set(versions)) != len(versions):
        return ["package %d: two writes returned the same version: %s"
                % (package, sorted(versions))]
    by_commit = sorted(writes, key=lambda write: write[1])
    newest = 0
    position = 0
    for issued, _committed, version, _index in sorted(writes):
        while position < len(by_commit) and by_commit[position][1] < issued:
            newest = max(newest, by_commit[position][2])
            position += 1
        if version <= newest:
            return ["package %d: a write issued at %.6f returned version "
                    "%d, not above the %d committed before it"
                    % (package, issued, version, newest)]
    return []


def check_drive(drive) -> List[str]:
    """Output and accounting checks of one drive (after settling)."""
    problems = []
    if drive.ok + drive.failed != drive.issued:
        problems.append("ok + failed = %d + %d != issued %d"
                        % (drive.ok, drive.failed, drive.issued))
    if drive.bad_bodies:
        problems.append("%d read bodies match no published version"
                        % drive.bad_bodies)
    for package, writes in drive.commits.items():
        problems.extend(_write_order_problems(package, writes))
    written = {package: {0} | {index for _i, _c, _v, index in writes}
               for package, writes in drive.commits.items()}
    for package, _issued_at, index in drive.reads:
        if index not in written.get(package, {0}):
            problems.append("package %d: a read returned version %d, "
                            "which never committed" % (package, index))
            break
    if drive.shared_pool_live:
        problems.append("simulator-wide deadline pool holds %d live "
                        "deadlines after the drive" % drive.shared_pool_live)
    if drive.client_pools_live:
        problems.append("RPC client deadline pools hold %d live deadlines "
                        "after the drive" % drive.client_pools_live)
    if drive.stale_timers:
        problems.append("kernel holds %d stale timers after the drive"
                        % drive.stale_timers)
    return problems


def stale_reads(drive) -> Tuple[int, int]:
    """(stale reads, reads): a read is stale when it was issued after a
    write of its package committed and returned content older than that
    write's package version (the published content counts as 0)."""
    committed: Dict[int, Tuple[List[float], List[int]]] = {}
    returned: Dict[int, Dict[int, int]] = {}
    for package, writes in drive.commits.items():
        times, newest = [], []
        best = 0
        for _issued, when, version, _index in sorted(
                writes, key=lambda write: write[1]):
            best = max(best, version)
            times.append(when)
            newest.append(best)
        committed[package] = (times, newest)
        returned[package] = {index: version
                             for _i, _c, version, index in writes}
    stale = 0
    for package, issued_at, index in drive.reads:
        if package not in committed:
            continue
        times, newest = committed[package]
        position = bisect.bisect_right(times, issued_at)
        if position and returned[package].get(index, 0) \
                < newest[position - 1]:
            stale += 1
    return stale, len(drive.reads)
