"""Shared helpers for the test suite: fakes and sample DSO semantics."""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
from typing import Any, Dict, Generator, List, Optional

from repro.core.idl import mutating, read_only
from repro.core.ids import ObjectId
from repro.core.subobjects import SemanticsSubobject
from repro.sim.topology import Topology


class FakeLocationService:
    """In-memory stand-in for the Globe Location Service.

    Implements the interface the runtime and object servers consume
    (``lookup`` / ``register`` / ``unregister`` as generators), keeping
    contact addresses in insertion order unless a ``sort_site`` is
    given, in which case lookups are nearest-first like the real GLS.
    """

    def __init__(self, world=None, sort_site=None):
        self.world = world
        self.sort_site = sort_site
        self.records: Dict[str, List[dict]] = {}
        self._counter = itertools.count(1)

    def register(self, oid_hex: Optional[str], ca_wire: dict
                 ) -> Generator[object, object, str]:
        if oid_hex is None:
            oid_hex = ObjectId.from_seed(
                "fake-gls-%d" % next(self._counter)).hex
        existing = self.records.setdefault(oid_hex, [])
        if ca_wire not in existing:
            existing.append(ca_wire)
        return oid_hex
        yield  # pragma: no cover - no simulated delay in the fake

    def unregister(self, oid_hex: str, ca_wire: dict) -> Generator:
        addresses = self.records.get(oid_hex, [])
        if ca_wire in addresses:
            addresses.remove(ca_wire)
        return None
        yield  # pragma: no cover

    def lookup(self, oid_hex: str) -> Generator[object, object, List[dict]]:
        wires = list(self.records.get(oid_hex, []))
        if self.sort_site is not None and self.world is not None:
            def distance(wire):
                site = self.world.topology.site(wire["site"])
                return Topology.separation(self.sort_site, site)
            wires.sort(key=distance)
        return wires
        yield  # pragma: no cover


class KvStore(SemanticsSubobject):
    """A small key/value semantics subobject used across the tests."""

    def __init__(self):
        self.data: Dict[str, str] = {}

    @mutating
    def put(self, key: str, value: str) -> None:
        self.data[key] = value

    @mutating
    def delete(self, key: str) -> bool:
        return self.data.pop(key, None) is not None

    @read_only
    def get(self, key: str) -> Optional[str]:
        return self.data.get(key)

    @read_only
    def size(self) -> int:
        return len(self.data)

    @read_only
    def keys(self) -> List[str]:
        return sorted(self.data)

    def snapshot_state(self) -> dict:
        return {"data": dict(self.data)}

    def restore_state(self, state: dict) -> None:
        self.data = dict(state["data"])


class GlobeBed:
    """A ready-made world with repository, fake GLS and object servers.

    Used by core/GOS integration tests; the full-stack deployments in
    ``repro.gdn.deployment`` replace the fakes with real services.
    """

    def __init__(self, topology=None, seed=5):
        from repro.core.repository import (Implementation,
                                           ImplementationRepository)
        from repro.sim.world import World

        self.world = World(topology=topology or Topology.balanced(2, 2, 2, 2),
                           seed=seed)
        self.gls = FakeLocationService(self.world)
        self.repository = ImplementationRepository(self.world)
        self.repository.register(Implementation("test.kv", KvStore,
                                                code_size=10_000))
        self.disk = None

    def register_counter(self):
        from repro.core.repository import Implementation
        self.repository.register(Implementation("test.counter", Counter,
                                                code_size=5_000))

    def gos(self, name, site, port=7100, **kwargs):
        from repro.gos.persistence import DiskStore
        from repro.gos.server import GlobeObjectServer

        if self.disk is None:
            self.disk = DiskStore()
        host = self.world.host(name, site)
        server = GlobeObjectServer(self.world, host, self.repository,
                                   self.gls, port=port, disk=self.disk,
                                   **kwargs)
        server.start()
        return server

    def runtime(self, host_name, site):
        from repro.core.runtime import Runtime

        host = self.world.host(host_name, site)
        return Runtime(self.world, host, self.gls, self.repository)

    def run(self, generator, host=None, limit=1e6):
        """Run a generator as a process and return its value."""
        process = (host.spawn(generator) if host is not None
                   else self.world.sim.process(generator))
        return self.world.run_until(process, limit=limit)


class Counter(SemanticsSubobject):
    """A counter whose state is tiny but whose ops are meaningful."""

    def __init__(self):
        self.count = 0

    @mutating
    def increment(self, by: int = 1) -> int:
        self.count += by
        return self.count

    @read_only
    def value(self) -> int:
        return self.count

    def snapshot_state(self) -> dict:
        return {"count": self.count}

    def restore_state(self, state: dict) -> None:
        self.count = state["count"]


class PerCallTimerPool:
    """Reference deadline pool: one dedicated kernel timer per deadline.

    The guard discipline the deadline pools (:mod:`repro.sim.deadlines`)
    must be indistinguishable from: ``add`` arms its own
    :class:`~repro.sim.kernel.Timeout` (drawing its sequence number at
    exactly the point a pool reserves one) and ``cancel`` withdraws it.
    Same ``add``/``cancel`` surface as both pools -- ``delay`` is the
    fixed delay of a FIFO pool or the per-entry delay of an ordered
    one -- so it drops in as ``client.deadline_pool`` or beside a pool
    in a comparison.
    """

    def __init__(self, sim, delay: Optional[float] = None, expire=None):
        self.sim = sim
        self.delay = delay
        self._expire = expire if expire is not None else (lambda cb: cb())

    def add(self, payload, delay: Optional[float] = None):
        timer = self.sim.timeout(self.delay if delay is None else delay)
        timer.add_callback(lambda _event: self._expire(payload))
        return timer

    def cancel(self, timer) -> bool:
        return timer.cancel()


# -- golden digests -----------------------------------------------------------
#
# A golden pins a deterministic run as one sha256 digest committed in
# ``tests/goldens.json``: a refactor that claims to keep behaviour
# byte-identical must leave every digest unchanged.  Only a
# deliberate, reviewed behaviour change edits that file (a failing
# check prints the new digest).

GOLDENS_PATH = pathlib.Path(__file__).with_name("goldens.json")


def digest(payload: Any) -> str:
    """sha256 of the canonical JSON of ``payload`` (sorted keys, compact
    separators; floats print by ``repr``, so equal digests mean
    bit-equal values)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest(stats, sim, meter, count_events: bool = True,
               **extra: Any) -> str:
    """Digest of one driven run: the :class:`LoadStats` summary and
    latency-histogram state, the simulated clock, the traffic-meter
    snapshot and (unless ``count_events`` is off) the kernel event
    count, plus any ``extra`` fields.

    ``count_events=False`` is for goldens shared by engines that
    observe the same run through a different number of kernel events
    (a cohort multiplexing its clients' timers, for instance)."""
    payload = {"summary": stats.summary(),
               "latency": stats.latency.state(),
               "now": sim.now,
               "traffic": meter.snapshot()}
    if count_events:
        payload["events"] = sim.events_processed
    payload.update(extra)
    return digest(payload)


def check_golden(name: str, value: str) -> None:
    """Assert ``value`` equals the committed golden ``name``."""
    goldens = json.loads(GOLDENS_PATH.read_text())
    assert goldens.get(name) == value, \
        "golden %r is %s, the run gave %s" % (name, goldens.get(name), value)
