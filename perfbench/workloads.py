"""The benchmark's three workloads, built on the public repro API.

Each workload is a class whose instance is one *round*: ``setup()``
builds a fresh :class:`~repro.gdn.deployment.GdnDeployment`, publishes
its catalogue and warms it; ``drive()`` runs one fixed-size drive in
simulated time and returns a :class:`Drive` with everything the
metrics and the correctness checks need.  A round depends only on the
seed, so two rounds at one seed give byte-identical simulated results.

* ``hot_release`` -- closed-loop flash crowd on one new 8 KB package.
  Access-point HTTPDs sit at GOS-less sites, bindings expire every
  second and the GLS lookup cache is on, so the cache absorbs almost
  every location lookup and the small-message request path (kernel,
  transport, RPC, GNS, HTTPD) does the work.
* ``long_tail`` -- open-loop Poisson reads over a catalogue of a few
  hundred master/slave packages (Zipf alpha 0.6, 1-64 KB files) on a
  wider topology with ~2% datagram loss at COUNTRY/REGION level.
  Short binding and cache TTLs keep the lookup cache in its miss
  regime, so GNS resolution and the GLS tree walk (with real retries
  and deadline expiries) do the work.
* ``update_mix`` -- a ``secure=True`` deployment where a maintainer
  commits new file versions for ~10% of operations while browsers
  read through HTTPDs with short-TTL caching representatives: TLS
  records, master write-apply + state push, checkpoint-on-write and
  whole-state marshalling are only exercised here.
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, List, Optional, Tuple

from repro.gdn.deployment import GdnDeployment
from repro.gdn.scenario import ReplicationScenario
from repro.sim.deadlines import shared_pool
from repro.sim.network import LinkParameters
from repro.sim.topology import Level, Topology
from repro.workloads.cohort import CohortScenario
from repro.workloads.loadgen import LoadStats, PoissonSchedule
from repro.workloads.packages import synthetic_file
from repro.workloads.scenario import OpenLoopScenario, RequestMix

from pace import PROBE_EVERY_S, Pacer

__all__ = ["Drive", "WORKLOADS"]

#: Every workload draws link delays with this much jitter, so simulated
#: latency is a distribution (without it every request on one path
#: takes exactly the same simulated time).
JITTER = 0.2
#: Simulated seconds the world runs after a drive so asynchronous work
#: (state pushes, late retransmissions, guard deadlines of abandoned
#: attempts) finishes before the drained-pool checks look.
SETTLE_S = 30.0


class Drive:
    """What one measured drive produced."""

    def __init__(self, pacer: Pacer):
        self.issued = 0
        self.ok = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}
        #: simulated latency of every completed operation, seconds,
        #: from its scheduled arrival instant.
        self.latencies: List[float] = []
        #: the same, split into browser reads and maintainer writes.
        self.read_latencies: List[float] = []
        self.write_latencies: List[float] = []
        #: simulated instants: the drive's start, each completion, and
        #: the latest scheduled arrival (throughput while load was
        #: offered).
        self.started = 0.0
        self.completions: List[float] = []
        self.last_arrival = 0.0
        self.sim_elapsed = 0.0
        #: host clock and pace probes of the timed drive (set-up and
        #: settling excluded), probed as operations complete.
        self.pacer = pacer
        self.wide_area_bytes = 0
        #: every successful read: (package, issue time, version read).
        self.reads: List[Tuple[int, float, int]] = []
        #: ``update_mix`` writes: package -> [(issue time, commit time,
        #: package version the write returned, version index written)].
        self.commits: Dict[int, List[Tuple[float, float, int, int]]] = {}
        #: bodies that matched no published version of their package.
        self.bad_bodies = 0
        #: drain state after the drive (see checks.py).
        self.shared_pool_live = 0
        self.client_pools_live = 0
        self.stale_timers = 0


class _Workload:
    """One round: a fresh deployment at ``seed``, set up then driven."""

    name = ""

    def __init__(self, seed: int, instances, paced: bool = True):
        self.seed = seed
        #: ``probes.Instances`` gathering components built during
        #: ``setup`` (the drained-pool check needs every RPC client).
        self.instances = instances
        self.gdn: Optional[GdnDeployment] = None
        self.browser_for = None
        # Traced and profiled rounds probe only at the ends of a timed
        # stretch, so no probe lands inside a span.
        every_s = PROBE_EVERY_S if paced else math.inf
        self.drive_result = Drive(Pacer(every_s))
        #: package index -> {body bytes: version index}
        self.versions: Dict[int, Dict[bytes, int]] = {}
        #: host seconds spent publishing the catalogue during setup
        self.publish_s = 0.0
        #: host clock and pace probes of ``setup``, which calls
        #: ``tick`` between its steps; started and stopped by the caller.
        self.setup_pacer = Pacer(every_s)
        self.tick = self.setup_pacer.tick

    # -- shared helpers --------------------------------------------------

    def _rng(self, label: str) -> random.Random:
        return self.gdn.world.rng_for("perfbench-%s-%s" % (self.name, label))

    def _publish(self, publication, moderator) -> None:
        """Run the catalogue publication, timing it on the host clock
        (probing left out)."""
        self.tick()
        probing = self.setup_pacer.probing_s
        started = time.perf_counter()
        self.gdn.run(publication, host=moderator.host)
        self.publish_s = (time.perf_counter() - started
                          - (self.setup_pacer.probing_s - probing))
        self.tick()

    def _record_read(self, package: int, body, issued_at: float) -> bool:
        version = self.versions[package].get(body)
        if version is None:
            self.drive_result.bad_bodies += 1
            return False
        self.drive_result.reads.append((package, issued_at, version))
        self.drive_result.read_latencies.append(self.gdn.world.sim.now
                                                - issued_at)
        return True

    def _drive(self, scenario, operation) -> Drive:
        """Run ``scenario`` with ``operation(arrival)`` (a generator
        returning True on success) as its request, timing every
        success from its scheduled arrival instant."""
        world = self.gdn.world
        sim = world.sim
        drive = self.drive_result
        latencies = drive.latencies
        completions = drive.completions
        tick = drive.pacer.tick

        def request(arrival):
            if arrival.time > drive.last_arrival:
                drive.last_arrival = arrival.time
            succeeded = yield from operation(arrival)
            if succeeded:
                latencies.append(sim.now - arrival.time)
                completions.append(sim.now)
                tick()
            return succeeded

        stats = LoadStats(registry=world.metrics, prefix="perfbench")
        wide_before = world.network.meter.wide_area_bytes(Level.REGION)
        drive.started = sim.now
        drive.pacer.start()
        elapsed = self.gdn.run(
            scenario.drive(sim, request, rng=self._rng("drive"),
                           stats=stats),
            limit=1e9)
        drive.pacer.stop()
        drive.issued = stats.issued
        drive.ok = stats.ok
        drive.failed = stats.failed
        drive.errors = dict(stats.errors)
        drive.sim_elapsed = elapsed
        drive.wide_area_bytes = (world.network.meter.wide_area_bytes(
            Level.REGION) - wide_before)
        return drive

    def settle(self) -> None:
        """Close the browsers, let asynchronous work finish and record
        whether every deadline pool drained."""
        world = self.gdn.world
        drive = self.drive_result
        self.browser_for.close()
        self.gdn.settle(SETTLE_S)
        drive.shared_pool_live = shared_pool(world.sim).live
        drive.client_pools_live = sum(
            client.deadline_pool.live
            for client in self.instances.of("UdpRpcClient")
            if client.deadline_pool is not None)
        drive.stale_timers = world.sim.stale_timer_count


class HotRelease(_Workload):
    """Flash crowd on one freshly published 8 KB package."""

    name = "hot_release"
    PACKAGE = "/apps/devel/HotRelease"
    FILE = "release.tar.gz"
    SIZE = 8_000
    CLIENTS = 100_000
    #: ~1k simulated requests/s from 10^5 users.
    THINK_S = 100.0
    DURATION_S = 5.0
    #: replicas in three of the four countries: a quarter of the
    #: readers are served across the wide area.
    REPLICAS = 3

    def setup(self) -> None:
        topology = Topology.balanced(regions=2, countries=2, cities=1,
                                     sites=2)
        gdn = GdnDeployment(topology=topology, seed=self.seed,
                            secure=False, gls_cache=True,
                            link_params=LinkParameters(
                                jitter_fraction=JITTER))
        self.gdn = gdn
        gos_names = []
        for index, region in enumerate(topology.world.children.values()):
            for c_index, country in enumerate(region.children.values()):
                sites = list(country.sites())
                if len(gos_names) < self.REPLICAS:
                    gos_names.append("gos-%d-%d" % (index, c_index))
                    gdn.add_gos(gos_names[-1], sites[0])
                # One access point per country, at a GOS-less site, as
                # a pure client proxy (no caching representative): every
                # read is forwarded to the nearest replica, which for
                # the replica-less country's readers is in another
                # country of the region (wide area).
                gdn.add_httpd("httpd-%d-%d" % (index, c_index),
                              site=sites[1], binding_ttl=1.0,
                              cache_policy=lambda _name: None)
        gdn.initial_sync()
        self.tick()
        moderator = gdn.add_moderator("mod", topology.sites[1])
        body = synthetic_file("hot-release-%d" % self.seed, self.SIZE)
        self.versions[0] = {body: 0}

        def publish():
            yield from moderator.create_package(
                self.PACKAGE, {self.FILE: body},
                ReplicationScenario.master_slave(
                    gos_names[0], gos_names[1:], cache_ttl=600.0))

        self._publish(publish(), moderator)
        gdn.settle(5.0)
        self.tick()
        self.browser_for = gdn.browser_pool("bench")
        browser_for = self.browser_for

        def warm():
            for site in gdn.world.topology.sites:
                self.tick()
                response = yield from browser_for(site).download(
                    self.PACKAGE, self.FILE)
                if not response.ok:
                    raise RuntimeError("warm-up download failed: %r"
                                       % response)
        gdn.run(warm())

    def drive(self) -> Drive:
        world = self.gdn.world
        browser_for = self.browser_for

        def one_request(arrival):
            response = yield from browser_for(arrival.site).download(
                self.PACKAGE, self.FILE)
            return response.ok and self._record_read(0, response.body,
                                                     arrival.time)

        scenario = CohortScenario(self.CLIENTS, self.THINK_S,
                                  duration=self.DURATION_S,
                                  sites=world.topology.sites,
                                  label=self.name)
        return self._drive(scenario, one_request)


class LongTail(_Workload):
    """Cold binds over a large catalogue on lossy wide-area links."""

    name = "long_tail"
    PACKAGES = 300
    ALPHA = 0.6
    LOSS = 0.02
    RATE = 300.0
    REQUESTS = 3_000
    FILE = "dist.tar.gz"
    #: binding / caching-representative / lookup-cache lifetime: far
    #: below the per-package inter-arrival time at any one HTTPD, so
    #: nearly every request re-resolves its binding.
    TTL_S = 0.5

    def setup(self) -> None:
        topology = Topology.balanced(regions=3, countries=2, cities=1,
                                     sites=2)
        params = LinkParameters(
            loss={Level.COUNTRY: self.LOSS, Level.REGION: self.LOSS},
            jitter_fraction=JITTER)
        gdn = GdnDeployment(topology=topology, seed=self.seed,
                            secure=False, batch_window=2.0,
                            gls_cache={"ttl": self.TTL_S},
                            link_params=params)
        self.gdn = gdn
        gos_names = []
        for index, region in enumerate(topology.world.children.values()):
            countries = list(region.children.values())
            gos_names.append("gos-%d" % index)
            gdn.add_gos(gos_names[-1], next(countries[0].sites()))
            for c_index, country in enumerate(countries):
                gdn.add_httpd("httpd-%d-%d" % (index, c_index),
                              site=list(country.sites())[1],
                              binding_ttl=self.TTL_S,
                              cache_policy=lambda _name: self.TTL_S)
        gdn.initial_sync()
        self.tick()
        moderator = gdn.add_moderator("mod", topology.sites[1])
        # The catalogue's size layout is fixed (not drawn from the
        # seed), so bytes per request vary only with the drawn requests.
        sizes = random.Random(0x6D5)
        self.names = ["/apps/tail/Pkg%03d" % index
                      for index in range(self.PACKAGES)]
        files = []
        for index in range(self.PACKAGES):
            size = int(math.exp(sizes.uniform(math.log(1_024),
                                              math.log(65_536))))
            body = synthetic_file("tail-%d-%d" % (self.seed, index), size)
            files.append(body)
            self.versions[index] = {body: 0}

        def publish():
            for index, name in enumerate(self.names):
                self.tick()
                master = index % len(gos_names)
                slaves = [gos for position, gos in enumerate(gos_names)
                          if position != master]
                yield from moderator.create_package(
                    name, {self.FILE: files[index]},
                    ReplicationScenario.master_slave(
                        gos_names[master], slaves, cache_ttl=self.TTL_S))

        self._publish(publish(), moderator)
        gdn.settle(5.0)
        self.tick()
        self.browser_for = gdn.browser_pool("bench")

    def drive(self) -> Drive:
        world = self.gdn.world
        browser_for = self.browser_for
        names = self.names

        def one_request(arrival):
            response = yield from browser_for(arrival.site).download(
                names[arrival.rank], self.FILE)
            return response.ok and self._record_read(
                arrival.rank, response.body, arrival.time)

        scenario = OpenLoopScenario(
            PoissonSchedule(self.RATE), self.REQUESTS,
            sites=world.topology.sites,
            mix=RequestMix(self.PACKAGES, alpha=self.ALPHA),
            label=self.name)
        return self._drive(scenario, one_request)


class UpdateMix(_Workload):
    """Maintainer writes beside browser reads, everything over TLS."""

    name = "update_mix"
    PACKAGES = 12
    #: every tenth operation is a write: a fixed write count keeps the
    #: write-driven figures (state pushes, wide-area bytes) from varying
    #: with a random write share.
    WRITE_EVERY = 10
    RATE = 200.0
    REQUESTS = 3_000
    FILE = "src.tar.gz"
    SIZE = 8_000
    #: caching-representative TTL at the HTTPDs: short, so reads
    #: revalidate (and re-fetch whole-state snapshots) often.
    CACHE_TTL_S = 0.5

    def setup(self) -> None:
        topology = Topology.balanced(regions=3, countries=1, cities=1,
                                     sites=2)
        gdn = GdnDeployment(topology=topology, seed=self.seed,
                            secure=True,
                            link_params=LinkParameters(
                                jitter_fraction=JITTER))
        self.gdn = gdn
        gos_names = []
        for index, region in enumerate(topology.world.children.values()):
            sites = list(region.sites())
            gos_names.append("gos-%d" % index)
            gdn.add_gos(gos_names[-1], sites[0])
            gdn.add_httpd("httpd-%d" % index, site=sites[1],
                          cache_policy=lambda _name: self.CACHE_TTL_S)
        gdn.initial_sync()
        self.tick()
        moderator = gdn.add_moderator("mod", topology.sites[1])
        self.names = ["/apps/src/Lib%02d" % index
                      for index in range(self.PACKAGES)]
        self.oids = []

        def publish():
            for index, name in enumerate(self.names):
                self.tick()
                body = self._content(index, 0)
                self.versions[index] = {body: 0}
                master = index % len(gos_names)
                slaves = [gos for position, gos in enumerate(gos_names)
                          if position != master]
                oid = yield from moderator.create_package(
                    name, {self.FILE: body},
                    ReplicationScenario.master_slave(
                        gos_names[master], slaves,
                        cache_ttl=self.CACHE_TTL_S))
                self.oids.append(oid.hex)

        self._publish(publish(), moderator)
        self.maintainer = gdn.add_maintainer(
            "maint", topology.sites[-1], maintains=self.oids)
        gdn.settle(5.0)
        self.tick()
        self.browser_for = gdn.browser_pool("bench")
        #: per package: versions written so far (index of the next one)
        self.next_version = [1] * self.PACKAGES

    def _content(self, package: int, version: int) -> bytes:
        return synthetic_file("src-%d-%d-v%d" % (self.seed, package,
                                                  version), self.SIZE)

    def drive(self) -> Drive:
        world = self.gdn.world
        sim = world.sim
        browser_for = self.browser_for
        drive = self.drive_result
        maintainer = self.maintainer

        def one_request(arrival):
            package = arrival.rank
            if arrival.index % self.WRITE_EVERY == self.WRITE_EVERY - 1:
                version = self.next_version[package]
                self.next_version[package] += 1
                body = self._content(package, version)
                self.versions[package][body] = version
                returned = yield from maintainer.update_contents(
                    self.names[package], add_files={self.FILE: body})
                drive.commits.setdefault(package, []).append(
                    (arrival.time, sim.now, returned, version))
                drive.write_latencies.append(sim.now - arrival.time)
                return True
            response = yield from browser_for(arrival.site).download(
                self.names[package], self.FILE)
            return response.ok and self._record_read(
                package, response.body, arrival.time)

        scenario = OpenLoopScenario(
            PoissonSchedule(self.RATE), self.REQUESTS,
            sites=world.topology.sites,
            mix=RequestMix(self.PACKAGES, alpha=0.6),
            label=self.name)
        return self._drive(scenario, one_request)


WORKLOADS = {cls.name: cls for cls in (HotRelease, LongTail, UpdateMix)}
