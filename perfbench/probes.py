"""Outside-in instrumentation of the repro layers.

Nothing here edits ``src/``: every probe wraps a layer's public entry
point (or constructor) on its class or module for the length of one
round and restores the original afterwards.

* :class:`Instances` -- constructor hooks that remember every object
  of the listed classes built during a round, so per-instance counters
  the code already keeps (``UdpRpcClient.retries_sent``,
  ``GlsLookupCache.hits``, ...) can be summed, and the drained-pool
  check can see every RPC client.  Cheap (construction only), so it is
  on in untraced rounds too.
* :class:`Tracer` -- span wrappers around layer entry points.  Most
  entry points are generators driven by the kernel through
  ``yield from``; their wrapper times every resumption, which gives
  the span's **host busy time**, and records the simulated-clock
  interval from first call to return (**simulated duration**).  Busy
  time of a callee is subtracted from the frame that was running when
  it ran, giving per-layer **self time**; the kernel's entry points are
  the outermost frames, so time outside every other span is the
  kernel's.  Spans carry name, layer, simulated start and end, parent
  span and a request id, which follows spawned processes and RPC
  request envelopes.  Hot leaf functions (``encoded_size``,
  ``pack``, transport sends) are counted and timed per layer without
  a span record each, which keeps memory bounded.
* :func:`profile_ledger` -- the stdlib ``cProfile`` cross-check:
  self time and call counts rolled up by the same layer names.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import pstats
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Instances", "Tracer", "LAYERS", "layer_of_path",
           "profile_ledger"]

perf_counter = time.perf_counter

#: layer -> entry points wrapped with spans, as (module relative to
#: ``repro``, qualified name).
SPAN_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim.kernel": (("sim.kernel", "Simulator.run"),
                   ("sim.kernel", "Simulator.run_until_complete")),
    "workloads": (("workloads.loadgen", "measured"),),
    "gdn.httpd": (("gdn.httpd", "GdnHttpd._handle_http"),),
    "gns": (("gns.gns", "GlobeNameService.resolve"),
            ("gns.dns.server", "AuthoritativeServer._handle_query")),
    "core.runtime": (("core.runtime", "Runtime.bind"),
                     ("core.local_repr", "LocalRepresentative.invoke"),
                     ("core.local_repr",
                      "LocalRepresentative.handle_message")),
    "gdn.cache": (("gdn.cache", "GlsLookupCache.lookup"),),
    "gls": (("gls.service", "GlsClient.lookup_detailed"),
            ("gls.node", "DirectoryNode._handle_lookup"),
            ("gls.node", "DirectoryNode._handle_lookup_down")),
    "gos": (("gos.server", "GlobeObjectServer._handle_dso_message"),
            ("gos.server", "GlobeObjectServer._checkpoint_one")),
    "core.replication": (
        ("core.replication.master_slave", "MasterSlaveClient.invoke"),
        ("core.replication.master_slave", "MasterSlaveMaster.invoke"),
        ("core.replication.master_slave", "MasterSlaveMaster.handle_message"),
        ("core.replication.master_slave", "MasterSlaveMaster._apply_write"),
        ("core.replication.master_slave", "MasterSlaveMaster._push_one"),
        ("core.replication.master_slave", "MasterSlaveSlave.invoke"),
        ("core.replication.master_slave", "MasterSlaveSlave.handle_message"),
        ("core.replication.cache", "CachingClient.invoke"),
        ("core.replication.cache", "CachingClient.handle_message"),
        ("core.replication.cache", "CachingClient._refresh"),
        ("core.replication.base", "ReplicationSubobject._send"),
    ),
    "sim.rpc": (("sim.rpc", "RpcChannel.call"),
                ("sim.rpc", "UdpRpcClient.call"),
                ("sim.rpc", "RpcServer._dispatch"),
                ("sim.rpc", "UdpRpcServer._serve_async")),
    "security.tls": (("security.tls", "SecureChannel.send"),
                     ("security.tls", "SecureChannel._send_pump"),
                     ("security.tls", "SecureChannel._recv_pump")),
}

#: layer -> factories whose *returned* callable is span-wrapped (the
#: TLS handshakes are closures built when the deployment is wired).
FACTORY_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "security.tls": (("security.tls", "client_wrapper"),
                     ("security.tls", "server_factory")),
}

#: layer -> plain functions counted and timed per call, without span
#: records.
LEAF_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim.serde": (("sim.serde", "encoded_size"),),
    "core.marshal": (("core.marshal", "pack"), ("core.marshal", "unpack"),
                     ("core.marshal", "marshal_invocation"),
                     ("core.marshal", "unmarshal_invocation"),
                     ("core.marshal", "marshal_result"),
                     ("core.marshal", "unmarshal_result")),
    "core.replication": (("core.replication.base",
                          "ReplicationSubobject._snapshot"),),
    "sim.transport": (("sim.transport", "UdpSocket.send_to"),
                      ("sim.transport", "Connection.send")),
    "sim.network": (("sim.network", "Network.deliver"),
                    ("sim.network", "Network.deliver_burst")),
    "sim.deadlines": (("sim.deadlines", "FifoDeadlinePool.add"),
                      ("sim.deadlines", "OrderedDeadlinePool.add"),
                      ("sim.deadlines", "_DeadlinePool.cancel")),
    "sim.retry": (("sim.retry", "FixedRetry.retry_delay"),
                  ("sim.retry", "ExponentialBackoff.retry_delay"),
                  ("sim.retry", "RetryBudget.spend")),
}

#: Sends, by entry-point name: which argument carries the payload.
#: An RPC request envelope sent while a request runs is remembered, so
#: the server that picks it up can take over the request id.
_SEND_PAYLOAD_ARG = {"send_to": 3, "send": 1}
#: Server entry points, by name: how to find the envelope (or its
#: ``args`` dict) they serve from their positional arguments.
_SERVED_ENVELOPE = {
    "_dispatch": lambda args: args[2],            # (self, conn, request)
    "_serve_async": lambda args: args[1].payload,  # (self, datagram, ...)
    "_handle_query": lambda args: args[2],        # (self, ctx, args)
}

#: Leaves whose result length is summed (bytes produced).
BYTE_LEAVES = ("pack", "marshal_invocation", "marshal_result",
               "_snapshot")

#: Layer names, in report order.  ``setup`` has no entry points: it is
#: the round's set-up phase.
LAYERS = ("sim.kernel", "sim.network", "sim.transport", "sim.rpc",
          "sim.serde", "sim.deadlines", "sim.retry", "core.marshal",
          "gns", "gls", "gdn.cache", "core.runtime", "gdn.httpd", "gos",
          "core.replication", "security.tls", "workloads", "setup")

#: Classes whose instances a round remembers: (module, class name).
INSTANCE_CLASSES = (
    ("sim.rpc", "UdpRpcClient"),
    ("sim.rpc", "RpcChannel"),
    ("sim.retry", "RetryBudget"),
    ("security.tls", "SecureChannel"),
    ("core.replication.base", "ReplicationSubobject"),
    ("gls.service", "GlsClient"),
    ("gns.gns", "GlobeNameService"),
    ("gns.dns.resolver", "CachingResolver"),
    ("core.runtime", "Runtime"),
    ("gdn.cache", "GlsLookupCache"),
    ("gdn.httpd", "GdnHttpd"),
    ("gos.server", "GlobeObjectServer"),
)


def _module(name: str):
    __import__("repro." + name)
    return sys.modules["repro." + name]


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original) for ``module:qualname``."""
    owner = _module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


_INHERITED = object()


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attribute: str, value) -> None:
        # An inherited method is shadowed on the subclass, then removed.
        self._undo.append((owner, attribute,
                           vars(owner).get(attribute, _INHERITED)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def _patch_point(patches: _Patches, module_name: str, qualname: str,
                 make_wrapper: Callable, inside: bool = True) -> None:
    """Replace one entry point.  A module-level function is rebound in
    every ``repro`` module that imported it (``from x import f`` copies
    the name); ``inside=False`` leaves the defining module's own calls
    unwrapped, so recursion and same-module helpers (``marshal_result``
    -> ``pack``) are measured once, at the layer boundary."""
    owner, attribute, original = _resolve(module_name, qualname)
    wrapper = make_wrapper(original)
    if owner is not _module(module_name):
        patches.set(owner, attribute, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or (
                not inside and name == "repro." + module_name):
            continue
        for global_name, value in list(vars(module).items()):
            if value is original:
                patches.set(module, global_name, wrapper)


class Instances:
    """Constructor hooks remembering every object of
    :data:`INSTANCE_CLASSES` built while installed."""

    def __init__(self):
        self.by_class: Dict[str, list] = {name: []
                                          for _m, name in INSTANCE_CLASSES}
        self._patches = _Patches()

    def install(self) -> "Instances":
        for module_name, class_name in INSTANCE_CLASSES:
            cls = getattr(_module(module_name), class_name)
            original = cls.__init__
            bucket = self.by_class[class_name]

            def init(self_, *args, _original=original, _bucket=bucket,
                     **kwargs):
                _original(self_, *args, **kwargs)
                _bucket.append(self_)

            functools.update_wrapper(init, original)
            self._patches.set(cls, "__init__", init)
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def of(self, class_name: str) -> list:
        return self.by_class[class_name]

    def total(self, class_name: str, attribute: str) -> int:
        return sum(getattr(obj, attribute, 0)
                   for obj in self.by_class[class_name])


# -- spans -----------------------------------------------------------------

class _Frame:
    """A running leaf call: its layer and its callees' busy time."""

    __slots__ = ("layer", "child_busy")

    def __init__(self, layer: str):
        self.layer = layer
        self.child_busy = 0.0


class Span(_Frame):
    """One call of a span-wrapped entry point."""

    __slots__ = ("span_id", "name", "parent", "request", "sim_start",
                 "sim_end", "busy")

    def __init__(self, span_id, layer, name, parent, request, sim_start):
        super().__init__(layer)
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.sim_start = sim_start
        self.sim_end = None
        self.busy = 0.0

    def to_json(self) -> dict:
        return {"id": self.span_id, "layer": self.layer, "name": self.name,
                "parent": self.parent, "request": self.request,
                "sim_start": self.sim_start, "sim_end": self.sim_end,
                "busy_us": round(self.busy * 1e6, 3),
                "self_us": round((self.busy - self.child_busy) * 1e6, 3)}


class Tracer:
    """Span wrappers, per-layer leaf counters and request tracking.

    Install it before the deployment is built: servers register bound
    handler methods when they start, so a wrapper must already be in
    place to be captured.  Assign :attr:`sim` (the round's simulator)
    to stamp spans in simulated time, and call :meth:`mark` when the
    measured drive starts; :meth:`since_mark` then gives the drive's
    share of every accumulator.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = {}      # "layer:name" -> calls
        self.bytes: Dict[str, int] = {}      # "layer:name" -> bytes out
        self.layer_self: Dict[str, float] = {layer: 0.0
                                             for layer in LAYERS}
        self.sim = None
        self._stack: List[_Frame] = []
        self._next_id = 0
        #: request id of the code now running (None = background work)
        self._request: Optional[int] = None
        self._requests_started = 0
        self._process = None                 # the process being resumed
        self._process_request: Dict[int, Optional[int]] = {}
        #: id(RPC request envelope) -> (envelope, request id)
        self._in_flight: Dict[int, Tuple[dict, int]] = {}
        self._mark: Optional[dict] = None
        self._patches = _Patches()

    # -- installation -------------------------------------------------

    def install(self) -> "Tracer":
        for layer, points in SPAN_POINTS.items():
            for module_name, qualname in points:
                name = qualname.rsplit(".", 1)[-1]
                _patch_point(self._patches, module_name, qualname,
                             lambda original, layer=layer, name=name:
                             self._span_wrapper(layer, name, original))
        for layer, points in FACTORY_POINTS.items():
            for module_name, qualname in points:
                name = qualname.rsplit(".", 1)[-1]
                _patch_point(self._patches, module_name, qualname,
                             lambda original, layer=layer, name=name:
                             self._factory(layer, name, original))
        for layer, points in LEAF_POINTS.items():
            for module_name, qualname in points:
                name = qualname.rsplit(".", 1)[-1]
                _patch_point(self._patches, module_name, qualname,
                             lambda original, layer=layer, name=name:
                             self._leaf(layer, name, original),
                             inside=False)
        self._install_request_tracking()
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def _install_request_tracking(self) -> None:
        """A process spawned while a request runs belongs to it, and
        resuming a process restores the request it belongs to."""
        kernel = _module("sim.kernel")
        process_cls = kernel.Process
        pending = kernel._PENDING
        original_init = process_cls.__init__
        original_step = process_cls._step
        owner = self._process_request
        tracer = self

        def init(process, sim, generator):
            owner[id(process)] = tracer._request
            original_init(process, sim, generator)

        def step(process, event):
            saved = tracer._request, tracer._process
            tracer._request = owner.get(id(process))
            tracer._process = process
            try:
                original_step(process, event)
            finally:
                tracer._request, tracer._process = saved
                if process._value is not pending:
                    owner.pop(id(process), None)

        self._patches.set(process_cls, "__init__", init)
        self._patches.set(process_cls, "_step", step)

    def _adopt(self, request: Optional[int]) -> None:
        """Make ``request`` the current one, for this process too."""
        self._request = request
        if self._process is not None:
            self._process_request[id(self._process)] = request

    def _note_send(self, payload) -> None:
        """Remember which request sent an RPC request envelope (and its
        ``args`` dict, which plain-function handlers receive)."""
        if self._request is not None and type(payload) is dict \
                and "method" in payload:
            self._in_flight[id(payload)] = (payload, self._request)
            args = payload.get("args")
            if type(args) is dict:
                self._in_flight[id(args)] = (args, self._request)

    def _adopt_sender(self, envelope) -> None:
        """A server picking up ``envelope`` works for its sender."""
        entry = self._in_flight.pop(id(envelope), None)
        if entry is not None and entry[0] is envelope:
            self._adopt(entry[1])

    # -- accounting -------------------------------------------------------

    def _account(self, frame: _Frame, elapsed: float) -> None:
        """Charge ``elapsed`` host seconds run by ``frame`` (already
        popped): to its layer, and out of its caller's self time."""
        layer_self = self.layer_self
        layer_self[frame.layer] += elapsed
        stack = self._stack
        if stack:
            caller = stack[-1]
            caller.child_busy += elapsed
            layer_self[caller.layer] -= elapsed

    def _open(self, layer: str, name: str) -> Span:
        stack = self._stack
        if layer == "workloads":
            # One request = one `measured` call: a fresh request id,
            # owned by the process that runs it until the call ends.
            self._requests_started += 1
            self._adopt(self._requests_started)
        self._next_id += 1
        parent = None
        for frame in reversed(stack):
            if type(frame) is Span:
                parent = frame.span_id
                break
        span = Span(self._next_id, layer, name, parent, self._request,
                    self.sim.now if self.sim is not None else 0.0)
        self.spans.append(span)
        key = layer + ":" + name
        self.calls[key] = self.calls.get(key, 0) + 1
        return span

    def _close(self, span: Span) -> None:
        span.sim_end = self.sim.now if self.sim is not None else 0.0

    def _span_wrapper(self, layer: str, name: str, original) -> Callable:
        if inspect.isgeneratorfunction(original):
            return self._generator_span(layer, name, original)
        return self._call_span(layer, name, original)

    def _generator_span(self, layer: str, name: str, original) -> Callable:
        tracer = self
        stack = self._stack
        account = self._account
        served = _SERVED_ENVELOPE.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer_request = tracer._request
            if served is not None:
                # A per-request server process: it keeps the request.
                tracer._adopt_sender(served(args))
            span = tracer._open(layer, name)
            generator = original(*args, **kwargs)
            value = None
            error = None
            while True:
                stack.append(span)
                finished = True
                started = perf_counter()
                try:
                    if error is not None:
                        target = generator.throw(error)
                    else:
                        target = generator.send(value)
                    finished = False
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = perf_counter() - started
                    stack.pop()
                    span.busy += elapsed
                    account(span, elapsed)
                    if finished:
                        tracer._close(span)
                        if layer == "workloads":
                            tracer._adopt(outer_request)
                try:
                    value = yield target
                    error = None
                except BaseException as exc:  # thrown in: pass through
                    value = None
                    error = exc

        return wrapper

    def _factory(self, layer: str, name: str, original) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._span_wrapper(layer, name,
                                      original(*args, **kwargs))

        return wrapper

    def _call_span(self, layer: str, name: str, original) -> Callable:
        tracer = self
        stack = self._stack
        account = self._account
        served = _SERVED_ENVELOPE.get(name)
        payload_arg = _SEND_PAYLOAD_ARG.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer_request = tracer._request
            if served is not None:
                # An inline handler in a long-lived server loop: the
                # request is borrowed for this call only.
                tracer._adopt_sender(served(args))
            if payload_arg is not None:
                tracer._note_send(args[payload_arg])
            span = tracer._open(layer, name)
            stack.append(span)
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                span.busy += elapsed
                account(span, elapsed)
                tracer._close(span)
                if served is not None:
                    tracer._adopt(outer_request)

        return wrapper

    def _leaf(self, layer: str, name: str, original) -> Callable:
        tracer = self
        key = layer + ":" + name
        calls = self.calls
        calls[key] = 0
        byte_counts = self.bytes
        counts_bytes = name in BYTE_LEAVES
        if counts_bytes:
            byte_counts[key] = 0
        payload_arg = _SEND_PAYLOAD_ARG.get(name)
        stack = self._stack
        account = self._account

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if payload_arg is not None:
                tracer._note_send(args[payload_arg])
            frame = _Frame(layer)
            stack.append(frame)
            started = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                account(frame, elapsed)
            if counts_bytes:
                byte_counts[key] += len(result)
            return result

        return wrapper

    # -- reading ---------------------------------------------------------

    def mark(self) -> None:
        """Start of the measured drive: later deltas count from here."""
        self._mark = {"calls": dict(self.calls), "bytes": dict(self.bytes),
                      "self": dict(self.layer_self),
                      "spans": len(self.spans)}

    def since_mark(self) -> dict:
        """The drive's calls, bytes, per-layer self seconds and spans."""
        mark = self._mark or {"calls": {}, "bytes": {}, "self": {},
                              "spans": 0}
        return {
            "calls": {key: value - mark["calls"].get(key, 0)
                      for key, value in self.calls.items()},
            "bytes": {key: value - mark["bytes"].get(key, 0)
                      for key, value in self.bytes.items()},
            "self": {layer: value - mark["self"].get(layer, 0.0)
                     for layer, value in self.layer_self.items()},
            "spans": self.spans[mark["spans"]:],
        }


# -- cProfile ledger -------------------------------------------------------

#: (path fragment, layer): the first fragment contained in a profiled
#: function's file path names its layer.
_PATH_LAYERS = (
    ("repro/sim/kernel.py", "sim.kernel"),
    ("repro/sim/network.py", "sim.network"),
    ("repro/sim/transport.py", "sim.transport"),
    ("repro/sim/rpc.py", "sim.rpc"),
    ("repro/sim/serde.py", "sim.serde"),
    ("repro/sim/deadlines.py", "sim.deadlines"),
    ("repro/sim/retry.py", "sim.retry"),
    ("repro/core/marshal.py", "core.marshal"),
    ("repro/gns/", "gns"),
    ("repro/gls/", "gls"),
    ("repro/gdn/cache.py", "gdn.cache"),
    ("repro/core/runtime.py", "core.runtime"),
    ("repro/core/local_repr.py", "core.runtime"),
    ("repro/core/subobjects.py", "core.runtime"),
    ("repro/gdn/httpd.py", "gdn.httpd"),
    ("repro/gos/", "gos"),
    ("repro/core/replication/", "core.replication"),
    ("repro/security/", "security.tls"),
    ("repro/workloads/", "workloads"),
    # The browsers and the benchmark's request functions run inside
    # the workload driver's `measured` spans.
    ("repro/gdn/browser.py", "workloads"),
    ("perfbench/workloads.py", "workloads"),
)


def layer_of_path(path: str) -> str:
    """The layer a source file belongs to (``other`` outside them)."""
    path = path.replace("\\", "/")
    for fragment, layer in _PATH_LAYERS:
        if fragment in path:
            return layer
    return "other"


def profile_ledger(run: Callable[[], object]) -> Tuple[object, Dict]:
    """Run ``run()`` under cProfile; return (its result, ledger).

    The ledger maps layer -> {"self_s", "calls"}: self time and call
    counts of the functions whose file belongs to the layer.  Builtins
    and the standard library have no layer of their own; their self
    time is charged to the layers of their callers, in proportion to
    the time each caller spent in them."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    ledger: Dict[str, Dict[str, float]] = {}

    def charge(layer: str, seconds: float, calls: int) -> None:
        entry = ledger.setdefault(layer, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += seconds
        entry["calls"] += calls

    for (path, _line, _func), (_cc, calls, self_s, _cum, callers) \
            in stats.items():
        layer = layer_of_path(path)
        if layer != "other" or not callers:
            charge(layer, self_s, calls)
            continue
        charge(layer, 0.0, calls)
        for (caller_path, _l, _f), caller_stats in callers.items():
            charge(layer_of_path(caller_path), caller_stats[2], 0)
    return result, ledger
