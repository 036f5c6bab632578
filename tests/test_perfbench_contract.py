"""The benchmark's probe points must name real code.

``perfbench/probes.py`` wraps layer entry points by (module, qualified
name) and finds request envelopes and send payloads by argument
position.  The untraced determinism run never installs those wrappers,
so a renamed method or a moved argument would otherwise show up only
in a traced run (``perfbench/run.py --trace 1``).
"""

import importlib.util
import inspect
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

#: The parameter each envelope reader and payload-carrying send must
#: find at the position probes.py reads, by entry-point short name.
EXPECTED_ARGUMENT = {
    "_dispatch": "request",
    "_serve_async": "datagram",
    "_handle_query": "args",
    "send_to": "payload",
    "send": "payload",
}


@pytest.fixture(scope="module")
def probes():
    spec = importlib.util.spec_from_file_location(
        "perfbench_probes", PERFBENCH / "probes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _points(probes):
    for table in (probes.SPAN_POINTS, probes.FACTORY_POINTS,
                  probes.LEAF_POINTS):
        for points in table.values():
            yield from points


def test_every_probe_point_resolves(probes):
    missing = []
    for module_name, qualname in _points(probes):
        try:
            probes._resolve(module_name, qualname)
        except (ImportError, AttributeError) as exc:
            missing.append("%s:%s (%s)" % (module_name, qualname, exc))
    for module_name, class_name in probes.INSTANCE_CLASSES:
        try:
            cls = getattr(probes._module(module_name), class_name)
        except (ImportError, AttributeError) as exc:
            missing.append("%s:%s (%s)" % (module_name, class_name, exc))
            continue
        assert inspect.isclass(cls), (module_name, class_name)
    assert missing == []


class _Argument:
    """Stands in for one positional argument; ``.payload`` is itself,
    so a reader that unwraps a datagram still names the parameter."""

    def __init__(self, name):
        self.name = name
        self.payload = self


def test_envelope_and_payload_positions_name_the_right_argument(probes):
    assert set(probes._SERVED_ENVELOPE) | set(probes._SEND_PAYLOAD_ARG) \
        == set(EXPECTED_ARGUMENT)
    seen = set()
    wrong = []
    for module_name, qualname in _points(probes):
        short = qualname.rsplit(".", 1)[-1]
        if short not in EXPECTED_ARGUMENT:
            continue
        seen.add(short)
        _owner, _attribute, function = probes._resolve(module_name, qualname)
        parameters = list(inspect.signature(function).parameters)
        if short in probes._SERVED_ENVELOPE:
            read = probes._SERVED_ENVELOPE[short](
                tuple(_Argument(name) for name in parameters)).name
        else:
            read = parameters[probes._SEND_PAYLOAD_ARG[short]]
        if read != EXPECTED_ARGUMENT[short]:
            wrong.append("%s:%s reads %r" % (module_name, qualname, read))
    assert wrong == []
    # Every reader names a point that is actually wrapped.
    assert seen == set(EXPECTED_ARGUMENT)
