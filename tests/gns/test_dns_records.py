"""Unit tests for DNS names, records and zones."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gns.dns.records import (DnsError, ResourceRecord, RRType,
                                   is_subdomain, name_labels, normalize_name,
                                   parent_name)
from repro.gns.dns.zone import Rcode, Zone


# -- names -------------------------------------------------------------------


def test_normalize_lowercases_and_strips():
    assert normalize_name(" Gimp.Apps.GDN.vu.NL. ") == "gimp.apps.gdn.vu.nl"
    assert normalize_name("") == ""
    assert normalize_name(".") == ""


def test_bad_labels_rejected():
    with pytest.raises(DnsError):
        normalize_name("has space.nl")
    with pytest.raises(DnsError):
        normalize_name("under_score.nl")
    with pytest.raises(DnsError):
        normalize_name("x" * 64 + ".nl")
    with pytest.raises(DnsError):
        normalize_name("a..b")


def _reference_normalize_name(name: str) -> str:
    """The per-character label check ``normalize_name`` used to run."""
    name = name.strip().lower().strip(".")
    if not name:
        return ""
    labels = name.split(".")
    for label in labels:
        if not label or len(label) > 63:
            raise DnsError("bad DNS label in %r" % name)
        # Paper §5: DNS restricts name syntax; enforce it here.
        if not all(c.isalnum() or c == "-" for c in label):
            raise DnsError("illegal character in DNS label %r" % label)
    if len(name) > 253:
        raise DnsError("DNS name too long: %r" % name)
    return ".".join(labels)


_NAME_CHARS = "aZ09éÉ٠-_. "
_labels = (st.text(alphabet=_NAME_CHARS.replace(".", ""), max_size=8)
           | st.sampled_from(["-", "--", "-a-", "٠-٩"])
           | st.tuples(st.sampled_from([62, 63, 64]),
                       st.sampled_from("a-é٠_")).map(lambda nc: nc[1] * nc[0]))


def _long_name(length: int, char: str) -> str:
    """A name of exactly ``length`` characters in labels of at most 63."""
    labels = []
    while length > 64:
        labels.append(char * 63)
        length -= 64
    return ".".join(labels + [char * length])


_names = (st.text(alphabet=_NAME_CHARS, max_size=24)
          | st.lists(_labels, max_size=5).map(".".join)
          | st.tuples(st.sampled_from([252, 253, 254]),
                      st.sampled_from("aÉ-٠_")).map(
                          lambda nc: _long_name(*nc)))


def _normalized_or_error(function, name):
    try:
        return ("ok", function(name))
    except DnsError as exc:
        return ("error", str(exc))


@given(_names)
def test_normalize_name_matches_per_character_check(name):
    assert (_normalized_or_error(normalize_name, name)
            == _normalized_or_error(_reference_normalize_name, name))


def test_normalize_name_edge_lengths():
    assert normalize_name("a" * 63) == "a" * 63
    assert normalize_name("---.nl") == "---.nl"
    assert normalize_name("café.٠١.nl") == "café.٠١.nl"
    assert len(normalize_name(_long_name(253, "a"))) == 253
    with pytest.raises(DnsError):
        normalize_name(_long_name(254, "a"))


def test_subdomain_relation():
    assert is_subdomain("a.b.c", "b.c")
    assert is_subdomain("b.c", "b.c")
    assert is_subdomain("anything", "")
    assert not is_subdomain("ab.c", "b.c")
    assert not is_subdomain("b.c", "a.b.c")


def test_labels_and_parent():
    assert name_labels("a.b.c") == ["a", "b", "c"]
    assert name_labels("") == []
    assert parent_name("a.b.c") == "b.c"
    assert parent_name("c") == ""
    with pytest.raises(DnsError):
        parent_name("")


def test_record_wire_round_trip():
    record = ResourceRecord("pkg.gdn.vu.nl", RRType.TXT, 300, "globe-oid=ab")
    assert ResourceRecord.from_wire(record.to_wire()) == record


def test_record_negative_ttl_rejected():
    with pytest.raises(DnsError):
        ResourceRecord("a.nl", RRType.A, -1, "h")


# -- zones -------------------------------------------------------------------


@pytest.fixture
def zone():
    z = Zone("gdn.vu.nl", primary_host="dns-1")
    z.add_record(ResourceRecord("gimp.apps.gdn.vu.nl", RRType.TXT, 300,
                                "globe-oid=aa"))
    z.add_record(ResourceRecord("gimp.apps.gdn.vu.nl", RRType.A, 300, "h1"))
    return z


def test_exact_answer(zone):
    answer = zone.answer("gimp.apps.gdn.vu.nl", RRType.TXT)
    assert answer.rcode == Rcode.NOERROR
    assert answer.answers[0].data == "globe-oid=aa"
    assert answer.authoritative


def test_nxdomain(zone):
    assert zone.answer("nothing.gdn.vu.nl", RRType.TXT).rcode == \
        Rcode.NXDOMAIN


def test_nodata_for_existing_name_wrong_type(zone):
    answer = zone.answer("gimp.apps.gdn.vu.nl", RRType.NS)
    assert answer.rcode == Rcode.NOERROR
    assert answer.answers == []


def test_refused_outside_zone(zone):
    assert zone.answer("other.org", RRType.A).rcode == Rcode.REFUSED


def test_referral_at_zone_cut():
    parent = Zone("nl", primary_host="dns-nl")
    parent.add_record(ResourceRecord("gdn.vu.nl", RRType.NS, 600, "dns-1"))
    answer = parent.answer("gimp.apps.gdn.vu.nl", RRType.TXT)
    assert answer.is_referral
    assert not answer.authoritative
    assert answer.referral[0].data == "dns-1"


def test_cname_returned_for_other_types(zone):
    zone.add_record(ResourceRecord("thegimp.apps.gdn.vu.nl", RRType.CNAME,
                                   300, "gimp.apps.gdn.vu.nl"))
    answer = zone.answer("thegimp.apps.gdn.vu.nl", RRType.TXT)
    assert answer.answers[0].rtype == RRType.CNAME


def test_duplicate_add_is_idempotent(zone):
    before = zone.record_count()
    zone.add_record(ResourceRecord("gimp.apps.gdn.vu.nl", RRType.TXT, 300,
                                   "globe-oid=aa"))
    assert zone.record_count() == before


def test_remove_rrset(zone):
    assert zone.remove_rrset("gimp.apps.gdn.vu.nl", RRType.TXT)
    assert not zone.remove_rrset("gimp.apps.gdn.vu.nl", RRType.TXT)
    assert zone.answer("gimp.apps.gdn.vu.nl", RRType.TXT).answers == []


def test_record_outside_zone_rejected(zone):
    with pytest.raises(DnsError):
        zone.add_record(ResourceRecord("other.org", RRType.A, 300, "h"))


def test_zone_wire_round_trip(zone):
    zone.bump_serial()
    restored = Zone.from_wire(zone.to_wire())
    assert restored.serial == zone.serial
    assert restored.record_count() == zone.record_count()
    assert restored.answer("gimp.apps.gdn.vu.nl", RRType.TXT).answers


def test_serial_bumps_monotonically(zone):
    first = zone.bump_serial()
    second = zone.bump_serial()
    assert second == first + 1
