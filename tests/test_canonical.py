"""Canonical encoding: determinism, injectivity, and parser strictness."""

import copy
import dataclasses
import functools
import gc
import hashlib
import re
import sys
import types
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattest import canonical, crypto
from coopattest.attestation import (
    AttributeClaim,
    BlindedAttestation,
    CounterSignedAttestation,
    PlainAttestation,
    SubjectRef,
    _Signed,
    blind,
    canonical_bytes,
    countersign,
)
from coopattest.canonical import (
    MAX_DEPTH,
    Shape,
    canonical_parse,
    canonical_serialize,
    generated_writer,
    record_bytes,
    record_from_map,
    record_shape,
)
from coopattest.cooperative import CooperativeState, IssuanceEntry, MemberRecord
from coopattest.crypto import Digest, Signature, keygen
from coopattest.errors import DecodeError, UnsupportedValue
from coopattest.ledger import AttestationRecord, LedgerRecord, PostRecord, RecordPointer
from coopattest.notary import ArchiveEntry, AuditEntry, NotaryState, RejectionEntry
from coopattest.travel_rule import TravelRuleRecord

from conftest import make_plain, reference_map, reference_value

README = Path(__file__).resolve().parent.parent / "README.md"

# Frozen golden: serialized once at implementation time; any change to these
# bytes is a format break, not a refactor.
GOLDEN_FIXTURE = {
    "name": "fixture-record",
    "flags": [True, False],
    "count": 42,
    "offset": -7,
    "payload": bytes(range(6)),
    "nested": {"z": "last", "a": "first", "empty": {}},
    "items": [{"id": 1, "tag": b"\xff"}, 'text with "quotes" and \\ slash', ""],
    "control": "line1\nline2\ttab",
}
GOLDEN_SHA256 = "9a4e6af984c32a28516fb0b1de7ab87c4040f27651b98eb789a030ec405cf51d"


def test_empty_map_is_two_bytes():
    assert canonical_serialize({}) == b"{}"


def test_key_order_does_not_matter():
    assert canonical_serialize({"b": 1, "a": 2}) == canonical_serialize({"a": 2, "b": 1})


def test_golden_fixture_is_stable():
    data = canonical_serialize(GOLDEN_FIXTURE)
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256
    assert canonical_parse(data) == _listify(GOLDEN_FIXTURE)


def _listify(value):
    # decode() returns lists for all sequences
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_listify(v) for v in value]
    return value


def test_scalar_forms():
    assert canonical_serialize(0) == b"0"
    assert canonical_serialize(-12) == b"-12"
    assert canonical_serialize(True) == b"true"
    assert canonical_serialize(False) == b"false"
    assert canonical_serialize(b"") == b"0x"
    assert canonical_serialize(b"\xde\xad\xbe\xef") == b"0xdeadbeef"
    assert canonical_serialize("") == b'""'


@pytest.mark.parametrize("bad", [1.5, float("nan"), None, {1: "x"}, {"k": object()}, set()])
def test_unsupported_values_rejected(bad):
    with pytest.raises(UnsupportedValue):
        canonical_serialize({"k": bad} if not isinstance(bad, dict) else bad)


canonical_values = st.recursive(
    st.one_of(
        st.booleans(),
        st.integers(),
        st.text(max_size=40),
        st.binary(max_size=40),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)


@given(canonical_values)
@settings(max_examples=200)
def test_roundtrip(value):
    assert canonical_parse(canonical_serialize(value)) == value


@given(canonical_values, canonical_values)
@settings(max_examples=100)
def test_injective(a, b):
    if canonical_serialize(a) == canonical_serialize(b):
        assert a == b


@pytest.mark.parametrize(
    "bad",
    [
        b"",
        b"01",            # leading zero
        b"-0",            # negative zero
        b"0xAB",          # uppercase hex
        b"0xa",           # odd hex length
        b'{"a":1,"a":2}', # duplicate key
        b'{"b":1,"a":2}', # keys out of order
        b'{"a":{"d":1,"c":2}}',  # nested keys out of order
        b'"\\u0041"',     # escape of a character written as itself
        b'"\\u0022"',
        b'"\\u005c"',
        b"1 2",           # trailing data
        b'"\\u00AB"',     # uppercase hex in escape
        b'"\\ud800"',     # surrogate
        b'"\\q"',         # unknown escape
        b'"' + bytes([0x01]) + b'"',  # raw control char
        b"[1,2",          # unterminated
        b"{",
        b"truthy",
        b"0x_",
        b'{"a" 1}',
    ],
)
def test_parser_rejects_non_canonical(bad):
    with pytest.raises(DecodeError):
        canonical_parse(bad)


def test_unsorted_key_error_names_the_key_and_its_offset():
    with pytest.raises(DecodeError, match=r"map key 'a' at byte 7 does not come after 'b'"):
        canonical_parse(b'{"b":1,"a":2}')
    # The order is by code point, so a hand-formatted file fails the same way.
    with pytest.raises(DecodeError, match=r"map key 'Z' at byte 14"):
        canonical_parse(b'{\n  "a": 1,\n  "Z": 2\n}')


@pytest.mark.parametrize("data, error", [
    ('{"é":1,"a":2}', "map key 'a' at byte 8 does not come after 'é' in code-point order"),
    ('["é",1 2]', "expected ',' or ']' at byte 7"),
    ('"é" 1', "trailing data at byte 5"),
    ('["é",01]', "expected ',' or ']' at byte 7"),
    ('["é",' + "[" * 70, "nesting too deep at byte 69"),
    ('["日本",0x1]', "odd-length hex in byte-string at byte 10"),
    ('{"𝄞":"\x01"}', "raw control character in text at byte 9"),
    ('["é",\x0c]', "unexpected b'\\x0c' at byte 6"),
])
def test_an_error_after_multi_byte_text_names_its_byte_offset(data, error):
    # A character of U+0080 and beyond is 2 to 4 bytes; offsets count bytes.
    with pytest.raises(DecodeError, match=f"^{re.escape(error)}$"):
        canonical_parse(data.encode())


def test_parser_tolerates_whitespace_between_tokens():
    assert canonical_parse(b' { "a" : [ 1 , 2 ] ,\n "b" : 0x00 } ') == {"a": [1, 2], "b": b"\x00"}


def test_whitespace_inside_text_is_significant():
    assert canonical_parse(b'" a "') == " a "


# --- the encoder against the per-character reference ---------------------------

def reference_serialize(value) -> bytes:
    """The encoder as first written: one Python step per character, keys
    sorted by their UTF-8 bytes.  Kept here only, as the oracle for the
    encoder in ``canonical``."""
    parts: list[str] = []
    _reference_emit(value, parts)
    return "".join(parts).encode("utf-8")


def _reference_emit(value, out):
    if isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, str):
        _reference_text(value, out)
    elif isinstance(value, (bytes, bytearray)):
        out.append("0x")
        out.append(bytes(value).hex())
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _reference_emit(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value, key=lambda k: k.encode("utf-8"))):
            if i:
                out.append(",")
            _reference_text(key, out)
            out.append(":")
            _reference_emit(value[key], out)
        out.append("}")
    else:
        raise TypeError(type(value).__name__)


def _reference_text(text, out):
    out.append('"')
    for ch in text:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')


# Characters where escaping or ordering could go wrong: the escaped set, its
# neighbours, and code points whose UTF-16 order differs from their UTF-8
# (= code-point) order: U+E000..U+FFFF sort above surrogate pairs in UTF-16.
_EDGE_CHARS = ('"\\\x00\x01\x1f\x20\x7f\x80\xe9\u07ff\u0800\ud7ff\ue000\uffff'
               '\U00010000\U0001f600\U0010ffff')
text_values = st.one_of(st.text(max_size=12), st.text(alphabet=_EDGE_CHARS, max_size=12))
domain_values = st.recursive(
    st.one_of(st.booleans(), st.integers(), text_values, st.binary(max_size=12),
              st.binary(max_size=12).map(bytearray)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(text_values, children, max_size=6),
    ),
    max_leaves=20,
)


@given(domain_values)
@settings(max_examples=200)
def test_encoder_matches_reference(value):
    assert canonical_serialize(value) == reference_serialize(value)


def test_key_order_is_utf8_not_utf16():
    keys = ["\uffff", "\U00010000", "", "a", '"', "\\", "\x00"]
    value = dict.fromkeys(keys, 0)
    data = canonical_serialize(value)
    assert data == reference_serialize(value)
    assert data.index("\uffff".encode()) < data.index("\U00010000".encode())


@pytest.mark.parametrize("bad", [
    "\ud800",
    "ok\udfffok",
    ["x", "\udc00"],
    {"\ud800": 1},
    {"a": {"b\udbff": True}},
    {"\ud800": 1, "\U00010000": 2},
])
def test_lone_surrogates_are_unsupported(bad):
    with pytest.raises(UnsupportedValue):
        canonical_serialize(bad)


def test_keys_needing_escapes_encode_as_the_reference():
    value = {'a"b': 1, "c\\d": 2, "\x00\x1f": 3, "tab\there": 4}
    for _ in range(2):
        assert canonical_serialize(value) == reference_serialize(value)


def test_keys_past_the_key_table_bound_still_encode():
    keys = [f"key-{i}\\" for i in range(5000)]
    for key in keys + keys[:100]:
        assert canonical_serialize({key: 0}) == reference_serialize({key: 0})


def test_lone_surrogate_key_fails_on_every_encode():
    for _ in range(2):
        with pytest.raises(UnsupportedValue):
            canonical_serialize({"ok\udc80": 1})


def test_a_str_subclass_key_is_refused():
    class Key(str):
        def __str__(self):
            return "other"

        def __hash__(self):
            return hash("plain")

        def __eq__(self, other):
            return True

    assert canonical_serialize({"plain": 1}) == b'{"plain":1}'
    for key in (Key('k"'), Key("j")):
        with pytest.raises(UnsupportedValue, match="^map keys must be text, got Key$"):
            canonical_serialize({key: 1})
    assert canonical_serialize({"plain": 1}) == b'{"plain":1}'


def test_a_subclass_of_a_domain_type_is_refused():
    """Only the domain's own types encode: an IntEnum is not an int, nor a
    str subclass text, wherever it sits."""
    import enum

    class Level(enum.IntEnum):
        HIGH = 3

    class Name(str):
        pass

    class Items(list):
        pass

    for value, name in ((Level.HIGH, "Level"), (Name('a"b'), "Name"), (Items([1]), "Items"),
                        ({"k": [1, Level.HIGH]}, "Level"), ([Name("k")], "Name")):
        with pytest.raises(UnsupportedValue, match=f"^cannot canonically serialize {name}$"):
            canonical_serialize(value)


def test_an_attestation_encodes_as_its_own_text(issuer, notary_key):
    blinded = blind(make_plain(issuer), SubjectRef.handle("@sender"), issuer)
    csa = countersign(blinded, notary_key, "notary-1", 11)
    body = {"attestation": csa, "blinded": [blinded], "n": 1}
    assert canonical_serialize(csa) == canonical_bytes(csa) == csa._canonical_text.encode()
    assert canonical_serialize(body) == canonical_serialize(reference_value(body))


@pytest.mark.parametrize("value", [
    keygen(b"seed"),
    RecordPointer("L1", 0),
    memoryview(bytes(32)),
    {"pointers": [RecordPointer("L1", 0)]},
], ids=["KeyPair", "record", "memoryview", "record in a map"])
def test_objects_other_than_attestations_are_unsupported(value):
    with pytest.raises(UnsupportedValue):
        canonical_serialize(value)


class TestFieldReference:
    """The README's field reference lists exactly the declared fields of
    every record class, with their wire types and signature coverage."""

    RECORDS = {
        PlainAttestation: "plain", BlindedAttestation: "blinded",
        CounterSignedAttestation: "countersigned", LedgerRecord: "ledger record",
        SubjectRef: "subject", AttributeClaim: "attribute claim", Signature: "signature",
        RecordPointer: "record pointer", AttestationRecord: "attestation payload",
        PostRecord: "post payload",
        CooperativeState: "cooperative state", MemberRecord: "member",
        IssuanceEntry: "issuance", NotaryState: "notary state", ArchiveEntry: "archive entry",
        AuditEntry: "audit entry", RejectionEntry: "rejection entry",
        TravelRuleRecord: "travel record",
    }
    SCALARS = {str: "text", int: "integer", bytes: "bytes", Digest: "digest", dict: "map"}

    def type_name(self, tp) -> str:
        if tp in self.SCALARS:
            return self.SCALARS[tp]
        if tp in self.RECORDS:
            return self.RECORDS[tp]
        origin, args = typing.get_origin(tp), typing.get_args(tp)
        if type(None) in args:
            (tp,) = [arg for arg in args if arg is not type(None)]
            return self.type_name(tp)
        if origin is tuple and args[1:] == (Ellipsis,):
            return "list of " + self.type_name(args[0])
        if origin is frozenset:
            return "sorted list of " + self.type_name(args[0])
        if origin is dict:
            return f"map of {self.type_name(args[0])} to {self.type_name(args[1])}"
        return " or ".join(self.type_name(member) for member in args)

    @staticmethod
    def optional_mark(f, tp) -> str:
        if f.default is f.default_factory is dataclasses.MISSING:
            return ""
        return " (optional, written when set)" if type(None) in typing.get_args(tp) else " (optional)"

    def declared_rows(self) -> dict:
        rows = {}
        for cls, record in self.RECORDS.items():
            unsigned = getattr(cls, "_UNSIGNED", None)
            hints = typing.get_type_hints(cls)
            fields = [(f.metadata.get("key", f.name),
                       self.type_name(hints[f.name]) + self.optional_mark(f, hints[f.name]))
                      for f in dataclasses.fields(cls)]
            if hasattr(cls, "_KIND"):
                fields.insert(0, ("kind", f'"{cls._KIND}"'))
            for key, type_name in fields:
                signed = "—" if unsigned is None else "no" if key in unsigned else "yes"
                rows[record, key] = (type_name, signed)
        return rows

    @staticmethod
    def readme_rows() -> dict:
        text = README.read_text(encoding="utf-8")
        section = text.split("### Field reference", 1)[1].split("\n#", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
            if len(cells) == 4 and cells[1] != "key" and not cells[0].startswith("-"):
                rows[cells[0], cells[1]] = (cells[2], cells[3])
        return rows

    def test_readme_matches_declarations(self):
        assert self.readme_rows() == self.declared_rows()

    def test_declared_keys_are_the_encoded_keys(self, issuer, notary_key):
        blinded = blind(make_plain(issuer), SubjectRef.handle("@sender"), issuer)
        csa = countersign(blinded, notary_key, "notary-1", 11)
        declared = self.declared_rows()
        for artifact, record in ((blinded, "blinded"), (csa, "countersigned")):
            assert set(canonical_parse(canonical_serialize(artifact))) == {
                k for r, k in declared if r == record}


# --- strict parsing: only canonical bytes parse, whitespace aside ----------------

@st.composite
def maps_with_two_keys_swapped(draw):
    """The bytes of a canonical map with at least two keys, written with two
    of its entries swapped, at the top level or inside a list or map."""
    entries = draw(st.dictionaries(text_values, domain_values, min_size=2, max_size=6))
    keys = sorted(entries)
    i, j = draw(st.lists(st.integers(0, len(keys) - 1), min_size=2, max_size=2, unique=True))
    keys[i], keys[j] = keys[j], keys[i]
    data = b"{" + b",".join(canonical_serialize(key) + b":" + canonical_serialize(entries[key])
                            for key in keys) + b"}"
    return draw(st.sampled_from([data, b"[1," + data + b"]", b'{"outer":' + data + b"}"]))


@given(maps_with_two_keys_swapped())
@settings(max_examples=200)
def test_swapping_two_keys_makes_parsing_fail(data):
    with pytest.raises(DecodeError):
        canonical_parse(data)


# Lexemes, canonical or nearly so, to join at random.
_TOKENS = [b"{", b"}", b"[", b"]", b",", b":", b'""', b'"a"', b'"b"', '"é"'.encode(),
           b'"\\""', b'"\\\\"', b'"\\u0000"', b'"\\u001f"', b'"\\u0020"', b'"\\u0041"',
           b'"\\u00e9"', b"0x", b"0xab", b"0xAB", b"0", b"1", b"-1", b"01", b"-0", b"true",
           b"false"]


@st.composite
def edited_canonical_bytes(draw):
    """Canonical bytes with a few bytes inserted, deleted or changed."""
    data = bytearray(canonical_serialize(draw(domain_values)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(("insert", "delete", "change")))
        byte = draw(st.sampled_from(b'{}[],:"\\0x1-aeftu'))
        if how == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if how == "delete":
                del data[at]
            else:
                data[at] = byte
    return bytes(data)


@given(st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=10).map(b"".join),
                 edited_canonical_bytes(),
                 domain_values.map(canonical_serialize)))
@settings(max_examples=500)
def test_whitespace_free_input_that_parses_is_canonical(raw):
    data = raw.translate(None, b" \t\r\n")
    try:
        value = canonical_parse(data)
    except DecodeError:
        return
    assert canonical_serialize(value) == data


# --- the parser against the per-byte reference --------------------------------

def reference_parse(data):
    """The parser as it was before it scanned whole tokens: one Python step
    per byte.  Kept here only, as the oracle for the parser in ``canonical``.
    It has no nesting bound, so it agrees with that parser on input nested
    no deeper than MAX_DEPTH."""
    parser = _ReferenceParser(data)
    value = parser.parse_value()
    parser.skip_ws()
    if not parser.at_end():
        raise DecodeError(f"trailing data at byte {parser.pos}")
    return value


class _ReferenceParser:
    WHITESPACE = frozenset(b" \t\r\n")
    HEX_DIGITS = frozenset(b"0123456789abcdef")
    DIGITS = frozenset(b"0123456789")

    def __init__(self, data):
        if not isinstance(data, (bytes, bytearray)):
            raise DecodeError("canonical input must be bytes")
        self.data = bytes(data)
        self.pos = 0

    def at_end(self):
        return self.pos >= len(self.data)

    def skip_ws(self):
        while self.pos < len(self.data) and self.data[self.pos] in self.WHITESPACE:
            self.pos += 1

    def fail(self, message):
        return DecodeError(f"{message} at byte {self.pos}")

    def peek(self):
        if self.at_end():
            raise self.fail("unexpected end of input")
        return self.data[self.pos]

    def expect(self, byte):
        if self.at_end() or self.data[self.pos] != byte:
            raise self.fail(f"expected {chr(byte)!r}")
        self.pos += 1

    def parse_value(self):
        self.skip_ws()
        head = self.peek()
        if head == ord("{"):
            return self.parse_map()
        if head == ord("["):
            return self.parse_list()
        if head == ord('"'):
            return self.parse_text()
        if head == ord("t") or head == ord("f"):
            return self.parse_bool()
        if head == ord("0") and self.pos + 1 < len(self.data) and self.data[self.pos + 1] == ord("x"):
            return self.parse_bytes()
        if head == ord("-") or head in self.DIGITS:
            return self.parse_int()
        raise self.fail(f"unexpected byte {chr(head)!r}")

    def parse_map(self):
        self.expect(ord("{"))
        result = {}
        self.skip_ws()
        if not self.at_end() and self.peek() == ord("}"):
            self.pos += 1
            return result
        previous = None
        while True:
            self.skip_ws()
            start = self.pos
            key = self.parse_text()
            if previous is not None and key <= previous:
                raise DecodeError(f"map key {key!r} at byte {start} does not come "
                                  f"after {previous!r} in code-point order")
            previous = key
            self.skip_ws()
            self.expect(ord(":"))
            result[key] = self.parse_value()
            self.skip_ws()
            if self.at_end():
                raise self.fail("unterminated map")
            if self.peek() == ord(","):
                self.pos += 1
                continue
            self.expect(ord("}"))
            return result

    def parse_list(self):
        self.expect(ord("["))
        result = []
        self.skip_ws()
        if not self.at_end() and self.peek() == ord("]"):
            self.pos += 1
            return result
        while True:
            result.append(self.parse_value())
            self.skip_ws()
            if self.at_end():
                raise self.fail("unterminated list")
            if self.peek() == ord(","):
                self.pos += 1
                continue
            self.expect(ord("]"))
            return result

    def parse_text(self):
        self.expect(ord('"'))
        chunks = []
        start = self.pos
        while True:
            if self.at_end():
                raise self.fail("unterminated text")
            byte = self.data[self.pos]
            if byte == ord('"'):
                chunks.append(self._decode_utf8(start, self.pos))
                self.pos += 1
                return "".join(chunks)
            if byte == ord("\\"):
                chunks.append(self._decode_utf8(start, self.pos))
                self.pos += 1
                chunks.append(self._parse_escape())
                start = self.pos
            elif byte < 0x20:
                raise self.fail("raw control character in text")
            else:
                self.pos += 1

    def _decode_utf8(self, start, end):
        try:
            return self.data[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid UTF-8 in text at byte {start}: {exc}") from None

    def _parse_escape(self):
        if self.at_end():
            raise self.fail("unterminated escape")
        byte = self.data[self.pos]
        self.pos += 1
        if byte == ord("\\"):
            return "\\"
        if byte == ord('"'):
            return '"'
        if byte == ord("u"):
            if self.pos + 4 > len(self.data):
                raise self.fail("truncated \\u escape")
            hex_part = self.data[self.pos : self.pos + 4]
            if any(b not in self.HEX_DIGITS for b in hex_part):
                raise self.fail("\\u escape requires four lowercase hex digits")
            self.pos += 4
            code = int(hex_part, 16)
            if code >= 0x20:
                raise self.fail("\\u escape of a character that is written as itself")
            return chr(code)
        raise self.fail(f"unknown escape \\{chr(byte)!r}")

    def parse_bool(self):
        for literal, value in ((b"true", True), (b"false", False)):
            if self.data.startswith(literal, self.pos):
                self.pos += len(literal)
                return value
        raise self.fail("malformed boolean literal")

    def parse_bytes(self):
        self.pos += 2  # consume "0x"
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos] in self.HEX_DIGITS:
            self.pos += 1
        hex_part = self.data[start : self.pos]
        if len(hex_part) % 2 != 0:
            raise self.fail("odd-length hex in byte-string")
        return bytes.fromhex(hex_part.decode("ascii"))

    def parse_int(self):
        start = self.pos
        if self.peek() == ord("-"):
            self.pos += 1
        digit_start = self.pos
        while self.pos < len(self.data) and self.data[self.pos] in self.DIGITS:
            self.pos += 1
        digits = self.data[digit_start : self.pos]
        if not digits:
            raise self.fail("missing digits in integer")
        if len(digits) > 1 and digits[0] == ord("0"):
            raise self.fail("leading zeros in integer")
        if digits == b"0" and self.data[start] == ord("-"):
            raise self.fail("negative zero")
        return int(self.data[start : self.pos])


def strictly_equal(a, b):
    """Equal values of equal types all the way down: ``true`` is not 1, and
    two maps hold their keys in the same order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(strictly_equal, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(strictly_equal(a[key], b[key]) for key in a)
    return a == b


def parse_outcome(parse, data):
    """What *parse* makes of *data*: its value, or DecodeError."""
    try:
        return parse(data)
    except DecodeError:
        return DecodeError


_WHITESPACE_RUNS = st.text(alphabet=" \t\r\n", max_size=3).map(str.encode)


@st.composite
def padded_canonical_bytes(draw, values=domain_values):
    """The canonical bytes of a value drawn from *values* with whitespace
    drawn around each of its tokens: text, whitespace included, stays as it
    is."""
    def ws():
        return draw(_WHITESPACE_RUNS)

    def write(value):
        if isinstance(value, dict):
            parts = [ws() + canonical_serialize(key) + ws() + b":" + ws() + write(value[key])
                     + ws() for key in sorted(value)]
            return b"{" + (b",".join(parts) or ws()) + b"}"
        if isinstance(value, (list, tuple)):
            return b"[" + (b",".join(ws() + write(item) + ws() for item in value) or ws()) + b"]"
        return canonical_serialize(value)

    return ws() + write(draw(values)) + ws()


@given(st.one_of(domain_values.map(canonical_serialize), padded_canonical_bytes()))
@settings(max_examples=300)
def test_parser_matches_reference_on_canonical_input(data):
    assert strictly_equal(canonical_parse(data), reference_parse(data))


# Bytes to put in, each a token's first or last byte, whitespace, a raw
# control, or a byte of a multi-byte or invalid UTF-8 sequence.
_EDIT_BYTES = b'{}[],:"\\0x1-aeftu \n\x01\xc3\xa9\xed\xff'


@st.composite
def edited(draw, base):
    """Bytes of *base* with a few bytes inserted, deleted or changed."""
    data = bytearray(draw(base))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(("insert", "delete", "change")))
        byte = draw(st.sampled_from(_EDIT_BYTES))
        if how == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if how == "delete":
                del data[at]
            else:
                data[at] = byte
    return bytes(data)


@given(st.one_of(st.binary(max_size=40),
                 st.lists(st.sampled_from(_TOKENS + [b" ", b"\n"]), max_size=12).map(b"".join),
                 edited(domain_values.map(canonical_serialize)),
                 edited(padded_canonical_bytes())))
@settings(max_examples=500)
def test_parser_agrees_with_reference_on_any_input(data):
    assert strictly_equal(parse_outcome(canonical_parse, data), parse_outcome(reference_parse, data))


# A value of each scalar type a layout reads: text with escapes now and then.
_SCALAR_VALUES = [st.booleans(), st.integers(), text_values, st.binary(max_size=12)]


@st.composite
def layout_values(draw, maps=1):
    """The strategy of the values under one key of records of one layout: of
    a scalar type, a list of one (empty now and then), or, *maps* deep, a
    map of such values."""
    how = draw(st.sampled_from(["scalar", "list", "map"][:3 if maps else 2]))
    if how == "scalar":
        return draw(st.sampled_from(_SCALAR_VALUES))
    if how == "list":
        return st.lists(draw(st.sampled_from(_SCALAR_VALUES)), max_size=3)
    keys = draw(st.lists(text_values, max_size=3, unique=True))
    return st.fixed_dictionaries({key: draw(layout_values(maps - 1)) for key in keys})


@st.composite
def records_of_one_layout(draw, min_size=3, nested=False):
    """*min_size* or more maps of one drawn layout, keys that need escapes
    among them; with *nested*, it holds a map of scalars and a list of one
    scalar type, else each value may be one."""
    keys = draw(st.lists(text_values, min_size=2 if nested else 1, max_size=5, unique=True))
    values = {key: draw(layout_values()) for key in keys}
    if nested:
        inner = draw(st.lists(text_values, min_size=1, max_size=3, unique=True))
        values[keys[0]] = st.fixed_dictionaries(
            {key: draw(st.sampled_from(_SCALAR_VALUES)) for key in inner})
        values[keys[1]] = st.lists(draw(st.sampled_from(_SCALAR_VALUES)), max_size=3)
    return draw(st.lists(st.fixed_dictionaries(values), min_size=min_size, max_size=12))


@st.composite
def same_layout_lists(draw, nested=False):
    """A list of records of one layout, now and then with an item of another
    shape among them, nested inside other values."""
    value = draw(records_of_one_layout(nested=nested))
    if draw(st.booleans()):
        value.insert(draw(st.integers(0, len(value))), draw(domain_values))
    for _ in range(draw(st.integers(0, 2))):
        value = draw(st.sampled_from([[draw(domain_values), value], {draw(text_values): value}]))
    return value


# Lexemes near the canonical one of each type a layout reads: text with an
# escape, canonical or not, a raw control or a byte that is not UTF-8; an
# integer with a leading zero or sign; a boolean misspelt; hex in capitals or
# of odd length.
_NEAR_LEXEMES = {str: [b'"\\""', b'"\\u0041"', b'"\x01"', b'"\xff"'],
                 int: [b"01", b"-0", b"00", b"+1"],
                 bool: [b"True", b"tru", b"1"],
                 bytes: [b"0xAB", b"0xabc", b"0x0"]}


def _paths(value, path=()):
    """The path of *value* and of each value inside it, map values and list
    items alike."""
    yield path
    for key, item in (value.items() if isinstance(value, dict) else
                      enumerate(value) if isinstance(value, list) else ()):
        yield from _paths(item, (*path, key))


def _written(value, path, data):
    """The canonical bytes of *value* with *data* in place of the value at *path*."""
    if not path:
        return data

    def written(key, item):
        return _written(item, path[1:], data) if key == path[0] else canonical_serialize(item)

    if isinstance(value, dict):
        return b"{" + b",".join(canonical_serialize(key) + b":" + written(key, value[key])
                                for key in sorted(value)) + b"}"
    return b"[" + b",".join(written(i, item) for i, item in enumerate(value)) + b"]"


def _at(value, path):
    """The value at *path* inside *value*."""
    for key in path:
        value = value[key]
    return value


@st.composite
def edited_later_records(draw, nested=False):
    """The canonical bytes of a list of records of one layout, one of them
    changed where the list has learned that layout, from the fifth on, at
    a value inside it, nested or not: a few of its bytes edited, whitespace
    around it, or, for a scalar, a near lexeme of its type."""
    records = draw(records_of_one_layout(5, nested))
    texts = [canonical_serialize(record) for record in records]
    at = draw(st.integers(4, len(records) - 1))
    path = draw(st.sampled_from(list(_paths(records[at]))))
    value = _at(records[at], path)
    hows = ["edit", "whitespace"] + (["near"] if type(value) in _NEAR_LEXEMES else [])
    how = draw(st.sampled_from(hows))
    if how == "edit":
        data = draw(edited(st.just(canonical_serialize(value))))
    elif how == "whitespace":
        data = draw(_WHITESPACE_RUNS) + canonical_serialize(value) + draw(_WHITESPACE_RUNS)
    else:
        data = draw(st.sampled_from(_NEAR_LEXEMES[type(value)]))
    texts[at] = _written(records[at], path, data)
    return b"[" + b",".join(texts) + b"]"


@given(st.one_of(same_layout_lists().map(canonical_serialize),
                 padded_canonical_bytes(same_layout_lists()),
                 edited(same_layout_lists().map(canonical_serialize)),
                 edited_later_records()))
@settings(max_examples=300)
def test_same_layout_lists_parse_as_the_reference(data):
    assert strictly_equal(parse_outcome(canonical_parse, data), parse_outcome(reference_parse, data))


@given(st.one_of(same_layout_lists(nested=True).map(canonical_serialize),
                 padded_canonical_bytes(same_layout_lists(nested=True)),
                 edited_later_records(nested=True)))
@settings(max_examples=300)
def test_records_of_a_nested_form_parse_as_the_reference(data):
    assert strictly_equal(parse_outcome(canonical_parse, data), parse_outcome(reference_parse, data))


def _nested(depth, inner=b"1"):
    """*inner* inside *depth* single-entry maps and lists by turns, the
    innermost a map."""
    data = inner
    for level in range(depth):
        data = b"[" + data + b"]" if level % 2 else b'{"k":' + data + b"}"
    return data


def _depth(value):
    """How many lists and maps *value* nests."""
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, list):
        return 0
    return 1 + max(map(_depth, value), default=0)


def test_nesting_up_to_the_bound_parses():
    for data in (b"[" * MAX_DEPTH + b"]" * MAX_DEPTH, _nested(MAX_DEPTH)):
        value = canonical_parse(data)
        assert _depth(value) == MAX_DEPTH
        assert canonical_serialize(value) == data


@pytest.mark.parametrize("data, at", [
    (b"[" * (MAX_DEPTH + 1) + b"]" * (MAX_DEPTH + 1), MAX_DEPTH),
    (_nested(MAX_DEPTH + 1), _nested(MAX_DEPTH + 1).index(b'{"k":1')),
    (b"[" * 100_000, MAX_DEPTH),
    (b" [" * 100_000, 2 * MAX_DEPTH + 1),
])
def test_nesting_past_the_bound_is_a_decode_error(data, at):
    # The error names the first list or map too many.
    with pytest.raises(DecodeError, match=rf"nesting too deep at byte {at}$"):
        canonical_parse(data)


# Python's limit on the decimal digits int() converts, or 0 where it has none.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="this interpreter converts any number of digits")
def test_integer_past_the_digit_limit_is_a_decode_error():
    with pytest.raises(DecodeError, match="integer too long"):
        canonical_parse(b"[" + b"9" * (INT_DIGIT_LIMIT + 1) + b"]")


# --- lists of records of one layout ----------------------------------------------
#
# Five records of one layout, so that their list has learned it by the sixth,
# the later record that each case below puts there.
_RECORDS = [b'{"a":"x%d","b":%d,"c":true,"d":0x0a}' % (i, i) for i in range(5)]
# Five members of one form, with a list of integers, a nested map and a list of text.
_MEMBERS = [b'{"codes":[%d,0],"data":{"born":-%d,"home":"NL","ok":true},"id":"m%d",'
            b'"tags":["a","b%d"]}' % (i, i + 1, i, i) for i in range(5)]


def _with_later_record(record, depth=0, records=_RECORDS):
    """A list of *records*, *record*, and the first of them again, inside
    *depth* more lists."""
    return b"[" * depth + b"[" + b",".join([*records, record, records[0]]) + b"]" + b"]" * depth


def _member(codes=b"[1,0]", born=b"-1", tags=b'["a"]', data=None):
    """A member of the form of _MEMBERS with these lexemes."""
    data = data or b'{"born":' + born + b',"home":"NL","ok":true}'
    return b'{"codes":' + codes + b',"data":' + data + b',"id":"m","tags":' + tags + b"}"


@pytest.mark.parametrize("record, value", [
    (b'{"a":"x\\"y","b":5,"c":true,"d":0x0a}', {"a": 'x"y', "b": 5, "c": True, "d": b"\n"}),
    (b'{"a":"x","b":5,"c":true}', {"a": "x", "b": 5, "c": True}),
    (b'{"a":"x","b":5,"c":true,"d":0x0a,"e":1}', {"a": "x", "b": 5, "c": True, "d": b"\n", "e": 1}),
    (b'{"a":"x","b":5, "c":true,"d":0x0a}', {"a": "x", "b": 5, "c": True, "d": b"\n"}),
], ids=["escape in text", "missing key", "extra key", "whitespace"])
def test_a_later_record_of_another_form_parses_by_tokens(record, value):
    parsed = canonical_parse(_with_later_record(record))
    assert strictly_equal(parsed[5], value)
    assert strictly_equal(parsed, reference_parse(_with_later_record(record)))


@pytest.mark.parametrize("data, error", [
    pytest.param(_with_later_record(b'{"a":"x","b":' + b"9" * 5000 + b',"c":true,"d":0x0a}'),
                 "integer too long at byte 189", id="5,000-digit integer",
                 marks=pytest.mark.skipif(not 0 < INT_DIGIT_LIMIT < 5000,
                                          reason="this interpreter converts 5,000 digits")),
    pytest.param(_with_later_record(b'{"a":"x","b":5,"c":true,"d":0x0ab}'),
                 "odd-length hex in byte-string at byte 204", id="odd hex"),
    pytest.param(_with_later_record(b'{"b":5,"a":"x","c":true,"d":0x0a}'),
                 "map key 'a' at byte 183 does not come after 'b' in code-point order",
                 id="swapped keys"),
    pytest.param(_with_later_record(b'{"a":"x\xffy","b":5,"c":true,"d":0x0a}'),
                 "invalid UTF-8 in text at byte 182: 'utf-8' codec can't decode byte 0xff "
                 "in position 1: invalid start byte", id="non-UTF-8 byte"),
    pytest.param(_with_later_record(b'{"a":"x","b":[5],"c":true,"d":0x0a}', MAX_DEPTH - 2),
                 "nesting too deep at byte 251", id="list at MAX_DEPTH"),
    pytest.param(_with_later_record(_member(codes=b"[1," + b"9" * 5000 + b"]"), 0, _MEMBERS),
                 "integer too long at byte 438", id="5,000-digit integer in a list",
                 marks=pytest.mark.skipif(not 0 < INT_DIGIT_LIMIT < 5000,
                                          reason="this interpreter converts 5,000 digits")),
    pytest.param(_with_later_record(_member(tags=b'["a",]'), 0, _MEMBERS),
                 "unexpected b']' at byte 503", id="trailing comma in a list"),
    pytest.param(_with_later_record(_member(data=b'{"home":"NL","born":-1,"ok":true}'), 0,
                                    _MEMBERS),
                 "map key 'born' at byte 461 does not come after 'home' in code-point order",
                 id="swapped keys in a nested map"),
    pytest.param(_with_later_record(_member(born=b"[5]"), MAX_DEPTH - 3, _MEMBERS),
                 "nesting too deep at byte 517", id="nested map at MAX_DEPTH"),
])
def test_a_later_record_that_is_malformed_fails_as_by_tokens(data, error):
    with pytest.raises(DecodeError, match=f"^{re.escape(error)}$"):
        canonical_parse(data)


def _spied_layouts(monkeypatch):
    """What lists do with layouts from now on: the form of each layout
    learned, with the layout cache's size after it, and that of each map a
    layout reads."""
    learned, read, layout = [], [], canonical._layout

    def learn(form):
        match, reader = layout(form)
        learned.append((form, layout.cache_info().currsize))

        def read_by_layout(text, pos):
            found = match(text, pos)
            if found is not None:
                read.append(form)
            return found

        return read_by_layout, reader

    monkeypatch.setattr(canonical, "_layout", learn)
    return learned, read


def test_a_later_record_of_a_learned_layout_is_read_by_it(monkeypatch):
    learned, read = _spied_layouts(monkeypatch)
    data = _with_later_record(_RECORDS[1])
    assert strictly_equal(canonical_parse(data), reference_parse(data))
    # Learned at the fourth record, the second of its form from the third on.
    form = (("a", str), ("b", int), ("c", bool), ("d", bytes))
    assert [form for form, _ in learned] == [form]
    assert read == [form] * 3


def test_a_later_record_of_a_nested_form_is_read_by_it(monkeypatch):
    learned, read = _spied_layouts(monkeypatch)
    data = _with_later_record(_member(codes=b"[-7]", born=b"0", tags=b'["x","","y"]'), 0,
                              _MEMBERS)
    assert strictly_equal(canonical_parse(data), reference_parse(data))
    form = (("codes", list[int]), ("data", (("born", int), ("home", str), ("ok", bool))),
            ("id", str), ("tags", list[str]))
    assert [form for form, _ in learned] == [form]
    assert read == [form] * 3


@pytest.mark.parametrize("data, learns", [
    # 2,000 maps, each of its own key sequence: none is read twice.
    (b"[" + b",".join(b'{"k%04d":%d}' % (i, i) for i in range(2000)) + b"]", 0),
    # 2,000 maps, 1,000 key sequences each read twice: one list, up to its cap.
    (b"[" + b",".join(b'{"k%04d":%d}' % (i // 2, i) for i in range(2000)) + b"]",
     canonical._MOST_LAYOUTS),
    # 500 lists of four maps of one key sequence each: each learns its own,
    # past the size of the cache.
    (b"[" + b",".join(b"[" + b",".join([b'{"k%04d":0x00}' % i] * 4) + b"]"
                      for i in range(500)) + b"]", 500),
    # 2,000 maps of 1,000 nested forms, each read twice: one list, up to its cap.
    (b"[" + b",".join(b'{"k":{"k%04d":[%d,0]},"l":[true]}' % (i // 2, i) for i in range(2000))
     + b"]", canonical._MOST_LAYOUTS),
    # 2,000 maps of one form but for a list whose item type changes after
    # the first item: the form of the first two is learned and reads none
    # of the others, which are no form.
    (b"[" + b",".join([b'{"k":[1,2]}'] * 4 + [b'{"k":[%d,"x"]}' % i for i in range(1996)])
     + b"]", 1),
    # Four maps of maps whose list of integers nests MAX_DEPTH deep: a form
    # of maps to that depth.
    (b"[" + b",".join([b'{"k":' * (MAX_DEPTH - 2) + b"[1]" + b"}" * (MAX_DEPTH - 2)] * 4) + b"]",
     1),
], ids=["distinct", "in pairs", "list by list", "nested in pairs", "item type changes",
        "at MAX_DEPTH"])
def test_hostile_lists_learn_no_more_layouts_than_the_bounds(data, learns, monkeypatch):
    cache_size = canonical._layout.cache_info().maxsize
    learned, _ = _spied_layouts(monkeypatch)
    assert strictly_equal(canonical_parse(data), reference_parse(data))
    assert len(learned) == learns
    assert all(size <= cache_size for _, size in learned)


# Every canonical file the repository holds: the golden event logs, v2 and v1,
# the golden state files and the bundled scenarios.
_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_FILES = sorted([*_ROOT.glob("tests/goldens/*.log"), *_ROOT.glob("tests/goldens/v1/*.log"),
                          *_ROOT.glob("tests/goldens/*.state"),
                          *_ROOT.glob("src/coopattest/scenarios/*.scn")])


def test_committed_files_are_all_there():
    suffixes = [path.suffix for path in COMMITTED_FILES]
    assert (suffixes.count(".log"), suffixes.count(".state"), suffixes.count(".scn")) == (22, 2, 14)


@pytest.mark.parametrize("path", COMMITTED_FILES, ids=lambda path: str(path.relative_to(_ROOT)))
def test_committed_file_parses_and_reserializes_line_by_line(path):
    for line in path.read_bytes().splitlines():
        assert canonical_serialize(canonical_parse(line)) == line


def test_bound_is_far_from_the_program_s_depth_and_the_recursion_limit():
    deepest = max(_depth(canonical_parse(line)) for path in COMMITTED_FILES
                  for line in path.read_bytes().splitlines())
    assert deepest * 4 <= MAX_DEPTH <= sys.getrecursionlimit() // 8


# --- record_bytes against the map path --------------------------------------------
#
# The map path, ``canonical_serialize(reference_map(...))``, is the reference
# for the record writer: for every record class, and for every set of omitted
# keys the program writes, both give the same bytes or both raise
# UnsupportedValue.  ``reference_map`` (in conftest) builds the map from the
# field declarations, not through the writer.

# Text with a lone surrogate now and then, which neither path may encode.
record_texts = st.one_of(text_values, st.text(alphabet="a\ud800", min_size=1, max_size=3))
digests = st.binary(min_size=32, max_size=32)
signatures = st.builds(Signature, st.binary(max_size=64), digests, record_texts)
claims = st.builds(AttributeClaim, record_texts.filter(bool), record_texts, record_texts)
claim_tuples = st.lists(claims, max_size=3).map(tuple)


@st.composite
def windows(draw):
    issued_at = draw(st.integers())
    return issued_at, issued_at + draw(st.integers(min_value=1))


@st.composite
def plain_records(draw):
    issued_at, expires_at = draw(windows())
    return PlainAttestation(
        draw(digests), SubjectRef.legal(draw(record_texts)), draw(claim_tuples), draw(digests),
        draw(record_texts), issued_at, expires_at, draw(st.binary(min_size=32, max_size=32)),
        draw(record_texts), draw(signatures))


@st.composite
def blinded_records(draw):
    issued_at, expires_at = draw(windows())
    subject = draw(st.one_of(st.just(SubjectRef.absent()),
                             record_texts.map(lambda text: SubjectRef.handle("@" + text))))
    return BlindedAttestation(
        draw(digests), subject, draw(claim_tuples), draw(digests), draw(digests),
        draw(record_texts), issued_at, expires_at, draw(record_texts), draw(signatures))


countersigned_records = st.builds(
    CounterSignedAttestation, blinded_records(), record_texts.filter(bool), digests,
    st.integers(), signatures)
pointers = st.builds(RecordPointer, record_texts, st.integers())
payloads = st.one_of(st.builds(AttestationRecord, countersigned_records),
                     st.builds(PostRecord, digests, pointers, st.integers()))
ledger_records = st.builds(LedgerRecord, st.integers(), digests, payloads, digests, signatures)


def tuples_of(items, max_size=2):
    return st.lists(items, max_size=max_size).map(tuple)


issuances = st.builds(IssuanceEntry, plain_records(), blinded_records())
archive_entries = st.builds(ArchiveEntry, plain_records(), blinded_records(),
                            countersigned_records, st.integers())
members = st.builds(
    MemberRecord, record_texts.filter(bool), record_texts.filter(bool),
    st.dictionaries(record_texts, st.one_of(st.integers(), record_texts), max_size=3),
    st.one_of(st.none(), record_texts.map(lambda text: "@" + text)))
revocations = st.dictionaries(digests.map(bytes.hex), st.integers(), max_size=2)
audit_entries = st.builds(AuditEntry, st.integers(), digests, record_texts, record_texts,
                          record_texts)
rejection_entries = st.builds(RejectionEntry, st.integers(), digests, tuples_of(record_texts))
cooperative_states = st.builds(
    CooperativeState, record_texts, st.binary(max_size=8), record_texts,
    tuples_of(members), tuples_of(issuances, 1), revocations,
    st.integers(min_value=0, max_value=2**64 - 1), st.one_of(st.none(), st.binary(max_size=8)))
notary_states = st.builds(
    NotaryState, record_texts, st.binary(max_size=8), record_texts,
    st.frozensets(record_texts, max_size=3), tuples_of(st.binary(max_size=8)),
    tuples_of(archive_entries, 1), tuples_of(audit_entries),
    tuples_of(rejection_entries))

RECORD_STRATEGIES = {
    PlainAttestation: plain_records(), BlindedAttestation: blinded_records(),
    CounterSignedAttestation: countersigned_records, LedgerRecord: ledger_records,
    SubjectRef: record_texts.map(SubjectRef.legal), AttributeClaim: claims,
    Signature: signatures, RecordPointer: pointers,
    AttestationRecord: st.builds(AttestationRecord, countersigned_records),
    PostRecord: st.builds(PostRecord, digests, pointers, st.integers()),
    IssuanceEntry: issuances, ArchiveEntry: archive_entries,
    MemberRecord: members, AuditEntry: audit_entries, RejectionEntry: rejection_entries,
    CooperativeState: cooperative_states, NotaryState: notary_states,
}
# Every (class, omitted keys) pair the program writes with record_bytes.
WRITTEN = [(cls, ()) for cls in RECORD_STRATEGIES] + [
    (PlainAttestation, PlainAttestation._UNSIGNED), (PlainAttestation, ("attestation_id",)),
    (BlindedAttestation, BlindedAttestation._UNSIGNED),
    (BlindedAttestation, ("attestation_id",)),
    (CounterSignedAttestation, CounterSignedAttestation._UNSIGNED),
    (LedgerRecord, LedgerRecord._UNSIGNED),
]


def reference_record_bytes(cls, values, omit):
    return canonical_serialize(reference_map(cls, values, omit))


def wire_key(f):
    return f.metadata.get("key", f.name)


@given(st.sampled_from(WRITTEN).flatmap(lambda written: st.tuples(
    st.just(written), RECORD_STRATEGIES[written[0]])))
@settings(max_examples=300)
def test_record_bytes_matches_the_map_path(case):
    (cls, omit), record = case
    try:
        expected = reference_record_bytes(cls, record, omit)
    except UnsupportedValue:
        with pytest.raises(UnsupportedValue):
            record_bytes(cls, record, omit)
        return
    # The second call splices the texts the first one memoised on the
    # attestations inside the record.
    assert record_bytes(cls, record, omit) == expected
    assert record_bytes(cls, record, omit) == expected


SIGNED = [PlainAttestation, BlindedAttestation, CounterSignedAttestation, LedgerRecord]
_SIGNER = keygen(b"signer")


@given(st.sampled_from(SIGNED).flatmap(lambda cls: st.tuples(st.just(cls), RECORD_STRATEGIES[cls])))
@settings(max_examples=300)
def test_a_signer_writes_the_bytes_of_the_reference_map(case):
    """A signer, given the body of a drawn record, signs the bytes of the
    record's reference map without the keys its signature leaves out, seals
    its id (if it has one) over those without the id, and keeps the whole
    text or its digest: each of its three texts is the map path's.  Text
    that UTF-8 cannot encode is refused before anything is signed."""
    cls, drawn = case
    values = {f.name: getattr(drawn, f.name) for f in dataclasses.fields(cls)}
    body = {name: value for name, value in values.items() if name not in (cls._SIGNATURE, cls._ID)}
    # What crypto.sign returns: a signature under the class's tag.
    signature = values[cls._SIGNATURE] = dataclasses.replace(values[cls._SIGNATURE],
                                                             domain_tag=cls._TAG)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crypto, "sign", lambda key, tag, message: calls.append(
            ("sign", key, tag, message)) or signature)
        patch.setattr(crypto, "digest", lambda data: calls.append(("digest", data))
                      or hashlib.sha256(data).digest())
        try:
            record = cls._sign(_SIGNER, dict(body))
        except UnsupportedValue as exc:
            record = exc

    def reference(omit):
        return canonical_serialize(reference_map(cls, values, omit))

    try:
        message = reference(cls._UNSIGNED)
    except UnsupportedValue:
        assert isinstance(record, UnsupportedValue) and calls == []
        return
    expected = [("sign", _SIGNER, cls._TAG, message)]
    if cls._ID is not None:
        sealed = reference((cls._ID,))
        values[cls._ID] = hashlib.sha256(sealed).digest()
        expected.append(("digest", sealed))
    text = reference(())
    if not cls._KEEPS_TEXT:
        expected.append(("digest", text))
    assert calls == expected
    assert record == cls(**values)
    assert record._signed_bytes == message
    if cls._KEEPS_TEXT:
        assert record._canonical_text == text.decode()
    else:
        assert record._digest == hashlib.sha256(text).digest()


@given(st.sampled_from(list(RECORD_STRATEGIES)).flatmap(
    lambda cls: st.tuples(st.just(cls), RECORD_STRATEGIES[cls])))
@settings(max_examples=300)
def test_records_decode_to_themselves(case):
    cls, record = case
    try:
        data = record_bytes(cls, record)
    except UnsupportedValue:
        return
    assert record_from_map(cls, canonical_parse(data)) == record


class _Text(str):
    pass


def _is_record(tp):
    return dataclasses.is_dataclass(tp) or typing.get_origin(tp) is typing.Union


# For a field of each declared type, a value that its decoder refuses: a
# bool for an int, a str subclass for a str, 31 bytes for a Digest, and a record
# of another class for a record or a Union of them.
_WRONG = [(lambda tp: tp in (int, int | None), True),
          (lambda tp: tp in (str, str | None), _Text("x")),
          (lambda tp: tp is Digest, bytes(31)),
          (lambda tp: _is_record(tp) and tp is not RecordPointer, RecordPointer("ledger", 0))]


def _refusals():
    """(class, field, wrong value) for the first field that each record class
    declares of each type in _WRONG, but the fields a signer makes."""
    for cls in RECORD_STRATEGIES:
        hints = typing.get_type_hints(cls)
        made = (getattr(cls, "_SIGNATURE", None), getattr(cls, "_ID", None))
        for declared, value in _WRONG:
            f = next((f for f in dataclasses.fields(cls)
                      if f.name not in made and declared(hints[f.name])), None)
            if f is not None:
                yield pytest.param(cls, f, value,
                                   id=f"{cls.__name__}-{f.name}-{type(value).__name__}")


def test_every_record_class_has_a_refusal():
    assert {param.values[0] for param in _refusals()} == set(RECORD_STRATEGIES)


@pytest.mark.parametrize("cls, field, value", list(_refusals()))
@given(data=st.data())
@settings(max_examples=5)
def test_a_value_not_of_its_declared_type_is_refused(cls, field, value, data):
    """A record holding it is written by no writer, and a signer refuses it
    before it signs; the refusal names the class and the key."""
    record = data.draw(RECORD_STRATEGIES[cls])
    wrong = copy.copy(record)
    object.__setattr__(wrong, field.name, value)
    refusal = f"^{cls.__name__} key '{wire_key(field)}' must be "
    with pytest.raises(UnsupportedValue, match=refusal):
        record_bytes(cls, wrong)
    if issubclass(cls, _Signed):
        body = {f.name: getattr(wrong, f.name) for f in dataclasses.fields(cls)
                if f.name not in (cls._SIGNATURE, cls._ID)}
        signed = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(crypto, "sign", lambda *args: signed.append(args))
            with pytest.raises(UnsupportedValue, match=refusal):
                cls._sign(keygen(b"signer"), body)
        assert signed == []


def _digest_fields():
    """(class, field) for every field declared a Digest."""
    for cls in RECORD_STRATEGIES:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if hints[f.name] is Digest:
                yield cls, f


def test_the_records_with_a_digest_field():
    assert {cls for cls, _ in _digest_fields()} == {
        PlainAttestation, BlindedAttestation, CounterSignedAttestation, LedgerRecord,
        PostRecord, Signature, AuditEntry, RejectionEntry}


@pytest.mark.parametrize("length", [31, 33])
@pytest.mark.parametrize("cls, field", [
    pytest.param(cls, f, id=f"{cls.__name__}-{f.name}") for cls, f in _digest_fields()])
@given(data=st.data())
@settings(max_examples=5)
def test_a_digest_of_another_length_is_refused(cls, field, length, data):
    """Bytes where a digest is are exactly 32 of them: the writer refuses
    others naming the class, the key and the length, and the decoder
    refuses them in a map."""
    record = data.draw(RECORD_STRATEGIES[cls])
    key = wire_key(field)
    wrong = copy.copy(record)
    object.__setattr__(wrong, field.name, bytes(length))
    with pytest.raises(UnsupportedValue,
                       match=f"^{cls.__name__} key '{key}' must be 32 bytes, not {length} bytes$"):
        record_bytes(cls, wrong)
    with pytest.raises(DecodeError,
                       match=f"^{cls.__name__} field '{key}' must be 32 bytes, not {length}$"):
        record_from_map(cls, {**reference_map(cls, record), key: bytes(length)})


# --- the field kinds of the state records ------------------------------------------

def test_unset_optional_key_is_left_out():
    assert record_bytes(MemberRecord, MemberRecord("bob", "bob-legal-0002", {})) == (
        b'{"legal_identity":"bob-legal-0002","member_id":"bob","personal_data":{}}')
    assert record_bytes(MemberRecord, MemberRecord("bob", "bob-legal-0002", {}, "@bob")) == (
        b'{"handle":"@bob","legal_identity":"bob-legal-0002","member_id":"bob",'
        b'"personal_data":{}}')


def test_missing_optional_keys_take_their_defaults():
    state = record_from_map(CooperativeState, {"name": "c", "key_seed": b"k", "legal_rep": "n"})
    assert state == CooperativeState("c", b"k", "n")
    assert state.nonce_seed is None and state.revoked == {} and state.members == ()
    assert "nonce_seed" not in canonical_parse(record_bytes(CooperativeState, state))


def test_frozenset_is_written_sorted():
    state = NotaryState("n", b"k", "US", compatible=frozenset({"US", "EU", "AU", "CH"}))
    assert canonical_parse(record_bytes(NotaryState, state))["compatible"] == ["AU", "CH", "EU", "US"]
    assert b'"compatible":["AU","CH","EU","US"]' in record_bytes(NotaryState, state)


def generated_without_garbage(filename, shape, form, cls=None):
    """generated_writer's function, asserting that generating it left no
    cycle that only the collector frees."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        write = generated_writer(filename, shape, form, cls)
        unreachable = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert unreachable == 0
    return write


@pytest.mark.parametrize("form, written", [
    ("line", b'{"codes":["US"],"inner":{"n":1}}\n'),
    ("text", '{"codes":["US"],"inner":{"n":1}}'),
])
def test_generating_a_writer_leaves_no_cyclic_garbage(form, written):
    inner = Shape("Inner", (("n", "n", int, False),))
    shape = Shape("Outer", (("codes", "codes", list[str], False), ("inner", "inner", inner, False)))
    write = generated_without_garbage(f"<coopattest {form} Outer>", shape, form)
    # A record's fields are read as attributes, a map's values as items.
    assert write(types.SimpleNamespace(codes=["US"], inner={"n": 1})) == written


def test_generating_a_signer_leaves_no_cyclic_garbage():
    sign = generated_without_garbage("<coopattest sign LedgerRecord>",
                                     record_shape("LedgerRecord", LedgerRecord), "sign", LedgerRecord)
    # A signer reads its body's values as items.
    body = {"index": 0, "prev_digest": crypto.ZERO_DIGEST, "writer_key_id": _SIGNER.key_id,
            "payload": PostRecord(crypto.digest(b"post"), RecordPointer("l1", 0), 3)}
    record = sign(_SIGNER, dict(body))
    assert record == LedgerRecord(**body, writer_signature=record.writer_signature)
    assert record._signed_bytes == canonical_serialize(
        reference_map(LedgerRecord, record, LedgerRecord._UNSIGNED))
    assert record._digest == crypto.digest(canonical_serialize(reference_map(LedgerRecord, record)))
    assert crypto.verify(_SIGNER.public_key, crypto.TAG_LEDGER, record._signed_bytes,
                         record.writer_signature)


def _list_writer(value):
    shape = Shape("Codes", (("codes", "codes", list[str], False),))
    return generated_writer("<coopattest text Codes>", shape, "text")(value)


@pytest.mark.parametrize("write, value, refusal", [
    (_list_writer, types.SimpleNamespace(codes=["US", 1]), "Codes key 'codes' item 1 must be str, not int"),
    (functools.partial(record_bytes, NotaryState), NotaryState("n", b"k", "US", issuers=(b"x", "y")),
     "NotaryState key 'issuers' item 1 must be bytes, not str"),
    (functools.partial(record_bytes, CooperativeState),
     CooperativeState("c", b"k", "n", revoked={"ab": 1, "cd": True}),
     "CooperativeState key 'revoked' item 'cd' must be int, not bool"),
    (functools.partial(record_bytes, NotaryState),
     NotaryState("n", b"k", "US", compatible=frozenset({"US", 5})),
     "NotaryState key 'compatible' item must be str, not int"),
    (functools.partial(record_bytes, NotaryState),
     NotaryState("n", b"k", "US", compatible=frozenset({1, b"x", b"y", 2.5})),
     "NotaryState key 'compatible' item must be str, not bytes"),
], ids=["list", "tuple", "dict", "frozenset", "frozenset-of-three-wrong-types"])
def test_a_wrong_item_of_a_container_as_declared_is_named(write, value, refusal):
    """By its index in a list or tuple, its key in a dict, and its type alone
    in a frozenset, the first of its wrong items by type name, whatever the
    hash seed."""
    with pytest.raises(UnsupportedValue, match=f"^{refusal}$"):
        write(value)


@pytest.mark.parametrize("field, value", [
    ("members", ["alice"]),
    ("revoked", {"ab" * 32: True}),
    ("nonce_seed", "seed"),
])
def test_container_items_are_type_checked(field, value):
    raw = {"name": "c", "key_seed": b"k", "legal_rep": "n", field: value}
    with pytest.raises(DecodeError, match=field):
        record_from_map(CooperativeState, raw)


# The rule settings a cooperative's state once carried, with the values it
# always wrote: unknown fields now.
@pytest.mark.parametrize("key, value", [
    ("queries", ["age-over-18"]),
    ("year_ticks", 365),
    ("income_bands", [[30_000, "low"], [100_000, "middle"]]),
])
def test_a_legacy_state_key_is_refused(key, value):
    raw = {"name": "c", "key_seed": b"k", "legal_rep": "n", key: value}
    with pytest.raises(DecodeError, match=f"^CooperativeState has unknown field {key!r}$"):
        record_from_map(CooperativeState, raw)


def test_record_bytes_of_the_program_s_own_records(issuer, notary_key):
    plain = make_plain(issuer)
    blinded = blind(plain, SubjectRef.handle("@sender"), issuer)
    csa = countersign(blinded, notary_key, "notary-1", 11)
    record = LedgerRecord(0, bytes(32), AttestationRecord(csa), notary_key.key_id,
                          csa.notary_signature)
    for cls, omit in WRITTEN:
        for value in (plain, blinded, csa, record):
            if type(value) is cls:
                assert record_bytes(cls, value, omit) == reference_record_bytes(cls, value, omit)
