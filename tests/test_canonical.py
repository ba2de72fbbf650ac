"""Canonical encoding: determinism, injectivity, and parser strictness."""

import copy
import dataclasses
import functools
import hashlib
import sys
import types
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattest import crypto
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
    join_entries,
    record_bytes,
    record_entries,
    record_from_map,
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
def padded_canonical_bytes(draw):
    """The canonical bytes of a value with whitespace drawn around each of
    its tokens: text, whitespace included, stays as it is."""
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

    return ws() + write(draw(domain_values)) + ws()


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


def has_optional(cls):
    return any(type(None) in typing.get_args(tp) for tp in typing.get_type_hints(cls).values())


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
    # The entries of the same fields, given as a dict, as a signer gives its body.
    if not has_optional(cls):
        values = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls)
                  if wire_key(f) not in omit}
        assert join_entries(record_entries(cls, values, omit)).encode() == expected


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
