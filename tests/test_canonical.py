"""Canonical encoding: determinism, injectivity, and parser strictness."""

import dataclasses
import hashlib
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattest.attestation import (
    AttributeClaim,
    BlindedAttestation,
    CounterSignedAttestation,
    PlainAttestation,
    SubjectRef,
    attestation_to_map,
    blind,
    countersign,
)
from coopattest.canonical import canonical_parse, canonical_serialize
from coopattest.crypto import Digest, Signature
from coopattest.errors import DecodeError, UnsupportedValue
from coopattest.ledger import AttestationRecord, LedgerRecord, PostRecord, RecordPointer

from conftest import make_plain

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


def test_str_subclass_key_encodes_as_its_base_value():
    class Key(str):
        def __str__(self):
            return "other"

        def __hash__(self):
            return hash("plain")

        def __eq__(self, other):
            return True

    assert canonical_serialize({"plain": 1}) == b'{"plain":1}'
    assert canonical_serialize({Key('k"'): 1}) == b'{"k\\"":1}'
    assert canonical_serialize({Key("j"): 1}) == b'{"j":1}'
    assert canonical_serialize({"plain": 1}) == b'{"plain":1}'


def test_subclasses_encode_as_their_base_value():
    import enum

    class Level(enum.IntEnum):
        HIGH = 3

    class Name(str):
        pass

    value = {Name("k"): [Level.HIGH, Name('a"b')]}
    assert canonical_serialize(value) == b'{"k":[3,"a\\"b"]}'


class TestFieldReference:
    """The README's field reference lists exactly the declared fields of
    every record class, with their wire types and signature coverage."""

    RECORDS = {
        PlainAttestation: "plain", BlindedAttestation: "blinded",
        CounterSignedAttestation: "countersigned", LedgerRecord: "ledger record",
        SubjectRef: "subject", AttributeClaim: "attribute claim", Signature: "signature",
        RecordPointer: "record pointer", AttestationRecord: "attestation payload",
        PostRecord: "post payload",
    }
    SCALARS = {str: "text", int: "integer", bytes: "bytes", Digest: "digest"}

    def type_name(self, tp) -> str:
        if tp in self.SCALARS:
            return self.SCALARS[tp]
        if tp in self.RECORDS:
            return self.RECORDS[tp]
        if typing.get_origin(tp) is tuple:
            return "list of " + self.type_name(typing.get_args(tp)[0])
        return " or ".join(self.type_name(member) for member in typing.get_args(tp))

    def declared_rows(self) -> dict:
        rows = {}
        for cls, record in self.RECORDS.items():
            unsigned = getattr(cls, "_UNSIGNED", None)
            hints = typing.get_type_hints(cls)
            fields = [(f.metadata.get("key", f.name), self.type_name(hints[f.name]))
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
            assert set(attestation_to_map(artifact)) == {k for r, k in declared if r == record}
