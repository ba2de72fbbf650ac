"""Canonical byte serialization for signed and hashed records.

The value domain is deliberately small: text, integers, booleans,
byte-strings, lists, and string-keyed maps.  Floating point is banned
(amounts are integers in minor units, time is an integer tick).

Encoding rules:

* UTF-8 text output, no insignificant whitespace.
* Maps: ``{"k":v,...}`` with keys sorted by UTF-8 byte value.
* Lists: ``[v,...]``.
* Text: double-quoted; ``\\`` and ``"`` are backslash-escaped, control
  characters below U+0020 become ``\\u00xx`` (lowercase hex), everything
  else is emitted as raw UTF-8.
* Byte-strings: ``0x`` followed by lowercase hex (``0x`` alone is empty).
* Integers: decimal, optional leading ``-``, no leading zeros.
* Booleans: ``true`` / ``false``.

Each type has a distinct lexical form, so the encoding is injective and
``decode(encode(v)) == v``.  The parser is strict about value lexemes
(lowercase hex only, no leading zeros, ``\\u00xx`` for controls only) and
about map keys (strictly increasing code-point order), so that no two
distinct byte strings decode to the same value; it is tolerant only of
whitespace between tokens, which lets config files be hand-formatted.  Lists
and maps may nest at most ``MAX_DEPTH`` deep.

The record codec below writes the canonical bytes of a dataclass
straight from its field declarations, and decodes such maps strictly.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import os
import re
import stat
import tempfile
import typing
from pathlib import Path
from typing import Any, Callable, Iterable

from .errors import CoopAttestError, DecodeError, UnsupportedValue

# --- encoding ---------------------------------------------------------------

# Characters that text must escape: the quote, the backslash, and C0 controls.
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')
_ESCAPES = {'"': '\\"', "\\": "\\\\", **{chr(c): f"\\u{c:04x}" for c in range(0x20)}}


def canonical_serialize(value: Any) -> bytes:
    """Serialize *value* to canonical bytes.

    Raises UnsupportedValue for anything outside the canonical domain
    (floats, None, non-string map keys, text with lone surrogates,
    arbitrary objects).
    """
    return _utf8(_encode(value))


def _utf8(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        raise UnsupportedValue("text must not contain lone surrogates") from None


def _encode(value: Any) -> str:
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        return _encode_subclass(value)
    return encoder(value)


def _encode_text(text: str) -> str:
    if _NEEDS_ESCAPE.search(text) is None:
        return '"' + text + '"'
    return '"' + _NEEDS_ESCAPE.sub(_escape, text) + '"'


def _escape(match: re.Match) -> str:
    return _ESCAPES[match.group()]


def _encode_list(value: list | tuple) -> str:
    return "[" + ",".join([_encode(item) for item in value]) + "]"


def _encode_key(key: str) -> str:
    return _encode_text(str.__str__(key)) + ":"


# The few dozen keys the program uses recur in nearly every map.  The table
# maps a key's text to its encoding and nothing else, so it cannot change a
# byte; a key with a lone surrogate is cached too and still fails in
# canonical_serialize, on every call.  Only exact ``str`` keys go through
# it, so a subclass's own hashing or equality is never consulted.
_encode_known_key = functools.lru_cache(maxsize=4096)(_encode_key)


def _encode_map(value: dict) -> str:
    encode_key = _encode_known_key
    for key in value:
        if type(key) is not str:
            if not isinstance(key, str):
                raise UnsupportedValue(f"map keys must be text, got {type(key).__name__}")
            encode_key = _encode_key
    # Code-point order is UTF-8 byte order for every encodable string; keys
    # with lone surrogates sort somewhere and are rejected at encode time.
    return "{" + ",".join([encode_key(key) + _encode(value[key])
                           for key in sorted(value)]) + "}"


def _encode_bytes(value: bytes | bytearray) -> str:
    return "0x" + value.hex()


_ENCODERS = {
    str: _encode_text,
    dict: _encode_map,
    int: int.__repr__,
    list: _encode_list,
    tuple: _encode_list,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    bool: lambda value: "true" if value else "false",
}


def _encode_subclass(value: Any) -> str:
    """A record that keeps its own canonical text (an attestation artifact)
    encodes as that text, and subclasses of the domain's types as their
    base value."""
    if hasattr(type(value), "_canonical_text"):
        return value._canonical_text
    if isinstance(value, str):
        return _encode_text(str.__str__(value))
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (bytes, bytearray)):
        return _encode_bytes(value)
    if isinstance(value, (list, tuple)):
        return _encode_list(value)
    if isinstance(value, dict):
        return _encode_map(value)
    raise UnsupportedValue(f"cannot canonically serialize {type(value).__name__}")


def write_canonical(path: str | Path, data: bytes) -> None:
    """Write the canonical bytes *data* to *path* atomically, as
    ``write_canonical_parts`` writes them."""
    write_canonical_parts(path, (data,))


def write_canonical_parts(path: str | Path, parts: Iterable[bytes]) -> None:
    """Write the bytes *parts* yields, one after another, to *path* atomically.

    Each part is written as it comes, so the whole is never held at once.
    The bytes go to a fresh temporary file beside the file *path* names
    (through any symlink), which then replaces it in one step, so an
    interrupted write, or a part that raises, leaves the previous file
    whole.  The new file keeps the previous one's permission bits; a file
    that did not exist is created readable by its owner only, since state
    and key files hold key seeds, and plain attestations and event logs
    legal identities.
    """
    target = Path(path).resolve()
    mode = stat.S_IMODE(target.stat().st_mode) if target.exists() else 0o600
    fd, temp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.writelines(parts)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, target)
    finally:
        Path(temp).unlink(missing_ok=True)


# --- records -----------------------------------------------------------------
#
# A record is a dataclass, frozen or not, whose fields, in declaration order,
# are its wire layout.  A field is written under its own name, or under
# ``metadata["key"]``, and its annotation picks its codec:
#
#   str, int, bool, bytes, dict  the value itself, of that canonical type;
#   a class with ``_SCALAR``     its one field, a value of type ``_SCALAR``;
#   a record                     the record's map;
#   a Union of records           the map of the member whose ``_KIND`` it names;
#   tuple[X, ...]                a list of the encodings of X;
#   tuple[X, Y]                  a list of exactly one X and one Y;
#   frozenset[X]                 a list of the X, sorted;
#   dict[str, X]                 a map of text to the encodings of X;
#   X | None                     X, with the key left out when the value is None.
#
# A field with a default may be missing from a map being decoded, and then
# takes its default.  A record class with ``_KIND`` also writes that text
# under "kind".  A record whose class keeps its own canonical text in
# ``_canonical_text`` (the attestation artifacts) is written as that text,
# inside another record's bytes and by canonical_serialize alike.  Each
# class's writer and decoder are built once, on first use.

def record_bytes(cls: type, values: Any, omit: tuple = ()) -> bytes:
    """The canonical bytes of the *cls* record *values*, or of the record
    whose field values it maps attribute names to, leaving out the wire
    keys in *omit*.  They are written straight from the fields: no map is
    built and no key is sorted."""
    return _utf8(_writer(cls, omit)(values))


def record_text(cls: type, values: Any, omit: tuple = ()) -> str:
    """The text ``record_bytes`` encodes as UTF-8."""
    return _writer(cls, omit)(values)


def record_texts(cls: type, values: dict) -> Callable[..., str]:
    """The function ``text(omit=())`` that writes ``record_text(cls, values,
    omit)`` for what *values* holds at the time of the call, from entries
    each encoded once, by the first call that writes it.  A record being
    signed is written this way: the text its signature covers, then the
    texts that hold the signature and the id made from them.  A field's
    value must not change once a call has written it."""
    layout = _layout(cls)
    entries: dict[str, str] = {}

    def text(omit: tuple = ()) -> str:
        out = []
        for key, encoded_key, attr, write, optional in layout:
            if key in omit:
                continue
            entry = entries.get(key)
            if entry is None:
                if attr is None:
                    entry = write
                else:
                    value = values[attr]
                    entry = "" if optional and value is None else encoded_key + write(value)
                entries[key] = entry
            if entry:
                out.append(entry)
        return "{" + ",".join(out) + "}"

    return text


def record_from_map(tp: Any, raw: Any) -> Any:
    """The record of type *tp* (a record class or a Union of them) that
    *raw* is the map of.

    Every key without a default must be present, every key present must
    have the declared type, and no other key may appear.  Raises
    DecodeError, also for a value the record's own checks reject.
    """
    try:
        return _decoder(tp)(raw)
    except DecodeError:
        raise
    except (ValueError, CoopAttestError) as exc:
        raise DecodeError(f"invalid record: {exc}") from exc


def read_record(path: str | Path, cls: type, build: Callable[[Any], Any]) -> Any:
    """``build(record)`` for the *cls* record whose canonical map the file
    at *path* holds.  Such a file is configuration, so a value that the
    record or *build* rejects raises DecodeError."""
    record = record_from_map(cls, canonical_parse(Path(path).read_bytes()))
    try:
        return build(record)
    except (ValueError, CoopAttestError) as exc:
        raise DecodeError(f"invalid {cls.__name__}: {exc}") from exc


class _Field(typing.NamedTuple):
    attr: str
    key: str
    wire: type  # the canonical type of its map value
    decode: Callable | None  # from a map value of that type; None passes it
    write: Callable[[Any], str]  # to canonical text
    optional: bool  # X | None: left out when None
    required: bool  # no default: must be present when decoding


@functools.cache
def _fields(cls: type) -> tuple[_Field, ...]:
    """The fields of record *cls*, in declaration order."""
    hints = typing.get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        tp, key = hints[f.name], f.metadata.get("key", f.name)
        optional = type(None) in typing.get_args(tp)
        if optional:
            (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
        wire, decode, write = _codec(tp, f"{cls.__name__} field {key!r}")
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        fields.append(_Field(f.name, key, wire, decode, write, optional, required))
    return tuple(fields)


def _is(value: Any, wire: type) -> bool:
    """True iff *value* is of canonical type *wire*; ``true`` and ``false``
    are not integers here, although Python's bool subclasses int."""
    return isinstance(value, wire) and not (type(value) is bool and wire is int)


def _codec(tp: Any, where: str) -> tuple:
    """How a value of annotation *tp* is written and read: (the canonical
    type it is written as, decode, write as canonical text); a decode of
    None passes the value as it is.  *where* names the field in errors."""
    if tp in (str, int, bool, bytes, dict):
        return tp, None, _encode
    if hasattr(tp, "_SCALAR"):
        get = operator.attrgetter(dataclasses.fields(tp)[0].name)
        return tp._SCALAR, tp, (lambda value: _encode(get(value)))
    if dataclasses.is_dataclass(tp):
        return dict, _decoder(tp), (_encode if hasattr(tp, "_canonical_text") else _writer(tp))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        by_type = {member: _codec(member, where)[2] for member in args}
        return dict, _decoder(tp), (lambda record: by_type[type(record)](record))
    if origin is tuple and args[1:] == (Ellipsis,):
        write_item = _codec(args[0], where)[2]
        decode_item = _item_decoder(args[0], where)
        return (list, (lambda items: tuple(map(decode_item, items))),
                (lambda items: "[" + ",".join([write_item(item) for item in items]) + "]"))
    if origin is tuple:
        decoders = [_item_decoder(arg, where) for arg in args]

        def decode_fixed(items: list) -> tuple:
            if len(items) != len(decoders):
                raise DecodeError(f"{where} must have {len(decoders)} items")
            return tuple(decode(item) for decode, item in zip(decoders, items))

        return list, decode_fixed, _encode
    if origin is frozenset:
        decode_item = _item_decoder(args[0], where)
        return (list, (lambda items: frozenset(map(decode_item, items))),
                (lambda items: _encode(sorted(items))))
    if origin is dict and args[0] is str:
        decode_value = _item_decoder(args[1], where)
        return (dict, (lambda raw: {key: decode_value(value) for key, value in raw.items()}),
                _encode)
    raise TypeError(f"no canonical codec for {tp!r}")


def _item_decoder(tp: Any, where: str) -> Callable[[Any], Any]:
    """The decoder of an item of annotation *tp* in the container field
    *where*: it checks the item's canonical type, then decodes it."""
    wire, decode, _ = _codec(tp, where)

    def decode_item(value: Any) -> Any:
        if not _is(value, wire):
            raise DecodeError(f"{where} has an item of wrong type")
        return value if decode is None else decode(value)

    return decode_item


@functools.cache
def _layout(cls: type) -> tuple[tuple, ...]:
    """Every entry of a *cls* record's text, in code-point order of the wire
    keys: (wire key, encoded key, attribute, writer, optional).  An
    attribute of None marks the constant "kind" entry, whose "writer" is
    its whole text."""
    kind = getattr(cls, "_KIND", None)
    entries = [(f.key, f.attr, f.write, f.optional) for f in _fields(cls)]
    if kind is not None:
        entries.append(("kind", None, _encode_key("kind") + _encode_text(kind), False))
    return tuple((key, _encode_key(key), attr, write, optional)
                 for key, attr, write, optional in sorted(entries, key=operator.itemgetter(0)))


@functools.cache
def _writer(cls: type, omit: tuple = ()) -> Callable[[Any], str]:
    """The function that writes the canonical text of a *cls* record, given
    the record or a dict of its field values, without the keys in *omit*.
    The record's layout is built once; a call writes only the values, and
    no entry for an ``X | None`` field whose value is None.  A record's
    fields are read as attributes, never through its ``__dict__``, which
    CPython would otherwise build for an instance that had none yet."""
    steps = [step[1:] for step in _layout(cls) if step[0] not in omit]

    def write_record(record: Any) -> str:
        as_map = isinstance(record, dict)
        out = []
        for key, attr, write, optional in steps:
            if attr is None:
                out.append(write)
                continue
            value = record[attr] if as_map else getattr(record, attr)
            if optional and value is None:
                continue
            out.append(key + write(value))
        return "{" + ",".join(out) + "}"

    return write_record


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    """The decoder of a record class, or of a Union of them by "kind"."""
    if typing.get_origin(tp) is typing.Union:
        by_kind = {member._KIND: _decoder(member) for member in typing.get_args(tp)}

        def decode_union(raw: Any) -> Any:
            kind = raw.get("kind") if isinstance(raw, dict) else None
            decode = by_kind.get(kind) if type(kind) is str else None
            if decode is None:
                raise DecodeError(f"unknown record kind {kind!r}")
            return decode(raw)

        return decode_union

    name = tp.__name__
    kind = getattr(tp, "_KIND", None)
    steps = tuple((f.attr, f.key, f.wire, f.decode, f.required) for f in _fields(tp))
    keys = {key for _, key, _, _, _ in steps} | ({"kind"} if kind is not None else set())

    def decode(raw: Any) -> Any:
        if not isinstance(raw, dict):
            raise DecodeError(f"{name} must be a map")
        if kind is not None and _require(raw, "kind", str, name) != kind:
            raise DecodeError(f"{name} must have kind {kind!r}")
        values = {}
        for attr, key, wire, convert, required in steps:
            if not required and key not in raw:
                continue
            value = _require(raw, key, wire, name)
            values[attr] = value if convert is None else convert(value)
        if not raw.keys() <= keys:
            extra = next(key for key in raw if key not in keys)
            raise DecodeError(f"{name} has unknown field {extra!r}")
        return tp(**values)

    return decode


def _require(raw: dict, key: str, wire: type, name: str) -> Any:
    """``raw[key]`` of a map decoded as record *name*, checked to be of
    canonical type *wire*."""
    if key not in raw:
        raise DecodeError(f"{name} missing field {key!r}")
    value = raw[key]
    if not _is(value, wire):
        raise DecodeError(f"{name} field {key!r} has wrong type")
    return value


# --- parsing ----------------------------------------------------------------
#
# The parser reads each token with one match of a compiled regex and checks
# the grammar between tokens by recursive descent, one call per value and one
# frame per level of nesting.  A map entry whose value is a scalar is a single
# match: key, colon, value and separator with the whitespace around them.
# Text with an escape, and any input such a match does not take whole, is
# read a token at a time, and malformed input fails there.

MAX_DEPTH = 64
"""How many lists and maps may nest in parsed input: far more than anything
the program writes (7, in an event-log line or a state file) and far fewer
than Python's recursion limit, so hostile input fails as a DecodeError."""

_WS = re.compile(rb"[ \t\r\n]*")
# An escape-free text, a byte-string's hex run, an integer, true, or false:
# groups text, hex, digits and true, of which false sets none.
_SCALAR_LEXEME = rb'(?:"([^"\\\x00-\x1f]*)"|0x([0-9a-f]*)|(-?[1-9][0-9]*|0)|(true)|false)'
_SCALAR = re.compile(_SCALAR_LEXEME)
# An escape-free map key and its colon, then, if it is a scalar, the value
# (group 2, then the scalar's groups) and the separator after it.
_ENTRY = re.compile(rb'"([^"\\\x00-\x1f]*)"[ \t\r\n]*:[ \t\r\n]*(?:('
                    + _SCALAR_LEXEME + rb')[ \t\r\n]*([,}])[ \t\r\n]*)?')
_COLON = re.compile(rb"[ \t\r\n]*:[ \t\r\n]*")
_LIST_SEP = re.compile(rb"[ \t\r\n]*([,\]])[ \t\r\n]*")
_MAP_SEP = re.compile(rb"[ \t\r\n]*([,}])[ \t\r\n]*")
_RUN = re.compile(rb'[^"\\\x00-\x1f]*')
# The encoder escapes the quote, the backslash and the C0 controls only.
_ESCAPE = re.compile(rb'\\(?:(["\\])|u(00[01][0-9a-f]))')


def canonical_parse(data: bytes) -> Any:
    """Parse canonical bytes back into a value.

    Inverse of canonical_serialize on its whole output; additionally
    accepts whitespace between tokens.  Raises DecodeError on anything
    else, and on lists and maps nested deeper than MAX_DEPTH.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise DecodeError("canonical input must be bytes")
    data = bytes(data)
    value, pos = _value(data, _WS.match(data).end(), 0)
    pos = _WS.match(data, pos).end()
    if pos != len(data):
        raise DecodeError(f"trailing data at byte {pos}")
    return value


def _value(data: bytes, pos: int, depth: int) -> tuple[Any, int]:
    """The value that starts at byte *pos*, inside *depth* lists and maps,
    and the position after it."""
    m = _SCALAR.match(data, pos)
    if m is not None:
        return _scalar(*m.groups(), pos), m.end()
    head = data[pos:pos + 1]
    if head == b'"':
        return _text(data, pos + 1)
    if head != b"{" and head != b"[":
        raise DecodeError(f"unexpected {head!r} at byte {pos}" if head
                          else f"unexpected end of input at byte {pos}")
    if depth == MAX_DEPTH:
        raise DecodeError(f"nesting too deep at byte {pos}")
    depth += 1
    pos = _WS.match(data, pos + 1).end()
    if head == b"[":
        items: list[Any] = []
        if data[pos:pos + 1] == b"]":
            return items, pos + 1
        while True:
            item, pos = _value(data, pos, depth)
            items.append(item)
            m = _LIST_SEP.match(data, pos)
            if m is None:
                raise DecodeError(f"expected ',' or ']' at byte {pos}")
            pos = m.end()
            if m.group(1) == b"]":
                return items, pos
    result: dict[str, Any] = {}
    if data[pos:pos + 1] == b"}":
        return result, pos + 1
    previous = None
    while True:
        start = pos
        m = _ENTRY.match(data, pos)
        if m is None:
            if data[pos:pos + 1] != b'"':
                raise DecodeError(f"expected a map key at byte {pos}")
            key, pos = _text(data, pos + 1)
            colon = _COLON.match(data, pos)
            if colon is None:
                raise DecodeError(f"expected ':' at byte {pos}")
            pos, sep = colon.end(), None
        else:
            raw, _, text, hex_run, digits, true, sep = m.groups()
            try:
                key = raw.decode("utf-8")
            except UnicodeDecodeError:
                key = _decode_utf8(raw, pos + 1)  # raises, naming the byte
            pos = m.end()
        # Code-point order is the order the encoder writes; a repeated key
        # is out of order too.
        if previous is not None and key <= previous:
            raise DecodeError(f"map key {key!r} at byte {start} does not come "
                              f"after {previous!r} in code-point order")
        previous = key
        if sep is None:
            result[key], pos = _value(data, pos, depth)
            m = _MAP_SEP.match(data, pos)
            if m is None:
                raise DecodeError(f"expected ',' or '}}' at byte {pos}")
            pos, sep = m.end(), m.group(1)
        else:
            result[key] = _scalar(text, hex_run, digits, true, m.start(2))
        if sep == b"}":
            return result, pos


def _scalar(text: bytes | None, hex_run: bytes | None, digits: bytes | None,
            true: bytes | None, at: int) -> Any:
    """The value of the scalar lexeme at byte *at*, from its regex groups."""
    if text is not None:
        return _decode_utf8(text, at + 1)
    if digits is not None:
        try:
            return int(digits)
        except ValueError:  # past the interpreter's limit on decimal digits
            raise DecodeError(f"integer too long at byte {at}") from None
    if hex_run is not None:
        if len(hex_run) % 2:
            raise DecodeError(f"odd-length hex in byte-string at byte {at}")
        return bytes.fromhex(hex_run.decode("ascii"))
    return true is not None


def _decode_utf8(raw: bytes, at: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"invalid UTF-8 in text at byte {at}: {exc}") from None


def _text(data: bytes, pos: int) -> tuple[str, int]:
    """The text whose opening quote is just before byte *pos*, escapes and
    all, and the position after its closing quote."""
    chunks = []
    while True:
        end = _RUN.match(data, pos).end()
        chunks.append(_decode_utf8(data[pos:end], pos))
        head = data[end:end + 1]
        if head == b'"':
            return "".join(chunks), end + 1
        if head != b"\\":
            raise DecodeError(f"raw control character in text at byte {end}" if head
                              else f"unterminated text at byte {end}")
        m = _ESCAPE.match(data, end)
        if m is None:
            raise DecodeError(f"malformed escape at byte {end}")
        chunks.append(m.group(1).decode() if m.lastindex == 1 else chr(int(m.group(2), 16)))
        pos = m.end()
