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
``decode(encode(v)) == v``.  A subclass of one of these types (an
``IntEnum``, say) is refused.  The parser is strict about value lexemes
(lowercase hex only, no leading zeros, ``\\u00xx`` for controls only) and
about map keys (strictly increasing code-point order), so that no two
distinct byte strings decode to the same value; it is tolerant only of
whitespace between tokens, which lets config files be hand-formatted.  Lists
and maps may nest at most ``MAX_DEPTH`` deep.

Records (dataclasses) and event-log lines are written by writers that one
generator makes from their field declarations, one per layout, and are
decoded strictly by the same declarations.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import linecache
import os
import re
import stat
import tempfile
import types
import typing
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from . import crypto
from .crypto import DIGEST_SIZE, Digest
from .errors import CoopAttestError, DecodeError, UnsupportedValue

# --- encoding ---------------------------------------------------------------

# Characters that text must escape: the quote, the backslash, and C0 controls.
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')
_ESCAPES = {'"': '\\"', "\\": "\\\\", **{chr(c): f"\\u{c:04x}" for c in range(0x20)}}


def canonical_serialize(value: Any) -> bytes:
    """Serialize *value* to canonical bytes.

    Raises UnsupportedValue for anything outside the canonical domain
    (floats, None, non-string map keys, text with lone surrogates, a
    subclass of a domain type, arbitrary objects).  An attestation artifact
    encodes as the canonical text it keeps.
    """
    return _utf8(_encode(value))


def _utf8(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        raise UnsupportedValue("text must not contain lone surrogates") from None


def _encode(value: Any) -> str:
    encoder = _ENCODERS.get(type(value))
    if encoder is not None:
        return encoder(value)
    if hasattr(type(value), "_canonical_text"):
        return value._canonical_text
    raise UnsupportedValue(f"cannot canonically serialize {type(value).__name__}")


def _encode_text(text: str) -> str:
    if _NEEDS_ESCAPE.search(text) is None:
        return '"' + text + '"'
    return '"' + _NEEDS_ESCAPE.sub(_escape, text) + '"'


def _escape(match: re.Match) -> str:
    return _ESCAPES[match.group()]


def _encode_list(value: list | tuple) -> str:
    return "[" + ",".join([_encode(item) for item in value]) + "]"


def _encode_key(key: str) -> str:
    return _encode_text(key) + ":"


def _encode_map(value: dict) -> str:
    for key in value:
        if type(key) is not str:
            raise UnsupportedValue(f"map keys must be text, got {type(key).__name__}")
    # Code-point order is UTF-8 byte order for every encodable string; keys
    # with lone surrogates sort somewhere and are rejected at encode time.
    return "{" + ",".join([_encode_key(key) + _encode(value[key])
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
#   crypto.Digest                bytes, exactly DIGEST_SIZE of them;
#   a record                     the record's map;
#   a Union of records           the map of the member whose ``_KIND`` it names;
#   tuple[X, ...]                a list of the encodings of X;
#   frozenset[X]                 a list of the X, sorted;
#   dict[str, X]                 a map of text to the encodings of X;
#   X | None                     X, with the key left out when the value is None.
#
# A field with a default may be missing from a map being decoded, and then
# takes its default.  A record class with ``_KIND`` also writes that text
# under "kind".  A record whose class keeps its own canonical text in
# ``_canonical_text`` (the attestation artifacts) is written as that text,
# inside another record's bytes and by canonical_serialize alike.  Each
# class's writer per set of left-out keys (generated, below), its signer if
# it is a signed record (``attestation._Signed``), and its decoder are built
# once, on first use; the writer and the signer take a value only of exactly
# its declared type, as the decoder does.

def record_bytes(cls: type, record: Any, omit: tuple = ()) -> bytes:
    """``record_text(cls, record)`` in UTF-8, without the wire keys in *omit*."""
    return _utf8(_record_writer(cls, omit, "text")(record))


def record_text(cls: type, record: Any) -> str:
    """The canonical text of the *cls* record *record*.  A value that is not
    exactly of its field's declared type (``True`` is not an ``int``, nor a
    ``str`` subclass a ``str``, nor 31 bytes a ``Digest``) raises
    UnsupportedValue naming the class and the key."""
    return _record_writer(cls, (), "text")(record)


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
    tp: Any  # its annotation, an optional's None left out
    wire: type  # the canonical type of its map value
    decode: Callable | None  # from a map value of that type; None passes it
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
        wire, decode = _codec(tp, f"{cls.__name__} field {key!r}")
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        fields.append(_Field(f.name, key, tp, wire, decode, optional, required))
    return tuple(fields)


def _is(value: Any, wire: type) -> bool:
    """True iff *value* is of canonical type *wire*; ``true`` and ``false``
    are not integers here, although Python's bool subclasses int."""
    return isinstance(value, wire) and not (type(value) is bool and wire is int)


def _codec(tp: Any, where: str) -> tuple:
    """How a value of annotation *tp* is read: (the canonical type it is
    written as, decode); a decode of None passes the value as it is.
    *where* names the field in errors."""
    if tp in (str, int, bool, bytes, dict):
        return tp, None
    if tp is Digest:
        def decode_digest(value: bytes) -> bytes:
            if len(value) != DIGEST_SIZE:
                raise DecodeError(f"{where} must be {DIGEST_SIZE} bytes, not {len(value)}")
            return value

        return bytes, decode_digest
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp) or origin is typing.Union:
        return dict, _decoder(tp)
    if origin is tuple and args[1:] == (Ellipsis,):
        decode_item = _item_decoder(args[0], where)
        return list, (lambda items: tuple(map(decode_item, items)))
    if origin is frozenset:
        decode_item = _item_decoder(args[0], where)
        return list, (lambda items: frozenset(map(decode_item, items)))
    if origin is dict and args[0] is str:
        decode_value = _item_decoder(args[1], where)
        return dict, (lambda raw: {key: decode_value(value) for key, value in raw.items()})
    raise TypeError(f"no canonical codec for {tp!r}")


def _item_decoder(tp: Any, where: str) -> Callable[[Any], Any]:
    """The decoder of an item of annotation *tp* in the container field
    *where*: it checks the item's canonical type, then decodes it."""
    wire, decode = _codec(tp, where)

    def decode_item(value: Any) -> Any:
        if not _is(value, wire):
            raise DecodeError(f"{where} has an item of wrong type")
        return value if decode is None else decode(value)

    return decode_item


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


# --- generated writers -------------------------------------------------------------
#
# A record's writer, and that of an event-log line (an event, its payload and
# body as maps of fixed keys, then a newline), is Python source generated once
# per shape: the record's constant text, with the keys in code-point order,
# and each value written inline by its declared type.  Only the shape reaches
# the source, never a value: keys and fixed texts enter it through ``repr``.
#
# A signed record's signer is generated the same way from its class's shape:
# it checks and writes each field of its body once, as runs of text between
# the keys its signature leaves out or it makes (the signature, the id), and
# joins those runs into the signed bytes, the bytes the id covers and the text.

class Shape(typing.NamedTuple):
    """The layout of a record, or of a map of fixed keys, for a generated
    writer.

    *entries* are ``(key, attr, type, optional)`` in code-point order of
    the wire keys: *attr* is the attribute (of the record) or the key (of a
    map) that holds the value, None for a record's "kind", and *type* is a
    field annotation of the record codec above, ``list[X]``, ``X | Y``, a
    nested map's Shape, or a ``str``: the value itself, fixed by the layout
    and checked by the caller.  An optional value is left out of the text
    when it is None; in a map, it is there as None.  *name* is what a
    refusal calls the record or map."""

    name: str
    entries: tuple


def record_shape(name: str, cls: type, /, omit: tuple = (), **fixed: Any) -> Shape:
    """The Shape of a *cls* record, or of a map of its field values, without
    the wire keys in *omit*, and with the type of each field named in
    *fixed* replaced by the given one.  A class with ``_KIND`` has that
    text under "kind"."""
    entries = [(f.key, f.attr, fixed.get(f.attr, f.tp), f.optional) for f in _fields(cls)]
    if hasattr(cls, "_KIND"):
        entries.append(("kind", None, cls._KIND, False))
    return Shape(name, tuple(sorted(entry for entry in entries if entry[0] not in omit)))


@functools.cache
def _record_writer(cls: type, omit: tuple, form: str) -> Callable[..., Any]:
    """The *form* writer of a *cls* record without the wire keys in *omit*,
    or, of form "sign", the signer of a signed *cls* record."""
    filename = f"<coopattest {form} {cls.__name__}{''.join(' -' + key for key in omit)}>"
    return generated_writer(filename, record_shape(cls.__name__, cls, omit=omit), form,
                            cls if form == "sign" else None)


def generated_writer(filename: str, shape: Shape, form: str, cls: type | None = None
                     ) -> Callable[..., Any]:
    """The writer of a record of *shape*, which returns by *form* its
    canonical "line", newline included, in UTF-8, or its canonical "text";
    or the "sign"er of a signed record of class *cls* and *shape*.  A signer
    is called with the key pair and a dict of exactly the attributes and
    values of every field but those it makes; it adds the signature, and the
    id if the class has one, to that dict, builds the record from it and
    stores the signing memos (``attestation._Signed._sign``).  A writer
    reads a record's fields as attributes, a signer a body's values as
    items.  A value that is not of its declared type, exactly (``True`` is
    not an ``int``), a map that is not a ``dict`` or whose keys are not
    exactly its declared ones, and text in a line that UTF-8 cannot encode
    raise UnsupportedValue naming the record or map and the key, and of a
    list, tuple, frozenset or dict as declared its first wrong item, by
    index, key or (in a frozenset, first by type name) type; a signer
    refuses before it signs.  The source is kept in ``linecache`` under
    *filename*, so a traceback shows the line."""
    namespace = {"_plain": _NEEDS_ESCAPE.search, "_sub": _NEEDS_ESCAPE.sub, "_escape": _escape,
                 "_text": _encode_text, "_hex": _encode_bytes, "_join": ",".join,
                 "_encode": _encode, "_BOOL": ("false", "true"), "_Refused": UnsupportedValue}
    fetch: list[str] = []    # reads every value
    tests: list[str] = []    # true when each map and value is as declared
    setup: list[str] = []    # the text of each optional entry
    names = (f"v{n}" for n in itertools.count())

    def braced(entries: list) -> list[tuple[bool, str]]:
        """The pieces of the text of a map of *entries*: (key, the variable
        of the value if it is optional, the pieces of the entry)."""
        pieces = [(False, "{")]
        # Optional entries before the first required one carry the comma after them.
        first = next(i for i, entry in enumerate(entries) if entry[1] is None)
        for i, (_, optional, entry) in enumerate(entries):
            entry = [(False, "," if i > first else ""), *entry, (False, "," if i < first else "")]
            if optional is None:
                pieces += entry
                continue
            text = next(names)
            setup.append(f"{text} = '' if {optional} is None else {_fstring(entry)}")
            pieces.append((True, text))
        return pieces + [(False, "}")]

    def visit(shape: Shape, var: str, path: str, top: bool) -> tuple[list, list[str]]:
        """The entries of the record or map that *var* holds in the fast path
        and *path* in the refusals, and the refusals' statements."""
        own, nested, entries = [], [], []
        if not top:
            declared = tuple(attr for _, attr, _, _ in shape.entries if attr is not None)
            not_dict, missing, undeclared = (shape.name + text for text in (
                " must be a dict, not ", " missing key ", " has undeclared key "))
            own += [f"m = {path}",
                    "if type(m) is not dict:",
                    f"    raise _Refused({not_dict!r} + type(m).__name__)",
                    f"for key in {declared!r}:",
                    "    if key not in m:",
                    f"        raise _Refused({missing!r} + repr(key))",
                    "for key in m:",
                    f"    if key not in {declared!r}:",
                    f"        raise _Refused({undeclared!r} + repr(key))"]
            tests.extend([f"type({var}) is dict", f"len({var}) == {len(declared)}"])
        for key, attr, tp, optional in shape.entries:
            text = (False, _encode_key(key))
            if isinstance(tp, str):
                entries.append((key, None, [text, (False, _encode_text(tp))]))
                continue
            value = next(names)
            full = f"{path}.{attr}" if top else f"{path}[{attr!r}]"
            fetch.append(f"{value} = {var}.{attr}" if top else f"{value} = {var}[{attr!r}]")
            if isinstance(tp, Shape):
                inner, refusals = visit(tp, value, full, False)
                nested += refusals
                entries.append((key, None, [text, *braced(inner)]))
                continue
            test = _test_source(tp, value, namespace)
            tests.append(f"({value} is None or {test})" if optional else test)
            entries.append((key, value if optional else None,
                            [text, *_text_source(tp, value, namespace)]))
            where = full if top else f"m[{attr!r}]"
            wrong = f"{shape.name} key {key!r} must be {_type_name(tp)}" \
                    f"{' or None' if optional else ''}, not "
            test = _test_source(tp, where, namespace)
            own.append(f"if not ({where} is None or {test}):" if optional else f"if not ({test}):")
            origin, args = typing.get_origin(tp), typing.get_args(tp)
            if origin in (list, tuple, frozenset, dict):
                item, named = args[origin is dict], "" if origin is frozenset else " + ' ' + repr(i)"
                # A frozenset's items in an order the hash seed does not set: by type name.
                pairs = f"{where}.items()" if origin is dict else \
                    f"enumerate(sorted({where}, key=lambda x: type(x).__name__))" \
                    if origin is frozenset else f"enumerate({where})"
                own += [f"    if type({where}) is {origin.__name__}:", f"        for i, x in {pairs}:",
                        f"            if not ({_test_source(item, 'x', namespace)}):",
                        f"                raise _Refused({f'{shape.name} key {key!r} item'!r}{named}"
                        f" + {f' must be {_type_name(item)}, not '!r}"
                        f" + {_refused_source(item, 'x')})"]
            own.append(f"    raise _Refused({wrong!r} + {_refused_source(tp, where)})")
        return entries, own + nested

    if form == "sign":
        made = {f.attr: (f.key, next(names)) for f in _fields(cls)
                if f.attr in (cls._SIGNATURE, cls._ID)}
        entries, refusals = visit(shape._replace(entries=tuple(
            entry for entry in shape.entries if entry[1] not in made)), "record", "record", False)
    else:
        entries, refusals = visit(shape, "record", "record", True)
    del visit  # it calls itself through its own cell, a cycle only the collector frees
    name, parameters = f"write_{form}", "record"
    if form == "sign":
        name, parameters = "sign", "signer, record"
        body = _signer_source(cls, shape, entries, made, names, namespace)
    elif form == "text":
        body = [f"return {_fstring(braced(entries))}"]
    else:
        unencodable = shape.name + " holds text that UTF-8 cannot encode"
        body = ["try:",
                f"    return {_fstring([*braced(entries), (False, chr(10))])}.encode()",
                "except UnicodeEncodeError:",
                f"    raise _Refused({unencodable!r}) from None"]
    source = "\n".join([
        f"def {name}({parameters}, /):",
        "    try:", *(f"        {line}" for line in fetch),
        "    except (AttributeError, KeyError, TypeError):",
        "        pass",
        "    else:",
        f"        if {' and '.join(tests)}:", *(f"            {line}" for line in setup + body),
        *(f"    {line}" for line in refusals), ""])
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _signer_source(cls: type, shape: Shape, entries: list, made: dict, names: Iterator[str],
                   namespace: dict) -> list[str]:
    """The statements of the signer of a *cls* record of *shape* once its
    body is checked: *entries* are the body's (key, None, pieces), in
    code-point order, and *made* maps the attribute of the signature, and
    of the id if there is one, to its key and the variable of its value."""
    namespace.update(_crypto=crypto, _Record=cls)
    if any(optional is not None for _, optional, _ in entries):
        raise TypeError(f"{shape.name} has an optional entry")
    entries = sorted([*entries, *((key, None, [(False, _encode_key(key)),
                                               *_text_source(tp, made[attr][1], namespace)])
                                  for key, attr, tp, _ in shape.entries if attr in made)])
    made_keys = {key for key, _ in made.values()}
    apart = made_keys.union(cls._UNSIGNED)
    segments: list[list] = []    # [a key apart or None for a run of others, its variable, pieces]
    for key, _, pieces in entries:
        if key not in apart and segments and segments[-1][0] is None:
            segments[-1][2] += [(False, ","), *pieces]
        else:
            segments.append([key if key in apart else None, next(names), list(pieces)])
    writes = {key: f"{text} = {_fstring(pieces)}" for key, text, pieces in segments
              if key in made_keys}

    def joined(left_out: Callable[[str | None], bool]) -> str:
        """Source of the braced text of the segments whose key is not *left_out*."""
        pieces = [piece for key, text, _ in segments if not left_out(key)
                  for piece in ((False, ","), (True, text))]
        return _fstring([(False, "{"), *pieces[1:], (False, "}")])

    body = [f"{text} = {_fstring(pieces)}" for key, text, pieces in segments
            if key not in made_keys]
    signature_key, signature = made[cls._SIGNATURE]
    body += ["try:",
             f"    message = {joined(lambda key: key is not None)}.encode()",
             f"    {signature} = record[{cls._SIGNATURE!r}] = "
             f"_crypto.sign(signer, {cls._TAG!r}, message)",
             f"    {writes[signature_key]}"]
    memos = {"_signed_bytes": "message"}
    if cls._ID is not None:
        id_key, record_id = made[cls._ID]
        body += [f"    {record_id} = record[{cls._ID!r}] = "
                 f"_crypto.digest({joined(lambda key: key == id_key)}.encode())",
                 f"    {writes[id_key]}"]
        memos["_id_consistent"] = "True"
    body.append(f"    text = {joined(lambda key: False)}")
    if cls._KEEPS_TEXT:
        memos["_canonical_text"] = "text"
    else:
        body.append("    digest = _crypto.digest(text.encode())")
        memos["_digest"] = "digest"
    return body + ["except UnicodeEncodeError:",
                   "    raise _Refused('text must not contain lone surrogates') from None",
                   "signed = _Record(**record)",
                   "signed.__dict__.update({" + ", ".join(f"{name!r}: {value}"
                                                         for name, value in memos.items()) + "})",
                   "return signed"]


def _fstring(pieces: list[tuple[bool, str]]) -> str:
    """Source of the f-string that joins *pieces*: constant texts, and the
    sources of expressions, which hold no quote, backslash or brace."""
    parts, text = [], ""
    for is_expression, piece in [*pieces, (True, "")]:
        if not is_expression:
            text += piece
            continue
        if text:
            parts.append("f" + repr(text.replace("{", "{{").replace("}", "}}")))
            text = ""
        if piece:
            parts.append(f"f'{{{piece}}}'")
    return "(" + " ".join(parts) + ")"


def _test_source(tp: Any, value: str, namespace: dict) -> str:
    """Source of the test that *value* is exactly of type *tp*."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return "(" + " or ".join(_test_source(arg, value, namespace) for arg in args) + ")"
    if origin in (list, tuple, frozenset):
        return f"(type({value}) is {origin.__name__} and " \
               f"all({_test_source(args[0], 'x', namespace)} for x in {value}))"
    if origin is dict:
        return f"(type({value}) is dict and all(type(k) is str and " \
               f"{_test_source(args[1], 'x', namespace)} for k, x in {value}.items()))"
    if tp is Digest:
        return f"(type({value}) is bytes and len({value}) == {DIGEST_SIZE})"
    if not isinstance(tp, type) or namespace.setdefault(tp.__name__, tp) is not tp:
        raise TypeError(f"no writer for {tp!r}")
    return f"type({value}) is {tp.__name__}"


def _type_name(tp: Any) -> str:
    if tp is Digest:
        return f"{DIGEST_SIZE} bytes"
    return tp.__name__ if typing.get_origin(tp) is None else str(tp)


def _refused_source(tp: Any, value: str) -> str:
    """Source of what a refusal calls *value*, not of type *tp*: bytes
    where a digest is by their length, anything else by its type."""
    name = f"type({value}).__name__"
    return f"(str(len({value})) + ' bytes' if type({value}) is bytes else {name})" \
        if tp is Digest else name


def _text_source(tp: Any, value: str, namespace: dict) -> list[tuple[bool, str]]:
    """The pieces of the canonical text of *value*, of type *tp*: a scalar
    inline, a list of expressions, or one expression."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (list, tuple, frozenset):
        items = f"sorted({value})" if origin is frozenset else value
        return [(False, "["), (True, f"_join([{_expression(args[0], 'x', namespace)} "
                                     f"for x in {items}])"), (False, "]")]
    if tp is str:
        return [(False, '"'), (True, f"{value} if _plain({value}) is None "
                                     f"else _sub(_escape, {value})"), (False, '"')]
    if tp is int:
        return [(True, value)]
    if tp is bytes or tp is Digest:
        return [(False, "0x"), (True, f"{value}.hex()")]
    return [(True, _expression(tp, value, namespace))]


def _expression(tp: Any, value: str, namespace: dict) -> str:
    """Source of the expression for the canonical text of *value*, of type
    *tp*, which has passed its ``_test_source``.  It holds no quote,
    backslash or brace."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        source = _expression(args[-1], value, namespace)
        for arg in reversed(args[:-1]):
            source = f"({_expression(arg, value, namespace)} " \
                     f"if {_test_source(arg, value, namespace)} else {source})"
        return source
    if tp is dict or origin is dict:
        return f"_encode({value})"
    if tp in (str, int, bool, bytes, Digest):
        return {str: "_text({})", int: "repr({})", bool: "_BOOL[{}]", bytes: "_hex({})",
                Digest: "_hex({})"}[tp].format(value)
    if hasattr(tp, "_canonical_text"):
        return f"{value}._canonical_text"
    if dataclasses.is_dataclass(tp):
        namespace[f"_write_{tp.__name__}"] = _record_writer(tp, (), "text")
        return f"_write_{tp.__name__}({value})"
    raise TypeError(f"no writer for {tp!r}")


# --- parsing ----------------------------------------------------------------
#
# The parser decodes its whole input from UTF-8 once, in C, and reads each
# token of the text with one match of a compiled regex; the grammar between
# tokens is checked by recursive descent, one call per value and one frame per
# level of nesting.  A map entry whose value is a scalar is a single match:
# key, colon, value and separator with the whitespace around them.  Text
# with an escape, and any input such a match does not take whole, is read a
# token at a time, and malformed input fails there.
#
# A list of maps that share a form, as a config's members and script
# actions do, reads each later one with a single match too.  A form is a map
# whose values are scalars, non-empty lists of scalars of one type, or maps
# of such values, to any depth.  From a list's third item on, the token path
# finds the form of each map it reads there: each key, in order, with its
# value's type, a list's item type, or a map's form.  A form it has read
# once before teaches the list its layout, at most _MOST_LAYOUTS of them: a
# regex of the form's canonical text with no whitespace, a group for each
# scalar and for each list, whose items one findall of their lexeme splits,
# and a reader generated from the form that builds the map from the groups.
# A list tries first the layout that read its last item.  An item that no
# layout takes whole, or whose integer int() refuses, goes down the token
# path, which finds and words every error.  An item a layout reads nests as
# deep as the two the token path read, so never past MAX_DEPTH.  A list of
# one or two items keeps no count, and nothing outlives a parse but the
# bounded cache of compiled layouts.
#
# Input that is not UTF-8 is decoded again, its bad bytes to the surrogates
# U+DC80..U+DCFF ("surrogateescape"), which no valid input holds.  No text
# token takes one, so such bytes fail where the token holding them is read,
# and the error re-encodes what it quotes.  Such input never parses, so its
# lists learn no layout, and a layout's text lexeme need not exclude those
# surrogates, which would make its compile much slower.  An offset is counted
# in characters while parsing and reported in bytes: canonical_parse converts
# it when it raises.

MAX_DEPTH = 64
"""How many lists and maps may nest in parsed input: far more than anything
the program writes (7, in an event-log line or a state file) and far fewer
than Python's recursion limit, so hostile input fails as a DecodeError."""

_WS = re.compile(r"[ \t\r\n]*")
# A run of text that is neither a quote, a backslash, a C0 control nor a
# byte that is not UTF-8.
_RUN_LEXEME = r'[^"\\\x00-\x1f\udc80-\udcff]*'
_RUN = re.compile(_RUN_LEXEME)
# A run of text that is neither a quote, a backslash nor a C0 control: in
# text decoded strictly from UTF-8, which holds no surrogate, _RUN_LEXEME's.
_UTF8_RUN_LEXEME = r'[^"\\\x00-\x1f]*'
# An escape-free text, a byte-string's hex run, an integer, true, or false:
# groups text, hex, digits and true, of which false sets none.
_SCALAR_LEXEME = r'(?:"(' + _RUN_LEXEME + r')"|0x([0-9a-f]*)|(-?[1-9][0-9]*|0)|(true)|false)'
_SCALAR = re.compile(_SCALAR_LEXEME)
# An escape-free map key and its colon, then, if it is a scalar, the value
# (the scalar's groups, from group 2) and the separator after it.
_ENTRY = re.compile(r'"(' + _RUN_LEXEME + r')"[ \t\r\n]*:[ \t\r\n]*(?:'
                    + _SCALAR_LEXEME + r'[ \t\r\n]*([,}])[ \t\r\n]*)?')
_COLON = re.compile(r"[ \t\r\n]*:[ \t\r\n]*")
_LIST_SEP = re.compile(r"[ \t\r\n]*([,\]])[ \t\r\n]*")
_MAP_SEP = re.compile(r"[ \t\r\n]*([,}])[ \t\r\n]*")
# A run of text as the bytes read it, to quote one that is not UTF-8.
_RAW_RUN = re.compile(_UTF8_RUN_LEXEME)
# The encoder escapes the quote, the backslash and the C0 controls only.
_ESCAPE = re.compile(r'\\(?:(["\\])|u(00[01][0-9a-f]))')

# In a form, the group of each scalar type's lexeme, its value's text, and
# how that text becomes the value if it is not text: text is escape-free and
# hex of even length.  A list's group holds its items' lexemes, which one
# findall of the lexeme splits.
_LEXEMES = {str: '"(' + _UTF8_RUN_LEXEME + ')"', int: r"(-?[1-9][0-9]*|0)", bool: "(true|false)",
            bytes: "0x((?:[0-9a-f]{2})*)"}
_CONVERT = {int: int, bool: "true".__eq__, bytes: bytes.fromhex}
# What a form's reader calls: _int, _bool and _bytes convert, _str_items
# and the like split a list.
_READER_SCOPE = {**{f"_{tp.__name__}": convert for tp, convert in _CONVERT.items()},
                 **{f"_{tp.__name__}_items": re.compile(lexeme).findall
                    for tp, lexeme in _LEXEMES.items()}}
_MOST_LAYOUTS = 8    # that one list learns


def _form(value: dict) -> tuple | None:
    """The form of the parsed map *value*: each key, in order, with the type
    of its value if that is a scalar, ``list[X]`` if it is a non-empty list
    of scalars of one type X, and the form of its value if that is a map of
    such values; None if any value is another list or map."""
    form = []
    for key, item in value.items():
        tp = type(item)
        if tp is dict:
            tp = _form(item)
            if tp is None:
                return None
        elif tp is list:
            kinds = set(map(type, item))
            if len(kinds) != 1 or not kinds <= _LEXEMES.keys():
                return None
            tp = list[kinds.pop()]
        form.append((key, tp))
    return tuple(form)


@functools.lru_cache(maxsize=64)
def _layout(form: tuple) -> tuple:
    """The layout of the maps of *form*: the match of their whitespace-free
    canonical text, with a group for each scalar and each list in it, and
    the reader that makes the map from those groups.  A reader is generated
    Python, into whose source a key enters only through ``repr``; it raises
    ValueError for an integer ``int()`` refuses."""
    names: list[str] = []
    pattern, value = _form_source(form, names)
    namespace = dict(_READER_SCOPE)
    exec(compile(f"def read({', '.join(names)}):\n    return {value}\n", "<coopattest form>",
                 "exec"), namespace)
    return re.compile(pattern).match, namespace["read"]


def _form_source(form: tuple, names: list[str]) -> tuple[str, str]:
    """The pattern of the maps of *form* and the source of their value,
    each scalar and list in it read from a parameter added to *names*."""
    patterns, values = [], []
    for key, tp in form:
        if type(tp) is tuple:
            pattern, value = _form_source(tp, names)
        else:
            value = f"v{len(names)}"
            names.append(value)
            item = typing.get_args(tp)[0] if typing.get_origin(tp) is list else None
            if item is None:
                pattern = _LEXEMES[tp]
                value = value if tp is str else f"_{tp.__name__}({value})"
            else:
                lexeme = _LEXEMES[item].replace("(", "(?:", 1)   # its group, not captured
                pattern = rf"\[({lexeme}(?:,{lexeme})*)\]"
                value = f"_{item.__name__}_items({value})"
                value = value if item is str else f"list(map(_{item.__name__}, {value}))"
        patterns.append(re.escape(_encode_key(key)) + pattern)
        values.append(f"{key!r}: {value}")
    return r"\{" + ",".join(patterns) + r"\}", "{" + ", ".join(values) + "}"


class _Malformed(Exception):
    """The parse fails: what, at which character offset, and any words after it."""


def canonical_parse(data: bytes) -> Any:
    """Parse canonical bytes back into a value.

    Inverse of canonical_serialize on its whole output; additionally
    accepts whitespace between tokens.  Raises DecodeError on anything
    else, and on lists and maps nested deeper than MAX_DEPTH; its message
    names the byte offset where the input went wrong.  The input is decoded
    from UTF-8 once, again if it is not UTF-8, and text values and keys are
    slices of that text.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise DecodeError("canonical input must be bytes")
    try:
        text, most = data.decode("utf-8"), _MOST_LAYOUTS
    except UnicodeDecodeError:
        text, most = data.decode("utf-8", "surrogateescape"), 0
    try:
        value, pos = _value(text, _WS.match(text).end(), 0, most)
        pos = _WS.match(text, pos).end()
        if pos != len(text):
            raise _Malformed("trailing data", pos)
    except _Malformed as exc:
        what, at, *after = exc.args
        at = len(text[:at].encode("utf-8", "surrogateescape"))
        raise DecodeError(f"{what} at byte {at}{''.join(after)}") from None
    return value


def _value(text: str, pos: int, depth: int, most: int) -> tuple[Any, int]:
    """The value that starts at character *pos*, inside *depth* lists and
    maps, and the position after it; a list learns at most *most* layouts."""
    head = text[pos:pos + 1]
    if head != "{" and head != "[":
        m = _SCALAR.match(text, pos)
        if m is not None:
            string, hex_run, digits, true = m.groups()
            if string is not None:
                return string, m.end()
            return _scalar(hex_run, digits, true, m, 2), m.end()
        if head == '"':
            return _text(text, pos + 1)
        raise _Malformed("unexpected " + repr(head.encode("utf-8", "surrogateescape")[:1])
                         if head else "unexpected end of input", pos)
    if depth == MAX_DEPTH:
        raise _Malformed("nesting too deep", pos)
    depth += 1
    pos = _WS.match(text, pos + 1).end()
    if head == "[":
        items: list[Any] = []
        if text.startswith("]", pos):
            return items, pos + 1
        layouts: list = []   # this list's, each (match, read), the last one read first
        sightings: dict[tuple, int] = {}   # forms of the maps the token path read, from item 3 on
        while True:
            item = None
            if layouts and text.startswith("{", pos):
                for i, (match, read) in enumerate(layouts):
                    m = match(text, pos)
                    if m is not None:
                        if i:   # maps of one form come in runs
                            layouts.insert(0, layouts.pop(i))
                        try:
                            item = read(*m.groups())
                        except ValueError:  # past the digit limit: the token path words it
                            pass
                        break
            if item is not None:
                pos = m.end()
            else:
                item, pos = _value(text, pos, depth, most)
                if type(item) is dict and len(items) > 1 and len(layouts) < most:
                    form = _form(item)
                    if form is not None:
                        seen = sightings[form] = sightings.get(form, 0) + 1
                        if seen == 2:
                            layouts.append(_layout(form))
            items.append(item)
            m = _LIST_SEP.match(text, pos)
            if m is None:
                raise _Malformed("expected ',' or ']'", pos)
            pos = m.end()
            if m.group(1) == "]":
                return items, pos
    result: dict[str, Any] = {}
    if text.startswith("}", pos):
        return result, pos + 1
    previous = None
    while True:
        start = pos
        m = _ENTRY.match(text, pos)
        if m is None:
            if not text.startswith('"', pos):
                raise _Malformed("expected a map key", pos)
            key, pos = _text(text, pos + 1)
            colon = _COLON.match(text, pos)
            if colon is None:
                raise _Malformed("expected ':'", pos)
            pos, sep = colon.end(), None
        else:
            key, string, hex_run, digits, true, sep = m.groups()
            pos = m.end()
        # Code-point order is the order the encoder writes; a repeated key
        # is out of order too.
        if previous is not None and key <= previous:
            raise _Malformed(f"map key {key!r}", start,
                             f" does not come after {previous!r} in code-point order")
        previous = key
        if sep is None:
            result[key], pos = _value(text, pos, depth, most)
            m = _MAP_SEP.match(text, pos)
            if m is None:
                raise _Malformed("expected ',' or '}'", pos)
            pos, sep = m.end(), m.group(1)
        elif string is not None:
            result[key] = string
        else:
            result[key] = _scalar(hex_run, digits, true, m, 3)
        if sep == "}":
            return result, pos


def _scalar(hex_run: str | None, digits: str | None, true: str | None,
            m: re.Match, group: int) -> Any:
    """The byte-string, integer or boolean that *m* matched, from its hex,
    digits and true groups, the first of them group *group*."""
    if digits is not None:
        try:
            return int(digits)
        except ValueError:  # past the interpreter's limit on decimal digits
            raise _Malformed("integer too long", m.start(group + 1)) from None
    if hex_run is not None:
        if len(hex_run) % 2:
            raise _Malformed("odd-length hex in byte-string", m.start(group) - 2)
        return bytes.fromhex(hex_run)
    return true is not None


def _text(text: str, pos: int) -> tuple[str, int]:
    """The text whose opening quote is just before character *pos*, escapes
    and all, and the position after its closing quote."""
    chunks = []
    while True:
        end = _RUN.match(text, pos).end()
        chunks.append(text[pos:end])
        head = text[end:end + 1]
        if head == '"':
            return "".join(chunks), end + 1
        if head != "\\":
            if head > "\x1f":  # a byte that is not UTF-8: quote the decoder on its run
                raw = text[pos:_RAW_RUN.match(text, pos).end()].encode("utf-8", "surrogateescape")
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise _Malformed("invalid UTF-8 in text", pos, f": {exc}") from None
            raise _Malformed("raw control character in text" if head else "unterminated text", end)
        m = _ESCAPE.match(text, end)
        if m is None:
            raise _Malformed("malformed escape", end)
        chunks.append(m.group(1) if m.lastindex == 1 else chr(int(m.group(2), 16)))
        pos = m.end()
