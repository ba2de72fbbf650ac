"""Deterministic scenario runner.

A scenario config declares the actors (cooperatives with their members,
notaries, exchanges, providers with follower topology) and a script of
timed actions.  run_scenario builds every actor with keys derived from
the config seed, executes the script in tick order over a synchronous
ordered message fabric, and returns the event log.  The same config
always produces a byte-identical log: all randomness flows through the
seed and all time through the script ticks, so committed logs work as
golden regression files.

The log's format is declared once: KINDS and CHANNELS give the payload of
each kind and the body of each channel, and SCHEMA the script actions an
``action`` line holds.  Each line layout (a kind, a send's channel, an
action) is written by a writer generated from those declarations on first
use, which refuses a payload or body whose keys, or the types of whose
values, are not the declared ones; the reader decodes each line strictly
by the same declarations.
"""

from __future__ import annotations

import functools
import gc
import io
import linecache
import re
from dataclasses import dataclass, field, make_dataclass, replace
from itertools import chain, groupby, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, get_args

from . import crypto
from .attestation import MODE_ABSENT, MODE_HANDLE, BlindedAttestation, CounterSignedAttestation
from .canonical import Shape, canonical_parse, generated_writer, record_from_map, record_shape
from .canonical import write_canonical_parts
# Not called here: the benchmark's smoke test checks its tracing wraps this name here.
from .canonical import canonical_serialize  # noqa: F401
from .cooperative import QUERIES, Cooperative, MemberRecord
from .crypto import KeyDirectory, KeyPair
from .dsn import Post, Provider, recovery_message
from .errors import ConfigInvalid, CoopAttestError, DecodeError, ScriptActionFailed
from .errors import UnsupportedValue
from .events import send_message
from .ledger import Ledger
from .notary import Notary
from .travel_rule import Exchange, TransferRequest, TravelRuleRecord

# --- event log -----------------------------------------------------------------

@dataclass(slots=True)
class Event:
    """One line of the log.  Its payload holds the keys ``KINDS`` declares for
    its kind, records and attestations in it as objects, and reads back equal.
    A run fills each one's slots without ``__init__`` (``Scenario._emitter``),
    so a field default or a ``__post_init__`` here would not run."""

    tick: int
    actor: str
    kind: str
    payload: dict


def _records(what: str, layouts: dict[str, Any]) -> dict[str, type]:
    """*layouts* with each map of field names to types made a frozen record
    class named after its key and *what*; an ``X | None`` field defaults to None."""
    return {name: layout if not isinstance(layout, dict) else make_dataclass(
                f"{name} {what}", [(key, tp, field(default=None)) if type(None) in get_args(tp)
                                   else (key, tp) for key, tp in layout.items()], frozen=True)
            for name, layout in layouts.items()}


# The log's format, stated once: the payload of each event kind and, for a
# send, the body of each channel.  A payload or body in memory is a map of
# exactly these keys, an unset optional as None.  An "action" payload is the
# script action, whose keys SCHEMA declares, and its "index" (_read_action);
# it too holds every key, an unset optional as None (_UNSET).
KINDS: dict[str, type] = _records("payload", {
    "action": dict,
    "send": dict(to=str, channel=str, body=dict),
    "issued": dict(label=str, attestation_id=bytes, member=str),
    "revoked": dict(attestation_id=bytes),
    "customer-registered": dict(account=str, attestation_id=bytes),
    "beneficiary-registered": dict(account=str),
    "tampered": dict(account=str),
    "onboard": dict(handle=str, ledger_index=int),
    "recover": dict(handle=str, ledger_index=int),
    "post-recorded": dict(handle=str, post_digest=bytes, ledger_index=int),
    "ledger-search": dict(ledger=str, post_digest=bytes),
    "ledger-read": dict(ledger=str, index=int),
    "filter-decision": dict(author_handle=str, origin_provider=str, post_digest=bytes,
                            outcome=str, reason=str),
    "ported": dict(origin_ledger=str, origin_index=int, local_index=int),
    "transfer-decision": dict(transfer_id=str, outcome=str, reason=str,
                              travel_record=TravelRuleRecord | None),
    "chain-verified": dict(ok=bool),
})
CHANNELS: dict[str, type] = _records("body", {
    "witness-request": dict(plain_id=bytes, blinded=BlindedAttestation),
    "countersigned": dict(attestation=CounterSignedAttestation),
    "transfer": TransferRequest,
    "attestation-request": dict(transfer_id=str),
    "attestation-delivery": dict(transfer_id=str, attestation=CounterSignedAttestation),
    "post": Post,
    "recovery-notice": dict(handle=str),
    "revalidation": dict(attestation_id=bytes),
    "revalidation-status": dict(attestation_id=bytes, status=str),
    "disclosure-request": dict(attestation_id=bytes, jurisdiction=str, purpose=str),
    "disclosure-response": dict(attestation_id=bytes, outcome=str),
})


# The payload key whose text picks the layout of a line of these kinds.
_PICKED_BY = {"send": "channel", "action": "action"}


@functools.cache
def _line_writer(key: str | tuple[str, str]) -> Callable[[Event], bytes]:
    """The writer of the lines of *key*: a kind, or ("send", channel), or
    ("action", the script action's name).  It is generated on first use
    from the declarations (canonical.generated_writer); an undeclared key
    raises UnsupportedValue."""
    kind, picked = key if isinstance(key, tuple) else (key, None)
    if kind == "send" and picked in CHANNELS:
        payload = record_shape("send payload", KINDS["send"], channel=picked,
                               body=record_shape(f"{picked} body", CHANNELS[picked]))
    elif kind == "action" and picked in _LOGGED_ACTIONS:
        entries = [("action", "action", picked, False), *(
            (field_key, field_key, f.tp, not f.required)
            for field_key, f in _LOGGED_ACTIONS[picked].items())]
        payload = Shape(f"{picked} action", tuple(sorted(entries)))
    elif kind in KINDS and kind not in _PICKED_BY:
        payload = record_shape(f"{kind} payload", KINDS[kind])
    else:
        raise UnsupportedValue(f"undeclared event {key!r}")
    name = "/".join(key) if isinstance(key, tuple) else key
    return generated_writer(f"<coopattest line {name}>",
                            record_shape(f"{kind} event", Event, kind=kind, payload=payload), "line")


def _line(event: Event) -> bytes:
    """The line of *event*, newline included, encoded on its own, so that a log
    is written a line at a time and its whole text is never held.  An
    undeclared kind, channel or action raises UnsupportedValue, and so does
    a payload or body whose keys or value types are not exactly its
    declaration's (an unset optional is there as None)."""
    kind = event.kind
    picked_by = _PICKED_BY.get(kind)
    if picked_by is None:
        return _line_writer(kind)(event)
    payload = event.payload
    picked = payload.get(picked_by) if type(payload) is dict else None
    if type(picked) is not str:
        raise UnsupportedValue(f"{kind} payload missing key {picked_by!r}" if picked is None else
                               f"{kind} payload key {picked_by!r} must be str, "
                               f"not {type(picked).__name__}")
    return _line_writer((kind, picked))(event)


def _read_event(raw: Any) -> Event:
    """The event whose line's map is *raw*, every payload and body decoded
    strictly by its declaration."""
    event = record_from_map(Event, raw)
    layout = KINDS.get(event.kind)
    if layout is None:
        raise DecodeError(f"unknown event kind {event.kind!r}")
    if layout is dict:
        _read_action(event.payload)
        event.payload = {**_UNSET[event.payload["action"]], **event.payload}
        return event
    payload = vars(record_from_map(layout, event.payload))
    if event.kind == "send":
        body = CHANNELS.get(payload["channel"])
        if body is None:
            raise DecodeError(f"unknown send channel {payload['channel']!r}")
        payload = {**payload, "body": vars(record_from_map(body, payload["body"]))}
    event.payload = payload
    return event


class EventLog:
    """Total-ordered scenario trace, one canonical line per event."""

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self.events: list[Event] = list(events)

    def __len__(self) -> int:
        return len(self.events)

    def to_bytes(self) -> bytes:
        """One line per event, by the writer of its kind (of its channel, for a
        send); an undeclared kind or channel raises UnsupportedValue."""
        buffer = io.BytesIO()
        buffer.writelines(map(_line, self.events))
        return buffer.getvalue()

    def write(self, path: str | Path) -> None:
        """Write the log to *path* like a state file, atomically and a new file
        private to its owner: a disclosed travel record holds legal names."""
        write_canonical_parts(path, map(_line, self.events))

    @classmethod
    def from_bytes(cls, data: bytes) -> "EventLog":
        """The log whose lines *data* holds.  Lines of nothing but canonical
        whitespace are skipped; any other line that is not an event of a
        declared kind and channel, with exactly the declared keys and types,
        raises DecodeError naming its number, counted from 1."""
        events = []
        for number, line in enumerate(data.splitlines(), 1):
            if line.strip(b" \t\r\n"):
                try:
                    events.append(_read_event(canonical_parse(line)))
                except DecodeError as exc:
                    raise DecodeError(f"event-log line {number}: {exc}") from None
        return cls(events)


# --- config ---------------------------------------------------------------------

# The actor sections, each with what a reference to one of its entries is called.
_ACTORS = {"notaries": "notary", "cooperatives": "cooperative",
           "exchanges": "exchange", "providers": "provider"}
_SECTIONS = (*_ACTORS, "script")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: bytes
    tick_limit: int
    cooperatives: tuple[dict, ...] = ()
    notaries: tuple[dict, ...] = ()
    exchanges: tuple[dict, ...] = ()
    providers: tuple[dict, ...] = ()
    script: tuple[dict, ...] = ()

    @classmethod
    def from_map(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise DecodeError("scenario config must be a map")
        for key in _CONFIG:
            if key not in raw:
                raise DecodeError(f"scenario config missing field {key!r}")
        for key in raw:
            if key not in _CONFIG and key not in _SECTIONS:
                raise DecodeError(f"scenario config has unknown field {key!r}")
        sections = {key: raw.get(key, []) for key in _SECTIONS}
        for key, value in sections.items():
            if not isinstance(value, list):
                raise DecodeError(f"scenario config field {key!r} must be a list")
        return cls(raw["seed"], raw["tick_limit"], **{k: tuple(v) for k, v in sections.items()})

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        return cls.from_map(canonical_parse(Path(path).read_bytes()))


# --- config schema ------------------------------------------------------------------
#
# One table holds every field a config may carry: each actor section and,
# under "script", each action.  A field gives its kind, its default if it
# is optional, and what its value must name.  Each rule a config keeps is
# stated once, as a clause (_Clause): a test, the path its problem names,
# and the problem's words.  A field's kind and what its value names are
# clauses (_field, _refers), and so are the tick rule (_TICK), a member
# id's uniqueness (_NEW_MEMBER) and the rules across fields (_ACROSS).
# From the clauses of one layout, _checker generates two functions on
# first use: its check, which ANDs them, and its wording, which tests them
# in order and words each one that fails.  validate_config calls the check
# of every entry and the wording only of an entry that fails it;
# _build_actors reads the defaults, and Scenario dispatches exactly the
# actions the table lists.

_REQUIRED = object()

# What a clause may call besides builtins; a check calls nothing of it that
# runs a Python frame.  A lone surrogate is the one code point UTF-8 cannot encode.
_lone_surrogate = re.compile("[\ud800-\udfff]").search


def _unencodable(value) -> bool:
    """Whether *value*, or a value of the map it is, is text UTF-8 cannot
    encode: a kind words such a value with a problem of its own."""
    texts = value.values() if isinstance(value, dict) else (value,)
    return any(_lone_surrogate(text) for text in texts if isinstance(text, str))


_SCOPE = {"_lone_surrogate": _lone_surrogate, "_is_str": str.__instancecheck__,
          "_chain": chain.from_iterable, "_repeat": repeat, "_RULES": frozenset(QUERIES),
          "MODE_HANDLE": MODE_HANDLE, "_unencodable": _unencodable}


class _Field(NamedTuple):
    tp: Any                  # the type of its value; an action's line is written by it
    source: str              # its check, a Python expression true of a value v of its kind
    check: Callable[[object], bool]   # compiled from source
    problem: str
    instead: tuple           # (a test of v, the problem instead): the first that holds
    default: object = _REQUIRED
    ref: str | None = None   # what the value must name; see _refers

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


def _kind(tp: Any, source: str, problem: str, *instead: tuple[str, str]):
    """A field constructor for one kind: kind(default=..., ref=...).  A value
    that fails *source* is worded by the first of *instead* whose test
    holds of it, else by *problem*."""
    check = eval(f"lambda v: {source}", _SCOPE)
    return lambda default=_REQUIRED, ref=None: _Field(tp, source, check, problem, instead,
                                                      default, ref)


_ENCODES = "(v.isascii() or _lone_surrogate(v) is None)"
_UNENCODABLE = "_unencodable(v)"
_STRINGS = "type(v) is list and {*map(type, v)} <= {str}"

_text = _kind(str, f"type(v) is str and v != '' and {_ENCODES}", "must be a non-empty string",
              (_UNENCODABLE, "must be a string that UTF-8 can encode"))
_count = _kind(int, "type(v) is int and v > 0", "must be a positive integer")
_tick = _kind(int, "type(v) is int and v >= 0", "must be a non-negative integer")
_seed = _kind(bytes, "isinstance(v, bytes) and v != b''", "must be a non-empty byte-string")
_body = _kind(str | bytes, f"type(v) is bytes and v != b'' or type(v) is str and v != '' "
              f"and {_ENCODES}", "must be non-empty text or bytes",
              (_UNENCODABLE, "must be bytes or text that UTF-8 can encode"))
_handle = _kind(str, f"type(v) is str and v.startswith('@') and {_ENCODES}", "must begin with '@'",
                (_UNENCODABLE, "must be a handle that UTF-8 can encode"))
_mode = _kind(str, f"type(v) is str and v in {(MODE_ABSENT, MODE_HANDLE)!r}",
              f"must be {MODE_ABSENT!r} or {MODE_HANDLE!r}")
# Derivation reads only a member's top-level fields, so only their text must
# encode, and be exactly str, as a claim's value is.
_data = _kind(dict, "type(v) is dict and _lone_surrogate(''.join(t := [*filter(_is_str, "
              "v.values())])) is None and {*map(type, t)} <= {str}", "must be a map",
              (_UNENCODABLE, "must be a map whose text values UTF-8 can encode"),
              ("type(v) is dict", "must be a map whose text values are exactly str"))
_entries = _kind(list, "type(v) is list", "must be a list")
_codes = _kind(list[str], _STRINGS, "must be a list of jurisdiction codes")
_rules = _kind(list[str], f"{_STRINGS} and v != [] and _RULES.issuperset(v)",
               "must be a non-empty list of rule names")
_follower_lists = _kind(dict[str, list[str]], "type(v) is dict and {*map(type, v.values())} "
                        "<= {list} and {*map(type, _chain(v.values()))} <= {str}",
                        "must map handles to lists of provider names")

# The config's own fields, beside its sections; ScenarioConfig requires them.
_CONFIG = {"seed": _seed(), "tick_limit": _tick()}

SCHEMA: dict[str, dict[str, _Field]] = {
    "notaries": {"name": _text(), "jurisdiction": _text(), "compatible": _codes(default=())},
    "cooperatives": {"name": _text(), "legal_rep": _text(ref="notary"),
                     "members": _entries(default=())},
    "members": {"member_id": _text(), "legal_identity": _text(), "personal_data": _data(),
                "handle": _handle(default=None)},
    "exchanges": {"name": _text(), "jurisdiction": _text(), "threshold": _count()},
    "providers": {"name": _text(), "jurisdiction": _text(),
                  "followers": _follower_lists(default={}, ref="provider")},
    # Every action also carries "at", its tick, and "action", its key here.
    "script": {
        "issue": {"coop": _text(ref="cooperative"), "member": _text(),
                  "queries": _rules(), "mode": _mode(), "ttl": _count(),
                  "label": _text(ref="new label")},
        # Its rule across fields (_ACROSS) decides which of these a register reads.
        "register": {"exchange": _text(None, "exchange"), "account": _text(None),
                     "name": _text(None), "provider": _text(None, "provider"),
                     "handle": _text(None), "attestation": _text(None, "issued label")},
        "transfer": {"origin": _text(ref="exchange"),
                     "beneficiary_exchange": _text(ref="exchange"), "transfer_id": _text(),
                     "originator_account": _text(), "beneficiary_account": _text(),
                     "asset": _text(), "amount": _count()},
        "post": {"provider": _text(ref="provider"), "handle": _text(), "body": _body()},
        "revoke": {"coop": _text(ref="cooperative"), "attestation": _text(ref="issued label")},
        "recover": {"provider": _text(ref="provider"), "handle": _text(),
                    "attestation": _text(ref="issued label")},
        "inject-bot-post": {"provider": _text(ref="provider"), "author": _text(),
                            "origin": _text(), "body": _body()},
        "tamper": {"exchange": _text(ref="exchange"), "account": _text()},
        "port": {"provider": _text(ref="provider"), "origin": _text(ref="provider"),
                 "handle": _text()},
    },
}


# An action as its log line holds it, "index" included, its names unresolved.
_LOGGED_ACTIONS = {name: {**fields, "at": _tick(), "index": _tick()}
                   for name, fields in SCHEMA["script"].items()}
# Each action's optional fields, unset: its log payload holds them as None.
_UNSET = {name: {key: None for key, f in fields.items() if not f.required}
          for name, fields in SCHEMA["script"].items()}


def _setting(section: str, entry: dict, key: str):
    """The entry's value for an optional field, or the table's default."""
    return entry.get(key, SCHEMA[section][key].default)


# --- the rules --------------------------------------------------------------------

class _Clause(NamedTuple):
    """One rule.  *test* is a Python expression, true where the rule holds,
    over the entry e, the walk w and the value v of the field it is of; an
    action's also over limit, the tick limit, and a member's over ids, its
    cooperative's members before it.  *path* and *problem* are the text of
    f-strings over the same names: what the problem's path adds to the
    entry's, and its words.  A clause with no problem only guards.  *then*
    holds the clauses, or statements, tested only where this one holds.

    With *each*, "item in items", the rule holds of each item alone: its
    test is over x, which the check binds to all the items at once and the
    wording to each one, as (item,), so that the wording words each item
    that breaks the rule.  *keep* is a statement that records what the
    entry declares, for the entries after it: the wording runs it where
    the clause holds, the check once the whole entry passes."""

    test: str
    path: str
    problem: str | None
    each: str | None = None
    then: tuple = ()
    keep: str | None = None


def _field(key: str, f: _Field, then: tuple = ()) -> tuple:
    """The clauses of an entry's field *key*: its value bound to v, its kind,
    and *then* where the kind holds.  A required key that is missing reads
    as None, which no kind takes."""
    words = "{" + "".join(f"{problem!r} if {test} else " for test, problem in f.instead) + \
        f"{f.problem!r}}}"
    kind = _Clause(f.source, f".{key}", words, then=then)
    if f.required:
        return (f"v = e.get({key!r})", kind)
    return (_Clause(f"{key!r} in e", "", None, then=(f"v = e[{key!r}]", kind)),)


def _refers(key: str, f: _Field) -> tuple:
    """The clause that the value v of field *key* names what its ref says."""
    if f.ref == "new label":
        return (_Clause("v not in w.labels", f".{key}", "duplicate label {v!r}",
                        keep=f"w.labels.add(e[{key!r}])"),)
    if f.ref == "issued label":
        return (_Clause("v in w.labels", f".{key}",
                        "label {v!r} not issued earlier in the script"),)
    if f.ref is None:
        return ()
    if f.tp is str:   # an actor's name
        return (_Clause(f"v in w.names[{f.ref!r}]", f".{key}", f"unknown {f.ref} {{v!r}}"),)
    return (_Clause(f"w.names[{f.ref!r}].keys() >= {{*x}}", f".{key}",   # lists of names
                    f"unknown {f.ref} {{name!r}}", "name in _chain(v.values())"),)


# An action's tick is one (its kind), at least the tick of the action
# before it, and at most the tick limit; the next action follows it.
_TICK = _field("at", _tick(), then=(
    _Clause("v >= w.last", ".at", "ticks must be non-decreasing ({v} < {w.last})",
            keep="w.last = e['at']", then=(_Clause("limit is None or v <= limit", ".at",
                                                   "tick {v} exceeds tick_limit {limit}"),)),))
# An action of no declared kind, whose layout is ("script", None): its name
# is text, but not exactly str, as its log line's must be, or no action's.
_UNKNOWN_ACTION = _Clause("type(a := e.get('action')) is str or not isinstance(a, str)", ".action",
                          "must be str, not {type(a).__name__}", then=(
                              _Clause("False", ".action", "unknown action {a!r}"),))
# A member id is new in its cooperative, whatever else is wrong with the
# member.  A member that passes has a text id, so the check keeps it unguarded.
_NEW_MEMBER = _Clause("isinstance(m := e.get('member_id'), str)", "", None, then=(
    _Clause("m not in ids", ".member_id", "duplicate member {m!r}", keep="ids[m] = e"),))

# The fields each form of register reads: a sender onboarding at a
# provider, then a beneficiary's name and a customer's attestation
# registered at an exchange.
_REGISTER_FORMS = tuple(map(frozenset, (("provider", "handle", "attestation"),
                                         ("exchange", "account", "name"),
                                         ("exchange", "account", "attestation"))))
_SCOPE.update(_REGISTER=SCHEMA["script"]["register"], _REGISTER_FORMS=_REGISTER_FORMS)

# The rules across fields, each tested only where the entry's own fields
# pass, so that it may rely on their kinds.
_ACROSS = {
    "providers": (
        _Clause("e['name'] not in _chain((f := e.get('followers', {})).values())", ".followers",
                "a provider cannot forward to itself"),
        _Clause("{*map(type, x)} <= {str} and all(map(str.startswith, x, _repeat('@')))",
                ".followers", "{h!r} is not a handle", "h in f"),
        _Clause("sum(map(len, map(f.get, x))) == sum(map(len, map(set, map(f.get, x))))",
                ".followers", "the followers of {h!r} name a provider twice", "h in f"),
    ),
    "issue": (
        _Clause("(m := w.members[id(w.names['cooperative'][e['coop']])].get(e['member'])) "
                "is not None", ".member", "unknown member {e['member']!r}", then=(
                    _Clause("e['mode'] != MODE_HANDLE or m.get('handle')", ".mode",
                            "member {e['member']!r} has no handle"),)),
    ),
    "register": (
        _Clause("('exchange' in e) != ('provider' in e)", "",
                "register needs exactly one of 'exchange' or 'provider'", then=(
                    # No key is in one but not the other of the entry and the form r it picks.
                    _Clause("(r := _REGISTER_FORMS[0 if 'provider' in e else 1 if 'name' in e "
                            "else 2]).symmetric_difference(e).isdisjoint(x)", ".{k}",
                            "{_REGISTER[k].problem if k in r else 'not read by a register of ' "
                            "+ ', '.join(filter(r.__contains__, _REGISTER))}", "k in _REGISTER"),)),
    ),
    "transfer": (_Clause("e['origin'] != e['beneficiary_exchange']", ".beneficiary_exchange",
                         "transfer from an exchange to itself"),),
    "port": (_Clause("e['provider'] != e['origin']", ".origin",
                     "porting from a provider onto itself"),),
}


def _clauses(layout: str, kind: str | None, words: bool) -> _Clause:
    """The clauses of one layout, all under the one that its entry is a map:
    of an entry of an actor section or of "members", of a "script" action
    of *kind* (None: of no declared kind), or of an "action" line of
    *kind*, whose values need name nothing.  The wording names each key the
    layout does not declare, first; the check counts the keys instead."""
    if layout == "script" and kind is None:
        return _Clause("isinstance(e, dict)", "", "must be a map", then=(*_TICK, _UNKNOWN_ACTION))
    if layout == "action":
        fields, also, across = _LOGGED_ACTIONS[kind], ("action",), ()
    else:
        fields = SCHEMA[layout] if kind is None else SCHEMA["script"][kind]
        also, across = ("at", "action") if kind else (), _ACROSS.get(kind or layout, ())
    body = [clause for key, f in fields.items()
            for clause in _field(key, f, () if layout == "action" else _refers(key, f))]
    if words:   # the rules across fields are tested only where no field failed
        body = ["before = len(w.problems)",
                _Clause(f"all(map({(*fields, *also)!r}.__contains__, x))", ".{k}",
                        "unknown field", "k in e"), *body]
        if across:
            body.append(_Clause("len(w.problems) == before", "", None, then=across))
    else:   # every required key was read, so the entry has no other key if it has as many
        count = " + ".join((str(len(also) + sum(f.required for f in fields.values())),
                            *(f"({key!r} in e)" for key, f in fields.items() if not f.required)))
        body += [_Clause(f"len(e) == {count}", "", "unknown field"), *across]
    if layout == "members":
        body.append(_NEW_MEMBER)
    return _Clause("isinstance(e, dict)", "", "must be a map",
                   then=(*(_TICK if layout == "script" else ()), *body))


@functools.cache
def _checker(layout: str, kind: str | None = None, words: bool = False) -> Callable:
    """The check of one layout's entries (see _clauses), or with *words* its
    wording, generated on first use.  A check is called with the entry and
    the walk (an action line's with the entry alone), a wording with the
    entry, the walk and the entry's path; a member's with its cooperative's
    members before it too, and a script action's with the tick limit (None
    if that is not valid).  A check is false as soon as a clause fails;
    else it runs the keeps and is true.  The wording adds each problem to
    the walk.  The source is kept in ``linecache`` under a name like
    ``<coopattest check script/issue>``, so a traceback shows the line."""
    form = "words" if words else "check"
    args = "e, w, p" if words else "e" if layout == "action" else "e, w"
    args += {"members": ", ids", "script": ", limit"}.get(layout, "")
    lines, keeps = [f"def {form}({args}):"], []

    def emit(items, indent: str) -> None:
        for each, group in groupby(items, lambda item: getattr(item, "each", None)):
            inner = indent
            if each:
                item, _, whole = each.partition(" in ")
                lines.append(f"{indent}x = {whole}" if not words else
                             f"{indent}for {item} in {whole}:\n{indent}    x = ({item},)")
                inner += "    " * words
            for c in group:
                if isinstance(c, str):
                    lines.append(inner + c)
                elif c.problem is None:
                    lines.append(f"{inner}if {c.test}:")
                    emit(c.then, inner + "    ")
                elif not words:
                    lines.append(f"{inner}if not ({c.test}):\n{inner}    return False")
                    keeps.extend([c.keep] if c.keep else ())
                    emit(c.then, inner)
                else:
                    lines.append(f"{inner}if not ({c.test}):\n"
                                 f'{inner}    w.problems.append(f"""{{p}}{c.path}: {c.problem}""")')
                    if c.keep or c.then:
                        lines.append(f"{inner}else:")
                        emit(((c.keep,) if c.keep else ()) + c.then, inner + "    ")

    emit((_clauses(layout, kind, words),), "    ")
    if not words:   # the entry passed: record what it declares
        lines += [f"    {keep}" for keep in (*keeps, "return True")]
    source = "\n".join(lines) + "\n"
    filename = f"<coopattest {form} {layout if kind is None else f'{layout}/{kind}'}>"
    namespace = dict(_SCOPE)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[form]


# --- validation ---------------------------------------------------------------------

class _Walk:
    """What one pass over a config has found: its problems, and what the
    entries before the current one declared, which a clause may read."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.names: dict[str, dict[str, dict]] = {ref: {} for ref in _ACTORS.values()}
        self.members: dict[int, dict[str, dict]] = {}  # id of a coop entry -> its members by id
        self.labels: set[str] = set()
        self.last = 0   # the tick of the action before


def validate_config(config: ScenarioConfig) -> list[str]:
    """Empty list iff run_scenario's preconditions hold; each problem names
    the offending field path."""
    walk, limit = _Walk(), config.tick_limit
    for key, f in _CONFIG.items():
        if not f.check(getattr(config, key)):
            walk.problems.append(f"{key}: {f.problem}")
            limit = None if key == "tick_limit" else limit
    # Names first: an entry may name any other, later ones included.
    for section, ref in _ACTORS.items():
        for i, entry in enumerate(getattr(config, section)):
            name = entry.get("name") if isinstance(entry, dict) else None
            if isinstance(name, str) and name in walk.names[ref]:
                walk.problems.append(f"{section}[{i}].name: duplicate name {name!r}")
            elif isinstance(name, str) and name:
                walk.names[ref][name] = entry
    for section in _ACTORS:
        for i, entry in enumerate(getattr(config, section)):
            if not _checker(section)(entry, walk):
                _checker(section, None, True)(entry, walk, f"{section}[{i}]")
    # Members, whatever else is wrong with their cooperative, so that an
    # issue names a member that is really missing.
    default = SCHEMA["cooperatives"]["members"].default
    for i, coop in enumerate(config.cooperatives):
        members = coop.get("members", default) if isinstance(coop, dict) else ()
        ids = walk.members[id(coop)] = {}
        for j, member in enumerate(members if isinstance(members, list) else ()):
            if not _checker("members")(member, walk, ids):
                _checker("members", None, True)(member, walk, f"cooperatives[{i}].members[{j}]",
                                                ids)
    actions = SCHEMA["script"]
    for i, action in enumerate(config.script):
        kind = action.get("action") if isinstance(action, dict) else None
        known = type(kind) is str and kind in actions
        if not (known and _checker("script", kind)(action, walk, limit)):
            _checker("script", kind if known else None, True)(action, walk, f"script[{i}]", limit)
    return walk.problems


def _read_action(payload: dict) -> None:
    """Raise DecodeError unless *payload*, an action line's, holds a script
    action whose fields pass their checks, its "at" and "index" included."""
    kind = payload.get("action")
    if not isinstance(kind, str) or kind not in _LOGGED_ACTIONS:
        raise DecodeError(f"unknown action {kind!r}")
    if not _checker("action", kind)(payload):
        walk = _Walk()
        _checker("action", kind, True)(payload, walk, f"script[{payload.get('index')}]")
        raise DecodeError("; ".join(walk.problems))


# --- execution ---------------------------------------------------------------------

class _Adversary:
    """Pseudo-actor that injects unauthenticated traffic."""

    name = "adversary"


class Scenario:
    """A fully wired actor set executing one config."""

    def __init__(self, config: ScenarioConfig) -> None:
        problems = validate_config(config)
        if problems:
            raise ConfigInvalid(problems)
        self.config = config
        self.log = EventLog()
        self._tick = [0]   # the current tick, read by now and by each emit
        self.keys = KeyDirectory()   # the issuers' and notaries' keys a consumer checks
        self.artifacts: dict[str, CounterSignedAttestation] = {}
        self.adversary = _Adversary()
        self._build_actors()

    @property
    def now(self) -> int:
        return self._tick[0]

    @now.setter
    def now(self, tick: int) -> None:
        self._tick[0] = tick

    # --- construction ---------------------------------------------------------

    def _emitter(self, name: str) -> Callable[[str, dict], None]:
        """The emit of the actor called *name*: it appends each event at the
        current tick and is the one Python frame an event costs, since it
        fills the slots of a bare ``Event`` rather than run ``Event.__init__``.
        It holds the log's list and the tick, not the scenario, so it makes no cycle."""
        tick, append, new = self._tick, self.log.events.append, object.__new__

        def emit(kind: str, payload: dict) -> None:
            event = new(Event)
            event.tick = tick[0]
            event.actor = name
            event.kind = kind
            event.payload = payload
            append(event)
        return emit

    def _actor_seed(self, role: str, name: str) -> bytes:
        return b"%s/%s/%s" % (self.config.seed, role.encode(), name.encode())

    def _recovery_key(self, handle: str) -> KeyPair:
        """The recovery key the harness holds for the sender of *handle*."""
        return crypto.keygen(self._actor_seed("sender", handle) + b"/recovery")

    def _build_actors(self) -> None:
        config = self.config
        self.notaries: dict[str, Notary] = {}
        for entry in config.notaries:
            notary = Notary(
                entry["name"], self._actor_seed("notary", entry["name"]), entry["jurisdiction"],
                frozenset(_setting("notaries", entry, "compatible")),
            )
            self.keys.add(notary.public_key)
            self.notaries[entry["name"]] = notary

        self.coops: dict[str, Cooperative] = {}
        for entry in config.cooperatives:
            coop = Cooperative(
                entry["name"], self._actor_seed("coop", entry["name"]), entry["legal_rep"],
                nonce_seed=self.config.seed + b"/nonce/" + entry["name"].encode(),
            )
            # validate_config checked each member entry.
            for member in _setting("cooperatives", entry, "members"):
                coop.register_member(MemberRecord(
                    member["member_id"], member["legal_identity"], member["personal_data"],
                    member.get("handle")))
            self.keys.add(coop.public_key)
            # Its notary forwards each revalidation of what it issued to it.
            self.notaries[coop.legal_rep_id].represent(coop.public_key, coop.revalidation_status)
            self.coops[entry["name"]] = coop

        self.exchanges: dict[str, Exchange] = {}
        for entry in config.exchanges:
            exchange = Exchange(
                entry["name"], entry["jurisdiction"],
                disclosure_threshold=entry["threshold"],
                keys=self.keys, notaries=self.notaries,
            )
            self.exchanges[entry["name"]] = exchange

        self.ledgers: dict[str, Ledger] = {}
        self.providers: dict[str, Provider] = {}
        for entry in config.providers:
            provider = Provider(
                entry["name"], entry["jurisdiction"],
                crypto.keygen(self._actor_seed("provider", entry["name"])),
                keys=self.keys, notaries=self.notaries,
                ledger_registry=self.ledgers,
                followers=_setting("providers", entry, "followers"),
            )
            self.providers[entry["name"]] = provider
        for actor in (self.adversary, *self.notaries.values(), *self.coops.values(),
                      *self.exchanges.values(), *self.providers.values()):
            actor._emit = self._emitter(actor.name)

    # --- run -------------------------------------------------------------------

    def run(self) -> EventLog:
        """Execute the script, then audit each provider's chain; returns the log.

        Python's cyclic garbage collector is paused while the run lasts: what
        a run allocates stays reachable from the scenario and its log, so a
        collection inside it frees nothing and only lands in some action's
        latency; nor does a run make a cycle, so a dropped scenario needs no
        collection.  On return or raise the collector is enabled again if it
        was enabled on entry; a caller that disabled it finds it still disabled.
        The pause is process-wide, so other threads see it while a run lasts.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            emit = self._emitter("scheduler")
            for i, action in enumerate(self.config.script):
                self.now = action["at"]
                emit("action", {"index": i, **_UNSET[action["action"]], **action})
                try:
                    self._handlers[action["action"]](self, action)
                except ScriptActionFailed:
                    raise
                except CoopAttestError as exc:
                    raise ScriptActionFailed(self.now, action, exc) from exc
            self.now = self.config.tick_limit
            for provider in self.providers.values():
                provider._emit("chain-verified", {"ok": provider.ledger.verify_chain()})
        finally:
            if collecting:
                gc.enable()
        return self.log

    @staticmethod
    def _body_bytes(action: dict) -> bytes:
        body = action["body"]
        return body if isinstance(body, bytes) else body.encode("utf-8")

    def _do_issue(self, action: dict) -> None:
        coop = self.coops[action["coop"]]
        notary = self.notaries[coop.legal_rep_id]
        plain, blinded = coop.issue_blinded(
            action["member"], list(action["queries"]), action["mode"],
            self.now, action["ttl"],
        )
        # The trace names the plain attestation by its id only; the notary
        # alone receives the identity-bearing object.
        send_message(coop, notary, "witness-request",
                     {"plain_id": plain.attestation_id, "blinded": blinded})
        csa = notary.witness_and_countersign(plain, blinded, self.now)
        send_message(notary, coop, "countersigned", {"attestation": csa})
        self.artifacts[action["label"]] = csa
        coop._emit("issued", {
            "label": action["label"],
            "attestation_id": blinded.attestation_id,
            "member": action["member"],
        })

    def _do_register(self, action: dict) -> None:
        if "provider" in action:
            provider = self.providers[action["provider"]]
            handle = action["handle"]
            provider.onboard_sender(handle, self.artifacts[action["attestation"]],
                                    self._recovery_key(handle).public_key, self.now)
            return
        exchange = self.exchanges[action["exchange"]]
        if "name" in action:
            exchange.register_beneficiary(action["account"], action["name"])
            exchange._emit("beneficiary-registered", {"account": action["account"]})
            return
        csa = self.artifacts[action["attestation"]]
        exchange.register_customer(action["account"], csa, self.now)
        exchange._emit("customer-registered", {
            "account": action["account"],
            "attestation_id": csa.blinded.attestation_id,
        })

    def _do_transfer(self, action: dict) -> None:
        origin = self.exchanges[action["origin"]]
        req = TransferRequest(
            transfer_id=action["transfer_id"],
            originator_account=action["originator_account"],
            beneficiary_account=action["beneficiary_account"],
            beneficiary_exchange=action["beneficiary_exchange"],
            asset=action["asset"],
            amount=action["amount"],
            requested_at=self.now,
        )
        origin.originate_transfer(req, self.exchanges[req.beneficiary_exchange], self.now)

    def _do_post(self, action: dict) -> None:
        provider = self.providers[action["provider"]]
        provider.publish_post(action["handle"], self._body_bytes(action), self.now, self.providers)

    def _do_inject_bot_post(self, action: dict) -> None:
        target = self.providers[action["provider"]]
        post = Post(
            body=self._body_bytes(action),
            author_handle=action["author"],
            origin_provider=action["origin"],
            sent_at=self.now,
        )
        send_message(self.adversary, target, "post", vars(post))
        target.receive_post(post, self.now)

    def _do_revoke(self, action: dict) -> None:
        coop = self.coops[action["coop"]]
        csa = self.artifacts[action["attestation"]]
        coop.revoke(csa.blinded.attestation_id, self.now)
        coop._emit("revoked", {"attestation_id": csa.blinded.attestation_id})

    def _do_recover(self, action: dict) -> None:
        provider = self.providers[action["provider"]]
        handle = action["handle"]
        new_csa = self.artifacts[action["attestation"]]
        account = provider.accounts.get(handle)
        if account is None:
            raise ScriptActionFailed(self.now, action, f"handle {handle!r} not onboarded")
        old_record = provider.ledger.get(account.attestation_ptr)
        old_csa = old_record.payload.csa
        # Every attestation a provider holds was issued by a cooperative of the config.
        issuing_coop = next(coop for coop in self.coops.values()
                            if coop.keypair.key_id == old_csa.blinded.issuer_key_id)
        issuing_coop.revoke(old_csa.blinded.attestation_id, self.now)
        issuing_coop._emit("revoked", {"attestation_id": old_csa.blinded.attestation_id})
        signature = crypto.sign(self._recovery_key(handle), crypto.TAG_RECOVER,
                                recovery_message(handle, new_csa.blinded.attestation_id))
        provider.recover_account(handle, signature, new_csa, self.now, self.providers)

    def _do_tamper(self, action: dict) -> None:
        exchange = self.exchanges[action["exchange"]]
        csa = exchange.customer_attestation(action["account"])
        claims = list(csa.blinded.attributes)
        claims[0] = replace(claims[0], value=claims[0].value + "~")
        forged = replace(csa, blinded=replace(csa.blinded, attributes=tuple(claims)))
        exchange.inject_attestation(action["account"], forged)
        exchange._emit("tampered", {"account": action["account"]})

    def _do_port(self, action: dict) -> None:
        local = self.providers[action["provider"]]
        origin = self.providers[action["origin"]]
        account = origin.accounts.get(action["handle"])
        if account is None:
            raise ScriptActionFailed(self.now, action,
                                     f"handle {action['handle']!r} not onboarded at origin")
        local.port_attestation(action["origin"], account.attestation_ptr)


# One handler per action in the table; a missing one fails at import.
Scenario._handlers = {kind: getattr(Scenario, "_do_" + kind.replace("-", "_"))
                      for kind in SCHEMA["script"]}


def run_scenario(config: ScenarioConfig) -> EventLog:
    """Execute the scripted scenario; a pure function of the config.

    The cyclic garbage collector is paused while the script runs (see
    ``Scenario.run``); the caller's collector state is restored on return."""
    return Scenario(config).run()


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario fixture shipped with the package."""
    path = Path(__file__).resolve().parent / "scenarios" / f"{name}.scn"
    if not path.exists():
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return path


def bundled_scenario_names() -> list[str]:
    directory = Path(__file__).resolve().parent / "scenarios"
    return sorted(p.stem for p in directory.glob("*.scn"))
