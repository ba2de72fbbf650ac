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
from dataclasses import dataclass, field, make_dataclass, replace
from itertools import chain
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
        return replace(event, payload={**_UNSET[event.payload["action"]], **event.payload})
    payload = vars(record_from_map(layout, event.payload))
    if event.kind == "send":
        body = CHANNELS.get(payload["channel"])
        if body is None:
            raise DecodeError(f"unknown send channel {payload['channel']!r}")
        payload = {**payload, "body": vars(record_from_map(body, payload["body"]))}
    return replace(event, payload=payload)


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
_CONFIG_KEYS = frozenset(("seed", "tick_limit", *_SECTIONS))


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
        for key in ("seed", "tick_limit"):
            if key not in raw:
                raise DecodeError(f"scenario config missing field {key!r}")
        for key in raw:
            if key not in _CONFIG_KEYS:
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
# under "script", each action.  A field gives its kind (a check, and the
# problem reported when the check fails), its default if it is optional,
# and what its value must name.  validate_config walks the table,
# _build_actors reads its defaults, and Scenario dispatches exactly the
# actions it lists.

_REQUIRED = object()


class _Field(NamedTuple):
    tp: Any                  # the type of its value; an action's line is written by it
    check: Callable[[object], bool]
    problem: str
    unencodable: str | None  # the problem instead, for text UTF-8 cannot encode
    default: object = _REQUIRED
    ref: str | None = None   # what the value must name; see _Walk.resolve

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


def _kind(tp: Any, check: Callable[[object], bool], problem: str, unencodable: str | None = None):
    """A field constructor for one kind: kind(default=..., ref=...)."""
    return lambda default=_REQUIRED, ref=None: _Field(tp, check, problem, unencodable, default, ref)


def _is_strings(value) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


def _encodes(text: str) -> bool:
    """True unless *text* holds a lone surrogate, which UTF-8 cannot encode."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


_text = _kind(str, lambda v: type(v) is str and v != "" and _encodes(v),
              "must be a non-empty string", "must be a string that UTF-8 can encode")
_count = _kind(int, lambda v: type(v) is int and v > 0, "must be a positive integer")
_tick = _kind(int, lambda v: type(v) is int and v >= 0, "must be a non-negative integer")
_body = _kind(str | bytes, lambda v: type(v) in (str, bytes) and len(v) > 0
              and (type(v) is bytes or _encodes(v)), "must be non-empty text or bytes",
              "must be bytes or text that UTF-8 can encode")
_handle = _kind(str, lambda v: type(v) is str and v.startswith("@") and _encodes(v),
                "must begin with '@'", "must be a handle that UTF-8 can encode")
_mode = _kind(str, lambda v: type(v) is str and v in (MODE_ABSENT, MODE_HANDLE),
              f"must be {MODE_ABSENT!r} or {MODE_HANDLE!r}")
# Derivation reads only a member's top-level fields, so only their text must encode.
_data = _kind(dict, lambda v: type(v) is dict
              and all(_encodes(x) for x in v.values() if isinstance(x, str)), "must be a map",
              "must be a map whose text values UTF-8 can encode")
_entries = _kind(list, lambda v: type(v) is list, "must be a list")
_codes = _kind(list[str], _is_strings, "must be a list of jurisdiction codes")
_rules = _kind(list[str], lambda v: _is_strings(v) and v != [] and all(q in QUERIES for q in v),
               "must be a non-empty list of rule names")
_follower_lists = _kind(dict[str, list[str]],
                        lambda v: type(v) is dict and all(map(_is_strings, v.values())),
                        "must map handles to lists of provider names")

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
        # _check_register decides which of these a register reads.
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


def _rows(fields: dict[str, _Field], *also: str, refs: bool = True) -> tuple:
    """The walker's flat form of a section or action, and its keys with *also*;
    without *refs*, a value need not name anything."""
    return (tuple((key, f.check, f.problem, f.unencodable, f.required, f.ref if refs else None)
                  for key, f in fields.items()), frozenset(fields).union(also))


_SECTION_ROWS = {name: _rows(fields) for name, fields in SCHEMA.items() if name != "script"}
_ACTION_ROWS = {name: _rows(fields, "at", "action") for name, fields in SCHEMA["script"].items()}
# An action as its log line holds it, "index" included, its names unresolved.
_LOGGED_ACTIONS = {name: {**fields, "at": _tick(), "index": _tick()}
                   for name, fields in SCHEMA["script"].items()}
_LOGGED_ACTION_ROWS = {name: _rows(fields, "action", refs=False)
                       for name, fields in _LOGGED_ACTIONS.items()}
# Each action's optional fields, unset: its log payload holds them as None.
_UNSET = {name: {key: None for key, f in fields.items() if not f.required}
          for name, fields in SCHEMA["script"].items()}


def _setting(section: str, entry: dict, key: str):
    """The entry's value for an optional field, or the table's default."""
    return entry.get(key, SCHEMA[section][key].default)


# --- validation ---------------------------------------------------------------------

class _Walk:
    """One pass over a config against the table, collecting problems."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.names: dict[str, dict[str, dict]] = {ref: {} for ref in _ACTORS.values()}
        self.members: dict[int, dict[str, dict]] = {}  # id of a coop entry -> its members by id
        self.labels: set[str] = set()
        # Where each reference is found.  A new label never is: resolve records it.
        self.known = {**self.names, "issued label": self.labels, "new label": ()}

    def problem(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def fields(self, layout: tuple, entry, section: str, index: int) -> bool:
        """Check entry *index* of *section* against its *layout* from _rows;
        True if it is a map whose fields all pass and that has no other
        key.  A path is spelled out only for a problem."""
        if not isinstance(entry, dict):
            self.problem(f"{section}[{index}]", "must be a map")
            return False
        rows, declared = layout
        before = len(self.problems)
        if not entry.keys() <= declared:
            for key in [key for key in entry if key not in declared]:
                self.problem(f"{section}[{index}].{key}", "unknown field")
        get, known = entry.get, self.known
        for key, check, problem, unencodable, required, ref in rows:
            value = get(key, _REQUIRED)
            if value is _REQUIRED:
                if required:
                    self.problem(f"{section}[{index}].{key}", problem)
            elif not check(value):
                # Text that UTF-8 cannot encode, or a map with such text
                # values, has its kind's own problem.
                texts = value.values() if isinstance(value, dict) else (value,)
                self.problem(f"{section}[{index}].{key}", unencodable if unencodable and not all(
                    _encodes(text) for text in texts if isinstance(text, str)) else problem)
            elif ref is not None and (type(value) is not str or value not in known[ref]):
                self.resolve(ref, value, f"{section}[{index}].{key}")
        return len(self.problems) == before

    def resolve(self, ref: str, value, path: str) -> None:
        if ref == "new label":
            if value in self.labels:
                self.problem(path, f"duplicate label {value!r}")
            self.labels.add(value)
        elif ref == "issued label":
            self.problem(path, f"label {value!r} not issued earlier in the script")
        else:   # an actor name, or follower lists of them
            names = [value] if isinstance(value, str) else chain.from_iterable(value.values())
            for name in names:
                if name not in self.names[ref]:
                    self.problem(path, f"unknown {ref} {name!r}")

    def actors(self, config: ScenarioConfig) -> None:
        # Names first: an entry may name any other, later ones included.
        for section, ref in _ACTORS.items():
            for i, entry in enumerate(getattr(config, section)):
                name = entry.get("name") if isinstance(entry, dict) else None
                if isinstance(name, str) and name in self.names[ref]:
                    self.problem(f"{section}[{i}].name", f"duplicate name {name!r}")
                elif isinstance(name, str) and name:
                    self.names[ref][name] = entry
        for section in _ACTORS:
            for i, entry in enumerate(getattr(config, section)):
                if self.fields(_SECTION_ROWS[section], entry, section, i) \
                        and section in _CROSS_CHECKS:
                    _CROSS_CHECKS[section](self, f"{section}[{i}]", entry)
        # Members, whatever else is wrong with their cooperative, so that an
        # issue names a member that is really missing.
        rows = _SECTION_ROWS["members"]
        for i, coop in enumerate(config.cooperatives):
            members = _setting("cooperatives", coop, "members") if isinstance(coop, dict) else ()
            by_id = self.members[id(coop)] = {}
            section = f"cooperatives[{i}].members"
            for j, member in enumerate(members if isinstance(members, list) else ()):
                self.fields(rows, member, section, j)
                member_id = member.get("member_id") if isinstance(member, dict) else None
                if isinstance(member_id, str) and member_id in by_id:
                    self.problem(f"{section}[{j}].member_id", f"duplicate member {member_id!r}")
                elif isinstance(member_id, str):
                    by_id[member_id] = member

    def script(self, script, tick_limit: int | None) -> None:
        last_tick = 0
        fields, actions, cross_checks = self.fields, _ACTION_ROWS, _CROSS_CHECKS
        for i, action in enumerate(script):
            if not isinstance(action, dict):
                self.problem(f"script[{i}]", "must be a map")
                continue
            tick = action.get("at")
            if type(tick) is not int or tick < 0:
                self.problem(f"script[{i}].at", "must be a non-negative integer")
            elif tick < last_tick:
                self.problem(f"script[{i}].at",
                             f"ticks must be non-decreasing ({tick} < {last_tick})")
            else:
                last_tick = tick
                if tick_limit is not None and tick > tick_limit:
                    self.problem(f"script[{i}].at", f"tick {tick} exceeds tick_limit {tick_limit}")
            kind = action.get("action")
            rows = actions.get(kind) if isinstance(kind, str) else None
            if rows is None:
                self.problem(f"script[{i}].action", f"unknown action {kind!r}")
            elif fields(rows, action, "script", i) and kind in cross_checks:
                cross_checks[kind](self, f"script[{i}]", action)


def _read_action(payload: dict) -> None:
    """Raise DecodeError unless *payload*, an action line's, holds a script
    action whose fields pass their checks, its "at" and "index" included."""
    walk, kind = _Walk(), payload.get("action")
    rows = _LOGGED_ACTION_ROWS.get(kind) if isinstance(kind, str) else None
    if rows is None:
        raise DecodeError(f"unknown action {kind!r}")
    if not walk.fields(rows, payload, "script", payload.get("index")):
        raise DecodeError("; ".join(walk.problems))


# Rules that span fields.  Each runs only once the entry's or action's
# own fields have passed, so it may rely on their kinds.

def _check_provider(walk: _Walk, path: str, provider: dict) -> None:
    followers = _setting("providers", provider, "followers")
    if any(provider["name"] in targets for targets in followers.values()):
        walk.problem(f"{path}.followers", "a provider cannot forward to itself")


def _check_issue(walk: _Walk, path: str, action: dict) -> None:
    coop_name, member_id = action["coop"], action["member"]
    coop = walk.names["cooperative"][coop_name]
    member = walk.members[id(coop)].get(member_id)
    if member is None:
        walk.problem(f"{path}.member", f"unknown member {member_id!r}")
    elif action["mode"] == MODE_HANDLE and not member.get("handle"):
        walk.problem(f"{path}.mode", f"member {member_id!r} has no handle")


def _check_register(walk: _Walk, path: str, action: dict) -> None:
    if ("exchange" in action) == ("provider" in action):
        walk.problem(path, "register needs exactly one of 'exchange' or 'provider'")
        return
    reads = ("provider", "handle", "attestation") if "provider" in action else \
        ("exchange", "account", "name" if "name" in action else "attestation")
    for key, f in SCHEMA["script"]["register"].items():
        if key in reads and key not in action:
            walk.problem(f"{path}.{key}", f.problem)
        elif key not in reads and key in action:
            walk.problem(f"{path}.{key}", f"not read by a register of {', '.join(reads)}")


def _check_transfer(walk: _Walk, path: str, action: dict) -> None:
    if action["origin"] == action["beneficiary_exchange"]:
        walk.problem(f"{path}.beneficiary_exchange", "transfer from an exchange to itself")


def _check_port(walk: _Walk, path: str, action: dict) -> None:
    if action["provider"] == action["origin"]:
        walk.problem(f"{path}.origin", "porting from a provider onto itself")


_CROSS_CHECKS = {"providers": _check_provider, "issue": _check_issue,
                 "register": _check_register, "transfer": _check_transfer, "port": _check_port}


def validate_config(config: ScenarioConfig) -> list[str]:
    """Empty list iff run_scenario's preconditions hold; each problem names
    the offending field path."""
    walk = _Walk()
    if not isinstance(config.seed, bytes) or not config.seed:
        walk.problem("seed", "must be a non-empty byte-string")
    tick_limit = config.tick_limit
    if type(tick_limit) is not int or tick_limit < 0:
        walk.problem("tick_limit", "must be a non-negative integer")
        tick_limit = None
    walk.actors(config)
    walk.script(config.script, tick_limit)
    return walk.problems


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
        self.now = 0
        self.keys = KeyDirectory()   # the issuers' and notaries' keys a consumer checks
        self.artifacts: dict[str, CounterSignedAttestation] = {}
        self.adversary = _Adversary()
        self._bind(self.adversary)
        self._build_actors()

    # --- construction ---------------------------------------------------------

    def _emitter(self, name: str) -> Callable[[str, dict], None]:
        """The emit of the actor called *name*: it appends each event at the
        current tick and is the one Python frame an event costs, since it
        fills the slots of a bare ``Event`` rather than run ``Event.__init__``."""
        scenario, append, new = self, self.log.events.append, object.__new__

        def emit(kind: str, payload: dict) -> None:
            event = new(Event)
            event.tick = scenario.now
            event.actor = name
            event.kind = kind
            event.payload = payload
            append(event)
        return emit

    def _bind(self, actor) -> None:
        actor._emit = self._emitter(actor.name)

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
            self._bind(notary)
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
            self._bind(coop)
            self.coops[entry["name"]] = coop

        self.exchanges: dict[str, Exchange] = {}
        for entry in config.exchanges:
            exchange = Exchange(
                entry["name"], entry["jurisdiction"],
                disclosure_threshold=entry["threshold"],
                keys=self.keys, notaries=self.notaries,
            )
            self._bind(exchange)
            self.exchanges[entry["name"]] = exchange
        for exchange in self.exchanges.values():
            exchange.peers = {n: e for n, e in self.exchanges.items() if n != exchange.name}

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
            self._bind(provider)
            self.providers[entry["name"]] = provider
        for provider in self.providers.values():
            provider.peers = {n: p for n, p in self.providers.items() if n != provider.name}

    # --- run -------------------------------------------------------------------

    def run(self) -> EventLog:
        """Execute the script, then audit each provider's chain; returns the log.

        Python's cyclic garbage collector is paused while the run lasts: what
        a run allocates stays reachable from the scenario and its log, so a
        collection inside it frees nothing and only lands in some action's
        latency.  On return or raise the collector is enabled again if it was
        enabled on entry; a caller that disabled it finds it still disabled.
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
        origin.originate_transfer(req, self.now)

    def _do_post(self, action: dict) -> None:
        provider = self.providers[action["provider"]]
        provider.publish_post(action["handle"], self._body_bytes(action), self.now)

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
        provider.recover_account(handle, signature, new_csa, self.now)

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
