"""Event emission hooks shared by the actor classes.

Actors are plain single-threaded objects.  When a scenario harness wires
them up it injects an ``emit`` callable per actor (tagged with the actor
name and the scheduler's current tick); standalone library use leaves it
unset and everything stays silent.  Cross-actor traffic goes through
send_message so every message shows up in the event log exactly once,
as a send.
"""

from __future__ import annotations

from typing import Any, Callable

# emit(kind, payload, wire): *wire* is None, or the wire form of a
# message's body (see send_message).
EmitFn = Callable[[str, dict, Any], Any]


def no_emit(kind: str, payload: dict, wire: Any = None) -> None:
    return None


def send_message(src, dst, channel: str, payload: dict, call: Callable[[], Any],
                 wire: Any = None) -> Any:
    """Deliver a message from actor *src* to actor *dst* and run the handler.

    Both actors expose ``name``; *src* exposes ``_emit``.  The send event is
    recorded before the handler runs, so handler side effects appear after
    it in the log, the same order a queued transport would produce.

    *wire*, when given, is a value that encodes to the same canonical text
    as *payload* but holds the attestation texts the sender had already
    encoded, as ``canonical.Encoded`` values; the log writes the body from
    it, so those texts are spliced in, not encoded again.  The log keeps
    *payload*, a plain map, for its readers.
    """
    src._emit("send", {"to": dst.name, "channel": channel, "body": payload}, wire)
    return call()
