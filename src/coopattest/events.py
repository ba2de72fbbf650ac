"""Event emission hooks shared by the actor classes.

Actors are plain single-threaded objects.  When a scenario harness wires
them up it injects an ``emit`` callable per actor (tagged with the actor
name and the scheduler's current tick); standalone library use leaves it
unset and everything stays silent.  Cross-actor traffic goes through
send_message so every message shows up in the event log exactly once,
as a send.  A payload, and a message body, is a map of the keys its kind
or channel declares (``harness.KINDS`` and ``harness.CHANNELS``), with
``vars(record)`` where a record exists; it holds the values as they are,
attestation artifacts included, and the log writes each artifact as its
canonical text.
"""

from __future__ import annotations

from typing import Any, Callable


def no_emit(kind: str, payload: dict) -> None:
    return None


def send_message(src, dst, channel: str, payload: dict, call: Callable[[], Any]) -> Any:
    """Deliver a message from actor *src* to actor *dst* and run the handler.

    Both actors expose ``name``; *src* exposes ``_emit``.  The send event is
    recorded before the handler runs, so handler side effects appear after
    it in the log, the same order a queued transport would produce.
    """
    src._emit("send", {"to": dst.name, "channel": channel, "body": payload})
    return call()
