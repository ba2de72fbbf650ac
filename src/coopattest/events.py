"""Event emission hooks shared by the actor classes.

Actors are plain single-threaded objects.  When a scenario harness wires
them up it injects an ``emit`` callable per actor (tagged with the actor
name and the scheduler's current tick); standalone library use leaves it
unset and everything stays silent.  Cross-actor traffic goes through
send_message so every message shows up in the event log exactly once as
a send and once as a deliver.
"""

from __future__ import annotations

from typing import Any, Callable

EmitFn = Callable[[str, dict], Any]


def no_emit(kind: str, payload: dict) -> None:
    return None


def send_message(src, dst, channel: str, payload: dict, call: Callable[[], Any]) -> Any:
    """Deliver a message from actor *src* to actor *dst* and run the handler.

    Both actors expose ``name`` and ``_emit``.  The send and deliver events
    are recorded before the handler runs, so handler side effects appear
    after the delivery in the log, the same order a queued transport would
    produce.

    The two events are adjacent in the log and share one body object,
    *payload* itself; ``EventLog.to_bytes`` relies on that to encode each
    body once.
    """
    src._emit("send", {"to": dst.name, "channel": channel, "body": payload})
    dst._emit("deliver", {"from": src.name, "channel": channel, "body": payload})
    return call()
