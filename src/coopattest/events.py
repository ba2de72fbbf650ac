"""Event emission hooks shared by the actor classes.

Actors are plain single-threaded objects.  When a scenario harness wires
them up it injects an ``emit`` callable per actor (tagged with the actor
name and the scheduler's current tick); standalone library use leaves it
unset and everything stays silent.  The harness's emit is the one Python
frame an event costs: it fills the slots of a bare ``harness.Event``,
without running the class's generated ``__init__``, and appends it to the
log; the scheduler's ``action`` lines and the end-of-run chain audits go
through the same emit, which holds the log's list and the tick, not the
scenario.  Cross-actor traffic goes through send_message, the receiver
handed in, not kept, so every message shows up in the log exactly once,
as a send: the sender logs it, then calls the receiver's handler on the
next line, so the handler's effects follow the send in the log, the
order a queued transport would produce.  A payload, and a message body,
is a map of the keys its kind or channel declares (``harness.KINDS`` and
``harness.CHANNELS``), with ``vars(record)`` where a record exists; it
holds the values as they are, each of exactly its declared type (the log
refuses a ``bool`` for an ``int``, or a ``bytearray`` for ``bytes``),
attestation artifacts included, and the log writes each artifact as its
canonical text.
"""

from __future__ import annotations


def no_emit(kind: str, payload: dict) -> None:
    return None


def send_message(src, dst, channel: str, payload: dict) -> None:
    """Log a message from actor *src* (which exposes ``_emit``) to actor
    *dst* (which exposes ``name``)."""
    src._emit("send", {"to": dst.name, "channel": channel, "body": payload})
