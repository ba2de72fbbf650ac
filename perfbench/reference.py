"""A fixed computation that measures how fast the machine is right now.

The machine the benchmark was built on (a 2 vCPU Xeon VM with no steal
time) changes speed by up to 2x over minutes, for every kind of code at
once.  Timed before every run, this computation tells how fast the
machine was during that run, so each timing can be scaled to a nominal
machine on which the reference takes ``NOMINAL_S`` of CPU.  It is made
of the same kinds of work coopattest does, Ed25519 signs and verifies
through ``cryptography``, a pure-Python canonical encoder and SHA-256,
and it never touches coopattest, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import hashlib
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# CPU seconds of one reference() on the build machine at its fastest.
# Scaled timings read as on that machine, so the verdict p99, which is
# left unscaled, reads above the scaled median.
NOMINAL_S = 0.120

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGES = [b"perfbench reference message %d" % i for i in range(64)]
_SIGNATURES = [_KEY.sign(m) for m in _MESSAGES]
_DOCUMENT = [
    {"id": i, "name": f"item-{i}", "tags": ["a", "b", str(i)], "blob": bytes([i]) * 16,
     "ok": i % 2 == 0}
    for i in range(200)
]


def _emit(value, out: list) -> None:
    if isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, str):
        out.append('"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(value, bytes):
        out.append("0x" + value.hex())
    elif isinstance(value, list):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            _emit(key, out)
            out.append(":")
            _emit(value[key], out)
        out.append("}")


def _reference() -> None:
    for _ in range(4):
        for message, signature in zip(_MESSAGES, _SIGNATURES):
            _PUBLIC.verify(signature, message)
        for message in _MESSAGES[:16]:
            _KEY.sign(message)
        for _ in range(12):
            out: list = []
            _emit(_DOCUMENT, out)
            hashlib.sha256("".join(out).encode("utf-8")).digest()


def reference_seconds() -> float:
    """CPU seconds the reference computation takes now."""
    gc.collect()
    start = time.thread_time()
    _reference()
    return time.thread_time() - start
