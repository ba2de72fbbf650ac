import copy
import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from coopattest import crypto
from coopattest.attestation import AttributeClaim, CounterSignedAttestation, SubjectRef, build_plain
from coopattest.canonical import canonical_parse, canonical_serialize, record_bytes
from coopattest.errors import DecodeError
from coopattest.harness import ScenarioConfig
from coopattest.ledger import Ledger, LedgerRecord, PostRecord

WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


@pytest.fixture
def issuer():
    return crypto.keygen(b"test-coop")


@pytest.fixture
def notary_key():
    return crypto.keygen(b"test-notary")


def make_claims(*pairs):
    return [AttributeClaim(name, value, f"pds-rule:{name}") for name, value in pairs]


def make_plain(issuer, identity="alice-legal-0001", claims=None, issued_at=10,
               expires_at=1000, nonce=b"n" * 32, legal_rep="notary-1"):
    claims = claims if claims is not None else make_claims(("age-over-18", "true"))
    return build_plain(
        SubjectRef.legal(identity), claims, issuer, legal_rep, issued_at, expires_at, nonce
    )


def events_of(log, kind):
    """The events of *kind* in *log*, in order."""
    return [e for e in log.events if e.kind == kind]


def benchmark_workloads():
    """The benchmark's workload generators, ``perfbench/workloads.py``."""
    workloads = sys.modules.get("perfbench_workloads")
    if workloads is None:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up while being defined.
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    return workloads


def tiny_benchmark_config(name):
    """The config bytes of the benchmark's generated scenario *name* at its
    smoke-test size."""
    workloads = benchmark_workloads()
    return canonical_serialize(workloads.generate(name, 7, workloads.TINY_SHAPES[name]).config)


def tiny_benchmark_workload(name):
    """The benchmark's generated scenario *name* at its smoke-test size."""
    return ScenarioConfig.from_map(canonical_parse(tiny_benchmark_config(name)))


def ledger_records(ledger):
    """The records of *ledger*, in order; only a test reads them all."""
    return tuple(ledger._records)


def notary_archive(notary):
    """The triples *notary* has witnessed, in order."""
    return tuple(notary._entries)


def ledger_from_records(ledger_id, writer_public_key, records):
    """A ledger holding *records* as they are, unchecked, so that a test can
    show ``verify_chain`` rejects a tampered chain."""
    ledger = Ledger(ledger_id, writer_public_key)
    for record in records:
        ledger._records.append(record)
        if isinstance(record.payload, PostRecord):
            ledger._post_index.setdefault(record.payload.post_digest, []).append(record)
    return ledger


# --- the bytes each signature covers, written apart from the signing code ----------
#
# Each signed record class's signer, generated from its declarations
# (canonical.generated_writer), writes its body's fields once, as runs of text
# between the keys its signature leaves out or it makes, and joins those runs
# into its signed text and, with its signature's and id's texts, its whole
# text; it keeps what its checks read.  These write the same bytes from the
# field values, through record_bytes, of a record whose signature is a
# placeholder that the signed bytes leave out.
_NO_SIGNATURE = crypto.Signature(b"", crypto.ZERO_DIGEST, "")


def countersign_bytes(blinded, notary_id, notary_key_id, countersigned_at):
    """The bytes the notary signature covers: the unmodified embedded blinded
    attestation plus the envelope metadata."""
    return record_bytes(
        CounterSignedAttestation,
        CounterSignedAttestation(blinded, notary_id, notary_key_id, countersigned_at,
                                 _NO_SIGNATURE),
        CounterSignedAttestation._UNSIGNED,
    )


def record_signing_bytes(index, prev_digest, payload):
    """The bytes a ledger writer signs for the record at *index*."""
    return record_bytes(LedgerRecord,
                        LedgerRecord(index, prev_digest, payload, crypto.ZERO_DIGEST, _NO_SIGNATURE),
                        LedgerRecord._UNSIGNED)


def ledger_record_bytes(record):
    """The whole canonical bytes of a ledger record, which its successor's
    ``prev_digest`` hashes."""
    return record_bytes(LedgerRecord, record)


# --- the record maps, built apart from the record writer -----------------------------

def reference_map(cls, values, omit=()):
    """The canonical map of the *cls* record *values* (the record, or a dict
    of its field values), without the keys in *omit*.  It is built from the
    field declarations and the values alone, never from ``canonical``'s
    writer or an artifact's own text, so it is the reference that writer
    is checked against."""
    values = getattr(values, "__dict__", values)
    raw = {"kind": cls._KIND} if hasattr(cls, "_KIND") else {}
    for f in dataclasses.fields(cls):
        value = values[f.name]
        if value is not None:
            raw[f.metadata.get("key", f.name)] = reference_value(value)
    return {key: value for key, value in raw.items() if key not in omit}


def reference_value(value):
    """*value* with every record in it replaced by its reference map, a set
    by a sorted list, and a map's None values (the unset optionals of an
    event payload) left out."""
    if dataclasses.is_dataclass(value):
        return reference_map(type(value), value)
    if isinstance(value, dict):
        return {key: reference_value(item) for key, item in value.items() if item is not None}
    if isinstance(value, frozenset):
        return sorted(map(reference_value, value))
    if isinstance(value, (list, tuple)):
        return list(map(reference_value, value))
    return value


def reference_log_bytes(log):
    """The bytes of *log*, each line encoded from a map that
    ``reference_value`` builds from the event's values alone: not from the
    log's writer, nor from the text an attestation keeps."""
    return b"".join(canonical_serialize(reference_value(
        {"tick": e.tick, "actor": e.actor, "kind": e.kind, "payload": e.payload})) + b"\n"
        for e in log.events)


# --- strict decoding property ------------------------------------------------------

# One strategy per canonical type; bool is a type of its own, not an integer.
CANONICAL_TYPES = {
    bool: st.booleans(),
    int: st.integers(),
    str: st.text(max_size=12),
    bytes: st.one_of(st.binary(max_size=40), st.binary(min_size=32, max_size=32)),
    list: st.lists(st.one_of(st.integers(), st.dictionaries(st.text(max_size=6), st.text(max_size=6))),
                   max_size=3),
    dict: st.dictionaries(st.text(max_size=12), st.integers(), max_size=3),
}


def canonical_type(value) -> type:
    return bool if type(value) is bool else type(value)


def value_paths(value, path=()):
    """The path of *value* itself and of every map value and list item in it."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for step, child in items:
        yield from value_paths(child, path + (step,))


def _at(value, path):
    for step in path:
        value = value[step]
    return value


@st.composite
def mutated(draw, original):
    """A deep copy of *original*, a canonical value, changed once, as
    ``(how, path, copy)``: the value at some path retyped (``"retype"``) or
    replaced by one of its own type (``"same type"``), or a key added to
    some map (``"add key"``)."""
    raw = copy.deepcopy(original)
    how = draw(st.sampled_from(("retype", "same type", "add key")))
    if how == "add key":
        path = draw(st.sampled_from([p for p in value_paths(raw) if isinstance(_at(raw, p), dict)]))
        target = _at(raw, path)
        key = draw(st.text(max_size=12).filter(lambda k: k not in target))
        target[key] = draw(st.one_of(*CANONICAL_TYPES.values()))
    else:
        path = draw(st.sampled_from(list(value_paths(raw))))
        old = canonical_type(_at(raw, path))
        types = [t for t in CANONICAL_TYPES if (t is old) == (how == "same type")]
        new = draw(st.sampled_from(types).flatmap(CANONICAL_TYPES.get))
        if path:
            _at(raw, path[:-1])[path[-1]] = new
        else:
            raw = new
    return how, path, raw


def check_strict_decoding(data, originals, decode, encode):
    """Mutate one of *originals* (canonical maps of real records) once and
    decode it.  A value of another canonical type or an added key must raise
    DecodeError; a same-typed value may decode, and then re-encodes to the
    map it was decoded from.  No other exception is allowed."""
    original = data.draw(st.sampled_from(originals))
    assert encode(decode(original)) == original
    how, path, raw = data.draw(mutated(original))
    try:
        decoded = decode(raw)
    except DecodeError:
        return
    assert how == "same type", f"{how} at {path} was accepted"
    assert encode(decoded) == raw
