"""Hash-chained append-only ledgers: chaining, lookup, tamper detection."""

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattest import crypto
from coopattest.attestation import SubjectRef, blind, countersign
from coopattest.canonical import canonical_parse, record_from_map
from coopattest.crypto import ZERO_DIGEST
from coopattest.errors import DanglingAttestationPointer, DecodeError, OutOfBounds, UnregisteredWriter
from coopattest.harness import Scenario, ScenarioConfig, bundled_scenario_names, bundled_scenario_path
from coopattest.ledger import (
    AttestationRecord,
    Ledger,
    LedgerRecord,
    PostRecord,
    RecordPointer,
)

from conftest import (
    check_strict_decoding,
    ledger_from_records,
    ledger_record_bytes,
    ledger_records,
    make_plain,
)


@pytest.fixture
def writer():
    return crypto.keygen(b"provider-1")


@pytest.fixture
def sample_csa(issuer, notary_key):
    plain = make_plain(issuer)
    blinded = blind(plain, SubjectRef.handle("@sender"), issuer)
    return countersign(blinded, notary_key, "notary-1", 11)


def make_ledger(writer, ledger_id="B1"):
    return Ledger(ledger_id, writer.public_key)


class TestAppend:
    def test_genesis_pointer_and_prev(self, writer, sample_csa):
        ledger = make_ledger(writer)
        ptr = ledger.append(writer, AttestationRecord(sample_csa))
        assert ptr == RecordPointer("B1", 0)
        assert ledger.get(ptr).prev_digest == ZERO_DIGEST

    def test_unregistered_writer(self, writer, sample_csa):
        ledger = make_ledger(writer)
        with pytest.raises(UnregisteredWriter):
            ledger.append(crypto.keygen(b"intruder"), AttestationRecord(sample_csa))

    def test_post_must_point_at_attestation(self, writer, sample_csa):
        ledger = make_ledger(writer)
        att_ptr = ledger.append(writer, AttestationRecord(sample_csa))
        post_ptr = ledger.append(writer, PostRecord(crypto.digest(b"hi"), att_ptr, 5))
        with pytest.raises(DanglingAttestationPointer):
            ledger.append(writer, PostRecord(crypto.digest(b"again"), post_ptr, 6))

    def test_post_pointer_out_of_bounds(self, writer):
        ledger = make_ledger(writer)
        with pytest.raises(DanglingAttestationPointer):
            ledger.append(writer, PostRecord(crypto.digest(b"hi"), RecordPointer("B1", 0), 5))

    def test_pointer_into_another_ledger_is_dangling(self, writer, sample_csa):
        # A ledger vouches only for its own records, even when the other
        # ledger exists and holds an attestation record at that index.
        origin = make_ledger(writer, "B1")
        att_ptr = origin.append(writer, AttestationRecord(sample_csa))
        other_writer = crypto.keygen(b"provider-2")
        other = make_ledger(other_writer, "B2")
        with pytest.raises(DanglingAttestationPointer):
            other.append(other_writer, PostRecord(crypto.digest(b"hi"), att_ptr, 5))
        assert ledger_records(other) == ()

    def test_unresolvable_ledger_is_dangling(self, writer):
        ledger = make_ledger(writer)
        with pytest.raises(DanglingAttestationPointer):
            ledger.append(writer, PostRecord(crypto.digest(b"hi"), RecordPointer("B9", 0), 5))

    def test_index_determinism(self, writer, sample_csa):
        ledger = make_ledger(writer)
        for i in range(10):
            assert ledger.append(writer, AttestationRecord(sample_csa)).index == i


class TestGet:
    def test_roundtrip(self, writer, sample_csa):
        ledger = make_ledger(writer)
        ptr = ledger.append(writer, AttestationRecord(sample_csa))
        record = ledger.get(ptr)
        assert record.payload.csa == sample_csa

    def test_out_of_bounds(self, writer, sample_csa):
        ledger = make_ledger(writer)
        ledger.append(writer, AttestationRecord(sample_csa))
        with pytest.raises(OutOfBounds):
            ledger.get(RecordPointer("B1", 1))

    def test_foreign_reads_allowed(self, writer, sample_csa):
        # Public readability: no access control on reads.
        ledger = make_ledger(writer)
        ptr = ledger.append(writer, AttestationRecord(sample_csa))
        assert ledger.get(ptr) is not None  # any caller may do this

    def test_wrong_ledger_pointer(self, writer, sample_csa):
        ledger = make_ledger(writer)
        ledger.append(writer, AttestationRecord(sample_csa))
        with pytest.raises(OutOfBounds):
            ledger.get(RecordPointer("B2", 0))


class TestFindByPostDigest:
    def _with_posts(self, writer, sample_csa, bodies):
        ledger = make_ledger(writer)
        att_ptr = ledger.append(writer, AttestationRecord(sample_csa))
        for i, body in enumerate(bodies):
            ledger.append(writer, PostRecord(crypto.digest(body), att_ptr, i))
        return ledger

    def test_single_match(self, writer, sample_csa):
        ledger = self._with_posts(writer, sample_csa, [b"hello"])
        assert [r.index for r in ledger.post_matches(crypto.digest(b"hello"))] == [1]

    def test_no_match(self, writer, sample_csa):
        ledger = self._with_posts(writer, sample_csa, [b"hello"])
        assert ledger.post_matches(crypto.digest(b"absent")) == []

    def test_duplicate_bodies_in_index_order(self, writer, sample_csa):
        ledger = self._with_posts(writer, sample_csa, [b"dup", b"other", b"dup"])
        assert [r.index for r in ledger.post_matches(crypto.digest(b"dup"))] == [1, 3]

    def test_lookup_completeness(self, writer, sample_csa):
        import random
        rng = random.Random(5)
        bodies = [rng.randbytes(rng.randint(1, 30)) for _ in range(50)]
        ledger = self._with_posts(writer, sample_csa, bodies)
        for i, body in enumerate(bodies):
            assert i + 1 in [r.index for r in ledger.post_matches(crypto.digest(body))]

    def test_post_matches_returns_records(self, writer, sample_csa):
        ledger = self._with_posts(writer, sample_csa, [b"hello"])
        (record,) = ledger.post_matches(crypto.digest(b"hello"))
        assert record.index == 1
        assert record.payload.post_digest == crypto.digest(b"hello")


class TestVerifyChain:
    def test_untampered_true(self, writer, sample_csa):
        ledger = self._populated(writer, sample_csa)
        assert ledger.verify_chain()

    def test_empty_true(self, writer):
        assert make_ledger(writer).verify_chain()

    def _populated(self, writer, sample_csa):
        ledger = make_ledger(writer)
        att_ptr = ledger.append(writer, AttestationRecord(sample_csa))
        for i in range(4):
            ledger.append(writer, PostRecord(crypto.digest(b"post-%d" % i), att_ptr, i))
        return ledger

    def test_mutated_payload_false(self, writer, sample_csa):
        ledger = self._populated(writer, sample_csa)
        records = list(ledger_records(ledger))
        victim = records[2]
        records[2] = dataclasses.replace(
            victim, payload=dataclasses.replace(victim.payload, posted_at=999)
        )
        tampered = ledger_from_records("B1", writer.public_key, records)
        assert not tampered.verify_chain()

    def test_reordered_records_false(self, writer, sample_csa):
        ledger = self._populated(writer, sample_csa)
        records = list(ledger_records(ledger))
        records[1], records[2] = records[2], records[1]
        assert not ledger_from_records("B1", writer.public_key, records).verify_chain()

    def test_dropped_record_false(self, writer, sample_csa):
        ledger = self._populated(writer, sample_csa)
        records = list(ledger_records(ledger))[:-2] + [list(ledger_records(ledger))[-1]]
        assert not ledger_from_records("B1", writer.public_key, records).verify_chain()


class TestPersistence:
    @staticmethod
    def _stored(writer, sample_csa) -> tuple[Ledger, list[bytes]]:
        """A two-record ledger and the canonical bytes of its records."""
        ledger = make_ledger(writer)
        att_ptr = ledger.append(writer, AttestationRecord(sample_csa))
        ledger.append(writer, PostRecord(crypto.digest(b"hello"), att_ptr, 3))
        return ledger, [ledger_record_bytes(record) for record in ledger_records(ledger)]

    @staticmethod
    def _rebuilt(writer, stored: list[bytes]) -> Ledger:
        records = [record_from_map(LedgerRecord, canonical_parse(data)) for data in stored]
        return ledger_from_records("B1", writer.public_key, records)

    def test_bytes_roundtrip(self, writer, sample_csa):
        ledger, stored = self._stored(writer, sample_csa)
        loaded = self._rebuilt(writer, stored)
        assert ledger_records(loaded) == ledger_records(ledger)
        assert loaded.verify_chain()
        assert [r.index for r in loaded.post_matches(crypto.digest(b"hello"))] == [1]

    def test_tampered_bytes_fail_chain(self, writer, sample_csa):
        _, stored = self._stored(writer, sample_csa)
        tampered = [data.replace(b'"posted_at":3', b'"posted_at":4') for data in stored]
        assert tampered != stored
        assert not self._rebuilt(writer, tampered).verify_chain()


# The digest of each provider's last ledger record, in hex, after each
# bundled DSN scenario runs; a provider whose ledger stays empty is not
# listed.  The bytes hashed are those of the reference writer in conftest,
# and these values were computed with the signing code that ledger records
# had before they shared the attestations' signer.
LEDGER_HEADS = {
    "dsn_bot_flood": {"P1": "298b52cfa2664b3ef6ddbb89a0beb1334f2e6045bebcd6b597ef12eb1f5328a0"},
    "dsn_duplicate_digest": {
        "P1": "77f8bc18d6a92dc429aceb720e87cd86860f1f61e44f272c081fdf3fcec932b0"},
    "dsn_expired": {"P1": "c8bf5583bf89d9e4f57c36ba550ca0233fdd010365d26ab9684ec993f7eeeb4b"},
    "dsn_port": {"P1": "0396818593013cf32b50e546ca73705ba417de1892ec48acdc91cf4a82d97339",
                 "P3": "447c30fc49cbc8085be319b3edd2643ea36c31a20a8c7735bfed50d27e1d3ee6"},
    "dsn_recovery": {"P1": "9375f11e2601a6b6e66d198989abca1ca3281523c1c75c9cbb6b3c13be755c6f"},
}


class TestSignedFormat:
    """No golden log holds a ledger record's bytes or signature, so these pins
    do: a change to how a record is written or signed changes a head."""

    def test_every_bundled_dsn_scenario_is_pinned(self):
        dsn = [name for name in bundled_scenario_names()
               if ScenarioConfig.load(bundled_scenario_path(name)).providers]
        assert sorted(dsn) == sorted(LEDGER_HEADS)

    @pytest.mark.parametrize("name", sorted(LEDGER_HEADS))
    def test_ledgers_end_at_their_pinned_heads(self, name):
        scenario = Scenario(ScenarioConfig.load(bundled_scenario_path(name)))
        scenario.run()
        heads = {}
        for provider_name, provider in scenario.providers.items():
            records = ledger_records(provider.ledger)
            # Each record chains to the reference bytes of the one before, so
            # the last one's digest covers every record, signatures included.
            for prev, record in zip(records, records[1:]):
                assert record.prev_digest == crypto.digest(ledger_record_bytes(prev))
            if records:
                heads[provider_name] = crypto.digest(ledger_record_bytes(records[-1])).hex()
        assert heads == LEDGER_HEADS[name]


def _record_maps() -> list[dict]:
    """The maps of a real attestation record and a real post record."""
    issuer, notary, writer = (crypto.keygen(seed) for seed in (b"test-coop", b"test-notary", b"provider-1"))
    blinded = blind(make_plain(issuer), SubjectRef.handle("@sender"), issuer)
    ledger = make_ledger(writer)
    att_ptr = ledger.append(writer, AttestationRecord(countersign(blinded, notary, "notary-1", 11)))
    ledger.append(writer, PostRecord(crypto.digest(b"hello"), att_ptr, 3))
    return [canonical_parse(ledger_record_bytes(record)) for record in ledger_records(ledger)]


RECORD_MAPS = _record_maps()


def decode_record(raw) -> LedgerRecord:
    return record_from_map(LedgerRecord, raw)


def encode_record(record: LedgerRecord) -> dict:
    return canonical_parse(ledger_record_bytes(record))


class TestStrictDecoding:
    HOSTILE = [
        (("payload", "posted_at"), True),
        (("payload", "posted_at"), "1"),
        (("index",), True),
        (("payload", "attestation_ptr", "index"), "0"),
        (("payload", "attestation_ptr", "ledger_id"), 7),
        (("payload", "attestation_ptr"), ["B1", 0]),
        (("payload",), "x"),
        (("payload", "kind"), "comment"),
        (("payload", "extra"), 0),
        (("extra",), 0),
    ]
    IDS = [".".join(map(str, path)) + f"={value!r}" for path, value in HOSTILE]

    @staticmethod
    def hostile(path, value) -> dict:
        raw = copy.deepcopy(RECORD_MAPS[1])
        target = raw
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return raw

    @pytest.mark.parametrize("path, value", HOSTILE, ids=IDS)
    def test_wrongly_typed_record_rejected(self, path, value):
        with pytest.raises(DecodeError):
            decode_record(self.hostile(path, value))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_wrongly_typed_maps_rejected(self, data):
        check_strict_decoding(data, RECORD_MAPS, decode_record, encode_record)
