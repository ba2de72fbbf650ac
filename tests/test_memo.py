"""Per-artifact memos: bytes and successful signature checks are worked out
once per frozen object, and no memo can change a verdict."""

import collections
import contextlib
import dataclasses
import re
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattest import attestation, canonical, crypto
from coopattest.attestation import (
    AttributeClaim,
    BlindedAttestation,
    CounterSignedAttestation,
    PlainAttestation,
    SubjectRef,
    blind,
    build_plain,
    canonical_bytes,
    countersign,
    verify_countersigned,
    verify_pair,
)
from coopattest.canonical import canonical_parse, canonical_serialize
from coopattest.cooperative import Status
from coopattest.errors import InvalidAttestation
from coopattest.events import no_emit
from coopattest.harness import (
    ScenarioConfig,
    bundled_scenario_names,
    bundled_scenario_path,
    run_scenario,
)
from coopattest.ledger import (
    AttestationRecord,
    Ledger,
    LedgerRecord,
    PostRecord,
)
from coopattest.notary import Notary, require_verified, vouch

from conftest import (
    countersign_bytes,
    ledger_from_records,
    ledger_record_bytes,
    ledger_records,
    make_plain,
    record_signing_bytes,
    reference_map,
    reference_value,
)


@pytest.fixture
def verify_calls(monkeypatch):
    """Every crypto.verify call's inputs, in order."""
    calls = []
    real = crypto.verify

    def counting(public_key, domain_tag, message, sig):
        calls.append((public_key, domain_tag, message, sig))
        return real(public_key, domain_tag, message, sig)

    monkeypatch.setattr(crypto, "verify", counting)
    return calls


def signing_bytes_of(csa):
    return countersign_bytes(csa.blinded, csa.notary_id, csa.notary_key_id, csa.countersigned_at)


@pytest.fixture
def csa(issuer, notary_key):
    blinded = blind(make_plain(issuer), SubjectRef.handle("@sender"), issuer)
    return countersign(blinded, notary_key, "notary-1", 11)


class TestBytes:
    def test_memoised_bytes_equal_a_fresh_serialization(self, issuer, csa):
        plain = make_plain(issuer)
        for artifact in (plain, csa.blinded, csa):
            # Read twice: the same bytes both times.
            assert canonical_bytes(artifact) == canonical_bytes(artifact)
            assert canonical_bytes(dataclasses.replace(artifact)) == canonical_bytes(artifact)
        assert plain._signed_bytes == dataclasses.replace(plain)._signed_bytes

    def test_memos_are_not_fields(self, csa):
        canonical_bytes(csa)
        copy = dataclasses.replace(csa)
        assert copy == csa and hash(copy) == hash(csa) and repr(copy) == repr(csa)
        assert "_canonical_text" not in vars(copy)

    def test_a_replaced_artifact_starts_with_no_memo(self, issuer, notary_key):
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.handle("@sender"), issuer)
        assert verify_pair(plain, blinded, issuer.public_key).passed
        csa = countersign(blinded, notary_key, "notary-1", 11)
        assert verify_countersigned(csa, issuer.public_key, notary_key.public_key, 20).passed
        memos = {"_canonical_text", "_signed_bytes", "_verified_keys", "_id_consistent"}
        for artifact in (plain, blinded, csa):
            canonical_bytes(artifact)
            assert memos & set(vars(artifact))
            copy = dataclasses.replace(artifact)
            assert not memos & set(vars(copy))
            assert canonical_bytes(copy) == canonical_bytes(artifact)

    def test_plain_keeps_its_digest_not_its_bytes(self, issuer, monkeypatch):
        hashed = []
        real = crypto.digest
        monkeypatch.setattr(crypto, "digest", lambda data: hashed.append(data) or real(data))
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.handle("@sender"), issuer)
        assert verify_pair(plain, blinded, issuer.public_key).passed
        assert verify_pair(plain, blinded, issuer.public_key).passed
        assert "_canonical_text" not in vars(plain)
        # The bytes a .att file holds, hashed once for the blinding and the checks.
        data = canonical_serialize(reference_map(type(plain), plain))
        assert hashed.count(data) == 1
        assert blinded.plain_digest == real(data)
        assert canonical_bytes(plain) == data

    def test_enclosing_bytes_splice_the_memoised_text(self, csa):
        assert canonical_bytes(csa) == csa._canonical_text.encode()
        # A marked memo shows where the enclosing encodings take the text from.
        marked = dataclasses.replace(csa, blinded=dataclasses.replace(csa.blinded))
        marked.__dict__["_canonical_text"] = '"csa text"'
        marked.blinded.__dict__["_canonical_text"] = '"blinded text"'
        record = LedgerRecord(0, crypto.ZERO_DIGEST, AttestationRecord(marked),
                              csa.notary_key_id, csa.notary_signature)
        assert b'"csa":"csa text"' in ledger_record_bytes(record)
        assert b'"blinded":"blinded text"' in signing_bytes_of(marked)
        assert canonical_serialize({"attestation": marked}) == b'{"attestation":"csa text"}'

    def test_changing_a_map_of_an_artifact_changes_none_of_its_bytes(self, csa):
        data = canonical_bytes(csa)
        signed = signing_bytes_of(csa)
        record = record_signing_bytes(0, crypto.ZERO_DIGEST, AttestationRecord(csa))
        raw = reference_value(csa)
        raw["notary_id"] = "forged"
        raw["blinded"]["attributes"].append({"name": "x", "value": "y", "method": "z"})
        raw["notary_signature"]["bytes"] = b""
        assert canonical_parse(data) != raw
        assert canonical_bytes(csa) == data
        assert signing_bytes_of(csa) == signed
        assert record_signing_bytes(0, crypto.ZERO_DIGEST, AttestationRecord(csa)) == record
        body = {"attestation": csa, "transfer_id": "t1"}
        assert canonical_serialize(body) == canonical_serialize(reference_value(body))
        assert canonical_bytes(csa) == data

    def test_record_digest_memo(self, csa):
        writer = crypto.keygen(b"provider")
        ledger = Ledger("l1", writer.public_key)
        ptr = ledger.append(writer, AttestationRecord(csa))
        ledger.append(writer, PostRecord(crypto.digest(b"post"), ptr, 3))
        first, second = ledger_records(ledger)
        assert second.prev_digest is first._digest
        assert first._digest == crypto.digest(ledger_record_bytes(first))
        assert ledger.verify_chain()
        # A changed record is a new object: its digest is worked out afresh
        # and the chain no longer reaches it.
        forged = dataclasses.replace(first, payload=PostRecord(crypto.digest(b"x"), ptr, 1))
        assert forged._digest != first._digest
        tampered = ledger_from_records("l1", writer.public_key, [forged, second])
        assert not tampered.verify_chain()


# Text with the characters the encoder escapes, and characters beyond ASCII.
_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7fé€😀'),
                          st.characters(blacklist_categories=("Cs",))), max_size=12)
_ISSUER = crypto.keygen(b"memo-issuer")
_NOTARY = crypto.keygen(b"memo-notary")
_WRITER = crypto.keygen(b"memo-writer")


def _memos(record) -> set[str]:
    return set(vars(record)) - {f.name for f in dataclasses.fields(record)}


# The memos each signer stores; a plain attestation keeps its text's digest.
_SIGNING_MEMOS = {
    PlainAttestation: {"_signed_bytes", "_id_consistent", "_digest"},
    BlindedAttestation: {"_signed_bytes", "_id_consistent", "_canonical_text"},
    CounterSignedAttestation: {"_signed_bytes", "_canonical_text"},
    LedgerRecord: {"_signed_bytes", "_digest"},
}


# Every writer of a record's text; a call writes each of the record's fields once,
# but the fields a signer makes after it, which entry_text writes.
_RECORD_WRITERS = ("record_bytes", "record_text", "record_entries")


class TestMemosMadeAtSigning:
    """A signer writes its record once, and each memo it stores is what a
    copy with no memo derives."""

    def check_memos(self, record):
        """*record*'s memos, checked against those of a copy with none, which
        derives each from its fields; returns the copy."""
        fresh = dataclasses.replace(record)
        assert _memos(record) == _SIGNING_MEMOS[type(record)]
        for name in _SIGNING_MEMOS[type(record)]:
            assert vars(record)[name] == getattr(fresh, name)
        return fresh

    @settings(max_examples=60, deadline=None)
    @given(identity=_TEXT, handle=_TEXT, claims=st.lists(st.tuples(_TEXT, _TEXT, _TEXT), min_size=1,
                                                       max_size=3),
           issued_at=st.integers(-2**40, 2**40), ttl=st.integers(1, 2**40),
           at=st.integers(-2**40, 2**40), body=st.binary(max_size=16))
    def test_memos_equal_a_fresh_derivation(self, identity, handle, claims, issued_at, ttl, at,
                                            body):
        claims = [AttributeClaim("n" + name, value, method) for name, value, method in claims]
        plain = build_plain(SubjectRef.legal(identity), claims, _ISSUER, "notary-1",
                            issued_at, issued_at + ttl, b"n" * 32)
        blinded = blind(plain, SubjectRef.handle("@" + handle), _ISSUER)
        csa = countersign(blinded, _NOTARY, "notary-1", at)
        for artifact in (plain, blinded, csa):
            fresh, cls = self.check_memos(artifact), type(artifact)
            text = canonical_serialize(reference_map(cls, artifact)).decode()
            assert fresh._canonical_text == text
            assert fresh._signed_bytes == canonical_serialize(
                reference_map(cls, artifact, cls._UNSIGNED))
            if cls is PlainAttestation:
                assert plain._digest == crypto.digest(text.encode())
            if cls is not CounterSignedAttestation:
                sealed = canonical.record_bytes(cls, artifact, ("attestation_id",))
                assert artifact.attestation_id == crypto.digest(sealed)
                assert artifact._id_consistent is True
        ledger = Ledger("l1", _WRITER.public_key)
        ptr = ledger.append(_WRITER, AttestationRecord(csa))
        ledger.append(_WRITER, PostRecord(crypto.digest(body), ptr, at))
        for record in ledger_records(ledger):
            fresh = self.check_memos(record)
            assert record._signed_bytes == record_signing_bytes(
                record.index, record.prev_digest, record.payload)
            assert record._digest == crypto.digest(ledger_record_bytes(fresh))
        assert ledger.verify_chain()

    def test_each_signed_record_is_written_once(self, monkeypatch, issuer, notary_key,
                                                 verify_calls):
        written = collections.Counter()
        for name in _RECORD_WRITERS:
            real = getattr(canonical, name)

            def counting(cls, *args, real=real):
                written[cls] += 1
                return real(cls, *args)

            for module in (canonical, attestation):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        made = collections.Counter()
        real_entry_text = canonical.entry_text
        monkeypatch.setattr(attestation, "entry_text", lambda cls, attr, value: made.update(
            [(cls, attr)]) or real_entry_text(cls, attr, value))
        signed = []
        real_sign = crypto.sign
        monkeypatch.setattr(crypto, "sign", lambda key, tag, message: signed.append(tag)
                            or real_sign(key, tag, message))
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.handle("@sender"), issuer)
        assert verify_pair(plain, blinded, issuer.public_key).passed
        csa = countersign(blinded, notary_key, "notary-1", 11)
        assert verify_countersigned(csa, issuer.public_key, notary_key.public_key, 20).passed
        writer = crypto.keygen(b"provider")
        ledger = Ledger("l1", writer.public_key)
        ptr = ledger.append(writer, AttestationRecord(csa))
        ledger.append(writer, PostRecord(crypto.digest(b"post"), ptr, 12))
        assert ledger.verify_chain()
        assert dict(written) == {PlainAttestation: 1, BlindedAttestation: 1,
                                 CounterSignedAttestation: 1, LedgerRecord: 2}
        assert dict(made) == {
            (PlainAttestation, "issuer_signature"): 1, (PlainAttestation, "attestation_id"): 1,
            (BlindedAttestation, "issuer_signature"): 1, (BlindedAttestation, "attestation_id"): 1,
            (CounterSignedAttestation, "notary_signature"): 1, (LedgerRecord, "writer_signature"): 2}
        # Every signature is made and checked as before: one check per ledger record.
        assert signed == [crypto.TAG_PLAIN, crypto.TAG_BLINDED, crypto.TAG_COUNTER,
                          crypto.TAG_LEDGER, crypto.TAG_LEDGER]
        assert [call[1] for call in verify_calls] == [
            crypto.TAG_PLAIN, crypto.TAG_BLINDED, crypto.TAG_COUNTER,
            crypto.TAG_LEDGER, crypto.TAG_LEDGER]


class TestSignatureMemo:
    def test_repeat_check_reuses_success(self, issuer, notary_key, csa, verify_calls):
        assert verify_countersigned(csa, issuer.public_key, notary_key.public_key, 20).passed
        assert len(verify_calls) == 2
        assert verify_countersigned(csa, issuer.public_key, notary_key.public_key, 20).passed
        assert len(verify_calls) == 2

    def test_witnessing_fills_the_blinded_memo(self, issuer, notary_key, verify_calls):
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.absent(), issuer)
        assert verify_pair(plain, blinded, issuer.public_key).passed
        csa = countersign(blinded, notary_key, "notary-1", 11)
        assert verify_countersigned(csa, issuer.public_key, notary_key.public_key, 20).passed
        # The pair check verified each issuer signature; only the notary's is new.
        assert [c[1] for c in verify_calls] == [
            crypto.TAG_PLAIN, crypto.TAG_BLINDED, crypto.TAG_COUNTER]

    @pytest.mark.parametrize("tamper", [
        lambda c: dataclasses.replace(c, countersigned_at=c.countersigned_at + 1),
        lambda c: dataclasses.replace(c, notary_id="notary-2"),
        lambda c: dataclasses.replace(
            c, blinded=dataclasses.replace(c.blinded, legal_rep_id="evil")),
        lambda c: dataclasses.replace(
            c, blinded=dataclasses.replace(c.blinded, expires_at=5000)),
    ])
    def test_tampered_copy_fails_after_success(self, issuer, notary_key, csa, tamper):
        assert verify_countersigned(csa, issuer.public_key, notary_key.public_key, 20).passed
        forged = tamper(csa)
        report = verify_countersigned(forged, issuer.public_key, notary_key.public_key, 20)
        assert not report.passed
        assert not report.notary_signature
        # The untouched original still verifies.
        assert verify_countersigned(csa, issuer.public_key, notary_key.public_key, 20).passed

    def test_tampered_plain_fails_pair_after_success(self, issuer):
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.absent(), issuer)
        assert verify_pair(plain, blinded, issuer.public_key).passed
        forged = dataclasses.replace(plain, legal_rep_id="notary-2")
        report = verify_pair(forged, blinded, issuer.public_key)
        assert not report.plain_signature and not report.plain_id

    def test_failure_is_not_memoised(self, issuer, notary_key, csa, verify_calls):
        stranger = crypto.keygen(b"stranger")
        for _ in range(2):
            report = verify_countersigned(csa, stranger.public_key, notary_key.public_key, 20)
            assert not report.issuer_signature and report.notary_signature
        # The failing issuer check ran both times; the notary check once.
        assert [c[0] for c in verify_calls] == [
            stranger.public_key, notary_key.public_key, stranger.public_key]
        assert verify_countersigned(csa, issuer.public_key, notary_key.public_key, 20).passed

    def test_success_under_one_key_is_not_success_under_another(self, issuer, notary_key, csa):
        assert verify_countersigned(csa, issuer.public_key, notary_key.public_key, 20).passed
        report = verify_countersigned(csa, notary_key.public_key, issuer.public_key, 20)
        assert not report.issuer_signature and not report.notary_signature

    def test_key_of_another_type_is_not_memoised(self, issuer, notary_key, csa, verify_calls):
        class KeyBytes(bytes):
            pass

        key = KeyBytes(issuer.public_key)
        for _ in range(2):
            assert verify_countersigned(csa, key, notary_key.public_key, 20).issuer_signature
        assert [type(c[0]) for c in verify_calls].count(KeyBytes) == 2


class _KeyBytes(bytes):
    """Key bytes of a type other than ``bytes``: a pair holding one is never
    remembered."""


_STRANGER = crypto.keygen(b"memo-stranger")
_ISSUED_AT, _EXPIRES_AT = 10, 100


@contextlib.contextmanager
def _counting_verifies():
    """The number of crypto.verify calls made inside the block, as a list of
    one; a property counts with it, since hypothesis shares a function-scoped
    fixture such as ``verify_calls`` between its examples."""
    count = [0]
    real = crypto.verify

    def counting(*args):
        count[0] += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crypto, "verify", counting)
        yield count


def _witnessed():
    """An attestation a notary witnessed and countersigned, and that notary,
    whose cooperative answers ``valid`` for it."""
    notary = Notary("notary-1", b"memo-notary", "US", frozenset())
    notary.represent(_ISSUER.public_key, lambda attestation_id, now: Status.VALID)
    plain = build_plain(SubjectRef.legal("alice-legal-0001"),
                        [AttributeClaim("age-over-18", "true", "pds-rule:age-over-18")], _ISSUER,
                        "notary-1", _ISSUED_AT, _EXPIRES_AT, b"n" * 32)
    blinded = blind(plain, SubjectRef.handle("@alice"), _ISSUER)
    return notary.witness_and_countersign(plain, blinded, _ISSUED_AT), notary


def _flipped(signature):
    return dataclasses.replace(signature, data=bytes([signature.data[0] ^ 1]) + signature.data[1:])


def _tampered(csa, tamper):
    """*csa* with one check made to fail; the notary countersigns a changed
    blinded attestation afresh, so that only the issuer's checks fail."""
    if tamper == "notary-signature":
        return dataclasses.replace(csa, notary_signature=_flipped(csa.notary_signature))
    blinded = csa.blinded
    if tamper == "issuer-signature":
        blinded = dataclasses.replace(blinded, issuer_signature=_flipped(blinded.issuer_signature))
    elif tamper == "blinded-id":
        blinded = dataclasses.replace(blinded, attestation_id=crypto.digest(b"another id"))
    else:
        return csa
    return countersign(blinded, _NOTARY, csa.notary_id, csa.countersigned_at)


def _requester(notary, issuer_key, notary_key):
    """A consumer whose directory answers *issuer_key* and *notary_key* for
    the issuer's and the notary's key ids, each left out if None."""
    keys = {key_id.value: key for key_id, key in ((_ISSUER.key_id, issuer_key),
                                                  (_NOTARY.key_id, notary_key)) if key is not None}
    return types.SimpleNamespace(name="consumer", keys=keys, notaries={notary.notary_id: notary},
                                 _emit=no_emit)


def _fresh(csa):
    """A copy of *csa*, and of its blinded attestation, with no memo."""
    return dataclasses.replace(csa, blinded=dataclasses.replace(csa.blinded))


class TestKeyPairMemo:
    """A countersigned attestation remembers each key pair under which its
    signatures stage passed, and vouch gives the verdict a new report would."""

    @settings(max_examples=60, deadline=None)
    @given(missing=st.sampled_from([None, "issuer", "notary"]), exact=st.booleans(),
           tamper=st.sampled_from([None, "issuer-signature", "notary-signature", "blinded-id"]),
           now=st.one_of(st.integers(_ISSUED_AT, _EXPIRES_AT - 1), st.just(_EXPIRES_AT),
                         st.integers(_EXPIRES_AT + 1, 2**40)),
           history=st.sampled_from(["fresh", "vouched under these keys",
                                    "vouched under another pair"]),
           times=st.integers(1, 3))
    def test_vouch_answers_as_the_readme_row_and_the_report(self, missing, exact, tamper, now,
                                                            history, times):
        csa, notary = _witnessed()
        csa = _tampered(csa, tamper)
        key = _KeyBytes if not exact else bytes
        issuer_key = None if missing == "issuer" else key(_ISSUER.public_key)
        notary_key = None if missing == "notary" else key(_NOTARY.public_key)
        requester = _requester(notary, issuer_key, notary_key)

        # README "Consumer verdicts": an unknown key, a failed check and an
        # expiry each stop at the signatures; else the notary, asked, says valid.
        if missing or tamper:
            row = ("signatures", "verification-failed")
        elif now >= _EXPIRES_AT:
            row = ("signatures", "expired")
        else:
            row = ("revalidation", "valid")
        if not missing:
            report = verify_countersigned(_fresh(csa), issuer_key, notary_key, now)
            implied = ("revalidation", "valid") if report.passed else \
                ("signatures", "expired" if report.signed else "verification-failed")
            assert implied == row

        if history == "vouched under these keys":
            vouch(requester, csa, _ISSUED_AT)
        elif history == "vouched under another pair":
            assert vouch(_requester(notary, _STRANGER.public_key, _NOTARY.public_key), csa,
                         now)[1] == "verification-failed"
        for _ in range(times):
            assert vouch(requester, csa, now) == row
        # Registration asks for the signatures stage alone, and words a refusal by the report.
        if row[0] == "signatures":
            words = "issuer or notary key unknown" if missing else \
                f"failing checks: {report.failing()}"
            with pytest.raises(InvalidAttestation, match=f"^{re.escape(words)}$"):
                require_verified(requester, csa, now)
        else:
            require_verified(requester, csa, now)
        # A pair is remembered only when it passed, and both keys are bytes.
        signed = not missing and not tamper
        remembered = ((issuer_key, notary_key),) if signed and exact else ()
        assert vars(csa).get("_signed_keys", ()) == remembered

        # On an attestation with no memo, vouch's first check makes the
        # Ed25519 calls of one report, and once the pair is remembered no more.
        with _counting_verifies() as by_report:
            if not missing:
                verify_countersigned(_fresh(csa), issuer_key, notary_key, now)
        fresh = _fresh(csa)
        with _counting_verifies() as by_first:
            vouch(requester, fresh, now)
        with _counting_verifies() as by_rest:
            for _ in range(times):
                vouch(requester, fresh, now)
        assert by_first == by_report
        if remembered:
            assert by_rest == [0]

    def test_a_key_of_another_type_is_checked_in_full_after_its_bytes_passed(self):
        csa, notary = _witnessed()
        valid = ("revalidation", "valid")
        assert vouch(_requester(notary, _ISSUER.public_key, _NOTARY.public_key), csa, 20) == valid
        requester = _requester(notary, _KeyBytes(_ISSUER.public_key), _NOTARY.public_key)
        with _counting_verifies() as count:
            assert vouch(requester, csa, 20) == valid
        # The issuer signature is checked again; the notary's, under bytes, is remembered.
        assert count == [1]


class TestRunLevel:
    def test_runs_in_one_process_repeat_their_own_checks(self, verify_calls):
        config = ScenarioConfig.load(bundled_scenario_path("dsn_bot_flood"))
        run_scenario(config)
        first = len(verify_calls)
        verify_calls.clear()
        run_scenario(config)
        assert first > 0 and len(verify_calls) == first

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_each_distinct_input_is_verified_once(self, verify_calls, name):
        run_scenario(ScenarioConfig.load(bundled_scenario_path(name)))
        assert verify_calls
        assert len(verify_calls) == len(set(verify_calls))
