"""Blinded identity attestations from a data cooperative, countersigned by a
legal notary, and consumed by a funds travel-rule flow and a decentralized
social network over simulated append-only ledgers."""

from .attestation import (
    AttributeClaim,
    BlindedAttestation,
    CounterSignedAttestation,
    MatchReport,
    PlainAttestation,
    SubjectRef,
    VerificationReport,
    blind,
    build_plain,
    countersign,
    read_attestation,
    verify_countersigned,
    verify_pair,
    write_attestation,
)
from .canonical import canonical_parse, canonical_serialize
from .cooperative import Cooperative, MemberRecord
from .crypto import Digest, KeyDirectory, KeyPair, Signature, digest, keygen, sign, verify
from .dsn import FilterDecision, Post, Provider, SenderAccount
from .harness import (
    Event,
    EventLog,
    ScenarioConfig,
    bundled_scenario_names,
    bundled_scenario_path,
    run_scenario,
    validate_config,
)
from .ledger import AttestationRecord, Ledger, LedgerRecord, PostRecord, RecordPointer
from .notary import ArchiveEntry, DisclosureResponse, Notary
from .travel_rule import Exchange, TransferDecision, TransferRequest, TravelRuleRecord

__version__ = "0.1.0"

__all__ = [
    "ArchiveEntry",
    "AttestationRecord",
    "AttributeClaim",
    "BlindedAttestation",
    "Cooperative",
    "CounterSignedAttestation",
    "Digest",
    "DisclosureResponse",
    "Event",
    "EventLog",
    "Exchange",
    "FilterDecision",
    "KeyDirectory",
    "KeyPair",
    "Ledger",
    "LedgerRecord",
    "MatchReport",
    "MemberRecord",
    "Notary",
    "PlainAttestation",
    "Post",
    "PostRecord",
    "Provider",
    "RecordPointer",
    "ScenarioConfig",
    "SenderAccount",
    "Signature",
    "SubjectRef",
    "TransferDecision",
    "TransferRequest",
    "TravelRuleRecord",
    "VerificationReport",
    "blind",
    "build_plain",
    "bundled_scenario_names",
    "bundled_scenario_path",
    "canonical_parse",
    "canonical_serialize",
    "countersign",
    "digest",
    "keygen",
    "read_attestation",
    "run_scenario",
    "sign",
    "validate_config",
    "verify",
    "verify_countersigned",
    "verify_pair",
    "write_attestation",
]
