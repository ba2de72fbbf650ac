"""Exception hierarchy shared by all coopattest modules."""

from __future__ import annotations


class CoopAttestError(Exception):
    """Base class for every error raised by this package."""


# --- canonical encoding ----------------------------------------------------

class UnsupportedValue(CoopAttestError):
    """A value outside the canonical domain was passed to the serializer."""


class DecodeError(CoopAttestError):
    """Byte input does not parse as a canonical value."""


# --- crypto ----------------------------------------------------------------

class EmptySeed(CoopAttestError):
    pass


class UnknownDomainTag(CoopAttestError):
    pass


# --- attestation -----------------------------------------------------------

class InvalidValidityWindow(CoopAttestError):
    pass


class EmptyAttributes(CoopAttestError):
    pass


class SubjectModeMismatch(CoopAttestError):
    pass


class IssuerKeyMismatch(CoopAttestError):
    pass


class EmptyNotaryId(CoopAttestError):
    """The disclosure point of contact must always be readable."""


# --- cooperative -----------------------------------------------------------

class DuplicateMember(CoopAttestError):
    pass


class UnknownMember(CoopAttestError):
    pass


class UnknownQuery(CoopAttestError):
    pass


class InsufficientData(CoopAttestError):
    """A derivation rule needs a raw personal-data field that is missing."""


class MissingHandle(CoopAttestError):
    pass


class UnknownAttestation(CoopAttestError):
    pass


# --- notary ----------------------------------------------------------------

class PairMismatch(CoopAttestError):
    """Witnessing rejected: the plain/blinded pair fails verify_pair.

    Carries the failing MatchReport as ``report``.
    """

    def __init__(self, report):
        super().__init__(f"plain/blinded pair mismatch: {report.failing()}")
        self.report = report


class ExpiredAtWitnessing(CoopAttestError):
    pass


class NoRevocationSource(CoopAttestError):
    """A notary was asked to revalidate an attestation it witnessed, but has
    no cooperative to forward the query to."""


# --- ledger ----------------------------------------------------------------

class UnregisteredWriter(CoopAttestError):
    pass


class DanglingAttestationPointer(CoopAttestError):
    pass


class OutOfBounds(CoopAttestError):
    pass


# --- travel rule -----------------------------------------------------------

class InvalidAttestation(CoopAttestError):
    pass


class DuplicateAccount(CoopAttestError):
    pass


class UnknownAccount(CoopAttestError):
    pass


class DuplicateTransfer(CoopAttestError):
    pass


class UnknownTransfer(CoopAttestError):
    pass


# --- dsn ---------------------------------------------------------------------

class HandleMismatch(CoopAttestError):
    pass


class HandleTaken(CoopAttestError):
    pass


class UnknownSender(CoopAttestError):
    pass


class BadRecoverySignature(CoopAttestError):
    pass


class Untraceable(CoopAttestError):
    pass


# --- harness -----------------------------------------------------------------

class ConfigInvalid(CoopAttestError):
    """Scenario config failed validation; ``problems`` lists field paths."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class ScriptActionFailed(CoopAttestError):
    """A scripted action raised; carries the tick and the action map."""

    def __init__(self, tick, action, cause):
        super().__init__(f"action {action.get('action')!r} at tick {tick}: {cause}")
        self.tick = tick
        self.action = dict(action)
        self.cause = cause
