"""Exchange actors implementing the funds travel-rule flow.

An originator registers a countersigned blinded attestation with its
exchange.  A transfer is one chain of calls, as a post is: the origin
exchange sends it, and the beneficiary exchange fetches the attestation
from the origin over a direct, ordered, private channel (never the
ledger), judges it with ``notary.vouch`` as a DSN provider judges a post's
attestation, and only when the amount crosses the policy threshold demands
identity disclosure and builds the five-field customer-information record:

    originator name / originator account / originator address-or-id /
    beneficiary name / beneficiary account.

The notary, the legal point of contact, gives the originator name and
nothing else; the address-or-id is the residence claim of the attestation
that ``vouch`` passed, the accounts are the request's, and the beneficiary
name is the exchange's own KYC entry.

Below the threshold, the transfer is accepted with no disclosure request
ever leaving the exchange; the originator stays anonymous.  Above it, an
attestation with no residence claim, which cannot fill the record, is
rejected before the notary is asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .attestation import CounterSignedAttestation
from .attestation import verify_countersigned  # noqa: F401 (only perfbench/smoke.py uses it)
from .cooperative import (
    RESIDENCE_COUNTRY,
    STATUS_EXPIRED,
    STATUS_REVOKED,
    STATUS_UNKNOWN,
    STATUS_VALID,
)
from .crypto import KeyDirectory
from .errors import DuplicateAccount, DuplicateTransfer, UnknownAccount, UnknownTransfer
from .events import no_emit, send_message
from .notary import (
    OUTCOME_DENIED,
    OUTCOME_DISCLOSED,
    OUTCOME_UNKNOWN,
    PURPOSE_TRAVEL_RULE,
    UNKNOWN_NOTARY,
    VERIFICATION_FAILED,
    Notary,
    request_disclosure,
    require_verified,
    vouch,
)

ACCEPTED = "accepted"
HELD = "held-pending-disclosure"
REJECTED = "rejected"

REASON_UNKNOWN_BENEFICIARY = "unknown-beneficiary"
REASON_BELOW_THRESHOLD = "below-threshold"
REASON_MISSING_RESIDENCE = "missing-residence"

# Each reason a transfer decision may give, and its outcome.
VERDICTS = {
    **dict.fromkeys((REASON_UNKNOWN_BENEFICIARY, VERIFICATION_FAILED, STATUS_EXPIRED,
                     UNKNOWN_NOTARY, STATUS_REVOKED, STATUS_UNKNOWN, REASON_MISSING_RESIDENCE,
                     OUTCOME_UNKNOWN), REJECTED),
    **dict.fromkeys((REASON_BELOW_THRESHOLD, OUTCOME_DISCLOSED), ACCEPTED),
    OUTCOME_DENIED: HELD,
}

@dataclass(frozen=True)
class TransferRequest:
    transfer_id: str
    originator_account: str
    beneficiary_account: str
    beneficiary_exchange: str
    asset: str
    amount: int  # minor units
    requested_at: int

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise ValueError("amount must be positive")
        if not self.originator_account or not self.beneficiary_account:
            raise ValueError("accounts must be non-empty")


@dataclass(frozen=True)
class TravelRuleRecord:
    """The five customer-information fields shared between institutions."""

    originator_name: str
    originator_account: str
    originator_address_or_id: str
    beneficiary_name: str
    beneficiary_account: str

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not value:
                raise ValueError(f"travel-rule field {name} must be non-empty")


@dataclass(frozen=True)
class TransferDecision:
    outcome: str = field(init=False)
    reason: str
    travel_record: TravelRuleRecord | None = None

    def __post_init__(self) -> None:
        outcome = VERDICTS.get(self.reason)
        if outcome is None:
            raise ValueError(f"undeclared transfer reason {self.reason!r}")
        if self.travel_record is not None and outcome != ACCEPTED:
            raise ValueError("travel record only accompanies an accepted transfer")
        object.__setattr__(self, "outcome", outcome)


# A reason fixes every field of a decision with no travel record, so each is
# built once and shared; a disclosed decision is built per transfer.
_DECISIONS = {reason: TransferDecision(reason) for reason in VERDICTS}


class Exchange:
    """A VASP actor; single-threaded, messages serialized by the harness."""

    def __init__(
        self,
        name: str,
        jurisdiction: str,
        *,
        disclosure_threshold: int,
        keys: KeyDirectory,
        notaries: Mapping[str, Notary],
    ) -> None:
        self.name = name
        self.jurisdiction = jurisdiction
        self.disclosure_threshold = disclosure_threshold
        self.keys = keys
        self.notaries = notaries
        self.peers: dict[str, Exchange] = {}
        self._customers: dict[str, CounterSignedAttestation] = {}
        self._kyc_names: dict[str, str] = {}
        self._outgoing: dict[str, TransferRequest] = {}
        self._emit = no_emit

    # --- registration -----------------------------------------------------------

    def register_customer(self, account: str, csa: CounterSignedAttestation, now: int) -> None:
        """Bind an account to its countersigned attestation."""
        if account in self._customers:
            raise DuplicateAccount(account)
        require_verified(self, csa, now)
        self._customers[account] = csa

    def customer_attestation(self, account: str) -> CounterSignedAttestation:
        try:
            return self._customers[account]
        except KeyError:
            raise UnknownAccount(account) from None

    def register_beneficiary(self, account: str, legal_name: str) -> None:
        """Conventional KYC entry; source of the beneficiary-name field."""
        if account in self._kyc_names:
            raise DuplicateAccount(account)
        if not legal_name:
            raise ValueError("beneficiary legal name must be non-empty")
        self._kyc_names[account] = legal_name

    def inject_attestation(self, account: str, csa: CounterSignedAttestation) -> None:
        """Fault-injection hook: overwrite a stored attestation without any
        verification, modeling corrupted storage.  Scenario use only."""
        if account not in self._customers:
            raise UnknownAccount(account)
        self._customers[account] = csa

    # --- transfer flow ------------------------------------------------------------

    def originate_transfer(self, req: TransferRequest, now: int) -> TransferDecision:
        if req.originator_account not in self._customers:
            raise UnknownAccount(req.originator_account)
        if req.transfer_id in self._outgoing:
            raise DuplicateTransfer(req.transfer_id)
        peer = self.peers.get(req.beneficiary_exchange)
        if peer is None:
            raise ValueError(
                f"exchange {req.beneficiary_exchange!r} not reachable from {self.name!r}")
        self._outgoing[req.transfer_id] = req
        send_message(self, peer, "transfer", vars(req))
        return peer.receive_transfer(self, req, now)

    def receive_transfer(self, origin: "Exchange", req: TransferRequest,
                         now: int) -> TransferDecision:
        """Beneficiary side: fetch the attestation from *origin*, and judge the transfer on it."""
        send_message(self, origin, "attestation-request", {"transfer_id": req.transfer_id})
        csa = origin.provide_attestation(req.transfer_id)
        send_message(origin, self, "attestation-delivery",
                     {"transfer_id": req.transfer_id, "attestation": csa})
        return self.evaluate_transfer(req, csa, now)

    def provide_attestation(self, transfer_id: str) -> CounterSignedAttestation:
        """Origin side of the out-of-band attestation exchange."""
        req = self._outgoing.get(transfer_id)
        if req is None:
            raise UnknownTransfer(transfer_id)
        return self._customers[req.originator_account]

    # --- evaluation ----------------------------------------------------------------

    def evaluate_transfer(self, req: TransferRequest, csa: CounterSignedAttestation,
                          now: int) -> TransferDecision:
        """The verdict on *req* by the delivered *csa*, logged as a transfer-decision."""
        decision = self._decide(req, csa, now)
        self._emit("transfer-decision", {"transfer_id": req.transfer_id, **vars(decision)})
        return decision

    def _decide(self, req: TransferRequest, csa: CounterSignedAttestation,
                now: int) -> TransferDecision:
        # At every amount, before the notary is asked: an unknown account sends it nothing.
        beneficiary_name = self._kyc_names.get(req.beneficiary_account)
        if beneficiary_name is None:
            return _DECISIONS[REASON_UNKNOWN_BENEFICIARY]

        _, why = vouch(self, csa, now)
        if why != STATUS_VALID:
            return _DECISIONS[why]

        if req.amount < self.disclosure_threshold:
            return _DECISIONS[REASON_BELOW_THRESHOLD]
        # The record's address-or-id is the residence claim of the attestation
        # vouch passed; with none, no record can be filled: ask the notary for no identity.
        for claim in csa.blinded.attributes:
            if claim.name == RESIDENCE_COUNTRY:
                break
        else:
            return _DECISIONS[REASON_MISSING_RESIDENCE]
        disclosure = request_disclosure(self, self.notaries[csa.notary_id],
                                        csa.blinded.attestation_id, PURPOSE_TRAVEL_RULE, now)
        if disclosure.outcome != OUTCOME_DISCLOSED:
            return _DECISIONS[disclosure.outcome]
        return TransferDecision(OUTCOME_DISCLOSED, travel_record=TravelRuleRecord(
            originator_name=disclosure.subject,
            originator_account=req.originator_account,
            originator_address_or_id=claim.value,
            beneficiary_name=beneficiary_name,
            beneficiary_account=req.beneficiary_account,
        ))
