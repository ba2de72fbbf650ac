"""Command-line interface.

Subcommands cover the issuance pipeline (keygen, issue, countersign,
verify), the lifecycle queries (revoke, status, disclose), and the
scenario runner (simulate, validate).  Cooperative and notary files act
as both configuration and persistent state: issue, countersign, revoke,
and disclose write their effects back.

Exit codes: 0 success, 1 verification or decision failure, 2 usage or
config error, or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .attestation import (
    MODE_ABSENT,
    MODE_HANDLE,
    BlindedAttestation,
    CounterSignedAttestation,
    PlainAttestation,
    read_attestation,
    verify_countersigned,
    write_attestation,
)
from .canonical import canonical_parse, canonical_serialize, write_canonical
from .cooperative import STATUS_VALID, Cooperative
from .crypto import DIGEST_SIZE, keygen
from .errors import ConfigInvalid, CoopAttestError, DecodeError, ScriptActionFailed
from .errors import ExpiredAtWitnessing, PairMismatch
from .harness import ScenarioConfig, run_scenario, validate_config
from .notary import OUTCOME_DISCLOSED, PURPOSES, Notary

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _hex_bytes(text: str, what: str, size: int | None = None) -> bytes:
    """Non-empty hex, of exactly *size* bytes when that is given."""
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        raise UsageError(f"{what} must be hexadecimal") from None
    if not raw or (size is not None and len(raw) != size):
        raise UsageError(f"{what} must be {size or 'one or more'} bytes, got {len(raw)}")
    return raw


def _read_public_key(path: str) -> bytes:
    raw = canonical_parse(Path(path).read_bytes())
    if not isinstance(raw, dict) or not isinstance(raw.get("public_key"), bytes):
        raise UsageError(f"{path} is not a key file")
    return raw["public_key"]


def _load_attestation(path: str, expected_type, what: str):
    artifact = read_attestation(path)
    if not isinstance(artifact, expected_type):
        raise UsageError(f"{path} does not hold a {what}")
    return artifact


# --- subcommands --------------------------------------------------------------

def cmd_keygen(args) -> int:
    seed = _hex_bytes(args.seed, "--seed")
    pair = keygen(seed)
    write_canonical(args.out, canonical_serialize({
        "key_id": pair.key_id,
        "public_key": pair.public_key,
        "secret_key": pair.secret_key,
    }))
    print(f"key_id {pair.key_id.hex()}")
    return EXIT_OK


def cmd_issue(args) -> int:
    coop = Cooperative.load_state(args.coop)
    queries = [q.strip() for q in args.attrs.split(",") if q.strip()]
    if not queries:
        raise UsageError("--attrs must name at least one derivation rule")
    if args.ttl <= 0:
        raise UsageError("--ttl must be positive")
    plain, blinded = coop.issue_blinded(args.member, queries, args.mode, args.now, args.ttl)
    # The state file last: a failed write of an output leaves it as it was.
    # A failed blinded write takes back the plain one, which names the member.
    plain_path = Path(args.out_plain).resolve()
    replaced = plain_path.read_bytes() if plain_path.exists() else None
    write_attestation(plain_path, plain)
    try:
        write_attestation(args.out_blinded, blinded)
    except OSError:
        if replaced is None:
            plain_path.unlink()
        else:
            write_canonical(plain_path, replaced)
        raise
    coop.save_state(args.coop)
    print(f"issued {blinded.attestation_id.hex()}")
    return EXIT_OK


def cmd_countersign(args) -> int:
    notary = Notary.load_state(args.notary)
    plain = _load_attestation(args.plain, PlainAttestation, "plain attestation")
    blinded = _load_attestation(args.blinded, BlindedAttestation, "blinded attestation")
    try:
        csa = notary.witness_and_countersign(plain, blinded, args.now)
    except (PairMismatch, ExpiredAtWitnessing):
        # The refusal is in the notary's rejection log; keep it.
        notary.save_state(args.notary)
        raise
    write_attestation(args.out, csa)
    notary.save_state(args.notary)
    print(f"countersigned {blinded.attestation_id.hex()}")
    return EXIT_OK


def cmd_verify(args) -> int:
    csa = _load_attestation(args.csa, CounterSignedAttestation, "countersigned attestation")
    issuer_key = _read_public_key(args.issuer_key)
    notary_key = _read_public_key(args.notary_key)
    report = verify_countersigned(csa, issuer_key, notary_key, args.now)
    for name, ok in report.checks().items():
        print(f"{name}: {'pass' if ok else 'fail'}")
    print(f"overall: {'pass' if report.passed else 'fail'}")
    return EXIT_OK if report.passed else EXIT_FAILURE


def cmd_revoke(args) -> int:
    attestation_id = _hex_bytes(args.id, "--id", DIGEST_SIZE)
    coop = Cooperative.load_state(args.coop)
    coop.revoke(attestation_id, args.now)
    coop.save_state(args.coop)
    print(f"revoked {args.id} at tick {args.now}")
    return EXIT_OK


def cmd_status(args) -> int:
    attestation_id = _hex_bytes(args.id, "--id", DIGEST_SIZE)
    coop = Cooperative.load_state(args.coop)
    status = coop.revalidation_status(attestation_id, args.now)
    print(status)
    return EXIT_OK if status == STATUS_VALID else EXIT_FAILURE


def cmd_disclose(args) -> int:
    attestation_id = _hex_bytes(args.id, "--id", DIGEST_SIZE)
    notary = Notary.load_state(args.notary)
    response = notary.respond_disclosure(attestation_id, args.jurisdiction,
                                         args.purpose, args.now)
    notary.save_state(args.notary)
    print(f"outcome: {response.outcome}")
    if response.subject is not None:
        print(f"subject: {response.subject}")
    return EXIT_OK if response.outcome == OUTCOME_DISCLOSED else EXIT_FAILURE


def cmd_simulate(args) -> int:
    config = ScenarioConfig.load(args.config)
    log = run_scenario(config)
    log.write(args.out)
    print(f"{len(log)} events -> {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    config = ScenarioConfig.load(args.config)
    problems = validate_config(config)
    for problem in problems:
        print(problem)
    if problems:
        return EXIT_USAGE
    print("config ok")
    return EXIT_OK


# --- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopattest",
        description="Blinded cooperative attestations: issue, countersign, "
                    "verify, and simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="derive a deterministic key pair from a seed")
    p.add_argument("--seed", required=True, help="hex seed bytes")
    p.add_argument("--out", required=True, help="key file to write")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("issue", help="issue a plain/blinded attestation pair")
    p.add_argument("--coop", required=True, help="cooperative state file (updated in place)")
    p.add_argument("--member", required=True)
    p.add_argument("--attrs", required=True, help="comma-separated derivation rules")
    p.add_argument("--mode", required=True, choices=[MODE_ABSENT, MODE_HANDLE])
    p.add_argument("--now", required=True, type=int)
    p.add_argument("--ttl", required=True, type=int)
    p.add_argument("--out-plain", required=True)
    p.add_argument("--out-blinded", required=True)
    p.set_defaults(func=cmd_issue)

    p = sub.add_parser("countersign", help="witness a pair and countersign the blinded copy")
    p.add_argument("--notary", required=True, help="notary state file (updated in place)")
    p.add_argument("--plain", required=True)
    p.add_argument("--blinded", required=True)
    p.add_argument("--now", required=True, type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_countersign)

    p = sub.add_parser("verify", help="verify a countersigned attestation")
    p.add_argument("--csa", required=True)
    p.add_argument("--issuer-key", required=True)
    p.add_argument("--notary-key", required=True)
    p.add_argument("--now", required=True, type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("revoke", help="revoke an issued attestation")
    p.add_argument("--coop", required=True, help="cooperative state file (updated in place)")
    p.add_argument("--id", required=True, help="attestation id, hex")
    p.add_argument("--now", required=True, type=int)
    p.set_defaults(func=cmd_revoke)

    p = sub.add_parser("status", help="revalidate an attestation id")
    p.add_argument("--coop", required=True, help="cooperative state file")
    p.add_argument("--id", required=True, help="attestation id, hex")
    p.add_argument("--now", required=True, type=int)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("disclose", help="request identity disclosure from the notary")
    p.add_argument("--notary", required=True, help="notary state file (updated in place)")
    p.add_argument("--id", required=True, help="attestation id, hex")
    p.add_argument("--jurisdiction", required=True)
    p.add_argument("--purpose", required=True, choices=PURPOSES)
    p.add_argument("--now", required=True, type=int)
    p.set_defaults(func=cmd_disclose)

    p = sub.add_parser("simulate", help="run a scenario config and write its event log")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="validate a scenario config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, DecodeError, ConfigInvalid, OSError) as exc:
        if isinstance(exc, ConfigInvalid):
            for problem in exc.problems:
                print(problem, file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScriptActionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except CoopAttestError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
