"""Seeded scale scenarios for the benchmark, each with its own oracle.

A generator turns a seed and a shape into a scenario config map (the
same map ``coopattest simulate`` would parse from a ``.scn`` file) and,
beside it, the verdict every post and transfer must get.  The oracle is
derived from the shape alone, from the protocol rules as the README
states them, never by running ``coopattest``, so a change that alters a
verdict shows up as a failed operation.

The same ``(workload, seed)`` always yields the same config: all
randomness comes from a ``random.Random`` seeded with a string, which
CPython hashes the same way on every platform.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

THRESHOLD = 1_000_000
LONG_TTL = 100_000
ACTIONS_PER_TICK = 50   # the logical clock advances once per this many posts
BENEFICIARIES = 20      # KYC'd beneficiary accounts per beneficiary exchange

_WORDS = (
    "ledger", "notary", "cooperative", "harbour", "signal", "morning", "river",
    "garden", "market", "thread", "lantern", "orbit", "meadow", "quartz", "violet",
    "copper", "summit", "willow", "ember", "canyon", "pebble", "falcon", "tundra",
)

# Filter reasons and transfer verdicts as coopattest names them.
ATTESTED = ("deliver", "attested")
REVOKED_POST = ("drop", "attestation-revoked")
NO_MATCH = ("drop", "no-ledger-match")
WRONG_AUTHOR = ("drop", "origin-mismatch")
BELOW_THRESHOLD = ("accepted", "below-threshold")
DISCLOSED = ("accepted", "disclosed")
HELD = ("held-pending-disclosure", "denied-jurisdiction")
REJECTED_REVOKED = ("rejected", "revoked")
REJECTED_EXPIRED = ("rejected", "expired")


@dataclass(frozen=True)
class DsnShape:
    """Attested-post traffic between providers, plus injected bot posts."""

    senders: int
    posts_per_sender: int
    bot_posts: int
    bot_copy_share: float  # bot posts that copy a real body under a wrong author
    revoked_share: float   # senders revoked after onboarding
    providers: int = 3
    fanout: int = 2        # providers each post is forwarded to


@dataclass(frozen=True)
class TravelShape:
    """Customers issued in waves with transfers between the waves."""

    customers: int
    transfers: int
    waves: int
    above_share: float         # transfers at or above the disclosure threshold
    revoked_share: float       # customers revoked after each wave's transfers
    expired_share: float       # customers issued with a TTL that ends before their transfers
    incompatible_share: float  # transfers to the exchange the notary will not disclose to


@dataclass
class Workload:
    """A generated config plus the oracle that judges its event log."""

    name: str
    config: dict
    # (provider, author_handle, origin_provider, post_digest, outcome, reason)
    expected_posts: list
    # (beneficiary_exchange, transfer_id, outcome, reason)
    expected_transfers: list

    @property
    def actions(self) -> int:
        return len(self.config["script"])

    @property
    def verdicts(self) -> int:
        return len(self.expected_posts) + len(self.expected_transfers)

    @property
    def chains(self) -> int:
        return len(self.config["providers"])

    @property
    def attempted(self) -> int:
        """Operations judged per run: script actions, verdicts, chain checks."""
        return self.actions + self.verdicts + self.chains

    def check(self, events) -> int:
        """Count failed operations in one run's event list.

        A verdict fails when it differs from the oracle at its position,
        or is missing or extra; a chain check fails when it is not ok.
        """
        posts, transfers, chains = [], [], []
        for event in events:
            kind = event.kind
            if kind == "filter-decision":
                p = event.payload
                posts.append((event.actor, p["author_handle"], p["origin_provider"],
                              p["post_digest"], p["outcome"], p["reason"]))
            elif kind == "transfer-decision":
                p = event.payload
                transfers.append((event.actor, p["transfer_id"], p["outcome"], p["reason"]))
            elif kind == "chain-verified":
                chains.append(event.payload.get("ok") is True)
        failed = _mismatches(posts, self.expected_posts)
        failed += _mismatches(transfers, self.expected_transfers)
        failed += sum(1 for ok in chains if not ok) + abs(len(chains) - self.chains)
        return failed


def _mismatches(actual: list, expected: list) -> int:
    wrong = sum(1 for a, e in zip(actual, expected) if a != e)
    return wrong + abs(len(actual) - len(expected))


def _pick(rng: random.Random, items, share: float) -> set:
    """Exactly round(share * len(items)) of *items*, so a mix is the same on every seed."""
    items = list(items)
    return set(rng.sample(items, round(share * len(items))))


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _member(rng: random.Random, i: int, handle: str | None = None) -> dict:
    record = {
        "member_id": f"m{i}",
        "legal_identity": f"member-legal-{i:05d}-{rng.getrandbits(24):06x}",
        "personal_data": {
            "date-of-birth": -rng.randrange(6_600, 25_000),
            "residence": rng.choice(("NL", "DE", "US", "FR", "ES")),
            "income": rng.randrange(10_000, 200_000),
            "standing": "good",
        },
    }
    if handle is not None:
        record["handle"] = handle
    return record


def _base(seed_label: str, members: list, exchanges: list, providers: list) -> dict:
    return {
        "seed": seed_label.encode("utf-8"),
        "tick_limit": 0,
        "cooperatives": [{"name": "coop1", "legal_rep": "notary1", "members": members}],
        "notaries": [{"name": "notary1", "jurisdiction": "US", "compatible": ["US", "EU"]}],
        "exchanges": exchanges,
        "providers": providers,
    }


# --- decentralized social network -------------------------------------------------

def dsn_workload(name: str, shape: DsnShape, seed: int) -> Workload:
    if not 1 <= shape.fanout < shape.providers:
        raise ValueError("fanout must leave the home provider out")
    rng = random.Random(f"perfbench/{name}/{seed}")
    providers = [f"P{i + 1}" for i in range(shape.providers)]
    handles = [f"@s{i}" for i in range(shape.senders)]
    home = {h: providers[i % len(providers)] for i, h in enumerate(handles)}
    targets = {h: rng.sample([p for p in providers if p != home[h]], shape.fanout)
               for h in handles}
    members = [_member(rng, i, h) for i, h in enumerate(handles)]
    provider_entries = [
        {"name": p, "jurisdiction": "US",
         "followers": {h: targets[h] for h in handles if home[h] == p}}
        for p in providers
    ]
    config = _base(f"perfbench/{name}/{seed}", members, [], provider_entries)

    two_claims = _pick(rng, handles, 0.5)
    script = []
    for i, h in enumerate(handles):
        queries = ["age-over-18", "residence-country"] if h in two_claims else ["age-over-18"]
        script.append({"at": 1, "action": "issue", "coop": "coop1", "member": f"m{i}",
                       "queries": queries, "mode": "handle", "ttl": LONG_TTL,
                       "label": f"att-{h}"})
    for h in handles:
        script.append({"at": 2, "action": "register", "provider": home[h], "handle": h,
                       "attestation": f"att-{h}"})
    revoked = _pick(rng, handles, shape.revoked_share)
    for h in handles:
        if h in revoked:
            script.append({"at": 3, "action": "revoke", "coop": "coop1",
                           "attestation": f"att-{h}"})

    real = []
    for r in range(shape.posts_per_sender):
        order = list(handles)
        rng.shuffle(order)
        real.extend((h, f"{h} post {r}: {_words(rng, rng.randrange(4, 12))}") for h in order)

    expected = []
    posted: list[tuple[str, str]] = []
    tick, slot = 10, 0
    remaining_real, remaining_bots, bot = len(real), shape.bot_posts, 0
    while remaining_real or remaining_bots:
        if rng.random() * (remaining_real + remaining_bots) < remaining_bots:
            remaining_bots -= 1
            author = f"@bot{bot}"
            target = rng.choice(providers)
            if posted and rng.random() < shape.bot_copy_share:
                # A real body replayed under another author at its true origin:
                # the ledger search hits, the subject check drops it.
                source, body = rng.choice(posted)
                origin, verdict = home[source], WRONG_AUTHOR
            else:
                body = f"bot {bot} says {_words(rng, rng.randrange(3, 10))}"
                origin, verdict = rng.choice(providers), NO_MATCH
            script.append({"at": tick, "action": "inject-bot-post", "provider": target,
                           "author": author, "origin": origin, "body": body})
            expected.append((target, author, origin, _digest(body)) + verdict)
            bot += 1
        else:
            h, body = real[len(real) - remaining_real]
            remaining_real -= 1
            script.append({"at": tick, "action": "post", "provider": home[h],
                           "handle": h, "body": body})
            verdict = REVOKED_POST if h in revoked else ATTESTED
            expected.extend((t, h, home[h], _digest(body)) + verdict for t in targets[h])
            posted.append((h, body))
        slot += 1
        if slot % ACTIONS_PER_TICK == 0:
            tick += 1
    config["script"] = script
    config["tick_limit"] = tick + 1
    return Workload(name, config, expected, [])


# --- funds travel rule ---------------------------------------------------------------

def travel_workload(name: str, shape: TravelShape, seed: int) -> Workload:
    rng = random.Random(f"perfbench/{name}/{seed}")
    members = [_member(rng, i) for i in range(shape.customers)]
    exchanges = [
        {"name": "E1", "jurisdiction": "US", "threshold": THRESHOLD},
        {"name": "E2", "jurisdiction": "EU", "threshold": THRESHOLD},
        {"name": "E3", "jurisdiction": "XX", "threshold": THRESHOLD},
    ]
    config = _base(f"perfbench/{name}/{seed}", members, exchanges, [])

    script = []
    tick = 1
    for exchange in ("E2", "E3"):
        for b in range(BENEFICIARIES):
            script.append({"at": tick, "action": "register", "exchange": exchange,
                           "account": f"{exchange}-ben{b}",
                           "name": f"beneficiary-legal-{exchange}-{b:03d}"})

    short_lived = _pick(rng, range(shape.customers), shape.expired_share)
    above = _pick(rng, range(shape.transfers), shape.above_share)
    incompatible = _pick(rng, range(shape.transfers), shape.incompatible_share)
    expected = []
    active: list[int] = []       # customers that can still originate
    expires: dict[int, int] = {}  # customer -> expiry tick
    revoked: set[int] = set()
    transfer = 0
    for wave in range(shape.waves):
        tick += 1
        issued_at = tick
        start = shape.customers * wave // shape.waves
        stop = shape.customers * (wave + 1) // shape.waves
        for c in range(start, stop):
            ttl = 2 if c in short_lived else LONG_TTL
            expires[c] = issued_at + ttl
            script.append({"at": tick, "action": "issue", "coop": "coop1", "member": f"m{c}",
                           "queries": ["age-over-18", "residence-country"], "mode": "absent",
                           "ttl": ttl, "label": f"att-c{c}"})
            script.append({"at": tick, "action": "register", "exchange": "E1",
                           "account": f"acct-c{c}", "attestation": f"att-c{c}"})
            active.append(c)
        # Transfers come at least two ticks after issuance, so a short TTL has run out.
        tick += 2
        count = shape.transfers * (wave + 1) // shape.waves - transfer
        for _ in range(count):
            c = rng.choice(active)
            beneficiary = "E3" if transfer in incompatible else "E2"
            amount = (rng.randrange(THRESHOLD, 5 * THRESHOLD) if transfer in above
                      else rng.randrange(1, THRESHOLD))
            tid = f"t{transfer}"
            script.append({"at": tick, "action": "transfer", "origin": "E1", "transfer_id": tid,
                           "originator_account": f"acct-c{c}",
                           "beneficiary_account": f"{beneficiary}-ben{rng.randrange(BENEFICIARIES)}",
                           "beneficiary_exchange": beneficiary, "asset": "coin", "amount": amount})
            if tick >= expires[c]:
                verdict = REJECTED_EXPIRED
            elif c in revoked:
                verdict = REJECTED_REVOKED
            elif transfer not in above:
                verdict = BELOW_THRESHOLD
            else:
                verdict = HELD if transfer in incompatible else DISCLOSED
            expected.append((beneficiary, tid) + verdict)
            transfer += 1
            if transfer % 50 == 0:
                tick += 1
        tick += 1
        for c in sorted(_pick(rng, [c for c in active if c not in revoked],
                              shape.revoked_share)):
            revoked.add(c)
            script.append({"at": tick, "action": "revoke", "coop": "coop1",
                           "attestation": f"att-c{c}"})
    config["script"] = script
    config["tick_limit"] = tick + 1
    return Workload(name, config, [], expected)


# --- the benchmark's workloads -----------------------------------------------------------

SHAPES = {
    # Nearly every verdict runs the full filter: ledger search, attestation
    # fetch, two Ed25519 verifies and a notary revalidation.  Verify inputs
    # repeat (each sender's attestation is checked on every post).
    "dsn_attested": DsnShape(senders=150, posts_per_sender=4, bot_posts=40,
                             bot_copy_share=0.5, revoked_share=0.1),
    # Bots drop at the ledger search or the subject check, before any
    # signature check; the log and the config are large.
    "dsn_spam": DsnShape(senders=20, posts_per_sender=1, bot_posts=10_000,
                         bot_copy_share=0.1, revoked_share=0.0),
    # The write side: issuance signs and verifies, registration verifies,
    # revocation snapshots grow, verdicts mix revalidation and disclosure.
    "travel_churn": TravelShape(customers=300, transfers=1_000, waves=6, above_share=0.3,
                                revoked_share=0.1, expired_share=0.03,
                                incompatible_share=0.15),
}

# A few dozen actions per workload, for the smoke test.
TINY_SHAPES = {
    "dsn_attested": replace(SHAPES["dsn_attested"], senders=12, posts_per_sender=2, bot_posts=4,
                            revoked_share=0.25),
    "dsn_spam": replace(SHAPES["dsn_spam"], senders=3, bot_posts=40, bot_copy_share=0.3),
    "travel_churn": replace(SHAPES["travel_churn"], customers=15, transfers=40, waves=3,
                            above_share=0.5, incompatible_share=0.4, expired_share=0.2,
                            revoked_share=0.3),
}


def generate(name: str, seed: int, shape=None) -> Workload:
    """The named workload for *seed*, at its benchmark shape unless given one."""
    shape = SHAPES[name] if shape is None else shape
    if isinstance(shape, DsnShape):
        return dsn_workload(name, shape, seed)
    return travel_workload(name, shape, seed)
