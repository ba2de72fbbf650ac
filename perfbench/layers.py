"""Per-layer metrics of one traced scenario run, computed from its spans.

Each coopattest module is a layer.  Every layer reports its calls, its
self time (spans minus their child spans), its total time (outermost
spans of the module only, so recursion into itself is not counted twice)
and its self time as a share of the traced host time.  The named counts
and times below come from single functions; where a value needs the
arguments or the result of a call (distinct verify inputs, bytes
serialized, verdict reasons), an observer collects it as the call ends.

Every metric is reported on every workload, as 0 where the workload never
reaches that code, so that a later run can be compared name by name.
"""

from __future__ import annotations

from collections import Counter
from statistics import median

from tracing import MODULES

DSN_REASONS = ("attested", "no-ledger-match", "origin-mismatch", "attestation-invalid",
               "attestation-expired", "attestation-revoked")
TRAVEL_REASONS = ("below-threshold", "disclosed", "denied-jurisdiction", "expired", "revoked",
                  "verification-failed")
DISCLOSURE_OUTCOMES = ("disclosed", "denied-jurisdiction", "unknown-attestation")
CHANNELS = ("revocation-sync", "witness-request", "countersigned", "post", "revalidation",
            "revalidation-status", "disclosure-request", "disclosure-response", "transfer",
            "attestation-request", "attestation-delivery", "recovery-notice")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for m in MODULES:
        units.update({f"{m}.calls": "count", f"{m}.self_s": "s", f"{m}.total_s": "s",
                      f"{m}.self_share": "ratio"})
    units.update({
        "crypto.verify_calls": "count", "crypto.verify_self_s": "s",
        "crypto.verify_distinct_share": "ratio", "crypto.sign_calls": "count",
        "crypto.sign_self_s": "s", "crypto.sign_per_action": "ratio",
        "crypto.keygen_calls": "count", "crypto.digest_calls": "count",
        "crypto.digest_self_s": "s",
        "attestation.verify_countersigned_calls": "count",
        "attestation.verify_countersigned_s": "s", "attestation.verify_pair_s": "s",
        "attestation.build_s": "s", "attestation.countersign_s": "s",
        "canonical.serialize_calls": "count", "canonical.serialize_self_s": "s",
        "canonical.serialize_bytes": "bytes", "canonical.parse_s": "s",
        "canonical.parse_bytes": "bytes",
        "ledger.append_calls": "count", "ledger.append_s": "s", "ledger.search_calls": "count",
        "ledger.search_hit_share": "ratio", "ledger.verify_chain_s": "s",
        "ledger.records": "count",
    })
    units.update({f"dsn.verdicts.{r}": "count" for r in DSN_REASONS})
    units.update({"dsn.filter_attested_us": "us", "dsn.filter_drop_us": "us",
                  "dsn.publish_s": "s", "dsn.onboard_s": "s"})
    units.update({f"travel_rule.verdicts.{r}": "count" for r in TRAVEL_REASONS})
    units.update({"travel_rule.verdicts.other": "count", "travel_rule.evaluate_s": "s",
                  "travel_rule.register_s": "s"})
    units.update({"notary.witness_s": "s", "notary.revalidation_calls": "count",
                  "notary.revalidation_s": "s"})
    units.update({f"notary.disclosure_calls.{o}": "count" for o in DISCLOSURE_OUTCOMES})
    units.update({"notary.sync_entries": "count", "cooperative.issue_calls": "count",
                  "cooperative.issue_s": "s", "cooperative.snapshot_entries": "count",
                  "events.messages": "count"})
    units.update({f"events.messages.{c}": "count" for c in CHANNELS})
    units.update({"harness.actions": "count", "harness.events": "count",
                  "harness.log_bytes": "bytes", "harness.to_bytes_s": "s",
                  "harness.validate_s": "s", "harness.build_s": "s",
                  "trace.host_s": "s", "trace.spans": "count", "trace.overhead_share": "ratio",
                  "trace.reference_s": "s"})
    return units


class Observations:
    """Values that need a call's arguments or result, for one run."""

    def __init__(self) -> None:
        self.verify_inputs: set = set()
        self.serialize_bytes = 0
        self.parse_bytes = 0
        self.search_hits = 0
        self.dsn_reasons: Counter = Counter()
        self.filter_us: dict[str, list[float]] = {"deliver": [], "drop": []}
        self.travel_reasons: Counter = Counter()
        self.disclosures: Counter = Counter()
        self.sync_entries = 0
        self.snapshot_entries = 0
        self.channels: Counter = Counter()
        self.log_bytes = 0

    def observers(self) -> dict:
        """Span name -> callback(args, kwargs, result, duration_ns).

        The callbacks look up ``self`` on each call, so ``reset`` may swap
        the collections underneath them.
        """
        def verify(args, kwargs, result, ns):
            sig = _arg(args, kwargs, 3, "sig")
            self.verify_inputs.add((_arg(args, kwargs, 0, "public_key"),
                                    _arg(args, kwargs, 1, "domain_tag"),
                                    _arg(args, kwargs, 2, "message"), sig.data))

        def serialize(args, kwargs, result, ns):
            self.serialize_bytes += len(result)

        def parse(args, kwargs, result, ns):
            self.parse_bytes += len(_arg(args, kwargs, 0, "data"))

        def search(args, kwargs, result, ns):
            self.search_hits += bool(result)

        def receive_post(args, kwargs, result, ns):
            self.dsn_reasons[result.reason] += 1

        def filter_incoming(args, kwargs, result, ns):
            self.filter_us[result.outcome].append(ns / 1e3)

        def evaluate(args, kwargs, result, ns):
            reason = result.reason
            self.travel_reasons[reason if reason in TRAVEL_REASONS else "other"] += 1

        def disclose(args, kwargs, result, ns):
            self.disclosures[result.outcome] += 1

        def sync(args, kwargs, result, ns):
            self.sync_entries += len(_arg(args, kwargs, 1, "snapshot"))

        def send(args, kwargs, result, ns):
            channel = _arg(args, kwargs, 2, "channel")
            payload = _arg(args, kwargs, 3, "payload")
            self.channels[channel] += 1
            if channel == "revocation-sync":
                self.snapshot_entries += len(payload["entries"])

        def to_bytes(args, kwargs, result, ns):
            self.log_bytes += len(result)

        return {
            "crypto.verify": verify,
            "canonical.canonical_serialize": serialize,
            "canonical.canonical_parse": parse,
            "ledger.Ledger.post_matches": search,
            "dsn.Provider.receive_post": receive_post,
            "dsn.Provider.filter_incoming": filter_incoming,
            "travel_rule.Exchange.evaluate_transfer": evaluate,
            "notary.Notary.respond_disclosure": disclose,
            "notary.Notary.sync_revocations": sync,
            "events.send_message": send,
            "harness.EventLog.to_bytes": to_bytes,
        }

    def reset(self) -> None:
        self.__init__()


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """A call's argument, whether it was passed by position or by name."""
    return args[index] if len(args) > index else kwargs[name]


def layer_metrics(repeat: dict, obs: Observations, host_s: float, actions: int,
                  events: int) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_share`` and
    ``trace.reference_s``, which need the untraced runs too, for one run."""
    fns = repeat["functions"]

    def calls(name: str) -> int:
        return fns.get(name, (0, 0, 0))[0]

    def total(*names: str) -> float:
        return sum(fns.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def self_s(*names: str) -> float:
        return sum(fns.get(n, (0, 0, 0))[1] for n in names) / 1e9

    out: dict[str, float] = {}
    for m, (module_calls, module_self, module_total) in repeat["modules"].items():
        out[f"{m}.calls"] = module_calls
        out[f"{m}.self_s"] = module_self / 1e9
        out[f"{m}.total_s"] = module_total / 1e9
        out[f"{m}.self_share"] = module_self / 1e9 / host_s

    verify_calls = calls("crypto.verify")
    searches = calls("ledger.Ledger.post_matches")
    out.update({
        # crypto.verify and crypto.sign reach only crypto code, so their
        # inclusive time is the crypto layer's own time for that operation.
        "crypto.verify_calls": verify_calls,
        "crypto.verify_self_s": total("crypto.verify"),
        "crypto.verify_distinct_share": len(obs.verify_inputs) / verify_calls if verify_calls else 0.0,
        "crypto.sign_calls": calls("crypto.sign"),
        "crypto.sign_self_s": total("crypto.sign"),
        "crypto.sign_per_action": calls("crypto.sign") / actions,
        "crypto.keygen_calls": calls("crypto.keygen"),
        "crypto.digest_calls": calls("crypto.digest"),
        "crypto.digest_self_s": total("crypto.digest"),
        "attestation.verify_countersigned_calls": calls("attestation.verify_countersigned"),
        "attestation.verify_countersigned_s": total("attestation.verify_countersigned"),
        "attestation.verify_pair_s": total("attestation.verify_pair"),
        "attestation.build_s": total("attestation.build_plain", "attestation.blind"),
        "attestation.countersign_s": total("attestation.countersign"),
        "canonical.serialize_calls": calls("canonical.canonical_serialize"),
        "canonical.serialize_self_s": self_s("canonical.canonical_serialize"),
        "canonical.serialize_bytes": obs.serialize_bytes,
        "canonical.parse_s": total("canonical.canonical_parse"),
        "canonical.parse_bytes": obs.parse_bytes,
        "ledger.append_calls": calls("ledger.Ledger.append"),
        "ledger.append_s": total("ledger.Ledger.append"),
        "ledger.search_calls": searches,
        "ledger.search_hit_share": obs.search_hits / searches if searches else 0.0,
        "ledger.verify_chain_s": total("ledger.Ledger.verify_chain"),
        # Ledgers are append-only and start empty, so every append is a record.
        "ledger.records": calls("ledger.Ledger.append"),
    })
    out.update({f"dsn.verdicts.{r}": obs.dsn_reasons[r] for r in DSN_REASONS})
    out.update({
        "dsn.filter_attested_us": median(obs.filter_us["deliver"] or [0.0]),
        "dsn.filter_drop_us": median(obs.filter_us["drop"] or [0.0]),
        "dsn.publish_s": total("dsn.Provider.publish_post"),
        "dsn.onboard_s": total("dsn.Provider.onboard_sender"),
    })
    out.update({f"travel_rule.verdicts.{r}": obs.travel_reasons[r] for r in TRAVEL_REASONS})
    out.update({
        "travel_rule.verdicts.other": obs.travel_reasons["other"],
        "travel_rule.evaluate_s": total("travel_rule.Exchange.evaluate_transfer"),
        "travel_rule.register_s": total("travel_rule.Exchange.register_customer"),
        "notary.witness_s": total("notary.Notary.witness_and_countersign"),
        "notary.revalidation_calls": calls("notary.Notary.respond_revalidation"),
        "notary.revalidation_s": total("notary.Notary.respond_revalidation"),
    })
    out.update({f"notary.disclosure_calls.{o}": obs.disclosures[o] for o in DISCLOSURE_OUTCOMES})
    out.update({
        "notary.sync_entries": obs.sync_entries,
        "cooperative.issue_calls": calls("cooperative.Cooperative.issue_blinded"),
        "cooperative.issue_s": total("cooperative.Cooperative.issue_blinded"),
        "cooperative.snapshot_entries": obs.snapshot_entries,
        "events.messages": sum(obs.channels.values()),
    })
    out.update({f"events.messages.{c}": obs.channels[c] for c in CHANNELS})
    out.update({
        "harness.actions": actions,
        "harness.events": events,
        "harness.log_bytes": obs.log_bytes,
        "harness.to_bytes_s": total("harness.EventLog.to_bytes"),
        "harness.validate_s": total("harness.validate_config"),
        "harness.build_s": total("harness.Scenario._build_actors"),
        "trace.host_s": host_s,
        "trace.spans": len(repeat["spans"]),
    })
    return out
