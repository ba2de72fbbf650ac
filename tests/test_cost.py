"""What an event, a verdict, a config check and a signed record cost, in
Python frames, and what a config parse costs, in regex matches.

A frame is one ``call`` event of ``sys.setprofile``, as ``tests/test_reach.py``
counts them: a function or method run in Python, or a generator resumed; a
builtin runs none.  A verdict is a consumer's call that the benchmark times,
``Provider.receive_post`` or ``Exchange.evaluate_transfer``, its own frame
included.  The counts of the attested, below-threshold, disclosed and
denied-jurisdiction verdicts are those of CPython 3.10 to 3.13 alike; the
others were counted on CPython 3.11 alone.
"""

import sys

import pytest

from coopattest import crypto
from coopattest.attestation import SubjectRef, blind, build_plain, countersign
from coopattest.canonical import canonical_parse
from coopattest.dsn import Provider
from coopattest.harness import Event, Scenario, validate_config
from coopattest.ledger import AttestationRecord, Ledger, PostRecord
from coopattest.travel_rule import Exchange

from conftest import make_claims, tiny_benchmark_config, tiny_benchmark_workload

VERDICT_CALLS = {Provider.receive_post.__code__, Exchange.evaluate_transfer.__code__}

# The most frames one verdict of each (workload, reason) runs.  Each event
# it logs costs one frame, the emit, and its decision none: a decision with
# no travel record is looked up, not built.  A disclosed one builds its
# record and itself (two frames each), and the residence scan runs none.
MOST_FRAMES = {
    ("dsn_attested", "attested"): 23,
    ("dsn_attested", "attestation-revoked"): 23,
    ("dsn_attested", "no-ledger-match"): 7,
    ("dsn_attested", "origin-mismatch"): 13,
    ("dsn_spam", "no-ledger-match"): 7,
    ("dsn_spam", "origin-mismatch"): 13,
    ("travel_churn", "below-threshold"): 13,
    ("travel_churn", "disclosed"): 26,
    ("travel_churn", "denied-jurisdiction"): 22,
    ("travel_churn", "expired"): 6,
    ("travel_churn", "revoked"): 13,
}


def verdict_frames(config) -> list[tuple[str, int]]:
    """The reason of each verdict a run of *config* gives, with the frames it ran."""
    found, depth, frames = [], 0, 0

    def profile(frame, event, arg):
        nonlocal depth, frames
        if event == "call" and (depth or frame.f_code in VERDICT_CALLS):
            depth, frames = depth + 1, frames + 1
        elif event == "return" and depth:
            depth -= 1
            if not depth:
                found.append((arg.reason, frames))
                frames = 0

    scenario = Scenario(config)
    sys.setprofile(profile)
    try:
        scenario.run()
    finally:
        sys.setprofile(None)
    return found


def test_an_emit_runs_one_frame_and_logs_its_event():
    scenario = Scenario(tiny_benchmark_workload("travel_churn"))
    exchange = next(iter(scenario.exchanges.values()))
    scenario.now = 4
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        exchange._emit("tampered", {"account": "acct-1"})
    finally:
        sys.setprofile(None)
    assert frames == ["emit"]
    assert scenario.log.events == [Event(4, exchange.name, "tampered", {"account": "acct-1"})]


@pytest.mark.parametrize("workload, reason", sorted(MOST_FRAMES))
def test_a_verdict_runs_no_more_frames_than_counted(workload, reason):
    counts = [frames for why, frames in verdict_frames(tiny_benchmark_workload(workload))
              if why == reason]
    assert counts, f"no {reason} verdict on {workload}"
    assert max(counts) <= MOST_FRAMES[workload, reason], counts


# The most frames signing each record runs on CPython 3.11, its own call
# included: the signer; a frame for each record it writes by a call (a claim,
# a subject, the signature, a ledger payload and its pointer); the crypto
# calls (the sign, the signature it builds, each digest); the record's
# constructor and its __post_init__; and, for a tuple of claims, the
# signer's check of their types (a generator) and its list of their texts
# (a comprehension, which 3.12 inlines).  Before the signers were generated,
# each wrote its record through a dict of entries: 33, 31, 18, 21 and 23.
MOST_SIGNING_FRAMES = {"build_plain": 17, "blind": 16, "countersign": 8,
                       "append attestation": 10, "append post": 12}


def signing_frames() -> dict[str, int]:
    """The frames of each signing call, each signer generated beforehand."""
    issuer, notary, writer = (crypto.keygen(seed) for seed in (b"issuer", b"notary", b"writer"))
    claims = make_claims(("age-over-18", "true"), ("residence-country", "US"))
    counts = {}

    def framed(name, call, *args):
        frames = 0

        def profile(frame, event, arg):
            nonlocal frames
            frames += event == "call"

        sys.setprofile(profile)
        try:
            result = call(*args)
        finally:
            sys.setprofile(None)
        counts[name] = frames
        return result

    for _ in range(2):   # the first round generates each signer
        plain = framed("build_plain", build_plain, SubjectRef.legal("alice-legal-0001"), claims,
                       issuer, "notary-1", 10, 1000, b"n" * 32)
        blinded = framed("blind", blind, plain, SubjectRef.handle("@alice"), issuer)
        csa = framed("countersign", countersign, blinded, notary, "notary-1", 11)
        ledger = Ledger("l1", writer.public_key)
        payload = AttestationRecord(csa)
        ptr = framed("append attestation", ledger.append, writer, payload)
        payload = PostRecord(crypto.digest(b"post"), ptr, 12)
        framed("append post", ledger.append, writer, payload)
    return counts


def test_signing_a_record_runs_no_more_frames_than_counted():
    counts = signing_frames()
    assert all(counts[name] <= most for name, most in MOST_SIGNING_FRAMES.items()), counts


# The most frames validate_config runs on each workload's config, its
# checks generated: one a checked entry (an actor, a member or an action,
# 137 and 72 of them), one for each of the config's own two fields, checked
# by their kinds, and three for the walk itself.  Walking every entry, as
# before the checks were generated, took 1,564 and 798.
MOST_CHECK_FRAMES = {"travel_churn": 142, "dsn_attested": 77}


@pytest.mark.parametrize("workload", sorted(MOST_CHECK_FRAMES))
def test_a_config_check_runs_one_frame_per_entry(workload):
    config = tiny_benchmark_workload(workload)
    assert validate_config(config) == []   # and each layout's check is generated
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        problems = validate_config(config)
    finally:
        sys.setprofile(None)
    assert problems == []
    assert len(frames) <= MOST_CHECK_FRAMES[workload], frames


# The most regex reads canonical_parse makes on each workload's config, as
# matches and findalls: one match per later member or script action of a
# form its list has learned, one for each other learned form it tries
# first, and one findall per list in it; one match per map entry of a
# scalar elsewhere, and one per other token.  Reading every action a
# token at a time, as before layouts, took 1,325 and 769 matches; with
# layouts of scalars only, 882 and 656.
MOST_PARSE_MATCHES = {"travel_churn": 517, "dsn_attested": 446}
READS = {"Pattern.match", "Pattern.findall"}


@pytest.mark.parametrize("workload", sorted(MOST_PARSE_MATCHES))
def test_a_config_parse_reads_a_later_record_of_a_layout_with_one_match(workload):
    data = tiny_benchmark_config(workload)
    matches = 0

    def profile(frame, event, arg):
        nonlocal matches
        if event == "c_call" and getattr(arg, "__qualname__", None) in READS:
            matches += 1

    sys.setprofile(profile)
    try:
        canonical_parse(data)
    finally:
        sys.setprofile(None)
    assert matches <= MOST_PARSE_MATCHES[workload]
