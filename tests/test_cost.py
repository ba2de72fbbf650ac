"""What an event and a verdict cost, in Python frames.

A frame is one ``call`` event of ``sys.setprofile``, as ``tests/test_reach.py``
counts them: a function or method run in Python, or a generator resumed; a
builtin runs none.  A verdict is a consumer's call that the benchmark times,
``Provider.receive_post`` or ``Exchange.evaluate_transfer``, its own frame
included.  The counts below are those of CPython 3.10 to 3.13 alike.
"""

import sys

import pytest

from coopattest.dsn import Provider
from coopattest.harness import Event, Scenario
from coopattest.travel_rule import Exchange

from conftest import tiny_benchmark_workload

VERDICT_CALLS = {Provider.receive_post.__code__, Exchange.evaluate_transfer.__code__}

# The most frames one verdict of each (workload, reason) runs.  Each event
# it logs costs one frame, the emit, and its decision none: a decision with
# no travel record is looked up, not built.  A disclosed one builds its
# record and itself (two frames each), and the residence scan runs none.
MOST_FRAMES = {
    ("dsn_attested", "attested"): 23,
    ("travel_churn", "below-threshold"): 13,
    ("travel_churn", "disclosed"): 26,
    ("travel_churn", "denied-jurisdiction"): 22,
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
