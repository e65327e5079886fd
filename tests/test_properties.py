"""Properties over every configuration the validator accepts, and the
honest runs that once issued verdicts."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from dcmesh import sim
from dcmesh.splitter import threshold
from dcmesh.transcript import Transcript


@st.composite
def accepted_scenarios(draw):
    """Any scenario the validator accepts with n <= 16, 8-bit payloads
    (duplicates likely) and at most one adversary."""
    n = draw(st.integers(1, 16))
    senders = {}
    for pid in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
        payload = st.integers(0, 255)
        if senders:
            payload = payload | st.sampled_from(sorted(senders.values()))
        senders[pid] = draw(payload)
    adversaries = ()
    if draw(st.booleans()):
        pid, strategy = draw(st.integers(0, n - 1)), draw(st.sampled_from(sim.STRATEGIES))
        if strategy in sim._SENDER_STRATEGIES and pid not in senders:
            senders[pid] = draw(st.integers(0, 255))
        adversaries = ((pid, strategy),)
    scenario = sim.Scenario(
        n=n,
        senders=tuple(sorted(senders.items())),
        adversaries=adversaries,
        seed=draw(st.integers(0, (1 << 64) - 1)),
    )
    scenario.validate()
    return scenario


def assert_honest_run_served(scenario, transcript):
    """No verdict, every payload delivered once per sender, and every
    split at its collision's average, never at a midpoint."""
    records = transcript.records
    assert [r for r in records if r["type"] == "VERDICT"] == []
    delivered = Counter(r["payload"] for r in records if r["type"] == "RESOLVED")
    assert delivered == Counter(payload for _, payload in scenario.senders)
    for r in records:
        if r["type"] == "NODE" and r["threshold"] != "-":
            assert int(r["threshold"]) == threshold(r["count"], r["total"]), r


def session_rounds(transcript):
    """(active participants, transmitted rounds) of each session."""
    rounds = Counter(r["session"] for r in transcript.records if r["type"] == "ROUND")
    return [
        (len(r["active"].split(",")) if r["active"] else 0, rounds[r["idx"]])
        for r in transcript.records
        if r["type"] == "SESSION"
    ]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(accepted_scenarios())
def test_every_accepted_configuration_runs_to_a_recorded_end(scenario):
    transcript = sim.run_scenario(scenario)
    report = sim.verify_transcript(Transcript.from_text(transcript.to_text()))
    assert report.clean, report.divergences[:3]
    flagged = {r["part"] for r in transcript.records if r["type"] == "VERDICT"}
    assert flagged <= {pid for pid, _ in scenario.adversaries}
    # the splitter's bound on a session of n participants
    bits = scenario.payload_bits
    for n, rounds in session_rounds(transcript):
        assert rounds <= n + (2 * n - 1) * (bits + 1), (n, rounds)
    if not scenario.adversaries:
        assert_honest_run_served(scenario, transcript)


def test_honest_random_payloads_at_four_retries_are_never_blamed():
    # n=8 with uniform 8-bit payloads: sums pass 256, which one packed
    # scalar per slot would carry into its count, banning honest senders
    # in 3 of these 20 runs when coin flips were bounded by four retries
    rng = random.Random(0)
    for seed in range(20):
        payloads = [rng.randrange(256) for _ in range(8)]
        scenario = sim.Scenario(n=8, senders=tuple(enumerate(payloads)), seed=seed)
        assert_honest_run_served(scenario, sim.run_scenario(scenario))


def test_sixteen_equal_payloads_at_two_retries_are_never_blamed():
    # sixteen copies of 77 cannot be split by any threshold; coin flips
    # bounded by two retries left 18 of these 20 runs stuck, banning
    # honest senders
    for seed in range(20):
        scenario = sim.Scenario(n=16, senders=tuple((pid, 77) for pid in range(16)), seed=seed)
        transcript = sim.run_scenario(scenario)
        assert_honest_run_served(scenario, transcript)
        # one degenerate split, and one equal-payload check delivers all 16
        assert transcript.records[-1]["transmitted"] == 2
