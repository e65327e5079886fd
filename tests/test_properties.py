"""Properties over every configuration the validator accepts, and the
honest runs that once issued verdicts."""

import random
from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcmesh import sim
from dcmesh.errors import MalformedRecord
from dcmesh.splitter import threshold
from dcmesh.transcript import _SCHEMA, Transcript, line_to_record, record_to_line


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
        (len(r["active"].split(",")), rounds[r["idx"]])
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
    # the judge's slot schedule: a session's rounds take slots 0, 1, ...,
    # one each, all within the slots its epochs endorsed
    budgets = {r["idx"]: r["budget"] for r in transcript.records if r["type"] == "SESSION"}
    slots = {session: [] for session in budgets}
    for r in transcript.records:
        if r["type"] == "ROUND":
            slots[r["session"]].append(r["slot"])
    for session, used in slots.items():
        assert used == list(range(len(used))) and len(used) <= budgets[session], (session, used)
    # the runner's stop rule, which verify applies too: a session follows
    # only one that banned someone but not everyone, over its survivors
    sessions = [r for r in transcript.records if r["type"] == "SESSION"]
    banned = {r["idx"]: set() for r in sessions}
    for r in transcript.records:
        if r["type"] == "BAN":
            banned[r["session"]].add(r["part"])
    for first, second in zip(sessions, sessions[1:]):
        active = first["active"].split(",")
        survivors = [pid for pid in active if int(pid) not in banned[first["idx"]]]
        assert banned[first["idx"]] and survivors, first
        assert second["active"].split(",") == survivors, (first, second)
    if not scenario.adversaries:
        assert_honest_run_served(scenario, transcript)


# the records of a run that do not depend on which participant sends what
_SENDER_FREE = ("SESSION", "PUBKEY", "ENDORSE", "ROUND", "AGGREGATE", "NODE", "RESOLVED")


def sender_free_view(transcript):
    """The records no observer could tell senders apart by: those of
    ``_SENDER_FREE``, every DEMAND's ``ok`` and the SUMMARY less its
    ``bind``, which digests the whole body."""
    records = transcript.records
    return (
        [r for r in records if r["type"] in _SENDER_FREE],
        [r["ok"] for r in records if r["type"] == "DEMAND"],
        {k: v for k, v in records[-1].items() if k != "bind"},
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(accepted_scenarios().filter(lambda s: s.senders and not s.adversaries), st.data())
def test_which_honest_participants_send_changes_no_public_record(scenario, data):
    # the same payloads and seed, held by other participants
    moved = data.draw(st.permutations(range(scenario.n)))
    other = scenario._replace(senders=tuple(sorted((moved[pid], x) for pid, x in scenario.senders)))
    assume(other.senders != scenario.senders)
    other.validate()
    assert sender_free_view(sim.run_scenario(other)) == sender_free_view(sim.run_scenario(scenario))


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


# a field's text: an integer's canonical spelling or one int() also takes
# (a +, a leading zero, -0, a non-ASCII digit), or short text with
# spaces, = signs and hex in both cases
FIELD_TEXT = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "", "-", "+", "0", "-0"]),
    st.integers(0),
    st.sampled_from(["", "", "\u0661"]),
) | st.text("0123456789+-_ =\u0661aAfF", max_size=6)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_SCHEMA)), st.data())
def test_an_accepted_line_reserialises_to_itself(rtype, data):
    # one spelling per value: every digest is taken over the lines a
    # transcript holds, so what the parser accepts it must write back
    line = " ".join([rtype] + [f"{name}={data.draw(FIELD_TEXT)}" for name in _SCHEMA[rtype]])
    try:
        rec = line_to_record(line, 0)
    except MalformedRecord:
        return
    assert record_to_line(rec) == line


# a record field's value as the engine holds it: an int of any sign, or
# a str with no space
FIELD_VALUE = st.integers() | st.text(st.characters(exclude_characters=" "), max_size=8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_SCHEMA)), st.data())
def test_a_record_line_is_its_fields_joined(rtype, data):
    # each type's line is one template fill, spelled as the type and
    # every name=value, f-string spelled, joined by spaces
    rec = {"type": rtype, **{name: data.draw(FIELD_VALUE) for name in _SCHEMA[rtype]}}
    expected = " ".join([rtype] + [f"{name}={rec[name]}" for name in _SCHEMA[rtype]])
    assert record_to_line(rec) == expected
