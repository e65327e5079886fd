"""Properties over every configuration the validator accepts, and the
honest runs that once issued verdicts."""

import random
from collections import Counter
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcmesh import sim
from dcmesh.errors import MalformedRecord
from dcmesh.keysetup import EPOCH_SLOTS
from dcmesh.splitter import threshold
from dcmesh.transcript import _SCHEMA, Transcript, line_to_record, record_to_line
from conftest import session_records


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(accepted_scenarios())
def test_every_accepted_configuration_runs_to_a_recorded_end(scenario):
    transcript = sim.run_scenario(scenario)
    report = sim.verify_transcript(Transcript.from_text(transcript.to_text()))
    assert report.clean, report.divergences[:3]
    flagged = {r["part"] for r in transcript.records if r["type"] == "VERDICT"}
    assert flagged <= {pid for pid, _ in scenario.adversaries}
    sessions = [r for r in transcript.records if r["type"] == "SESSION"]
    bits = scenario.payload_bits
    banned = {}
    for head in sessions:
        records = session_records(transcript, head["idx"])
        # the splitter's bound on a session of n participants
        n = len(head["active"].split(","))
        used = [r["slot"] for r in records if r["type"] == "ROUND"]
        assert len(used) <= n + (2 * n - 1) * (bits + 1), (n, len(used))
        # the judge's slot schedule: a session's rounds take slots 0, 1, ...,
        # one each, all within the slots its epochs endorsed
        assert used == list(range(len(used))) and len(used) <= head["budget"], (head, used)
        banned[head["idx"]] = {r["part"] for r in records if r["type"] == "BAN"}
    # the runner's stop rule, which verify applies too: a session follows
    # only one that banned someone but not everyone, over its survivors
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


# ---------------------------------------------------------------------------
# untraceability through whole sessions: two senders swap payloads, and a
# bijection of the key space leaves every record but the proofs as it was


@cache
def _h_logs(params):
    """x for each h^x of the group, a lookup table of its discrete logs."""
    logs, power = {}, 1
    for x in range(params.q):
        logs[power] = x
        power = power * params.h % params.p
    return logs


def _swapped_runs(scenario, a, b):
    """The scenario's run, and its run with senders a and b holding each
    other's payloads under mapped keys, with each participant's content
    (its broadcast less its pad sum) per (session, slot) in each run.

    The map, per slot of each epoch of each session: with D a's content
    in the first run less b's there, which is a's content in the first
    run less its content in the second, the edge (a, b)'s count and
    total keys move by D with the sign of a's end, and its blinding
    value by -delta, h^delta = g^D_count * f^D_total.  So every
    broadcast, edge commitment, root and signature stays, and only the
    provers' witnesses differ."""
    params = sim.derive_params(scenario.group, sim.DOMAIN_TAG)
    q, logs = params.q, _h_logs(params)
    lo, hi = sorted((a, b))
    sign = 1 if a == lo else -1
    first, second = {}, {}

    class Recorder(sim._Participants):
        contents = first

        def broadcast(self, round_id, slot):
            cts = super().broadcast(round_id, slot)
            self.contents[self.session, slot] = {
                p.pid: tuple((o - k) % q for o, k in zip(ct.value, p.view.pad_sum(slot)))
                for p, ct in zip(self.participants, cts)
            }
            return cts

    class Swapped(Recorder):
        contents = second

        def __init__(self, params, scenario, active, pending, session):
            pending = dict(pending)
            assert (a in pending) == (b in pending)
            if a in pending:
                pending[a], pending[b] = pending[b], pending[a]
            super().__init__(params, scenario, active, pending, session)

        def epoch(self, k):
            signed = super().epoch(k)
            epoch = self.graph.epochs[k]
            edge = epoch.edges[lo, hi]
            keys = [list(edge.count_keys), list(edge.total_keys), list(edge.blinds)]
            for i in range(EPOCH_SLOTS):
                contents = first.get((self.session, k * EPOCH_SLOTS + i))
                if contents is None:
                    continue
                d = [(x - y) % q for x, y in zip(contents[a], contents[b])]
                shift = params.g_table.power(d[0]) * params.f_table.power(d[1]) % params.p
                keys[0][i] += sign * d[0]
                keys[1][i] += sign * d[1]
                keys[2][i] -= sign * logs[shift]
            count_keys, total_keys, blinds = (tuple(x % q for x in column) for column in keys)
            mapped = edge._replace(count_keys=count_keys, total_keys=total_keys, blinds=blinds)
            remade = self.graph.sign_epoch({**epoch.edges, (lo, hi): mapped}, k, random.Random(0))
            # the mapped keys commit to what the keys did, so every participant's commitments stay
            assert [s.commitments for s in remade.shares] == [s.commitments for s in epoch.shares]
            self.graph.epochs[k] = remade._replace(signed=signed)
            return signed

    runs = []
    with pytest.MonkeyPatch.context() as patch:
        for source in (Recorder, Swapped):
            patch.setattr(sim, "_Participants", source)
            runs.append(sim.run_scenario(scenario))
    return *runs, first, second


def _without_proofs(transcript):
    """Every record, with no ``proof`` or ``bind`` field."""
    return [
        {k: v for k, v in rec.items() if k not in ("proof", "bind")}
        for rec in transcript.header + transcript.records
    ]


def assert_swap_is_untraceable(scenario, a, b):
    """The swapped run writes every record of the run, proofs and
    ``bind`` aside, and verifies clean; a and b did swap their contents.
    Returns the first run's contents."""
    before, after, first, second = _swapped_runs(scenario, a, b)
    assert first.keys() == second.keys()
    for slot, contents in first.items():
        assert (second[slot][a], second[slot][b]) == (contents[b], contents[a]), slot
    assert _without_proofs(after) == _without_proofs(before)
    assert sim.verify_transcript(after).clean
    return first


@st.composite
def swap_cases(draw):
    """A test_small scenario at payload_bits 3 with n <= 3 and at least
    two honest senders, and the two of them that swap payloads."""
    n = draw(st.integers(2, 3))
    pids = draw(st.permutations(range(n)))[: draw(st.integers(2, n))]
    senders = tuple(sorted((pid, draw(st.integers(0, 7))) for pid in pids))
    seed = draw(st.integers(0, (1 << 64) - 1))
    scenario = sim.Scenario(n=n, senders=senders, seed=seed, group="test_small", payload_bits=3)
    return scenario, pids[0], pids[1]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(swap_cases())
def test_two_senders_swapping_payloads_change_no_record_but_proofs(case):
    assert_swap_is_untraceable(*case)


def test_a_swap_across_an_epoch_and_an_investigation_changes_no_record_but_proofs():
    # test_medium: nine distinct payloads take nine rounds, so epoch 1 is
    # endorsed mid-session, and 7 sends at its slot 8, so the map moves its keys too
    crossing = sim.Scenario(n=9, senders=tuple((pid, 3 + 7 * pid) for pid in range(9)), seed=0)
    contents = assert_swap_is_untraceable(crossing, 0, 7)
    assert any(c[0] != c[7] for (_, slot), c in contents.items() if slot >= EPOCH_SLOTS)
    # a bad pad's investigation reveals edge commitments, which the map
    # keeps, and the senders swap again in the re-keyed session 2
    bad_pad = sim.Scenario(
        n=4, senders=((0, 36), (1, 11), (2, 28)), adversaries=((3, "bad_pad"),), seed=2
    )
    contents = assert_swap_is_untraceable(bad_pad, 0, 1)
    assert {session for session, _ in contents} == {1, 2}


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
