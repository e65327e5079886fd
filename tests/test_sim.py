"""Scenario execution, strategy detection, transcript closure."""

import hashlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from dcmesh import keysetup, sim, splitter, zkp
from dcmesh.errors import ConfigInvalid, MalformedRecord
from dcmesh.keysetup import EPOCH_SLOTS
from dcmesh.transcript import _SCHEMA, Transcript, record, record_to_line, records_digest

# hex digits of one commitment, and of the edge's other commitments that
# open a PUBLISH path
ELEMENT_HEX = 2 * sim.derive_params("test_medium", sim.DOMAIN_TAG).element_bytes
PATH_ROW = (EPOCH_SLOTS - 1) * ELEMENT_HEX

BASE_SENDERS = ((0, 36), (1, 11), (2, 28), (3, 17), (4, 38))
# the console-script check's scenario: participant 3's bad pad is caught
# in session 1, and session 2 delivers the three messages without it
BAD_PAD_RUN = sim.Scenario(
    n=4, senders=((0, 36), (1, 11), (2, 28)), adversaries=((3, "bad_pad"),), seed=2
)


def verdicts_of(transcript):
    return [
        (r["part"], r["reason"]) for r in transcript.records if r["type"] == "VERDICT"
    ]


def summary_of(transcript):
    return transcript.records[-1]


# ---------------------------------------------------------------------------
# scenario plumbing


def test_scenario_text_roundtrip():
    scenario = sim.Scenario(
        n=5,
        senders=BASE_SENDERS,
        adversaries=((3, "bad_pad"),),
        seed=42,
        payload_bits=8,
    )
    again = sim.Scenario.from_text(scenario.to_text())
    assert again == scenario
    assert again.digest() == scenario.digest()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0),
        dict(n=3, senders=((5, 1),)),
        dict(n=3, senders=((0, 300),)),
        dict(n=3, senders=((0, 1), (0, 2))),
        dict(n=3, adversaries=((0, "nonsense"),)),
        dict(n=3, adversaries=((0, "mutate_message"),)),  # needs a payload
        dict(n=3, group="unknown"),
        dict(n=3, seed=-1),
        dict(n=200, payload_bits=12),  # slot encoding overflows the group
    ],
)
def test_scenario_validation_rejects(kwargs):
    with pytest.raises(ConfigInvalid):
        sim.Scenario(**kwargs).validate()


def test_scenario_from_text_rejects_garbage():
    with pytest.raises(ConfigInvalid):
        sim.Scenario.from_text("not a scenario\n")
    with pytest.raises(ConfigInvalid):
        sim.Scenario.from_text("dcmesh-scenario v1\nn = x\n")
    for line in (
        "sender = 1",
        "sender = x 5",
        "adversary = 1",
        "max_retires = 2",  # a misspelt key is not ignored
        "n = 4",  # nor does the last of two values win
    ):
        with pytest.raises(ConfigInvalid):
            sim.Scenario.from_text(f"dcmesh-scenario v1\nn = 3\n{line}\n")


# ---------------------------------------------------------------------------
# determinism and closure


def test_transcripts_are_deterministic():
    scenario = sim.Scenario(n=5, senders=BASE_SENDERS, seed=42)
    a = sim.run_scenario(scenario).to_text()
    b = sim.run_scenario(scenario).to_text()
    assert a == b
    different = sim.run_scenario(sim.Scenario(n=5, senders=BASE_SENDERS, seed=43))
    assert different.to_text() != a


# sha256 of run_scenario(s).to_text() for the acceptance suite's C10
# matrix, whose first entry is REFERENCE_SCENARIO, and three wider runs;
# refactors of the engine must leave every transcript byte-identical
# (pinned at format v10).  Test ids are the list positions, so a re-pin
# keeps them.
# an n=2 session that spends 11 slots, so it endorses epoch 1: the
# malformed slot (2, 101) has an odd total, so it is no equal-payload
# node (101 != 2 * 51), and its interval [51, 256) is bisected eight
# times down to [101, 102)
EPOCH_CROSSING = sim.Scenario(
    n=2, senders=((0, 9), (1, 101)), adversaries=((1, "bad_slot_count"),), seed=0
)
PINNED_TRANSCRIPTS = [
    (sim.REFERENCE_SCENARIO,
     "04e3f95a3bffcd1eb6c904409492660fa2d34fad951068b504866d5597406257"),
    (sim.Scenario(n=2, seed=1),
     "fae3c6f219ddaa7895346dfd080a382860cf2939d8aed092ec32654154aba3ad"),
    (sim.Scenario(n=3, senders=((1, 99),), seed=1),
     "071b7fa2dcf57437650670c6d9e5bb4347683e8669290cabc751fd3eee8812dc"),
    (sim.Scenario(n=2, senders=((0, 7), (1, 7)), seed=5),
     "689720b41338aa876f1c8675a992fd0db426b2fab10c0110558bd2fed2114308"),
    (sim.Scenario(n=4, senders=((0, 3), (1, 60), (2, 80), (3, 100)),
                  adversaries=((0, "mutate_message"),), seed=2),
     "101241864a895b101a847ab22058c9280cd1422fd74379a776ba27d3217cb5f4"),
    (sim.Scenario(n=4, senders=((0, 36), (1, 11), (2, 28), (3, 17)),
                  adversaries=((3, "bad_pad"),), seed=2),
     "11dc0ee8d74f66676db27319fa249e2db9cf3c87e7d96b71904ef22f2e77b2c2"),
    (sim.Scenario(n=2, senders=((0, 10), (1, 40)),
                  adversaries=((1, "wrong_branch"),), seed=2),
     "d2da9f1d889ca9f3f38fcdd5ae5a9f6830a14d11012c309edc69d4bba01117a6"),
    (sim.Scenario(n=3, senders=((0, 10), (1, 20), (2, 7)),
                  adversaries=((2, "bad_slot_count"),), seed=2),
     "9cc5e49a17ee33976722b538f6b1fa3f2233e0e26dcd3676c71a3f859b68fda7"),
    (sim.Scenario(n=4, senders=((0, 36), (1, 11), (2, 28)),
                  adversaries=((3, "refuse_signature"),), seed=2),
     "cd2115633cb50868d7852f7d01a44119d85cbfa8b4a4102f65c9df95ed7fccb5"),
    # honest, n=16: 120 edges endorsed per epoch
    (sim.Scenario(n=16, senders=((0, 3), (2, 14), (5, 15), (7, 92), (9, 65), (11, 35),
                                 (13, 8), (15, 9)), seed=11),
     "4d1d80dceab82ee6495a0c324a14c99237609ae4dd5e99ceadb9a437c40e45df"),
    # an investigation: 132 PUBLISH records with their paths, then a re-keyed session
    (sim.Scenario(n=12, senders=((0, 36), (1, 11), (3, 28), (5, 17), (8, 38), (10, 4)),
                  adversaries=((6, "bad_pad"),), seed=3),
     "1a31f79b13ab7381ba8fbbf0259f795592016272e9046d513a1025b14e87022d"),
    # a malformed slot bisected over 11 slots: epoch 1 is endorsed mid-session
    (EPOCH_CROSSING,
     "1a5f0d21e00ec5edb964421645ef03deab081e60568b6f6cc2ce8b183adbc79b"),
    # a refuser in mid-row, whose edges draw nothing, and a malformed slot
    # blamed after six rounds
    (sim.Scenario(n=6, senders=((0, 9), (3, 40), (4, 100), (5, 200)),
                  adversaries=((1, "refuse_signature"), (4, "bad_slot_count")),
                  seed=0, max_retries=14),
     "be6064edd34439e2b15ce113d28a913b3522274c637b9fc4087e75bc0758bc12"),
    # the three forged or withheld proofs the strategies above leave out:
    # an injected copy caught at round 6, a fresh message caught at
    # round 2, and a withheld proof at round 2
    (sim.Scenario(n=4, senders=((0, 10), (1, 20), (2, 30), (3, 5)),
                  adversaries=((3, "double_branch"),), seed=9),
     "5fd8391664173e520ce430dab0ae7a2c4b384d0337036a3824f1229f6e7b6e35"),
    (sim.Scenario(n=5, senders=((0, 36), (1, 11), (2, 28), (3, 17)),
                  adversaries=((4, "late_injection"),), seed=9),
     "552c238ccc2b062d1db41fd96288ae9c5ee34d0c85b7637f72f6f3618b5ca1f4"),
    (sim.Scenario(n=5, senders=BASE_SENDERS, adversaries=((2, "refuse_proof"),), seed=9),
     "5625d78cd7913e3b31735f8be4dc8ba99d0f3fe461d9a99f6efde86519edf488"),
]


@pytest.mark.parametrize(
    "scenario, digest", PINNED_TRANSCRIPTS,
    ids=[f"scenario{i}" for i in range(len(PINNED_TRANSCRIPTS))],
)
def test_transcripts_are_byte_identical_to_pinned(scenario, digest):
    text = sim.run_scenario(scenario).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _bench_workloads():
    """The bench's workload module, loaded from its file (``bench`` is no package)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# one SHA-256 per gated bench workload over its seed-1 pool's transcripts,
# in pool order: 136 scenarios, so a refactor that keeps every transcript
# byte-identical keeps these
POOL_DIGESTS = {
    "wide_honest": "6553ff5deabda987f3e0301170bf791020d7d1c8572672e81dd670b04faeb0a8",
    "narrow_poll": "e56dd012a9b1bc128151e0a9cd893d671ae8a6be37a8cea7a4cee1d4547a2ae9",
    "disrupted": "049663acc72568ab494bdc71d35073aa494a8b781f959b93341cc0fb832ecaf6",
}


@pytest.mark.parametrize("name", sorted(POOL_DIGESTS))
def test_bench_pool_transcripts_are_byte_identical_to_pinned(name):
    workload = _bench_workloads().WORKLOADS[name]
    digest = hashlib.sha256()
    for index in range(workload.pool):
        scenario = workload.scenario(sim, 1, index)
        digest.update(sim.run_scenario(scenario).to_text().encode())
    assert digest.hexdigest() == POOL_DIGESTS[name]


def test_transcript_text_roundtrip_and_closure():
    scenario = sim.Scenario(n=5, senders=BASE_SENDERS, seed=42)
    transcript = sim.run_scenario(scenario)
    text = transcript.to_text()
    parsed = Transcript.from_text(text)
    # both transcripts keep their lines, so re-serialise the records
    # themselves: the runner's lines and the parsed records spell the text
    for records in (transcript.header + transcript.records, parsed.header + parsed.records):
        assert "".join(record_to_line(rec) + "\n" for rec in records) == text
    report = sim.verify_transcript(parsed)
    assert report.clean, report.divergences


def test_every_record_has_exactly_its_schema_fields():
    # record() builds what it is given, so the field sets are checked
    # here, over runs that together write every record type: the pinned
    # ones hold every strategy, refuse_signature for OPTOUT, and an
    # equal-payload run
    scenarios = [BAD_PAD_RUN] + [scenario for scenario, _ in PINNED_TRANSCRIPTS]
    assert {s for scenario in scenarios for _, s in scenario.adversaries} == set(sim.STRATEGIES)
    assert any(len({p for _, p in s.senders}) < len(s.senders) for s in scenarios)
    seen = set()
    for scenario in scenarios:
        transcript = sim.run_scenario(scenario)
        for rec in transcript.header + transcript.records:
            assert rec.keys() == {"type", *_SCHEMA[rec["type"]]}, rec
            seen.add(rec["type"])
    assert seen == _SCHEMA.keys()


@pytest.mark.parametrize(
    "spelling", ["blank_in_body", "leading_blank", "two_trailing_blanks", "no_last_newline"]
)
def test_a_transcript_has_one_text(spelling):
    # every line ends with a newline and none is blank, so no other
    # spelling of a verifying text parses: a blank line, or the last line
    # without its newline, is malformed at its own index
    text = sim.run_scenario(BAD_PAD_RUN).to_text()
    assert sim.verify_transcript(Transcript.from_text(text)).clean
    lines = text.splitlines(keepends=True)
    n = len(lines)
    edited, index, cause = {
        "blank_in_body": ("".join([*lines[: n // 2], "\n", *lines[n // 2 :]]), n // 2,
                          "a blank line"),
        "leading_blank": ("\n" + text, 0, "a blank line"),
        "two_trailing_blanks": (text + "\n\n", n, "a blank line"),
        "no_last_newline": (text[:-1], n - 1, "the last line has no newline"),
    }[spelling]
    with pytest.raises(MalformedRecord) as exc:
        Transcript.from_text(edited)
    assert str(exc.value) == f"record {index}: {cause}"


def test_record_line_parse_errors():
    from dcmesh.transcript import line_to_record

    with pytest.raises(MalformedRecord):
        line_to_record("NOPE a=1", 0)  # unknown type
    with pytest.raises(MalformedRecord):
        line_to_record("BAN session=1", 0)  # missing field
    with pytest.raises(MalformedRecord):
        line_to_record("BAN session=1 peer=2", 0)  # wrong field name
    with pytest.raises(MalformedRecord):
        line_to_record("BAN session=1 part=x", 0)  # non-integer
    with pytest.raises(MalformedRecord):
        line_to_record("BAN session=1 part", 0)  # not key=value
    for spelling in ("09", "+9", "0_9", "-0", "\u0661\u0662"):  # int() accepts these
        with pytest.raises(MalformedRecord):
            line_to_record(f"BAN session=1 part={spelling}", 0)
    for line in ("BAN session=1 part=2 ", "BAN session=1  part=2"):  # a trailing or doubled space
        with pytest.raises(MalformedRecord):
            line_to_record(line, 0)
    # canonical, but past the digits int() converts (4,300 by default)
    with pytest.raises(MalformedRecord):
        line_to_record(f"BAN session=1 part={'9' * 5000}", 0)


def test_transcript_of_another_format_version_is_malformed():
    # an older transcript's PUBLISH paths and SESSION budgets follow
    # another epoch size; it ends malformed at its header instead of
    # replaying into verdicts that were never issued
    text = sim.run_scenario(sim.Scenario(n=3, senders=((0, 9),), seed=1)).to_text()
    assert text.startswith(f"DCMESH version={sim.FORMAT_VERSION} hash=sha256\n")
    for version in ("v9", "v11"):
        relabelled = text.replace(sim.FORMAT_VERSION, version, 1)
        with pytest.raises(MalformedRecord) as exc:
            sim.verify_transcript(Transcript.from_text(relabelled))
        assert exc.value.index == 0, version


def test_substituted_generator_diverges_at_group(monkeypatch):
    # a run whose GROUP record keeps the name test_medium but sets h = g^5,
    # so that its commitments do not bind: the verifier derives the named
    # group, and the record diverges at GROUP and at HEADEREND
    derive = sim.derive_params

    def substituted(name, tag):
        params = derive(name, tag)
        return params._replace(generators=(params.g, params.f, pow(params.g, 5, params.p)))

    monkeypatch.setattr(sim, "derive_params", substituted)
    text = sim.run_scenario(
        sim.Scenario(n=4, senders=((0, 9), (1, 200), (2, 31)), seed=3)
    ).to_text()
    monkeypatch.undo()
    assert text.splitlines()[1].startswith("GROUP name=test_medium p=262643 q=131321 generators=4,25,1024 ")
    report = sim.verify_transcript(Transcript.from_text(text))
    assert [index for index, _ in report.divergences][:2] == [1, 3]


@pytest.mark.parametrize(
    "field, value",
    [("name", "toy"), ("name", "TEST_MEDIUM"), ("tag", "zz"), ("tag", "abc"), ("tag", "")],
)
def test_group_record_naming_no_built_in_group_is_malformed(field, value):
    # an unknown name, or a tag that is not hex of a domain tag, names no
    # group: the transcript ends malformed at its GROUP record
    transcript = sim.run_scenario(sim.Scenario(n=3, senders=((0, 9),), seed=1))
    assert transcript.header[1]["type"] == "GROUP"
    transcript.header[1] = dict(transcript.header[1], **{field: value})
    with pytest.raises(MalformedRecord) as exc:
        sim.verify_transcript(transcript)
    assert exc.value.index == 1


def test_truncated_transcript_is_malformed():
    scenario = sim.Scenario(n=3, senders=((0, 9),), seed=1)
    text = sim.run_scenario(scenario).to_text()
    lines = text.splitlines()
    with pytest.raises(MalformedRecord):
        sim.verify_transcript(Transcript.from_text("\n".join(lines[:-1]) + "\n"))
    with pytest.raises(MalformedRecord):
        Transcript.from_text("garbage line\n")


# ---------------------------------------------------------------------------
# strategy detection map


def run(scenario):
    t = sim.run_scenario(scenario)
    assert sim.verify_transcript(t).clean
    return t


def test_honest_scenario_no_verdicts():
    t = run(sim.Scenario(n=5, senders=BASE_SENDERS, seed=9))
    assert verdicts_of(t) == []
    assert summary_of(t)["delivered"] == 5
    assert summary_of(t)["transmitted"] == 5


def test_bad_pad_detected_by_investigation():
    t = run(sim.Scenario(n=5, senders=BASE_SENDERS, adversaries=((3, "bad_pad"),), seed=9))
    assert (3, "aggregate_mismatch") in verdicts_of(t)
    agg = next(r for r in t.records if r["type"] == "AGGREGATE")
    assert agg["valid"] == 0
    # honest senders still delivered after the restart
    assert summary_of(t)["delivered"] >= 4
    assert summary_of(t)["sessions"] == 2


def test_mutate_message_flagged_via_proof():
    t = run(
        sim.Scenario(n=5, senders=BASE_SENDERS, adversaries=((3, "mutate_message"),), seed=9)
    )
    assert verdicts_of(t) == [(3, "invalid_proof")]


def test_double_branch_flagged_via_proof():
    t = run(
        sim.Scenario(
            n=4,
            senders=((0, 10), (1, 20), (2, 30), (3, 5)),
            adversaries=((3, "double_branch"),),
            seed=9,
        )
    )
    assert verdicts_of(t) == [(3, "invalid_proof")]
    # the three honest messages all arrive
    resolved = [r["payload"] for r in t.records if r["type"] == "RESOLVED"]
    assert {10, 20, 30} <= set(resolved)


def test_late_injection_flagged_via_proof():
    t = run(
        sim.Scenario(
            n=5,
            senders=((0, 36), (1, 11), (2, 28), (3, 17)),
            adversaries=((4, "late_injection"),),
            seed=9,
        )
    )
    assert verdicts_of(t) == [(4, "invalid_proof")]
    assert summary_of(t)["delivered"] >= 4


def test_refuse_proof_flagged_as_non_cooperation():
    t = run(
        sim.Scenario(n=5, senders=BASE_SENDERS, adversaries=((2, "refuse_proof"),), seed=9)
    )
    assert verdicts_of(t) == [(2, "non_cooperation")]


class _MalformedProofParticipant(sim.HonestParticipant):
    """Honest, but sends each CIPHER proof in one malformed ``shape``:
    ``short`` drops its last scalar, ``extra`` appends a copy of its
    first (challenge, response) pair, and ``big_challenge`` adds q to its
    first challenge, which still fits the scalar width."""

    shape = "short"

    def prove_round(self, round_id, statement):
        sw = self.params.scalar_bytes
        data = bytes.fromhex(super().prove_round(round_id, statement))
        if self.shape == "short":
            data = data[:-sw]
        elif self.shape == "extra":
            data += data[: 2 * sw]
        else:
            challenge = int.from_bytes(data[:sw], "big") + self.params.q
            data = self.params.scalar_to_bytes(challenge) + data[sw:]
        return data.hex()


def test_malformed_cipher_proof_is_invalid_proof(monkeypatch):
    # a proof one scalar short does not parse; one with an extra pair, or
    # with a challenge >= q, parses but does not verify.  The judge gives
    # each the verdict, and the records, of a proof that fails to verify,
    # for the sender alone
    monkeypatch.setitem(sim._STRATEGY_CLASSES, "refuse_proof", _MalformedProofParticipant)
    scenario = sim.Scenario(
        n=3, senders=((0, 9), (1, 50)), adversaries=((2, "refuse_proof"),), seed=1
    )
    digests = {}
    for shape in ("short", "extra", "big_challenge"):
        monkeypatch.setattr(_MalformedProofParticipant, "shape", shape)
        t = run(scenario)
        assert verdicts_of(t) == [(2, "invalid_proof")], shape
        digests[shape] = hashlib.sha256(t.to_text().encode()).hexdigest()
    assert digests["short"] == (
        "47b991b8b9b2412a20fad69a356827d5f86a6f58cf8a47a2758b4ea4f94fafc5"
    )


# the malformed proofs of one round, each sent by its own participant;
# honest participants sit before, between and after them
MIXED_SHAPES = {
    1: "none", 3: "non_hex", 4: "short", 6: "extra", 7: "big_challenge",
    9: "big_response", 10: "forged",
}
MIXED_HONEST = (0, 2, 5, 8, 11)


class _MixedProofParticipant(sim.HonestParticipant):
    """Honest, but sends every proof of its ``phase`` ("cipher" or
    "demand") in its own malformed shape from MIXED_SHAPES."""

    phase = "cipher"

    def _malformed(self, text, statement):
        shape, q, sw = MIXED_SHAPES[self.pid], self.params.q, self.params.scalar_bytes
        data = bytes.fromhex(text)
        if shape == "none":
            return None
        if shape == "non_hex":
            return "zz" + text[2:]
        if shape == "forged":
            forged = zkp.forge_attempt(self.params, statement, self.rng)
            data = zkp.proof_to_bytes(self.params, forged)
        elif shape == "short":
            data = data[:-sw]
        elif shape == "extra":
            data += data[: 2 * sw]
        else:
            # the first challenge, or the first response, plus q
            at = 0 if shape == "big_challenge" else sw
            scalar = int.from_bytes(data[at : at + sw], "big") + q
            data = data[:at] + self.params.scalar_to_bytes(scalar) + data[at + sw :]
        return data.hex()

    def prove_round(self, round_id, statement):
        text = super().prove_round(round_id, statement)
        if self.phase != "cipher":
            return text
        return self._malformed(text, statement)

    def respond_demand(self, node_id, statement):
        text = super().respond_demand(node_id, statement)
        if self.phase != "demand":
            return text
        return self._malformed(text, statement)


def _mixed_round_scenario(monkeypatch, phase, senders):
    monkeypatch.setitem(sim._STRATEGY_CLASSES, "refuse_proof", _MixedProofParticipant)
    monkeypatch.setattr(_MixedProofParticipant, "phase", phase)
    return sim.Scenario(
        n=12, senders=senders, adversaries=tuple((pid, "refuse_proof") for pid in MIXED_SHAPES),
        seed=3,
    )


def test_mixed_cipher_round_gives_each_participant_its_own_verdict(monkeypatch):
    # a skipped or malformed proof must not shift the checks of the
    # proofs after it: each bad participant gets exactly its verdict and
    # every honest one passes, in the one round where all of them fail
    t = run(_mixed_round_scenario(monkeypatch, "cipher", ((0, 10), (2, 40), (5, 70))))
    first = [r for r in t.records if r["type"] == "VERDICT" and r["session"] == 1]
    expected = [
        (pid, "non_cooperation" if shape == "none" else "invalid_proof", "round:2")
        for pid, shape in MIXED_SHAPES.items()
    ]
    assert [(r["part"], r["reason"], r["where"]) for r in first] == expected
    ciphers = [r for r in t.records if r["type"] == "CIPHER" and r["session"] == 1]
    assert max(r["round"] for r in ciphers) == 2
    assert summary_of(t)["proofs_failed"] == len(MIXED_SHAPES)
    # the honest participants go on alone and deliver every payload
    sessions = [r for r in t.records if r["type"] == "SESSION"]
    assert [r["active"] for r in sessions] == ["0,1,2,3,4,5,6,7,8,9,10,11", "0,2,5,8,11"]
    assert sorted(r["payload"] for r in t.records if r["type"] == "RESOLVED") == [10, 40, 70]


def test_mixed_demand_round_fails_only_the_bad_responders(monkeypatch):
    # two honest copies of 9 make an equal-payload node; in every DEMAND
    # round there, only the malformed claims fail, and the node bisects
    # down to [9, 10), where every failer is blamed
    t = run(_mixed_round_scenario(monkeypatch, "demand", ((0, 9), (8, 9))))
    demands = [r for r in t.records if r["type"] == "DEMAND" and r["session"] == 1]
    assert demands
    for node in {r["node"] for r in demands}:
        responses = [(r["part"], r["ok"]) for r in demands if r["node"] == node]
        assert responses == [(pid, int(pid in MIXED_HONEST)) for pid in range(12)]
    first = [r for r in t.records if r["type"] == "VERDICT" and r["session"] == 1]
    assert [(r["part"], r["reason"]) for r in first] == [
        (pid, "unequal_payload") for pid in MIXED_SHAPES
    ]
    assert [r["payload"] for r in t.records if r["type"] == "RESOLVED"] == [9, 9]


class _OutOfRangeSlotParticipant(sim.BadSlotCountParticipant):
    """Sends the slot (1, 300), outside the range of an 8-bit payload."""

    def __init__(self, *args):
        super().__init__(*args)
        self.slot_value = (1, 300)


def test_lone_out_of_range_slot_is_blamed_wrong_branch(monkeypatch):
    # alone in its session, the slot resolves at the root as payload 300,
    # outside the root's interval [0, 256): the audit demands denials there
    # and blames its sender, and the transcript replays clean
    monkeypatch.setitem(sim._STRATEGY_CLASSES, "bad_slot_count", _OutOfRangeSlotParticipant)
    t = run(sim.Scenario(n=3, senders=((1, 10),), adversaries=((1, "bad_slot_count"),), seed=4))
    assert [(r["node"], r["payload"]) for r in t.records if r["type"] == "RESOLVED"] == [(1, 300)]
    verdicts = [r for r in t.records if r["type"] == "VERDICT"]
    assert [(r["part"], r["reason"], r["where"]) for r in verdicts] == [(1, "wrong_branch", "node:1")]
    demands = [(r["node"], r["part"], r["ok"]) for r in t.records if r["type"] == "DEMAND"]
    assert demands == [(1, 0, 1), (1, 1, 0), (1, 2, 1)]


class _WrappedCountParticipant(sim.BadSlotCountParticipant):
    """Sends the slot (q - 1, 7): a count of -1 mod q."""

    def __init__(self, *args):
        super().__init__(*args)
        self.slot_value = (self.params.q - 1, 7)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a slot counting q - 1 cancels an honest message: beside an honest 10 the root "
    "reads (0, 17), EMPTY, and with an honest 40 too it reads (1, 57), a forged RESOLVED, "
    "with no verdict either way",
)
def test_slot_counting_q_minus_one_is_served_or_blamed(monkeypatch):
    # n = 3, seed 4: participant 1 sends (q - 1, 7) beside an honest 10, then
    # beside an honest 10 and 40; every honest payload must arrive, or 1 be banned
    monkeypatch.setitem(sim._STRATEGY_CLASSES, "bad_slot_count", _WrappedCountParticipant)
    for honest in (((0, 10),), ((0, 10), (2, 40))):
        senders = tuple(sorted(honest + ((1, 7),)))
        t = run(sim.Scenario(n=3, senders=senders, adversaries=((1, "bad_slot_count"),), seed=4))
        delivered = Counter(r["payload"] for r in t.records if r["type"] == "RESOLVED")
        served = all(delivered[payload] > 0 for _, payload in honest)
        assert served or 1 in {part for part, _ in verdicts_of(t)}, (honest, delivered)


def test_refuse_signature_is_not_a_verdict():
    t = run(
        sim.Scenario(n=5, senders=BASE_SENDERS, adversaries=((2, "refuse_signature"),), seed=9)
    )
    assert verdicts_of(t) == []
    assert summary_of(t)["delivered"] == 5
    # the refused edges are public opt-outs
    optouts = [r for r in t.records if r["type"] == "OPTOUT"]
    assert len(optouts) == 4


def test_investigation_of_a_participant_without_edges_replays_clean():
    # alone, or with every edge opted out, a participant publishes the
    # empty set: no PUBLISH record, which replay must not read as a refusal
    for scenario in (
        sim.Scenario(n=1, adversaries=((0, "bad_pad"),)),
        sim.Scenario(n=3, senders=((1, 5),), adversaries=(
            (0, "bad_pad"), (1, "refuse_signature"), (2, "refuse_signature"))),
    ):
        t = run(scenario)
        assert verdicts_of(t) == [(0, "aggregate_mismatch")]


def _resealed_body(transcript, body):
    """The transcript's text with ``body`` in place of its records, each
    session's ``keys`` and the SUMMARY ``bind`` recomputed to match."""
    body = [dict(rec) for rec in body]
    for start in (i for i, rec in enumerate(body) if rec["type"] == "SESSION"):
        keys = []
        for rec in body[start + 1 :]:
            if rec["type"] not in ("PUBKEY", "OPTOUT", "ENDORSE"):
                break
            keys.append(rec)
        body[start]["keys"] = records_digest(keys)
    body[-1]["bind"] = records_digest(body[:-1])
    return Transcript(transcript.header, body).to_text()


def test_optout_records_are_signed():
    # each ENDORSE signs its signer's opted-out peers: dropping the
    # OPTOUT records, or adding one, with every digest recomputed, breaks
    # the first signature that covers a changed peer set
    scenario = sim.Scenario(
        n=5, senders=((0, 5), (1, 9)), adversaries=((2, "refuse_signature"),), seed=9
    )
    transcript = sim.run_scenario(scenario)
    assert sim.verify_transcript(transcript).clean
    body = transcript.records
    optouts = [i for i, rec in enumerate(body) if rec["type"] == "OPTOUT"]
    assert [(body[i]["lo"], body[i]["hi"]) for i in optouts] == [(0, 2), (1, 2), (2, 3), (2, 4)]
    dropped = [rec for i, rec in enumerate(body) if i not in optouts]
    added = body[: optouts[0]] + [{**body[optouts[0]], "lo": 0, "hi": 1}] + body[optouts[0] :]
    for edited in (dropped, added):
        text = _resealed_body(transcript, edited)
        first_endorse = next(i for i, rec in enumerate(edited) if rec["type"] == "ENDORSE")
        assert edited[first_endorse]["part"] == 0
        with pytest.raises(MalformedRecord, match="ENDORSE signature of participant 0") as info:
            sim.verify_transcript(Transcript.from_text(text))
        assert info.value.index == len(transcript.header) + first_endorse


def test_bad_slot_count_blamed_at_an_equal_payload_node():
    # the slot (2, 100) claims two messages; alone at node 3 it splits
    # degenerately, and node 7 holds two copies of 50, which it cannot claim
    t = run(
        sim.Scenario(
            n=3, senders=((0, 10), (1, 100)), adversaries=((1, "bad_slot_count"),), seed=9
        )
    )
    root = next(r for r in t.records if r["type"] == "AGGREGATE")
    assert (root["C_count"], root["C_total"]) == (3, 110)
    node = next(r for r in t.records if r["type"] == "NODE" and r["status"] == "equal")
    assert (node["id"], node["count"], node["total"]) == (7, 2, 100)
    demands = [(r["part"], r["ok"]) for r in t.records if r["type"] == "DEMAND"]
    assert demands == [(0, 1), (1, 0), (2, 1)]
    assert verdicts_of(t) == [(1, "unequal_payload")]
    assert [r["payload"] for r in t.records if r["type"] == "RESOLVED"] == [10]


class _LyingHolder(sim._ForgingAdversary):
    """Honest until asked about its equal-payload node, where it forges
    its claim instead of proving the copy it holds."""

    def respond_demand(self, node_id, statement):
        if self.tree.nodes[node_id].equal_payload is None:
            return super().respond_demand(node_id, statement)
        return self._wire(zkp.forge_attempt(self.params, statement, self.rng))


def test_lying_holder_blamed_at_an_equal_payload_node(monkeypatch):
    monkeypatch.setitem(sim._STRATEGY_CLASSES, "refuse_proof", _LyingHolder)
    t = run(
        sim.Scenario(
            n=4, senders=((0, 9), (1, 9), (2, 9), (3, 40)),
            adversaries=((2, "refuse_proof"),), seed=9,
        )
    )
    # only the liar is blamed, nothing is delivered from its node, and
    # the two honest copies of 9 are delivered once it is banned; 40 was
    # delivered in the first session
    assert verdicts_of(t) == [(2, "unequal_payload")]
    sessions = [r for r in t.records if r["type"] == "SESSION"]
    assert [r["active"] for r in sessions] == ["0,1,2,3", "0,1,3"]
    delivered = Counter(r["payload"] for r in t.records if r["type"] == "RESOLVED")
    assert delivered == Counter({9: 2, 40: 1})
    first = [r for r in t.records if r["type"] == "DEMAND" and r["session"] == 1]
    assert [(r["part"], r["ok"]) for r in first] == [(0, 1), (1, 1), (2, 0), (3, 1)]


def test_wrong_branch_flagged_via_audit():
    t = run(
        sim.Scenario(
            n=2, senders=((0, 10), (1, 40)), adversaries=((1, "wrong_branch"),), seed=9
        )
    )
    assert verdicts_of(t) == [(1, "wrong_branch")]
    assert summary_of(t)["delivered"] == 2


def test_bad_slot_count_flagged_via_bisection():
    t = run(
        sim.Scenario(
            n=3,
            senders=((0, 10), (1, 20), (2, 7)),
            adversaries=((2, "bad_slot_count"),),
            seed=9,
        )
    )
    assert verdicts_of(t) == [(2, "unequal_payload")]
    resolved = [r["payload"] for r in t.records if r["type"] == "RESOLVED"]
    assert {10, 20} <= set(resolved)
    # no node is left undecided: every collision was split or checked
    statuses = {r["status"] for r in t.records if r["type"] == "NODE"}
    assert statuses <= {"empty", "resolved", "collision", "equal"}


def test_every_failer_is_blamed_at_a_node_one_value_wide():
    # two malformed slots (2, 4) beside an honest 4: (5, 12) is no
    # equal-payload node at its average 3, so it is bisected down to
    # [4, 5), where the honest context (1, 4) passes and both fail
    t = run(
        sim.Scenario(
            n=3, senders=((0, 4), (1, 4), (2, 4)),
            adversaries=((0, "bad_slot_count"), (1, "bad_slot_count")), seed=3,
        )
    )
    node = next(r for r in t.records if r["type"] == "NODE" and r["status"] == "equal")
    demands = [(r["node"], r["part"], r["ok"]) for r in t.records if r["type"] == "DEMAND"]
    assert demands == [(node["id"], 0, 0), (node["id"], 1, 0), (node["id"], 2, 1)]
    assert verdicts_of(t) == [(0, "unequal_payload"), (1, "unequal_payload")]
    # the honest 4 is delivered once both are banned
    assert [r["payload"] for r in t.records if r["type"] == "RESOLVED"] == [4]


def test_detection_across_seeds():
    # the mutating adversary holds the smallest payload, so it must
    # retransmit at its first split and the script always fires
    flagged = Counter()
    for seed in range(25):
        for strategy, scenario in {
            "mutate_message": sim.Scenario(
                n=4, senders=((0, 3), (1, 60), (2, 80), (3, 100)),
                adversaries=((0, "mutate_message"),), seed=seed,
            ),
            "refuse_proof": sim.Scenario(
                n=3, senders=((0, 3), (1, 60), (2, 100)),
                adversaries=((2, "refuse_proof"),), seed=seed,
            ),
        }.items():
            t = sim.run_scenario(scenario)
            adversary = scenario.adversaries[0][0]
            parts = [p for p, _ in verdicts_of(t)]
            assert parts and set(parts) == {adversary}, (strategy, seed)
            flagged[strategy] += 1
    assert flagged["mutate_message"] == 25
    assert flagged["refuse_proof"] == 25


# ---------------------------------------------------------------------------
# sender untraceability at desk scale (exhaustive pads)


def test_sender_identity_yields_identical_transcript_multisets():
    """n=3, fixed message, all pad assignments enumerated: the multiset
    of broadcast-value transcripts is the same whichever participant is
    the sender.  Exact equality, no tolerance."""
    q = 53
    message = 29
    multisets = []
    for sender in range(3):
        counter = Counter()
        for k01 in range(q):
            for k02 in range(q):
                for k12 in range(q):
                    o0 = (k01 + k02 + (message if sender == 0 else 0)) % q
                    o1 = (-k01 + k12 + (message if sender == 1 else 0)) % q
                    o2 = (-k02 - k12 + (message if sender == 2 else 0)) % q
                    counter[(o0, o1, o2)] += 1
        multisets.append(counter)
    assert multisets[0] == multisets[1] == multisets[2]


def test_two_party_transcript_multisets_match():
    q = 53
    message = 7
    a = Counter(((k + message) % q, (-k) % q) for k in range(q))
    b = Counter((k % q, (message - k) % q) for k in range(q))
    assert a == b


# ---------------------------------------------------------------------------
# mutation harness: every single-field corruption is detected


def _mutate_field(value: str):
    """Produce a different, same-shape value for one key=value token."""
    if value == "-":
        return "0"
    try:
        return str(int(value) + 1)
    except ValueError:
        pass
    if all(c in "0123456789abcdef" for c in value) and len(value) > 1:
        first = "0" if value[0] != "0" else "1"
        return first + value[1:]
    return value + "x"


def _outcome(text: str) -> str:
    """How verify ends on a transcript: "malformed", "divergent" or "clean"."""
    try:
        report = sim.verify_transcript(Transcript.from_text(text))
    except MalformedRecord:
        return "malformed"
    return "clean" if report.clean else "divergent"


def _detects(text: str) -> bool:
    return _outcome(text) != "clean"


# the only fields whose mutation leaves nothing to check: a format version
# this engine does not replay, a group name or tag that names no built-in
# group (another p, q or generators diverges), a participant count the
# transcript does not hold, a commitment outside the group, and a signed
# root whose signature no longer verifies (the root, the signature, the
# signing key it is checked against, or the domain tag it is bound to)
MALFORMED_FIELDS = {("GROUP", "name"), ("GROUP", "tag")} | {
    ("DCMESH", "version"),
    ("CONFIG", "n"),
    ("CIPHER", "c"),
    ("PUBKEY", "y"),
    ("ENDORSE", "root"),
    ("ENDORSE", "sig_e"),
    ("ENDORSE", "sig_s"),
}


def _path_mutations(path: str):
    """A PUBLISH path one sibling short, one sibling long, one commitment
    short, one commitment long, and with its row of the edge's other
    commitments and its signer-tree siblings swapped."""
    row, siblings = path[:PATH_ROW], path[PATH_ROW:]
    return [
        path[:-64],
        path + siblings[:64],
        row[ELEMENT_HEX:] + siblings,
        row + row[:ELEMENT_HEX] + siblings,
        siblings + row,
    ]


def test_every_field_mutation_detected():
    # an investigation and a re-keyed session, then a session that
    # endorses epochs 1 and 2 mid-tree, whose later ENDORSE records are mutated
    # too, and an equal-payload check that delivers three copies of 9
    scenarios = [
        sim.Scenario(n=3, senders=((0, 9), (2, 100)), adversaries=((1, "bad_pad"),), seed=4),
        EPOCH_CROSSING,
        sim.Scenario(n=4, senders=((0, 9), (1, 9), (3, 9)), seed=4),
    ]
    later_endorse_fields, publish_paths, mutated_fields = set(), 0, set()
    missed, malformed = [], []
    for scenario in scenarios:
        transcript = sim.run_scenario(scenario)
        assert sim.verify_transcript(transcript).clean
        lines = transcript.to_text().splitlines()
        for i, line in enumerate(lines):
            tokens = line.split(" ")
            candidates = []
            for j, token in enumerate(tokens[1:], start=1):
                key, value = token.split("=", 1)
                mutated = tokens[:j] + [f"{key}={_mutate_field(value)}"] + tokens[j + 1 :]
                candidates.append((key, mutated))
                mutated_fields.add((tokens[0], key))
                if line.startswith("ENDORSE ") and " epoch=0 " not in line:
                    later_endorse_fields.add(key)
            if tokens[0] == "PUBLISH":
                # n=3: the edge's seven other commitments, one sibling in the signer's tree
                path = tokens[-1].split("=", 1)[1]
                assert len(path) == PATH_ROW + 64
                publish_paths += 1
                candidates += [("path", tokens[:-1] + [f"path={p}"]) for p in _path_mutations(path)]
            for key, mutated in candidates:
                candidate = lines[:i] + [" ".join(mutated)] + lines[i + 1 :]
                outcome = _outcome("\n".join(candidate) + "\n")
                if outcome == "clean":
                    missed.append((scenario.seed, i, key, line[:60]))
                elif outcome == "malformed" and (tokens[0], key) not in MALFORMED_FIELDS:
                    malformed.append((scenario.seed, i, key, line[:60]))
    assert not missed, missed
    # every other mutation is named as a divergence
    assert not malformed, malformed
    assert later_endorse_fields == {"session", "epoch", "part", "root", "sig_e", "sig_s"}
    assert publish_paths == 6
    # the pair slot's fields, and the equal-payload check's records
    assert {("CIPHER", "O_count"), ("CIPHER", "O_total")} <= mutated_fields
    assert {("AGGREGATE", "C_count"), ("AGGREGATE", "C_total")} <= mutated_fields
    equal = sim.run_scenario(scenarios[-1])
    node = next(r for r in equal.records if r["type"] == "NODE" and r["status"] == "equal")
    checked = [r for r in equal.records if r["type"] in ("DEMAND", "RESOLVED")]
    assert [(r["type"], r.get("ok", 1)) for r in checked] == [("DEMAND", 1)] * 4 + [
        ("RESOLVED", 1)
    ] * 3
    assert {r["node"] for r in checked} == {node["id"]}
    for rtype, fields in (
        ("DEMAND", {"session", "node", "part", "ok", "proof"}),
        ("RESOLVED", {"session", "node", "payload"}),
    ):
        assert {key for (t, key) in mutated_fields if t == rtype} == fields, rtype


def test_oversized_participant_count_is_malformed():
    # nothing may be sized by CONFIG n before it is checked against the body
    text = sim.run_scenario(sim.Scenario(n=3, senders=((0, 9),), seed=1)).to_text()
    huge = text.replace("CONFIG n=3 ", "CONFIG n=1000000000000 ")
    with pytest.raises(MalformedRecord):
        sim.verify_transcript(Transcript.from_text(huge))


@pytest.mark.parametrize(
    "field, value",
    [("payload_bits", -1), ("payload_bits", 0), ("payload_bits", 1 << 40)],
)
def test_config_outside_the_run_rules_is_malformed(field, value):
    # the HEADEREND digest is recomputed, so only the rules that
    # Scenario.validate applies can catch the edit
    transcript = sim.run_scenario(sim.Scenario(n=3, senders=((0, 9),), seed=1))
    header = transcript.header
    index = next(i for i, rec in enumerate(header) if rec["type"] == "CONFIG")
    header[index] = {**header[index], field: value}
    header[-1] = {**header[-1], "digest": records_digest(header[:-1])}
    with pytest.raises(MalformedRecord) as info:
        sim.verify_transcript(Transcript.from_text(transcript.to_text()))
    assert info.value.index == index


@pytest.mark.parametrize(
    "prefix, field, value",
    [("PUBKEY", "y", "-5"), ("PUBKEY", "y", "0"), ("PUBKEY", "y", "p"),
     ("ENDORSE", "root", "zz"), ("ENDORSE", "root", "abc"),
     ("CIPHER session=1 round=1 part=2", "c", "0")],
    # the ids the parameters always had, and a plain one for the CIPHER
    # prefix, whose own spaces and = signs would split a list of test ids
    ids=["PUBKEY-y--5", "PUBKEY-y-0", "PUBKEY-y-p", "ENDORSE-root-zz", "ENDORSE-root-abc",
         "cipher-c-zero"],
)
def test_undecodable_key_record_is_malformed_at_its_index(prefix, field, value, medium):
    # at its own index and naming the field, not as an unreplayable
    # session; the record is the first whose line starts with the prefix
    value = str(medium.p) if value == "p" else value
    text = sim.run_scenario(sim.Scenario(n=3, adversaries=((2, "bad_pad"),), seed=1)).to_text()
    lines = text.splitlines()
    index = next(i for i, ln in enumerate(lines) if ln.startswith(f"{prefix} "))
    lines[index] = " ".join(
        f"{field}={value}" if item.startswith(f"{field}=") else item
        for item in lines[index].split()
    )
    with pytest.raises(MalformedRecord, match=field) as info:
        sim.verify_transcript(Transcript.from_text("\n".join(lines) + "\n"))
    assert info.value.index == index


# n=32 distinct payloads, one per participant: 32 rounds, so four epochs
DISTINCT_32 = tuple((pid, 3 + 7 * pid) for pid in range(32))

# scenario 0 of the bench's wide_honest workload at seed 1: an honest n=32 run
WIDE_HONEST = sim.Scenario(
    n=32,
    senders=((4, 250), (5, 237), (11, 71), (17, 71), (25, 171), (27, 37), (30, 145), (31, 124)),
    seed=10982983926217157380,
)


def _resealed(transcript, index, **fields):
    """The transcript's text with body record ``index`` changed, and its
    session's ``keys`` and the SUMMARY ``bind`` recomputed to match."""
    body = [dict(rec) for rec in transcript.records]
    body[index].update(fields)
    start = max(i for i in range(index + 1) if body[i]["type"] == "SESSION")
    keys = []
    for rec in body[start + 1 :]:
        if rec["type"] not in ("PUBKEY", "OPTOUT", "ENDORSE"):
            break
        keys.append(rec)
    body[start]["keys"] = records_digest(keys)
    body[-1]["bind"] = records_digest(body[:-1])
    return Transcript(transcript.header, body).to_text()


def _not_clean_at(text, index) -> bool:
    """Whether verify diverges, or ends malformed at record ``index``."""
    try:
        report = sim.verify_transcript(Transcript.from_text(text))
    except MalformedRecord as exc:
        return exc.index == index
    return not report.clean


def _first_endorse(transcript, epoch):
    return next(
        i for i, rec in enumerate(transcript.records)
        if rec["type"] == "ENDORSE" and rec["epoch"] == epoch
    )


@pytest.mark.parametrize(
    "fields", [("root",), ("sig_e",), ("sig_s",), ("sig_e", "sig_s")], ids="+".join
)
def test_replaced_endorse_record_is_not_clean(fields):
    # a signed root that no investigation reveals is still checked: taking
    # another participant's root or signature, with keys and bind recomputed,
    # fails in an honest n=32 run's epoch 0 and in a later epoch
    for scenario, epoch in ((WIDE_HONEST, 0), (EPOCH_CROSSING, 1)):
        transcript = sim.run_scenario(scenario)
        assert sim.verify_transcript(transcript).clean
        index = _first_endorse(transcript, epoch)
        other = transcript.records[index + 1]
        assert other["type"] == "ENDORSE"
        if "root" in fields and other["root"] == transcript.records[index]["root"]:
            # n=2: both ends sign their one edge's root alike, so the root
            # comes from the same signer's record of the other epoch
            other = transcript.records[_first_endorse(transcript, 1 - epoch)]
        text = _resealed(transcript, index, **{name: other[name] for name in fields})
        assert text != transcript.to_text()
        assert _not_clean_at(text, len(transcript.header) + index), (scenario.n, fields)


def test_wide_session_signs_once_per_participant_and_epoch(monkeypatch):
    """n=32 honest senders of distinct payloads: the session transmits
    32 rounds and endorses four epochs, each with one ENDORSE record, one
    signature in the run and one check on replay per participant, and
    every check passes."""
    counts = Counter()
    sign, verify_sig = keysetup.sign, keysetup.verify_sig

    def counting_sign(*args):
        counts["sign"] += 1
        return sign(*args)

    def counting_verify_sig(*args):
        ok = verify_sig(*args)
        counts["verify_sig", ok] += 1
        return ok

    monkeypatch.setattr(keysetup, "sign", counting_sign)
    monkeypatch.setattr(keysetup, "verify_sig", counting_verify_sig)
    scenario = sim.Scenario(n=32, senders=DISTINCT_32)
    transcript = sim.run_scenario(scenario)
    assert summary_of(transcript)["sessions"] == 1
    assert summary_of(transcript)["transmitted"] == 32
    assert verdicts_of(transcript) == []
    signed = Counter(r["epoch"] for r in transcript.records if r["type"] == "ENDORSE")
    assert signed == {epoch: 32 for epoch in range(4)}
    assert counts == {"sign": 4 * 32}
    assert sim.verify_transcript(Transcript.from_text(transcript.to_text())).clean
    assert counts == {"sign": 4 * 32, ("verify_sig", True): 4 * 32}


def test_judge_alone_builds_targets_and_statements(monkeypatch):
    """The reference run transmits 5 rounds, 4 of them after the root:
    the judge takes each round's no-message targets once, and builds
    each participant's retransmission statement once per later round;
    the participants build none of their own."""
    counts = Counter()
    targets, statement = zkp.no_message_targets, splitter.retransmission_statement

    def counting_targets(*args):
        counts["no_message_targets"] += 1
        return targets(*args)

    def counting_statement(*args):
        counts["retransmission_statement"] += 1
        return statement(*args)

    monkeypatch.setattr(zkp, "no_message_targets", counting_targets)
    monkeypatch.setattr(splitter, "retransmission_statement", counting_statement)
    transcript = sim.run_scenario(sim.REFERENCE_SCENARIO)
    assert summary_of(transcript)["transmitted"] == len(sim.REFERENCE_TRANSMITTED) == 5
    assert counts == {"no_message_targets": 5, "retransmission_statement": 4 * 5}


def test_session_after_everyone_is_banned_is_not_clean():
    # the run stops after a session that bans everyone, as after one that
    # bans no one; a forged session after it, whose opening records
    # match, must diverge at its SESSION record
    transcript = sim.run_scenario(sim.Scenario(n=1, adversaries=((0, "bad_pad"),)))
    lines = transcript.to_text().split("\n")
    assert lines[-3] == "BAN session=1 part=0"   # the last record before the SUMMARY
    forged = [
        f"SESSION idx=2 active= budget={EPOCH_SLOTS} keys={records_digest([])}",
        "ROUND session=2 id=1 slot=0",
        "AGGREGATE session=2 round=1 C_count=0 C_total=0 valid=1",
    ]
    text = "\n".join(lines[:-2] + forged + lines[-2:])
    report = sim.verify_transcript(Transcript.from_text(text))
    session_index = len(transcript.header) + len(transcript.records) - 1
    assert [index for index, _ in report.divergences] == [session_index]


@pytest.mark.parametrize("scenario, count", [(BAD_PAD_RUN, 21), (sim.REFERENCE_SCENARIO, 49)],
                         ids=["bad_pad", "reference"])
def test_single_session_plays_session_one_of_the_run(scenario, count):
    # one session tag rule: single_session judges session 1 under the tag
    # run_scenario gives it, so its records are the run's session-1 judge
    # records, retransmission proofs included
    body = sim.run_scenario(scenario).records
    start = next(i for i, rec in enumerate(body) if rec["type"] == "ROUND")
    end = next(i for i, rec in enumerate(body[1:], 1) if rec["type"] in ("SESSION", "SUMMARY"))
    out = sim.single_session(scenario.senders, scenario.adversaries, scenario.seed, n=scenario.n)
    assert out.records == body[start:end]
    assert len(out.records) == count
    assert out.tag == sim._session_tag(scenario.digest(), 1)


def test_session_after_a_session_without_a_ban_diverges():
    # the run stops after a session that bans no one; a third session
    # appended after the re-keyed one, played over the survivors for the
    # already delivered 36, with the SUMMARY recomputed, delivers 36 twice
    # and must diverge at its SESSION record
    scenario = sim.Scenario(
        n=4, senders=((0, 36), (1, 11), (2, 28)), adversaries=((3, "bad_pad"),), seed=2
    )
    transcript = sim.run_scenario(scenario)
    body, summary = transcript.records[:-1], dict(transcript.records[-1])
    assert [r["idx"] for r in body if r["type"] == "SESSION"] == [1, 2]
    assert [r["session"] for r in body if r["type"] == "BAN"] == [1]
    params = sim.derive_params(scenario.group, sim.DOMAIN_TAG)
    tag = sim._session_tag(scenario.digest(), 3)
    outcome = sim._play_session(params, scenario, [0, 1, 2], {0: 36}, 3, tag)
    extra = sim._session_head(3, outcome.public) + outcome.records
    assert [payload for _, payload in outcome.resolved] == [36]
    for key, added in (
        ("sessions", 1),
        ("delivered", len(outcome.resolved)),
        ("transmitted", outcome.transmitted),
        ("proofs_checked", outcome.proofs_checked),
        ("proofs_failed", outcome.proofs_failed),
        ("verdicts", len(outcome.verdicts)),
    ):
        summary[key] += added
    summary["bind"] = records_digest(body + extra)
    forged = Transcript(transcript.header, body + extra + [summary])
    report = sim.verify_transcript(Transcript.from_text(forged.to_text()))
    assert [index for index, _ in report.divergences] == [len(transcript.header) + len(body)]


def test_dropped_verdict_detected():
    scenario = sim.Scenario(
        n=5, senders=BASE_SENDERS, adversaries=((3, "mutate_message"),), seed=9
    )
    transcript = sim.run_scenario(scenario)
    lines = transcript.to_text().splitlines()
    without = [ln for ln in lines if not ln.startswith("VERDICT")]
    assert _detects("\n".join(without) + "\n")


def test_dropped_resolved_record_detected():
    transcript = sim.run_scenario(sim.Scenario(n=3, senders=((0, 9), (1, 70)), seed=4))
    lines = transcript.to_text().splitlines()
    index = next(i for i, ln in enumerate(lines) if ln.startswith("RESOLVED"))
    assert _detects("\n".join(lines[:index] + lines[index + 1 :]) + "\n")


def test_non_canonical_integer_detected():
    # every digest is taken over re-serialised records, so another
    # spelling of the same integer must not verify clean
    transcript = sim.run_scenario(sim.Scenario(n=3, senders=((0, 9), (1, 70)), seed=4))
    text = transcript.to_text()
    assert " payload=9\n" in text
    for spelling in ("09", "+9", "0_9"):
        assert _detects(text.replace(" payload=9\n", f" payload={spelling}\n", 1))


@pytest.mark.parametrize(
    "rtype, scenario",
    [("CIPHER", sim.Scenario(n=4, senders=((0, 9), (1, 200), (2, 31)), seed=3)),
     ("DEMAND", sim.Scenario(n=4, senders=((0, 9), (1, 9), (3, 9)), seed=4))],
    ids=["cipher", "demand"],
)
def test_uppercase_proof_is_not_clean(rtype, scenario):
    # a proof is spelt in lowercase hex only: the same bytes in uppercase,
    # with keys and bind recomputed, read as no proof and diverge
    transcript = sim.run_scenario(scenario)
    index = next(
        i for i, rec in enumerate(transcript.records)
        if rec["type"] == rtype and rec["proof"] != "-"
    )
    upper = transcript.records[index]["proof"].upper()
    assert upper != transcript.records[index]["proof"]
    assert _outcome(_resealed(transcript, index, proof=upper)) == "divergent"


def test_each_record_is_serialised_once(monkeypatch):
    # the runner writes each record's line once, for the digests and the
    # text alike; verify writes no recorded record again, and of what it
    # recomputes only the header: each session's key records equal the
    # recorded ones, so its keys digest is over the recorded lines (the
    # run has two sessions)
    from dcmesh import transcript as codec

    written = []
    to_line = codec.record_to_line
    monkeypatch.setattr(codec, "record_to_line", lambda rec: written.append(rec) or to_line(rec))
    scenario = sim.Scenario(n=4, senders=((0, 36), (1, 11), (2, 28)),
                            adversaries=((3, "bad_pad"),), seed=2)
    ran = sim.run_scenario(scenario)
    text = ran.to_text()
    assert sorted(map(id, written)) == sorted(map(id, ran.header + ran.records))

    parsed = Transcript.from_text(text)
    written.clear()
    assert sim.verify_transcript(parsed).clean
    assert [rec["type"] for rec in parsed.records].count("SESSION") == 2
    assert [rec["type"] for rec in written] == ["DCMESH", "GROUP", "CONFIG"]


def test_keys_digest_is_recomputed_when_a_key_record_differs():
    # an OPTOUT of a pair out of order is dropped on verify, so it signs
    # nothing; with keys and bind resealed over it, the recomputed key
    # records differ from the recorded ones, and SESSION keys is checked
    # against their digest, not the recorded lines'
    scenario = sim.Scenario(n=4, senders=((0, 36), (1, 11), (2, 28)), seed=2)
    transcript = sim.run_scenario(scenario)
    body = transcript.records
    keys = body[1:9]
    assert [rec["type"] for rec in keys] == ["PUBKEY"] * 4 + ["ENDORSE"] * 4
    edited = body[:5] + [record("OPTOUT", session=1, lo=3, hi=1)] + body[5:]
    report = sim.verify_transcript(Transcript.from_text(_resealed_body(transcript, edited)))
    base = len(transcript.header)
    assert [index for index, _ in report.divergences][:2] == [base, base + 5]
    assert report.divergences[0][1].endswith(f"keys={records_digest(keys)}")


def test_flipped_validity_bit_detected():
    transcript = sim.run_scenario(sim.Scenario(n=3, senders=((0, 9), (1, 70)), seed=4))
    text = transcript.to_text()
    assert "valid=1" in text
    assert _detects(text.replace("valid=1", "valid=0", 1))


def test_randomized_soak_mixed_scenarios():
    """Random honest/duplicate/adversarial mixes: transcripts always
    replay clean and no honest participant is ever flagged (a scripted
    deviation may stay dormant when its trigger never occurs, e.g. a
    lone sender never retransmits)."""
    import random as stdrandom

    rng = stdrandom.Random(404)
    strategies = [
        None, None, "bad_pad", "mutate_message", "late_injection", "refuse_proof",
        "refuse_signature", "wrong_branch",
    ]
    for trial in range(60):
        n = rng.randrange(2, 7)
        cap = 256 // max(1, n)
        payload_pool = rng.sample(range(cap), n)
        sender_ids = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        allow_dupe = rng.random() < 0.3
        senders = []
        for idx, pid in enumerate(sender_ids):
            payload = payload_pool[0] if allow_dupe and idx < 2 else payload_pool[idx]
            senders.append((pid, payload))
        strategy = strategies[rng.randrange(len(strategies))]
        adversaries = ()
        if strategy is not None:
            if strategy in ("bad_pad", "refuse_proof", "refuse_signature", "late_injection"):
                adv = rng.randrange(n)
            else:
                adv = senders[rng.randrange(len(senders))][0]
            adversaries = ((adv, strategy),)
        scenario = sim.Scenario(
            n=n, senders=tuple(senders), adversaries=adversaries,
            seed=trial,
        )
        transcript = sim.run_scenario(scenario)
        assert sim.verify_transcript(transcript).clean, (trial, scenario)
        flagged = {p for p, _ in verdicts_of(transcript)}
        adversary_ids = {pid for pid, _ in adversaries}
        assert flagged <= adversary_ids, (trial, scenario, flagged)


def test_malformed_slot_session_endorses_epochs_on_demand():
    """The n=32 senders of distinct payloads with participant 10 sending
    the malformed slot (2, 73): its bisection takes the session to 38
    rounds, and epochs are endorsed as the tree reaches them."""
    scenario = sim.Scenario(
        n=32, senders=DISTINCT_32, adversaries=((10, "bad_slot_count"),)
    )
    t = run(scenario)
    assert summary_of(t)["sessions"] == 1
    assert summary_of(t)["transmitted"] == 38
    session = next(r for r in t.records if r["type"] == "SESSION")
    assert session["budget"] == 5 * EPOCH_SLOTS
    assert verdicts_of(t) == [(10, "unequal_payload")]
    resolved = Counter(r["payload"] for r in t.records if r["type"] == "RESOLVED")
    assert Counter(p for pid, p in scenario.senders if pid != 10) == resolved
    # each later epoch's ENDORSE records (one per participant) sit just
    # before the round that spends the epoch's first slot
    signed = Counter(r["epoch"] for r in t.records if r["type"] == "ENDORSE")
    assert signed == {epoch: 32 for epoch in range(5)}
    for epoch in range(1, 5):
        last = max(
            i for i, r in enumerate(t.records) if r["type"] == "ENDORSE" and r["epoch"] == epoch
        )
        assert t.records[last + 1]["type"] == "ROUND"
        assert t.records[last + 1]["slot"] == epoch * EPOCH_SLOTS


@pytest.mark.parametrize(
    "rounds, epochs", [(EPOCH_SLOTS, 1), (EPOCH_SLOTS + 1, 2)], ids=["full_epoch", "one_past"]
)
def test_honest_session_endorses_a_later_epoch_only_past_the_boundary(rounds, epochs):
    """Honest senders of distinct payloads transmit one round each: a
    session of ``EPOCH_SLOTS`` rounds fits epoch 0, and one more round
    makes it endorse epoch 1, whose ENDORSE records (one per participant,
    in order) sit just before the round that spends slot ``EPOCH_SLOTS``."""
    n = EPOCH_SLOTS + 1
    scenario = sim.Scenario(n=n, senders=tuple((pid, 3 + 7 * pid) for pid in range(rounds)))
    t = run(scenario)
    assert verdicts_of(t) == []
    assert summary_of(t)["transmitted"] == summary_of(t)["delivered"] == rounds
    session = next(r for r in t.records if r["type"] == "SESSION")
    assert session["budget"] == epochs * EPOCH_SLOTS
    signed = Counter(r["epoch"] for r in t.records if r["type"] == "ENDORSE")
    assert signed == {epoch: n for epoch in range(epochs)}
    for epoch in range(1, epochs):
        at = next(
            i for i, r in enumerate(t.records)
            if r["type"] == "ROUND" and r["slot"] == epoch * EPOCH_SLOTS
        )
        before = t.records[at - n : at]
        assert [(r["type"], r["epoch"], r["part"]) for r in before] == [
            ("ENDORSE", epoch, pid) for pid in range(n)
        ]
    assert sim.verify_transcript(Transcript.from_text(t.to_text())).clean


def test_production_group_end_to_end():
    """One small run in the 2048-bit group: same protocol, real sizes."""
    scenario = sim.Scenario(
        n=2, senders=((0, 5), (1, 200)), seed=11, group="production"
    )
    transcript = sim.run_scenario(scenario)
    assert verdicts_of(transcript) == []
    assert summary_of(transcript)["delivered"] == 2
    assert summary_of(transcript)["transmitted"] == 2
    assert sim.verify_transcript(transcript).clean
