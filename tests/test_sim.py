"""Scenario execution, strategy detection, transcript closure."""

import gc
import hashlib
import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmesh import keysetup, merkle, sim, splitter, zkp
from dcmesh.errors import ConfigInvalid, MalformedRecord
from dcmesh.keysetup import EPOCH_SLOTS
from dcmesh.transcript import (
    _SCHEMA,
    FORMAT_VERSION,
    Transcript,
    record,
    record_to_line,
)
from conftest import OutsideGroupParticipant, session_records
from test_edited_transcripts import on_records, resealed, sign_under_negated_key, swap_ciphers

# hex digits of one commitment, and of the edge's other commitments that
# open a PUBLISH path
_MEDIUM = sim.derive_params("test_medium", sim.DOMAIN_TAG)
ELEMENT_HEX = 2 * _MEDIUM.element_bytes
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
# (pinned at format v14).  Test ids are the list positions, so a re-pin
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
     "189f4066de197ca3aca217744ce28082b8607a3789c712927c67b749b0e2a82a"),
    (sim.Scenario(n=2, seed=1),
     "faeca41be5eefe25ea2faa566e926502b0f6857f299843fa193adbace683b1e8"),
    (sim.Scenario(n=3, senders=((1, 99),), seed=1),
     "81300f302e3bf0cd338f2069b5fd41aed8cd541fd94567ea5e01efbf58f66c94"),
    (sim.Scenario(n=2, senders=((0, 7), (1, 7)), seed=5),
     "4c87f8124a1d4fcaaffbd16cfcba5265b35e69abbf0a575f6cd5a29629f71451"),
    (sim.Scenario(n=4, senders=((0, 3), (1, 60), (2, 80), (3, 100)),
                  adversaries=((0, "mutate_message"),), seed=2),
     "374d1ecf0358bac10c747d5f6f42f109c54c0dbf760fa5574d0a7ba232c9ea78"),
    (sim.Scenario(n=4, senders=((0, 36), (1, 11), (2, 28), (3, 17)),
                  adversaries=((3, "bad_pad"),), seed=2),
     "33c8bbdbd6b83db8133eb2d9294db06e7a2b943179fc96a318993e21bedec042"),
    (sim.Scenario(n=2, senders=((0, 10), (1, 40)),
                  adversaries=((1, "wrong_branch"),), seed=2),
     "d56cccc7a394c15f946295329bde6a6250c574b5202dea6052d5bd9a17f30f3a"),
    (sim.Scenario(n=3, senders=((0, 10), (1, 20), (2, 7)),
                  adversaries=((2, "bad_slot_count"),), seed=2),
     "b1474f63b771cc6a3dbb7f12c3fedc535f09d6d0a4526c43a5419f58b081d8fd"),
    (sim.Scenario(n=4, senders=((0, 36), (1, 11), (2, 28)),
                  adversaries=((3, "refuse_signature"),), seed=2),
     "ddc5c278b49b3ee405cf93a3953fa12c81790f5f947e227b0fc0fc4961c2187e"),
    # honest, n=16: 120 edges endorsed per epoch
    (sim.Scenario(n=16, senders=((0, 3), (2, 14), (5, 15), (7, 92), (9, 65), (11, 35),
                                 (13, 8), (15, 9)), seed=11),
     "677fad532d127595c7ea51ab4ce06ee0d43ffe8266a9185b0d92f30dcec9c123"),
    # an investigation: 132 PUBLISH records with their paths, then a re-keyed session
    (sim.Scenario(n=12, senders=((0, 36), (1, 11), (3, 28), (5, 17), (8, 38), (10, 4)),
                  adversaries=((6, "bad_pad"),), seed=3),
     "82cd92886cf5c0bcc1bf15bddb33fd7f020310f8ab4f15c9bd258d02eb84cf89"),
    # a malformed slot bisected over 11 slots: epoch 1 is endorsed mid-session
    (EPOCH_CROSSING,
     "e561471e684bcf89cce9e479f3077f06021fa44f257b691dd599670d55696b75"),
    # a refuser in mid-row, whose edges draw nothing, and a malformed slot
    # blamed after six rounds
    (sim.Scenario(n=6, senders=((0, 9), (3, 40), (4, 100), (5, 200)),
                  adversaries=((1, "refuse_signature"), (4, "bad_slot_count")),
                  seed=0, max_retries=14),
     "2cf2dcaed09ea67cee2ad72859df0b9bad022588eb97f7b84be0291d5cacad62"),
    # the three forged or withheld proofs the strategies above leave out:
    # an injected copy caught at round 6, a fresh message caught at
    # round 2, and a withheld proof at round 2
    (sim.Scenario(n=4, senders=((0, 10), (1, 20), (2, 30), (3, 5)),
                  adversaries=((3, "double_branch"),), seed=9),
     "ce1ec1e1448209526b93697b95d70f6e12466ff4626bf142876ddd768a56f312"),
    (sim.Scenario(n=5, senders=((0, 36), (1, 11), (2, 28), (3, 17)),
                  adversaries=((4, "late_injection"),), seed=9),
     "ee970a336b120d971212cb328e158c353222117ff22860f373f40e5cdd6f735f"),
    (sim.Scenario(n=5, senders=BASE_SENDERS, adversaries=((2, "refuse_proof"),), seed=9),
     "c5d6f36210b547439c9945c98976932cb8ae7f1df1e0e36a45536237ac7db5a7"),
]


@pytest.mark.parametrize(
    "scenario, digest", PINNED_TRANSCRIPTS,
    ids=[f"scenario{i}" for i in range(len(PINNED_TRANSCRIPTS))],
)
def test_transcripts_are_byte_identical_to_pinned(scenario, digest):
    text = sim.run_scenario(scenario).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("strategy", sim.STRATEGIES)
def test_no_proof_pair_repeats_across_sessions(strategy):
    # each session forks its participants' randomness apart: a (challenge,
    # response) pair drawn again is a simulated branch seen twice, which
    # names the real branch of both proofs; session 2 once drew session
    # 1's nonces and simulated pairs again, 8 repeats under double_branch
    # and 4 each under mutate_message, late_injection and refuse_proof
    scenario = sim.Scenario(
        n=5, senders=((0, 36), (1, 11), (2, 28), (3, 50)), adversaries=((3, strategy),), seed=2
    )
    pairs = Counter(
        pair
        for rec in sim.run_scenario(scenario).records if rec["type"] in ("CIPHER", "DEMAND")
        for pair in zkp.proof_from_text(_MEDIUM, rec["proof"]) or ()
    )
    assert [pair for pair, count in pairs.items() if count > 1] == []


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
    "wide_honest": "ed501159a0dde52bc5111fad2a795baaa2710360100420afba8f6267acba50f8",
    "narrow_poll": "e8d7121101fc2c1a1f0a0c654405fa357ea75a4ea1036e3a6502cfcca84d4ad1",
    "disrupted": "a3acae795cb6f6f9fca9a93130de8bf9cec13a2143952c3acae35afcd7a960d1",
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

    assert line_to_record("BAN part=2", 0) == {"type": "BAN", "part": 2}
    with pytest.raises(MalformedRecord):
        line_to_record("NOPE a=1", 0)  # unknown type
    with pytest.raises(MalformedRecord):
        line_to_record("BAN", 0)  # missing field
    with pytest.raises(MalformedRecord):
        line_to_record("BAN peer=2", 0)  # wrong field name
    with pytest.raises(MalformedRecord):
        line_to_record("BAN part=x", 0)  # non-integer
    with pytest.raises(MalformedRecord):
        line_to_record("BAN part", 0)  # not key=value
    for spelling in ("09", "+9", "0_9", "-0", "\u0661\u0662"):  # int() accepts these
        with pytest.raises(MalformedRecord):
            line_to_record(f"BAN part={spelling}", 0)
    for line in ("BAN part=2 ", "BAN  part=2"):  # a trailing or doubled space
        with pytest.raises(MalformedRecord):
            line_to_record(line, 0)
    # canonical, but past the digits int() converts (4,300 by default)
    with pytest.raises(MalformedRecord):
        line_to_record(f"BAN part={'9' * 5000}", 0)


def test_transcript_of_another_format_version_is_malformed():
    # an older transcript's lines, signatures, PUBLISH paths and SESSION
    # budgets follow other rules; it ends malformed at its DCMESH line,
    # before any line its format spells otherwise is read, instead of
    # replaying into verdicts that were never issued
    text = sim.run_scenario(sim.Scenario(n=3, senders=((0, 9),), seed=1)).to_text()
    assert text.startswith(f"DCMESH version={FORMAT_VERSION} hash=sha256\n")
    number = int(FORMAT_VERSION[1:])
    message = f"record 0: not a format {FORMAT_VERSION} transcript"
    for version in (f"v{number - 1}", f"v{number + 1}"):
        relabelled = text.replace(FORMAT_VERSION, version, 1)
        with pytest.raises(MalformedRecord) as exc:
            sim.verify_transcript(Transcript.from_text(relabelled))
        assert (exc.value.index, str(exc.value)) == (0, message), version
    # shaped as v11 wrote it: relabelled, and each SESSION line with its
    # keys= digest back, which this format's SESSION schema does not hold
    lines = text.replace(FORMAT_VERSION, "v11", 1).split("\n")
    sessions = [i for i, line in enumerate(lines) if line.startswith("SESSION ")]
    assert sessions[0] == 4
    for i in sessions:
        lines[i] += " keys=" + hashlib.sha256(lines[i].encode()).hexdigest()
    with pytest.raises(MalformedRecord) as exc:
        Transcript.from_text("\n".join(lines))
    assert (exc.value.index, str(exc.value)) == (0, message)


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


def _malformed_proof(params, proof, shape):
    """``proof`` in one malformed shape: ``short`` drops its last
    (challenge, response) pair, ``extra`` appends a copy of its first,
    and ``big_challenge`` or ``big_response`` adds q to its first
    challenge or response, which still fits the scalar width."""
    (e, z), *rest = proof
    return {
        "short": proof[:-1],
        "extra": proof + proof[:1],
        "big_challenge": ((e + params.q, z), *rest),
        "big_response": ((e, z + params.q), *rest),
    }[shape]


class _MalformedProofParticipant(sim.HonestParticipant):
    """Honest, but answers each CIPHER proof in one malformed ``shape``
    of ``_malformed_proof``: short, extra or big_challenge."""

    shape = "short"

    def prove_round(self, round_id, statement):
        proof = super().prove_round(round_id, statement)
        return _malformed_proof(self.params, proof, self.shape)


def test_malformed_cipher_proof_is_invalid_proof(monkeypatch):
    # a proof a pair short or with an extra pair has another branch
    # count than its statement, and one with a challenge >= q fails its
    # range check: the judge records each as it spells it and gives it
    # the verdict of a proof that fails to verify, for the sender alone
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
        "cfc073dcec6b32ee3f6f779c0b876ca2838bca9d8b47bc1253650276fd75978e"
    )


class _UnspellableProofParticipant(sim.HonestParticipant):
    """Honest, but answers each proof in one ``shape`` that has no
    spelling: a negative scalar, its first pair as (e - 1, z + 2^(8 *
    scalar_bytes)), whose response would spill into its challenge's
    digits and spell the honest (e, z), or the empty proof."""

    shape = "negative"

    def _proof(self, statement, candidates):
        (e, z), *rest = super()._proof(statement, candidates)
        return {
            "negative": ((e, -1 - z), *rest),
            "spilled": ((e - 1, z + (1 << 8 * self.params.scalar_bytes)), *rest),
            "empty": (),
        }[self.shape]


@pytest.mark.parametrize("shape", ["negative", "spilled", "empty"])
def test_an_unspellable_proof_is_withheld(monkeypatch, shape):
    # proof_to_text spells each such proof "-", as it does None: the
    # judge records a withheld proof, its check fails, 3 is banned for
    # non_cooperation at round 2, and the others' three payloads arrive
    monkeypatch.setitem(sim._STRATEGY_CLASSES, "refuse_proof", _UnspellableProofParticipant)
    monkeypatch.setattr(_UnspellableProofParticipant, "shape", shape)
    t = run(sim.Scenario(
        n=4, senders=BAD_PAD_RUN.senders, adversaries=((3, "refuse_proof"),), seed=2
    ))
    verdicts = [(r["part"], r["reason"], r["where"]) for r in t.records if r["type"] == "VERDICT"]
    assert verdicts == [(3, "non_cooperation", "round:2")]
    assert summary_of(t)["delivered"] == 3


class _AnyProofParticipant(sim.HonestParticipant):
    """Answers ``answer``, one drawn value, to every proof it is asked for."""

    answer = None

    def _proof(self, statement, candidates):
        return self.answer


class _AnyPathView(keysetup.KeyView):
    """A view that reveals every commitment with its path cut to ``keep``
    bytes, then ``extra`` appended, and all of it zeroed where
    ``zeroed``: one drawn ``edit``."""

    def __init__(self, view, edit):
        super().__init__(view.graph, view.pid)
        self.edit = edit

    def published_pairs(self, slot):
        keep, extra, zeroed = self.edit
        pairs = super().published_pairs(slot)
        for peer, revealed in pairs.items():
            path = revealed.path[:keep] + extra
            pairs[peer] = revealed._replace(path=bytes(len(path)) if zeroed else path)
        return pairs


class _AnyPathParticipant(sim.BadPadParticipant):
    """A bad pad in round 1, so that it reveals, with every path edited
    by ``answer``, one drawn edit of an _AnyPathView."""

    answer = (0, b"", False)

    def __init__(self, params, view, *args):
        super().__init__(params, _AnyPathView(view, self.answer), *args)


class _AnySignedRoot(sim._Participants):
    """The live source, but participant 3's signed root of every epoch is
    ``answer``, one drawn (root, proof) pair."""

    answer = (b"", None)

    def epoch(self, k):
        signed = list(super().epoch(k))
        if 3 in self.graph.participants:
            signed[self.graph.participants.index(3)] = keysetup.SignedRoot(*self.answer)
        return signed


_SCALAR_WIDTH = 1 << 8 * _MEDIUM.scalar_bytes
# a scalar below q, or anywhere from minus the scalar width to twice it
_ANY_SCALAR = st.integers(0, _MEDIUM.q - 1) | st.integers(-_SCALAR_WIDTH, 2 * _SCALAR_WIDTH)
# None, or a proof of any branch count, the empty one included
_ANY_PROOF = st.none() | st.lists(st.tuples(_ANY_SCALAR, _ANY_SCALAR), max_size=3).map(tuple)
# a path cut anywhere, up to its whole length at n = 4 (the edge's seven
# other commitments, two siblings), then extended, and maybe zeroed
_ANY_PATH_EDIT = st.tuples(
    st.integers(0, PATH_ROW // 2 + 2 * 32), st.binary(max_size=40), st.booleans()
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.tuples(st.just(_AnyProofParticipant), _ANY_PROOF),
    st.tuples(st.just(_AnyPathParticipant), _ANY_PATH_EDIT),
    st.tuples(st.just(_AnySignedRoot), st.tuples(st.binary(max_size=40), _ANY_PROOF)),
))
def test_any_proof_or_path_value_is_judged_alike_in_the_run_and_on_verify(drawn):
    # BAD_PAD_RUN's senders, with participant 3 answering one drawn
    # value: a proof to every proof it is asked for, or, after a bad pad,
    # a path with every commitment it reveals, or any root bytes and any
    # proof as its signed root.  The judge spells what it records, so
    # whatever the value, the run raises nothing, blames no honest
    # participant, and its own transcript verifies clean
    participant, answer = drawn
    with pytest.MonkeyPatch.context() as patch:
        if participant is _AnySignedRoot:
            patch.setattr(sim, "_Participants", participant)
        else:
            patch.setitem(sim._STRATEGY_CLASSES, "refuse_proof", participant)
        patch.setattr(participant, "answer", answer)
        t = sim.run_scenario(sim.Scenario(
            n=4, senders=BAD_PAD_RUN.senders, adversaries=((3, "refuse_proof"),), seed=2
        ))
    assert {part for part, _ in verdicts_of(t)} <= {3}
    assert sim.verify_transcript(t).clean


# a text that is not the judge's spelling of what the replay reads from it
RESPELLINGS = {
    "upper": str.upper,
    "non_hex": lambda text: "zz" + text[2:],
    "empty": lambda text: "",
    "odd": lambda text: text[:-1],
    "dash": lambda text: "-",
    "tab": lambda text: text[:2] + "\t" + text[2:],
}
EQUAL_RUN = sim.Scenario(n=4, senders=((0, 9), (1, 9), (3, 9)), seed=4)


@pytest.mark.parametrize("rtype, field, scenario, spelling", [
    (rtype, field, scenario, spelling)
    for rtype, field, scenario, spellings in (
        ("CIPHER", "proof", BAD_PAD_RUN, ("upper", "non_hex", "empty", "odd")),
        ("DEMAND", "proof", EQUAL_RUN, ("upper", "non_hex", "empty", "odd")),
        # "" is the judge's own spelling of an empty path, a value that
        # fails its endorsement, and "-" reads as it does
        ("PUBLISH", "path", BAD_PAD_RUN, ("upper", "non_hex", "dash", "odd")),
        # bytes.fromhex skips whitespace, so a tab reads as the recorded value
        ("CIPHER", "proof", BAD_PAD_RUN, ("tab",)),
        ("DEMAND", "proof", EQUAL_RUN, ("tab",)),
        ("PUBLISH", "path", BAD_PAD_RUN, ("tab",)),
        # an ENDORSE signature is read as every proof is, and its root as every path
        ("ENDORSE", "proof", BAD_PAD_RUN, ("upper", "non_hex", "odd", "tab")),
        ("ENDORSE", "root", BAD_PAD_RUN, ("upper", "non_hex", "odd")),
    )
    for spelling in spellings
])
def test_a_respelled_text_diverges_at_its_own_record(rtype, field, scenario, spelling):
    # the first CIPHER proof that is not "-", the first DEMAND proof, the
    # first PUBLISH path, or the first ENDORSE proof or root, respelled
    # and bind resealed: the replay reads a proof or bytes from the text,
    # none or the same, and the judge spells that as it records it, so
    # verify diverges first at that record, before any verdict the value
    # leads to; none is malformed
    t = sim.run_scenario(scenario)
    body = t.records
    i = next(
        i for i, r in enumerate(body) if r["type"] == rtype and r[field] != zkp.NO_PROOF
    )
    respelled = RESPELLINGS[spelling](body[i][field])
    assert respelled != body[i][field]
    body[i] = dict(body[i], **{field: respelled})
    report = sim.verify_transcript(Transcript.from_text(resealed(t.header, body, "bind")))
    index, message = report.divergences[0]
    assert index == len(t.header) + i
    assert message.startswith(f"recorded {rtype} ")


# the malformed proofs of one round, each sent by its own participant;
# honest participants sit before, between and after them
MIXED_SHAPES = {
    1: "none", 4: "short", 6: "extra", 7: "big_challenge", 9: "big_response", 10: "forged",
}
MIXED_HONEST = (0, 2, 3, 5, 8, 11)


class _MixedProofParticipant(sim.HonestParticipant):
    """Honest, but answers every proof of its ``phase`` ("cipher" or
    "demand") in its own malformed shape from MIXED_SHAPES: none, a
    forged proof, or a shape of ``_malformed_proof``."""

    phase = "cipher"

    def _malformed(self, proof, statement):
        shape = MIXED_SHAPES[self.pid]
        if shape == "none":
            return None
        if shape == "forged":
            return zkp.forge_attempt(self.params, statement, self.rng)
        return _malformed_proof(self.params, proof, shape)

    def prove_round(self, round_id, statement):
        proof = super().prove_round(round_id, statement)
        if self.phase != "cipher":
            return proof
        return self._malformed(proof, statement)

    def respond_demand(self, node_id, statement):
        proof = super().respond_demand(node_id, statement)
        if self.phase != "demand":
            return proof
        return self._malformed(proof, statement)


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
    first = [r for r in session_records(t, 1) if r["type"] == "VERDICT"]
    expected = [
        (pid, "non_cooperation" if shape == "none" else "invalid_proof", "round:2")
        for pid, shape in MIXED_SHAPES.items()
    ]
    assert [(r["part"], r["reason"], r["where"]) for r in first] == expected
    ciphers = [r for r in session_records(t, 1) if r["type"] == "CIPHER"]
    assert max(r["round"] for r in ciphers) == 2
    assert summary_of(t)["proofs_failed"] == len(MIXED_SHAPES)
    # the honest participants go on alone and deliver every payload
    sessions = [r for r in t.records if r["type"] == "SESSION"]
    assert [r["active"] for r in sessions] == [
        "0,1,2,3,4,5,6,7,8,9,10,11", ",".join(map(str, MIXED_HONEST))
    ]
    assert sorted(r["payload"] for r in t.records if r["type"] == "RESOLVED") == [10, 40, 70]


def test_mixed_demand_round_fails_only_the_bad_responders(monkeypatch):
    # two honest copies of 9 make an equal-payload node; in every DEMAND
    # round there, only the malformed claims fail, and the node bisects
    # down to [9, 10), where every failer is blamed
    t = run(_mixed_round_scenario(monkeypatch, "demand", ((0, 9), (8, 9))))
    demands = [r for r in session_records(t, 1) if r["type"] == "DEMAND"]
    assert demands
    for node in {r["node"] for r in demands}:
        responses = [(r["part"], r["ok"]) for r in demands if r["node"] == node]
        assert responses == [(pid, int(pid in MIXED_HONEST)) for pid in range(12)]
    first = [r for r in session_records(t, 1) if r["type"] == "VERDICT"]
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


class _ZeroCountParticipant(sim.BadSlotCountParticipant):
    """Sends the slot (0, 250): a total that no message counts."""

    def __init__(self, *args):
        super().__init__(*args)
        self.slot_value = (0, 250)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a slot counting 0 frames its fellow sender: beside an honest 10 the root reads "
    "(1, 260) and resolves as 260, the wrong-branch audit demands at node 1, and both 0 "
    "and 1 get wrong_branch (ROADMAP item 2)",
)
def test_slot_counting_zero_does_not_frame_its_fellow_sender(monkeypatch):
    # n = 3, seed 4: participant 1 sends (0, 250) beside an honest 10; the
    # honest sender must get no verdict, and its 10 must arrive
    monkeypatch.setitem(sim._STRATEGY_CLASSES, "bad_slot_count", _ZeroCountParticipant)
    scenario = sim.Scenario(
        n=3, senders=((0, 10), (1, 250)), adversaries=((1, "bad_slot_count"),), seed=4
    )
    _assert_honest_unharmed(scenario, adversary=1)


def _assert_honest_unharmed(scenario, adversary):
    """What one adversary must not break: no other participant gets a
    VERDICT, every other sender's payload is delivered, and the replay is
    clean."""
    t = sim.run_scenario(scenario)
    assert [(part, reason) for part, reason in verdicts_of(t) if part != adversary] == []
    delivered = Counter(r["payload"] for r in t.records if r["type"] == "RESOLVED")
    honest = Counter(payload for pid, payload in scenario.senders if pid != adversary)
    assert not honest - delivered, delivered
    assert sim.verify_transcript(t).clean


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


def test_optout_records_are_signed():
    # each ENDORSE signs its signer's opted-out peers: dropping the
    # OPTOUT records, or adding one, with every digest recomputed, breaks
    # the first signature that covers a changed peer set, and the judge
    # gives its signer a bad_signature verdict right after the epoch-0
    # ENDORSE records, where the run recorded its first ROUND
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
        text = resealed(transcript.header, edited, "bind")
        first_endorse = next(i for i, rec in enumerate(edited) if rec["type"] == "ENDORSE")
        assert edited[first_endorse]["part"] == 0
        after = first_endorse + scenario.n
        assert edited[after - 1]["type"] == "ENDORSE" and edited[after]["type"] == "ROUND"
        report = sim.verify_transcript(Transcript.from_text(text))
        index, message = report.divergences[0]
        assert index == len(transcript.header) + after
        assert message.endswith(
            "recomputed VERDICT part=0 reason=bad_signature where=epoch:0"
        )


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
        return zkp.forge_attempt(self.params, statement, self.rng)


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
    first = [r for r in session_records(t, 1) if r["type"] == "DEMAND"]
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
# sender untraceability at desk scale (exhaustive pads; the n=3
# enumeration is the acceptance suite's C09)


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
# this engine does not replay, a group name that names no built-in group
# (another p, q or generators diverges), and a participant count the
# transcript does not hold; a signed root whose signature no longer
# verifies (the root, the signature, the signing key it is checked
# against, or the domain tag it is bound to) is a bad_signature verdict,
# and a commitment outside the group a non_cooperation verdict, so each
# is a divergence
MALFORMED_FIELDS = {
    ("GROUP", "name"),
    ("DCMESH", "version"),
    ("CONFIG", "n"),
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
    assert later_endorse_fields == {"epoch", "part", "root", "proof"}
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
        ("DEMAND", {"node", "part", "ok", "proof"}),
        ("RESOLVED", {"node", "payload"}),
    ):
        assert {key for (t, key) in mutated_fields if t == rtype} == fields, rtype


# the fields a reseal recomputes, so a mutation of one leaves nothing changed
DIGEST_FIELDS = {("HEADEREND", "digest"), ("SUMMARY", "bind")}


def _failed_proof(transcript, rec) -> bool:
    """Whether ``rec`` carries a proof that had already failed in its run:
    a DEMAND with ok=0, or a CIPHER whose participant got invalid_proof
    at its round, in its session."""
    if rec["type"] == "DEMAND":
        return rec["ok"] == 0
    count = summary_of(transcript)["sessions"]
    sessions = (session_records(transcript, k) for k in range(1, count + 1))
    return rec["type"] == "CIPHER" and any(
        v["type"] == "VERDICT" and v["part"] == rec["part"]
        and (v["reason"], v["where"]) == ("invalid_proof", f"round:{rec['round']}")
        for session in sessions if any(r is rec for r in session)
        for v in session
    )


def test_every_resealed_field_mutation_detected():
    # the three scenarios of test_every_field_mutation_detected, each field
    # mutated, and each PUBLISH path mutated as there, and the digests
    # resealed: only a mutated digest field, which the reseal overwrites,
    # or a proof replaced that had already failed, which another run's
    # adversary could have sent, may verify clean
    scenarios = [
        sim.Scenario(n=3, senders=((0, 9), (2, 100)), adversaries=((1, "bad_pad"),), seed=4),
        EPOCH_CROSSING,
        sim.Scenario(n=4, senders=((0, 9), (1, 9), (3, 9)), seed=4),
    ]
    outcomes, paths, missed, malformed, excused = Counter(), Counter(), [], [], []
    for scenario in scenarios:
        transcript = sim.run_scenario(scenario)
        records = transcript.header + transcript.records
        lines = transcript.to_text().splitlines()
        for i, line in enumerate(lines):
            tokens = line.split(" ")
            candidates = []
            for j, token in enumerate(tokens[1:], start=1):
                key, value = token.split("=", 1)
                mutated = tokens[:j] + [f"{key}={_mutate_field(value)}"] + tokens[j + 1 :]
                candidates.append((outcomes, key, mutated))
            if tokens[0] == "PUBLISH":   # each path mutation of the unresealed test too
                path = tokens[-1].split("=", 1)[1]
                candidates += [
                    (paths, "path", tokens[:-1] + [f"path={p}"]) for p in _path_mutations(path)
                ]
            for counted, key, mutated in candidates:
                text = "\n".join(lines[:i] + [" ".join(mutated)] + lines[i + 1 :]) + "\n"
                try:
                    mutant = Transcript.from_text(text)
                    outcome = _outcome(resealed(mutant.header, mutant.records, "HEADEREND", "bind"))
                except MalformedRecord:
                    outcome = "malformed"
                counted[outcome] += 1
                where = (scenario.seed, i, key, line[:60])
                if outcome == "clean":
                    excusable = (tokens[0], key) in DIGEST_FIELDS or (
                        key == "proof" and _failed_proof(transcript, records[i])
                    )
                    (excused if excusable else missed).append(where)
                elif outcome == "malformed" and (tokens[0], key) not in MALFORMED_FIELDS:
                    malformed.append(where)
    assert not missed, missed
    assert not malformed, malformed
    assert outcomes == {"divergent": 682, "malformed": 6, "clean": 7}
    # five path mutations of each of the six PUBLISH records, every one divergent
    assert paths == {"divergent": 30}
    # six digest fields, and participant 1's failed DEMAND proof in EPOCH_CROSSING
    assert len(excused) == 7, excused


def _structural_mutations(body):
    """Each body record before the SUMMARY deleted, each duplicated, and
    each adjacent pair of them swapped."""
    *records, summary = body
    for i in range(len(records)):
        yield records[:i] + records[i + 1 :] + [summary]
        yield records[: i + 1] + records[i:] + [summary]
    for i in range(len(records) - 1):
        yield records[:i] + [records[i + 1], records[i]] + records[i + 2 :] + [summary]


# SHA-256 over the 510 structural mutations' reports, each the repr of
# its divergences, or ("malformed", text) where verify raises MalformedRecord
STRUCTURAL_REPORTS = "c6dc219ed29e68dafd142c0b5f518911834f8ba810a9bd415f0a260356ae4849"


def test_every_structural_mutation_detected():
    # an investigation and a re-keyed session, a session that endorses
    # epoch 1 mid-tree, and a session with OPTOUT records: with the
    # SUMMARY bind resealed, no deleted, duplicated or swapped record
    # verifies clean, verify raises nothing but MalformedRecord, and
    # every report, each divergence's index and message, is pinned
    scenarios = [
        BAD_PAD_RUN,
        EPOCH_CROSSING,
        sim.Scenario(n=5, senders=((0, 5), (1, 9)), adversaries=((2, "refuse_signature"),), seed=9),
    ]
    mutations, clean, reports = 0, [], hashlib.sha256()
    for scenario in scenarios:
        transcript = sim.run_scenario(scenario)
        text = transcript.to_text()
        for body in _structural_mutations(transcript.records):
            mutated = resealed(transcript.header, body, "bind")
            assert mutated != text
            mutations += 1
            try:
                divergences = sim.verify_transcript(Transcript.from_text(mutated)).divergences
            except MalformedRecord as exc:
                divergences = ("malformed", str(exc))
            if not divergences:
                clean.append((scenario.seed, mutations))
            reports.update(repr(divergences).encode())
    assert mutations == 510
    assert not clean, clean
    assert reports.hexdigest() == STRUCTURAL_REPORTS


def test_run_and_verify_leave_no_reference_cycle():
    # a finished session, its judge and its replay are freed by reference
    # counting alone: after a run, a clean verify and a verify that the
    # replay stops, the cyclic collector finds nothing
    gc.collect()
    gc.disable()
    try:
        transcript = sim.run_scenario(BAD_PAD_RUN)
        assert gc.collect() == 0
        assert sim.verify_transcript(Transcript.from_text(transcript.to_text())).clean
        assert gc.collect() == 0
        swapped = Transcript.from_text(on_records(swap_ciphers, "bind")(transcript.to_text()))
        assert not sim.verify_transcript(swapped).clean
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    text = resealed(header, transcript.records, "HEADEREND")
    with pytest.raises(MalformedRecord) as info:
        sim.verify_transcript(Transcript.from_text(text))
    assert info.value.index == index


# the bad_pad run whose records the tests below edit
EDITED_RUN = sim.Scenario(n=3, adversaries=((2, "bad_pad"),), seed=1)


def _edited_first(prefix, field, value):
    """A bad_pad run's text with ``field`` of its first ``prefix`` record
    set to ``value``, and that record's index."""
    text = sim.run_scenario(EDITED_RUN).to_text()
    lines = text.splitlines()
    index = next(i for i, ln in enumerate(lines) if ln.startswith(f"{prefix} "))
    lines[index] = " ".join(
        f"{field}={value}" if item.startswith(f"{field}=") else item
        for item in lines[index].split()
    )
    return "\n".join(lines) + "\n", index


@pytest.mark.parametrize(
    "value", ["-5", "0", "p", "p+y", "2^4096"],
    ids=["PUBKEY-y--5", "PUBKEY-y-0", "PUBKEY-y-p", "PUBKEY-y-p+y", "PUBKEY-y-2^4096"],
)
def test_a_pubkey_outside_the_range_is_a_bad_signature_on_verify(value, medium):
    # a key outside [1, p) is read as recorded, and the judge's signature
    # check fails under it, before any statement is built from it:
    # participant 0, whose PUBKEY comes first, gets bad_signature at
    # epoch:0, which the recorded run never issued
    y = next(r["y"] for r in sim.run_scenario(EDITED_RUN).records if r["type"] == "PUBKEY")
    spelled = {"p": medium.p, "p+y": medium.p + y, "2^4096": 1 << 4096}
    text, _ = _edited_first("PUBKEY", "y", str(spelled.get(value, value)))
    report = sim.verify_transcript(Transcript.from_text(text))
    assert not report.clean
    verdict = "recomputed VERDICT part=0 reason=bad_signature where=epoch:0"
    assert any(message.endswith(verdict) for _, message in report.divergences), report.divergences


# n=32 distinct payloads, one per participant: 32 rounds, so four epochs
DISTINCT_32 = tuple((pid, 3 + 7 * pid) for pid in range(32))

# scenario 0 of the bench's wide_honest workload at seed 1: an honest n=32 run
WIDE_HONEST = sim.Scenario(
    n=32,
    senders=((4, 250), (5, 237), (11, 71), (17, 71), (25, 171), (27, 37), (30, 145), (31, 124)),
    seed=10982983926217157380,
)


def _resealed(transcript, index, **fields):
    """The transcript's text with body record ``index`` changed, and the
    SUMMARY ``bind`` recomputed to match."""
    body = list(transcript.records)
    body[index] = {**body[index], **fields}
    return resealed(transcript.header, body, "bind")


def _first_endorse(transcript, epoch):
    return next(
        i for i, rec in enumerate(transcript.records)
        if rec["type"] == "ENDORSE" and rec["epoch"] == epoch
    )


@pytest.mark.parametrize("taken", ["root", "proof", "challenge", "response"])
def test_replaced_endorse_record_is_not_clean(taken):
    # a signed root that no investigation reveals is still checked: taking
    # another participant's root, its proof, or only its proof's challenge
    # or response, with bind recomputed, fails in an honest n=32 run's
    # epoch 0 and in a later epoch
    for scenario, epoch in ((WIDE_HONEST, 0), (EPOCH_CROSSING, 1)):
        transcript = sim.run_scenario(scenario)
        assert sim.verify_transcript(transcript).clean
        index = _first_endorse(transcript, epoch)
        own, other = transcript.records[index], transcript.records[index + 1]
        assert other["type"] == "ENDORSE"
        if taken == "root" and other["root"] == own["root"]:
            # n=2: both ends sign their one edge's root alike, so the root
            # comes from the same signer's record of the other epoch
            other = transcript.records[_first_endorse(transcript, 1 - epoch)]
        half = len(own["proof"]) // 2   # the challenge's hex digits, then the response's
        fields = {
            "root": {"root": other["root"]},
            "proof": {"proof": other["proof"]},
            "challenge": {"proof": other["proof"][:half] + own["proof"][half:]},
            "response": {"proof": own["proof"][:half] + other["proof"][half:]},
        }[taken]
        text = _resealed(transcript, index, **fields)
        assert text != transcript.to_text()
        assert not sim.verify_transcript(Transcript.from_text(text)).clean, (scenario.n, taken)


def _resign(graph, epoch, signer, root, shift=0):
    """Put in place of ``signer``'s signed root for the graph's epoch one
    over ``root``, its signature's s shifted by ``shift``."""
    at, params, key = graph.participants.index(signer), graph.params, graph.signing[signer]
    stmt = keysetup.endorse_statement(params, key.public, root, signer, epoch, graph.optouts)
    ((e, s),) = zkp.prove_or(params, stmt, 0, key.secret, random.Random(epoch))
    signed = list(graph.epochs[epoch].signed)
    signed[at] = keysetup.SignedRoot(root, ((e, (s + shift) % params.q),))
    graph.epochs[epoch] = graph.epochs[epoch]._replace(signed=tuple(signed))


class _WrongLeafSigner(sim._Participants):
    """Participant 3 signs its epoch-0 root over a tree with NO_EDGE at
    participant 1's leaf, and its holders' paths run through that tree."""

    def __init__(self, *args):
        super().__init__(*args)
        graph = self.graph
        if 3 in graph.participants:
            at, width = graph.participants.index(3), graph.width
            leaves = list(graph.epochs[0].trees[0])
            leaf = at * width + keysetup._leaf_index(graph.participants, 1, 3)
            leaves[leaf] = merkle.leaf_hash(keysetup.NO_EDGE)
            trees = merkle.build_tree(leaves, width)
            graph.epochs[0] = graph.epochs[0]._replace(trees=trees)
            _resign(graph, 0, 3, trees[-1][at])


class _BadSignatureSigner(sim._Participants):
    """Participant 3 signs the root of every epoch in ``epochs`` (of
    every epoch, where it is None) with s + 1."""

    epochs = None

    def epoch(self, k):
        graph = self.graph
        signed = super().epoch(k)
        if 3 in graph.participants and (self.epochs is None or k in self.epochs):
            _resign(graph, k, 3, signed[graph.participants.index(3)].root, shift=1)
        return graph.epochs[k].signed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP Baseline repro 'A wrong endorsed leaf frames honest participants': "
    "the investigation blames 1 for bad_signature and 3 for aggregate_mismatch, and 1's "
    "payload 11 is never delivered (ROADMAP item 1)",
)
def test_a_wrong_endorsed_leaf_frames_no_holder(monkeypatch):
    # BAD_PAD_RUN, with participant 3's epoch-0 tree holding NO_EDGE at 1's leaf
    monkeypatch.setattr(sim, "_Participants", _WrongLeafSigner)
    _assert_honest_unharmed(BAD_PAD_RUN, adversary=3)


def test_a_bad_endorse_signature_is_judged_as_on_replay(monkeypatch):
    # an honest n = 4 run at seed 2, but participant 3 signs every root with s + 1
    monkeypatch.setattr(sim, "_Participants", _BadSignatureSigner)
    _assert_honest_unharmed(sim.Scenario(n=4, senders=BAD_PAD_RUN.senders, seed=2), adversary=3)


def test_a_bad_signature_at_a_later_epoch_stops_the_session(monkeypatch):
    # the n=32 senders of distinct payloads, with participant 3 signing only
    # its epoch-1 root with s + 1: session 1 stops at epoch 1's ENDORSE
    # records, before the round that would spend slot 8, and the 31 others
    # go on without 3
    monkeypatch.setattr(sim, "_Participants", _BadSignatureSigner)
    monkeypatch.setattr(_BadSignatureSigner, "epochs", {1})
    t = run(sim.Scenario(n=32, senders=DISTINCT_32, seed=0))
    verdicts = [(r["part"], r["reason"], r["where"]) for r in t.records if r["type"] == "VERDICT"]
    assert verdicts == [(3, "bad_signature", "epoch:1")]
    assert summary_of(t)["sessions"] == 2
    assert summary_of(t)["delivered"] == 31
    second = [i for i, r in enumerate(t.records) if r["type"] == "SESSION"][1]
    first = t.records[:second]
    last = max(i for i, r in enumerate(first) if r["type"] == "ENDORSE" and r["epoch"] == 1)
    # no ROUND after epoch 1's ENDORSE records: only the verdict and the ban
    assert [r["type"] for r in first[last + 1 :]] == ["VERDICT", "BAN"]


class _OutOfRangeKey(sim._Participants):
    """Answers ``keys()`` with participant 3's PUBKEY y replaced by ``y``."""

    y = 0

    def keys(self):
        public = super().keys()
        if 3 not in public.publics:
            return public
        return public._replace(publics={**public.publics, 3: self.y})


class _ForeignIdSigner(sim._Participants):
    """Participant 3 signs its epoch-0 root with its own key, over the
    payload that would endorse that root as participant 0's."""

    def epoch(self, k):
        signed, graph = super().epoch(k), self.graph
        if k == 0 and 3 in graph.participants:
            at, key = graph.participants.index(3), graph.signing[3]
            stmt = keysetup.endorse_statement(
                graph.params, key.public, signed[at].root, 0, 0, graph.optouts
            )
            proof = zkp.prove_or(graph.params, stmt, 0, key.secret, random.Random(0))
            signed = signed[:at] + (signed[at]._replace(proof=proof),) + signed[at + 1 :]
        return signed


class _RefuserLeftOut(sim._Participants):
    """Gathers its reveals by participant, leaving out every participant
    with nothing to reveal, as a refuser whose edges are all opted out;
    the positional answer holds an empty map in each such place."""

    def publish(self, slot):
        pids = [p.pid for p in self.participants]
        gathered = {pid: pairs for pid, pairs in zip(pids, super().publish(slot)) if pairs}
        return [gathered.get(pid, {}) for pid in pids]


class _ForeignOptout(sim._Participants):
    """Answers ``keys()`` with the opted-out pair ``pair`` added."""

    pair = (3, 1)

    def keys(self):
        public = super().keys()
        return public._replace(optouts=public.optouts | {self.pair})


def verdict_places(transcript):
    return [
        (r["part"], r["reason"], r["where"]) for r in transcript.records if r["type"] == "VERDICT"
    ]


HONEST_RUN = BAD_PAD_RUN._replace(adversaries=())
# 2 refuses every edge, so it reveals nothing, and 3 pads badly
REFUSER_RUN = sim.Scenario(
    n=4, senders=((0, 36), (1, 11)), adversaries=((2, "refuse_signature"), (3, "bad_pad")), seed=2
)
KEY_BAN = [(3, "bad_signature", "epoch:0")]


@pytest.mark.parametrize(
    "source, attrs, scenario, expected",
    [
        (_OutOfRangeKey, {"y": 0}, HONEST_RUN, KEY_BAN),
        (_OutOfRangeKey, {"y": -5}, HONEST_RUN, KEY_BAN),
        (_ForeignIdSigner, {}, HONEST_RUN, KEY_BAN),
        (_ForeignIdSigner, {}, BAD_PAD_RUN, KEY_BAN),
        (_RefuserLeftOut, {}, REFUSER_RUN, None),
        (_ForeignOptout, {"pair": (0, 1 << 40)}, HONEST_RUN, []),
        (_ForeignOptout, {"pair": (3, 1)}, HONEST_RUN, []),
    ],
    ids=[
        "pubkey-y-0", "pubkey-y--5", "root-under-0s-id", "root-under-0s-id-bad-pad",
        "refuser-left-out", "optout-0-2^40", "optout-3-1",
    ],
)
def test_the_judge_applies_every_rule_to_a_source_answer(
    monkeypatch, source, attrs, scenario, expected
):
    # a source that answers one call out of the rules: the run raises
    # nothing, the verify of its own transcript is clean, only 3 gets a
    # VERDICT, and every sender's payload arrives; ``expected`` None is
    # the verdicts of the unmodified run
    if expected is None:
        expected = verdict_places(sim.run_scenario(scenario))
    for name, value in attrs.items():
        monkeypatch.setattr(source, name, value)
    monkeypatch.setattr(sim, "_Participants", source)
    t = run(scenario)
    assert verdict_places(t) == expected
    assert {part for part, _, _ in expected} <= {3}
    assert summary_of(t)["delivered"] == len(scenario.senders)


class _NegatedKey(sim._Participants):
    """Answers ``keys()`` with participant 3's PUBKEY y = h^x replaced by
    p - y, which lies in [1, p) but outside the group, and signs each of
    3's roots with x under p - y (``sign_under_negated_key``)."""

    def keys(self):
        public = super().keys()
        if 3 not in public.publics:
            return public
        negated = self.graph.params.p - public.publics[3]
        return public._replace(publics={**public.publics, 3: negated})

    def epoch(self, k):
        signed, graph = super().epoch(k), self.graph
        if 3 not in graph.participants:
            return signed
        params, at, x = graph.params, graph.participants.index(3), graph.signing[3].secret
        key = params.p - graph.signing[3].public
        stmt = keysetup.endorse_statement(params, key, signed[at].root, 3, k, graph.optouts)
        resigned = signed[at]._replace(proof=sign_under_negated_key(params, stmt, x))
        return signed[:at] + (resigned,) + signed[at + 1 :]


def test_a_pubkey_outside_the_subgroup_is_a_bad_signature(monkeypatch, medium):
    # the honest n = 4 run, with participant 3's PUBKEY p - h^x and its
    # roots signed with x under that key: the proof check alone accepts
    # the signature, so the judge's key rule, y in the group, is what
    # gives 3 bad_signature at epoch:0, in the run and on verify alike
    monkeypatch.setattr(sim, "_Participants", _NegatedKey)
    t = run(HONEST_RUN)
    assert verdict_places(t) == KEY_BAN
    assert summary_of(t)["delivered"] == len(HONEST_RUN.senders)
    y = next(r["y"] for r in t.records if r["type"] == "PUBKEY" and r["part"] == 3)
    endorse = next(r for r in t.records if r["type"] == "ENDORSE" and r["part"] == 3)
    assert 0 < y < medium.p and not medium.is_element(y)
    stmt = keysetup.endorse_statement(medium, y, bytes.fromhex(endorse["root"]), 3, 0, ())
    assert zkp.verify_or(medium, [stmt], [zkp.proof_from_text(medium, endorse["proof"])]) == [True]


class _WrongLengthSource(sim._Participants):
    """The live source, one of whose calls a test replaces with ``_resized``."""


def _resized(answer_of, extra):
    """``answer_of``'s answer one entry short, its last dropped (``extra``
    -1), or one long, its first repeated (``extra`` 1)."""
    def resized(self, *args):
        entries = list(answer_of(self, *args))
        return entries[:-1] if extra < 0 else entries + entries[:1]
    return resized


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("call, scenario", [
    ("broadcast", HONEST_RUN), ("prove", HONEST_RUN), ("epoch", HONEST_RUN),
    ("publish", BAD_PAD_RUN),
    # 0 and 1 both send 36: an equal-payload node, so a DEMAND round
    ("respond", HONEST_RUN._replace(senders=((0, 36), (1, 36), (2, 28)))),
], ids=["broadcast", "prove", "epoch", "publish", "respond"])
def test_an_answer_of_the_wrong_length_raises(monkeypatch, call, scenario, extra):
    # each positional call answers one entry per participant; any other
    # length is the source's fault, not a participant's act, so the judge
    # raises where it pairs the answer with the participants, and no
    # transcript is written (a long publish answer is a stranger's reveals)
    monkeypatch.setattr(_WrongLengthSource, call, _resized(getattr(sim._Participants, call), extra))
    monkeypatch.setattr(sim, "_Participants", _WrongLengthSource)
    with pytest.raises(ValueError, match=r"^zip\(\) argument"):
        sim.run_scenario(scenario)


def test_a_live_run_decodes_no_proof(monkeypatch):
    # a proof answer is a value, which the judge spells, so a live run
    # reads no text back; its verify decodes one text per proof the
    # judge checks, and one per ENDORSE record, whose signature the
    # judge checks apart from that count; round 1's texts, and those of a
    # round that is not valid, are never read
    reads = []
    read = zkp.proof_from_text
    monkeypatch.setattr(zkp, "proof_from_text", lambda *args: reads.append(args) or read(*args))
    equal = sim.Scenario(n=4, senders=((0, 9), (1, 9), (3, 9)), seed=4)
    for scenario in (BAD_PAD_RUN, equal):
        reads.clear()
        t = sim.run_scenario(scenario)
        assert reads == []
        assert sim.verify_transcript(t).clean
        endorsed = sum(r["type"] == "ENDORSE" for r in t.records)
        assert len(reads) == summary_of(t)["proofs_checked"] + endorsed
        assert summary_of(t)["proofs_checked"] > 0
    assert any(r["type"] == "DEMAND" for r in t.records)


class _UnreducedCountParticipant(sim.HonestParticipant):
    """Honest, but broadcasts its O_count plus q: the same slot value mod q."""

    def broadcast(self, round_id, slot):
        ct = super().broadcast(round_id, slot)
        return ct._replace(value=(ct.value[0] + self.params.q, ct.value[1]))


def test_the_judge_reads_a_broadcast_slot_mod_q(monkeypatch, medium):
    # BAD_PAD_RUN's senders at seed 2, with participant 3 adding q to its
    # O_count: the judge records each slot value mod q, so the run's own
    # transcript replays clean
    monkeypatch.setitem(sim._STRATEGY_CLASSES, "refuse_proof", _UnreducedCountParticipant)
    t = run(sim.Scenario(
        n=4, senders=BAD_PAD_RUN.senders, adversaries=((3, "refuse_proof"),), seed=2
    ))
    assert verdicts_of(t) == []
    assert summary_of(t)["delivered"] == 3
    # a recorded O_count plus q is not the value the judge writes, so a
    # replay that passed it on unreduced, to a judge that wrote it as given,
    # would miss the edit
    transcript = sim.run_scenario(BAD_PAD_RUN)
    index = next(i for i, rec in enumerate(transcript.records) if rec["type"] == "CIPHER")
    text = _resealed(transcript, index, O_count=transcript.records[index]["O_count"] + medium.q)
    report = sim.verify_transcript(Transcript.from_text(text))
    assert report.divergences[0][0] == len(transcript.header) + index == 14


class _ZeroAtRoundTwoParticipant(sim.HonestParticipant):
    """Honest, but broadcasts the commitment 0 at round 2."""

    def broadcast(self, round_id, slot):
        ct = super().broadcast(round_id, slot)
        return ct._replace(commitment=0) if round_id == 2 else ct


def test_a_commitment_outside_the_group_is_judged_as_on_replay(monkeypatch):
    # BAD_PAD_RUN's senders at seed 2, with 3, then 2 and 3, broadcasting
    # p - c, and with 2 broadcasting 0 at round 2, where a target's inverse
    # is taken: each is a missing broadcast, a non_cooperation verdict at
    # its round, in the run as on replay, and the others' payloads arrive
    cases = [
        (OutsideGroupParticipant, (3,), [(3, "non_cooperation", "round:1")]),
        (OutsideGroupParticipant, (2, 3),
         [(2, "non_cooperation", "round:1"), (3, "non_cooperation", "round:1")]),
        (_ZeroAtRoundTwoParticipant, (2,), [(2, "non_cooperation", "round:2")]),
    ]
    for participant, outsiders, expected in cases:
        monkeypatch.setitem(sim._STRATEGY_CLASSES, "refuse_proof", participant)
        scenario = sim.Scenario(
            n=4, senders=BAD_PAD_RUN.senders,
            adversaries=tuple((pid, "refuse_proof") for pid in outsiders), seed=2,
        )
        t = run(scenario)
        verdicts = [(r["part"], r["reason"], r["where"]) for r in t.records
                    if r["type"] == "VERDICT"]
        assert verdicts == expected
        delivered = Counter(r["payload"] for r in t.records if r["type"] == "RESOLVED")
        assert delivered == Counter(
            payload for pid, payload in scenario.senders if pid not in outsiders
        ), outsiders
    # a recorded commitment of 0 where the run recorded a group element,
    # with bind resealed, is judged too: the recomputed session
    # stops at its round with a verdict the recorded one lacks
    transcript = sim.run_scenario(BAD_PAD_RUN)
    index = next(i for i, rec in enumerate(transcript.records) if rec["type"] == "CIPHER")
    report = sim.verify_transcript(Transcript.from_text(_resealed(transcript, index, c=0)))
    assert report.divergences[0][0] == len(transcript.header) + index + 4
    assert "reason=non_cooperation where=round:1" in report.divergences[0][1]


class _AbsentEntrySource(sim._Participants):
    """The live source, but participant 3's entry is None in one answer:
    its round-2 broadcast, its reveal map, or its epoch-0 signed root, as
    ``call`` names."""

    call = "broadcast"

    def _absent(self, answers, now):
        answers, pids = list(answers), [p.pid for p in self.participants]
        if now and 3 in pids:
            answers[pids.index(3)] = None
        return answers

    def broadcast(self, round_id, slot):
        now = (self.call, round_id) == ("broadcast", 2)
        return self._absent(super().broadcast(round_id, slot), now)

    def publish(self, slot):
        return self._absent(super().publish(slot), self.call == "publish")

    def epoch(self, k):
        return self._absent(super().epoch(k), (self.call, k) == ("epoch", 0))


@pytest.mark.parametrize("call, scenario, verdict, spelled", [
    ("broadcast", HONEST_RUN, (3, "non_cooperation", "round:2"),
     "CIPHER round=2 part=3 O_count=0 O_total=0 c=0 proof=-"),
    ("publish", BAD_PAD_RUN, (3, "non_cooperation", "round:1"), None),
    ("epoch", HONEST_RUN, (3, "bad_signature", "epoch:0"),
     "ENDORSE epoch=0 part=3 root= proof=-"),
], ids=["broadcast", "reveal_map", "signed_root"])
def test_an_absent_entry_is_judged_as_a_value_a_rule_rejects(
    monkeypatch, call, scenario, verdict, spelled
):
    # participant 3 answers nothing once: the judge takes the absence for
    # a broadcast with c = 0, the empty reveal map, or a signed root with
    # an empty root and no proof, and records it so; 3 alone is banned,
    # the others' payloads arrive in session 2, and the replay is clean
    monkeypatch.setattr(_AbsentEntrySource, "call", call)
    monkeypatch.setattr(sim, "_Participants", _AbsentEntrySource)
    t = run(scenario)
    assert verdict_places(t) == [verdict]
    resolved = [
        (k, r["payload"]) for k in range(1, summary_of(t)["sessions"] + 1)
        for r in session_records(t, k) if r["type"] == "RESOLVED"
    ]
    assert sorted(resolved) == sorted((2, payload) for _, payload in scenario.senders)
    lines = t.to_text().splitlines()
    if spelled is None:   # 3 reveals nothing: no PUBLISH record of its own
        assert not [ln for ln in lines if ln.startswith("PUBLISH ") and " part=3 " in ln]
    else:
        assert spelled in lines


class _RoundTwoBadPad(sim._ForgingAdversary):
    """Honest, but its round-2 commitment is shifted by g, so that round
    is not valid."""

    def broadcast(self, round_id, slot):
        ct = super().broadcast(round_id, slot)
        if round_id == 2:
            ct = ct._replace(commitment=ct.commitment * self.params.g % self.params.p)
        return ct


def test_a_round_that_is_not_valid_asks_for_no_proof(monkeypatch):
    # BAD_PAD_RUN's senders, with 3's bad commitment at round 2: the round
    # is investigated, and the judge asks for no proof there, so its
    # CIPHER records carry none, as round 1's do; 3 alone is blamed, the
    # others' payloads arrive in session 2, and the replay is clean
    monkeypatch.setitem(sim._STRATEGY_CLASSES, "refuse_proof", _RoundTwoBadPad)
    t = run(sim.Scenario(
        n=4, senders=BAD_PAD_RUN.senders, adversaries=((3, "refuse_proof"),), seed=2
    ))
    assert verdict_places(t) == [(3, "aggregate_mismatch", "round:2")]
    first = [r for r in session_records(t, 1) if r["type"] in ("CIPHER", "AGGREGATE")]
    assert [(r["type"], r["round"]) for r in first if r["type"] == "AGGREGATE"] == [
        ("AGGREGATE", 1), ("AGGREGATE", 2)
    ]
    assert first[-1]["valid"] == 0
    assert [r["proof"] for r in first if r["type"] == "CIPHER"] == [zkp.NO_PROOF] * 8
    assert summary_of(t)["delivered"] == 3


def test_wide_session_signs_once_per_participant_and_epoch(monkeypatch):
    """n=32 honest senders of distinct payloads: the session transmits
    32 rounds and endorses four epochs, each with one ENDORSE record, one
    signature in the run and one check on replay per participant, an
    epoch's checks in one ``verify_or``, and every check passes."""
    counts = Counter()
    prove_or, verify_or = zkp.prove_or, zkp.verify_or

    def endorsing(stmt):
        return stmt.context.startswith(b"dcmesh/endorse/")

    def counting_prove_or(params, stmt, *args):
        counts["sign"] += endorsing(stmt)
        return prove_or(params, stmt, *args)

    def counting_verify_or(params, statements, proofs):
        oks = verify_or(params, statements, proofs)
        if any(map(endorsing, statements)):
            assert all(map(endorsing, statements))
            counts["verify_or"] += 1
            counts.update(("verify", ok) for ok in oks)
        return oks

    monkeypatch.setattr(zkp, "prove_or", counting_prove_or)
    monkeypatch.setattr(zkp, "verify_or", counting_verify_or)
    scenario = sim.Scenario(n=32, senders=DISTINCT_32)
    transcript = sim.run_scenario(scenario)
    assert summary_of(transcript)["sessions"] == 1
    assert summary_of(transcript)["transmitted"] == 32
    assert verdicts_of(transcript) == []
    signed = Counter(r["epoch"] for r in transcript.records if r["type"] == "ENDORSE")
    assert signed == {epoch: 32 for epoch in range(4)}
    # the judge checks every signed root as it takes it, in the run and on replay
    assert counts == {"sign": 4 * 32, "verify_or": 4, ("verify", True): 4 * 32}
    assert sim.verify_transcript(Transcript.from_text(transcript.to_text())).clean
    assert counts == {"sign": 4 * 32, "verify_or": 2 * 4, ("verify", True): 2 * 4 * 32}


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


def test_one_copy_term_per_equal_payload_demand(monkeypatch):
    """Two pairs of equal payloads among five participants: each
    equal-payload node's DEMAND makes its one-copy term g * f^x once,
    for all five denial statements, in the run and on verify alike."""
    calls = []
    value_term = splitter.value_term

    def counting_value_term(params, value):
        calls.append(value)
        return value_term(params, value)

    monkeypatch.setattr(splitter, "value_term", counting_value_term)
    scenario = sim.Scenario(n=5, senders=((0, 7), (1, 7), (2, 30), (3, 30), (4, 99)), seed=5)
    transcript = sim.run_scenario(scenario)
    equal = [
        r["total"] // r["count"]
        for r in transcript.records if r["type"] == "NODE" and r["status"] == "equal"
    ]
    assert equal == [7, 30]
    assert sum(r["type"] == "DEMAND" for r in transcript.records) == 5 * 2
    assert calls == [(1, 7), (1, 30)]
    assert sim.verify_transcript(Transcript.from_text(transcript.to_text())).clean
    assert calls == [(1, 7), (1, 30)] * 2


def test_session_after_everyone_is_banned_is_not_clean():
    # the run stops after a session that bans everyone, as after one that
    # bans no one; a forged session after it, whose opening records
    # match, must diverge at its SESSION record
    transcript = sim.run_scenario(sim.Scenario(n=1, adversaries=((0, "bad_pad"),)))
    lines = transcript.to_text().split("\n")
    assert lines[-3] == "BAN part=0"   # the last record before the SUMMARY
    forged = [
        f"SESSION idx=2 active= budget={EPOCH_SLOTS}",
        "ROUND id=1 slot=0",
        "AGGREGATE round=1 C_count=0 C_total=0 valid=1",
    ]
    text = "\n".join(lines[:-2] + forged + lines[-2:])
    report = sim.verify_transcript(Transcript.from_text(text))
    session_index = len(transcript.header) + len(transcript.records) - 1
    assert [index for index, _ in report.divergences] == [session_index]


# n = 2, seed 1, one sender: one session of one round, which carries no proof
ONE_ROUND_RUN = sim.Scenario(n=2, senders=((0, 36),), seed=1)


@pytest.mark.parametrize(
    "scenario, field",
    [
        pytest.param(BAD_PAD_RUN, "payload_bits", id="payload_bits"),
        pytest.param(BAD_PAD_RUN, "scenario", id="scenario"),
        pytest.param(
            ONE_ROUND_RUN,
            "payload_bits",
            id="one_round",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="a one-round transcript carries no proof, so only the digests bind "
                "its header: payload_bits 8 -> 9 with HEADEREND and bind resealed verifies "
                "clean (ROADMAP item 2)",
            ),
        ),
    ],
)
def test_a_resealed_header_change_does_not_verify_clean(scenario, field):
    # every proof binds the header digest, taken over the recorded DCMESH,
    # GROUP and CONFIG lines: CONFIG payload_bits 8 -> 9, or character 21
    # of the scenario digest, with HEADEREND and bind resealed, leaves the
    # transcript consistent, but the session-2 proofs of BAD_PAD_RUN no
    # longer verify
    transcript = sim.run_scenario(scenario)
    header = list(transcript.header)
    at = [rec["type"] for rec in header].index("CONFIG")
    value = header[at][field]
    if field == "payload_bits":
        assert value == 8
        value = 9
    else:
        value = value[:20] + ("1" if value[20] == "0" else "0") + value[21:]
    header[at] = dict(header[at], **{field: value})
    text = resealed(header, transcript.records, "HEADEREND", "bind")
    report = sim.verify_transcript(Transcript.from_text(text))
    assert not report.clean
    # the header itself is consistent: the first divergence is in the body
    assert min(index for index, _ in report.divergences) >= len(header)


@pytest.mark.parametrize("scenario, count", [(BAD_PAD_RUN, 29), (sim.REFERENCE_SCENARIO, 59)],
                         ids=["bad_pad", "reference"])
def test_single_session_plays_session_one_of_the_run(scenario, count):
    # one session tag rule: single_session judges session 1 under the tag
    # run_scenario gives it, so its records are the run's session-1
    # records after the SESSION record, key records and retransmission
    # proofs included
    transcript = sim.run_scenario(scenario)
    body = transcript.records
    end = next(i for i, rec in enumerate(body[1:], 1) if rec["type"] in ("SESSION", "SUMMARY"))
    out = sim.single_session(scenario.senders, scenario.adversaries, scenario.seed, n=scenario.n)
    assert out.records == body[1:end]
    assert len(out.records) == count
    assert out.tag == sim._session_tag(transcript.header[-1]["digest"], 1)


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
    assert [k for k in (1, 2) for r in session_records(transcript, k) if r["type"] == "BAN"] == [1]
    params = sim.derive_params(scenario.group, sim.DOMAIN_TAG)
    tag = sim._session_tag(transcript.header[-1]["digest"], 3)
    outcome = sim._play_session(params, scenario, [0, 1, 2], {0: 36}, 3, tag)
    extra = [sim._session_head(3, outcome.public)] + outcome.records
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
    forged = resealed(transcript.header, body + extra + [summary], "bind")
    report = sim.verify_transcript(Transcript.from_text(forged))
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


def test_each_record_is_serialised_once(monkeypatch):
    # the runner writes each body record's line once, for bind and the
    # text alike, and the DCMESH, GROUP and CONFIG lines once more, for
    # the HEADEREND digest, as verify does; verify writes no recorded
    # record again, and of what it recomputes only the header: the
    # SUMMARY bind is over the recorded lines, and each SESSION record
    # holds no digest (the run has two sessions)
    from dcmesh import transcript as codec

    written = []
    to_line = codec.record_to_line
    monkeypatch.setattr(codec, "record_to_line", lambda rec: written.append(rec) or to_line(rec))
    scenario = sim.Scenario(n=4, senders=((0, 36), (1, 11), (2, 28)),
                            adversaries=((3, "bad_pad"),), seed=2)
    ran = sim.run_scenario(scenario)
    text = ran.to_text()
    assert sorted(map(id, written)) == sorted(map(id, ran.header[:3] + ran.header + ran.records))

    parsed = Transcript.from_text(text)
    written.clear()
    assert sim.verify_transcript(parsed).clean
    assert [rec["type"] for rec in parsed.records].count("SESSION") == 2
    assert [rec["type"] for rec in written] == ["DCMESH", "GROUP", "CONFIG"]


def test_an_out_of_order_optout_diverges_at_its_own_record():
    # an OPTOUT of a pair out of order is dropped on verify, so it signs
    # nothing and the judge records no OPTOUT: with bind resealed over
    # it, the judge asks for epoch 0's first ENDORSE record where the
    # OPTOUT is, and verify stops there
    scenario = sim.Scenario(n=4, senders=((0, 36), (1, 11), (2, 28)), seed=2)
    transcript = sim.run_scenario(scenario)
    body = transcript.records
    keys = body[1:9]
    assert [rec["type"] for rec in keys] == ["PUBKEY"] * 4 + ["ENDORSE"] * 4
    edited = body[:5] + [record("OPTOUT", lo=3, hi=1)] + body[5:]
    text = resealed(transcript.header, edited, "bind")
    report = sim.verify_transcript(Transcript.from_text(text))
    base = len(transcript.header)
    assert [index for index, _ in report.divergences] == [base + 5]
    assert report.divergences[0][1].endswith("expected ENDORSE epoch=0 part=0")


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
    """One small run in the 2048-bit group: same protocol, real sizes,
    and bytes pinned as the test group's pinned transcripts are."""
    scenario = sim.Scenario(
        n=2, senders=((0, 5), (1, 200)), seed=11, group="production"
    )
    transcript = sim.run_scenario(scenario)
    assert hashlib.sha256(transcript.to_text().encode()).hexdigest() == (
        "af1181b00ef27f87e48e01c729246ded61ba002b57f5704d00c4ffa27e6bb333"
    )
    assert verdicts_of(transcript) == []
    assert summary_of(transcript)["delivered"] == 2
    assert summary_of(transcript)["transmitted"] == 2
    assert sim.verify_transcript(transcript).clean
