"""Deterministic synchronous-broadcast simulator.

Hosts honest and scripted-adversary participant state machines, runs
scenarios session by session (a detected disruptor is banned and the
undelivered senders retry among the survivors), serializes canonical
transcripts, and re-verifies them by feeding each session's recorded
inputs back through the same session judge (``splitter.run_session``).

Everything is driven by one 64-bit scenario seed: per-participant
randomness, key material and adversary choices are forked from it by
label, so identical scenarios produce byte-identical transcripts.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import zip_longest
from typing import NamedTuple

from . import splitter, zkp
from .dcnet import RoundCiphertext, make_ciphertext
from .errors import ConfigInvalid, MalformedRecord, ProtocolOrderViolation, WitnessMismatch
from .groups import SECURITY_LEVELS, GroupParams, derive_params
from .keysetup import (
    EPOCH_SLOTS,
    KeyGraphPublic,
    RevealedCommitment,
    SignedRoot,
    build_key_graph,
)
from .splitter import (
    ResolutionTree,
    encode_slot,
    endorse_record,
    run_session,
    slot_fits,
)
from .transcript import Transcript, record, record_to_line, records_digest

DOMAIN_TAG = b"dc-mesh/v1"
# the transcript format this engine writes, and the only one it replays
FORMAT_VERSION = "v10"

# adversary strategies; wrong_branch doubles as its verdict reason code
BAD_PAD = "bad_pad"
WRONG_BRANCH = "wrong_branch"
DOUBLE_BRANCH = "double_branch"
MUTATE_MESSAGE = "mutate_message"
LATE_INJECTION = "late_injection"
BAD_SLOT_COUNT = "bad_slot_count"
REFUSE_SIGNATURE = "refuse_signature"
REFUSE_PROOF = "refuse_proof"

# strategies that only make sense for a participant who is also a sender
_SENDER_STRATEGIES = (WRONG_BRANCH, DOUBLE_BRANCH, MUTATE_MESSAGE, BAD_SLOT_COUNT)


def fork_rng(seed: int, *labels) -> random.Random:
    """Independent deterministic stream derived from the scenario seed."""
    material = b"dcmesh/rng|" + seed.to_bytes(8, "big", signed=False)
    for label in labels:
        if isinstance(label, int):
            label = str(label)
        if isinstance(label, str):
            label = label.encode()
        material += b"|" + label
    return random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))


# ---------------------------------------------------------------------------
# scenarios


class Scenario(NamedTuple):
    n: int
    senders: tuple = ()        # ((participant, payload), ...)
    adversaries: tuple = ()    # ((participant, strategy), ...)
    seed: int = 0
    group: str = "test_medium"
    payload_bits: int = 8
    # read by nothing and not serialised: bench/workloads.py still passes
    # max_retries=; equality includes it, as a NamedTuple compares every
    # field, and nothing compares scenarios that set it
    max_retries: int | None = None

    def to_text(self) -> str:
        lines = [
            "dcmesh-scenario v1",
            f"n = {self.n}",
            f"group = {self.group}",
            f"seed = {self.seed}",
            f"payload_bits = {self.payload_bits}",
        ]
        for pid, payload in self.senders:
            lines.append(f"sender = {pid} {payload}")
        for pid, strategy in self.adversaries:
            lines.append(f"adversary = {pid} {strategy}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Scenario":
        lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
        if not lines or lines[0] != "dcmesh-scenario v1":
            raise ConfigInvalid("missing scenario format line 'dcmesh-scenario v1'")
        fields = {}
        senders, adversaries = [], []
        try:
            for ln in lines[1:]:
                if "=" not in ln:
                    raise ConfigInvalid(f"unparseable scenario line {ln!r}")
                key, value = (part.strip() for part in ln.split("=", 1))
                if key == "sender":
                    pid, payload = value.split()
                    senders.append((int(pid), int(payload)))
                elif key == "adversary":
                    pid, strategy = value.split()
                    adversaries.append((int(pid), strategy))
                elif key not in ("n", "group", "seed", "payload_bits"):
                    raise ConfigInvalid(f"unknown scenario key {key!r}")
                elif key in fields:
                    raise ConfigInvalid(f"repeated scenario key {key!r}")
                else:
                    fields[key] = value
            scenario = cls(
                n=int(fields["n"]),
                senders=tuple(senders),
                adversaries=tuple(adversaries),
                seed=int(fields.get("seed", "0")),
                group=fields.get("group", "test_medium"),
                payload_bits=int(fields.get("payload_bits", "8")),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigInvalid(f"bad scenario field: {exc}") from exc
        scenario.validate()
        return scenario

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigInvalid("need at least one participant")
        if not 0 <= self.seed < (1 << 64):
            raise ConfigInvalid("seed must fit in 64 bits")
        if self.group not in SECURITY_LEVELS:
            raise ConfigInvalid(f"unknown group {self.group!r}")
        params = derive_params(self.group, DOMAIN_TAG)
        check_config(self.n, self.payload_bits, params)
        sender_ids = [pid for pid, _ in self.senders]
        if len(set(sender_ids)) != len(sender_ids):
            raise ConfigInvalid("duplicate sender ids")
        adv_ids = [pid for pid, _ in self.adversaries]
        if len(set(adv_ids)) != len(adv_ids):
            raise ConfigInvalid("duplicate adversary ids")
        for pid, payload in self.senders:
            if not 0 <= pid < self.n:
                raise ConfigInvalid(f"sender id {pid} out of range")
            if not 0 <= payload < (1 << self.payload_bits):
                raise ConfigInvalid(f"payload {payload} does not fit payload_bits")
        senders = dict(self.senders)
        for pid, strategy in self.adversaries:
            if not 0 <= pid < self.n:
                raise ConfigInvalid(f"adversary id {pid} out of range")
            if strategy not in STRATEGIES:
                raise ConfigInvalid(f"unknown strategy {strategy!r}")
            if strategy in _SENDER_STRATEGIES and pid not in senders:
                raise ConfigInvalid(f"strategy {strategy} requires a sender payload")


def check_config(n: int, payload_bits: int, params: GroupParams) -> None:
    """The session rules of a CONFIG, for a run and for its verify alike."""
    if payload_bits < 1:
        raise ConfigInvalid("payload_bits must be positive")
    # a payload as wide as q never fits; checked first, so that a huge
    # payload_bits from a transcript never reaches slot_fits' shift
    if payload_bits >= params.q.bit_length() or not slot_fits(n, payload_bits, params.q):
        raise ConfigInvalid(
            f"slot encoding for n={n}, payload_bits={payload_bits} "
            f"overflows the {params.name} group"
        )


# the worked five-message example: payloads, tree slots and thresholds
REFERENCE_SCENARIO = Scenario(
    n=5,
    senders=((0, 36), (1, 11), (2, 28), (3, 17), (4, 38)),
    seed=7,
    group="test_medium",
    payload_bits=8,
)
REFERENCE_NODES = {
    1: (5, 130),
    2: (2, 28),
    3: (3, 102),
    4: (1, 11),
    5: (1, 17),
    6: (1, 28),
    7: (2, 74),
    14: (1, 36),
    15: (1, 38),
}
REFERENCE_THRESHOLDS = {1: 26, 2: 14, 3: 34, 7: 37}
REFERENCE_TRANSMITTED = [1, 2, 4, 6, 14]
REFERENCE_RESOLUTION = [11, 17, 28, 36, 38]


# ---------------------------------------------------------------------------
# participant state machines


class HonestParticipant:
    """Follows the protocol for one session, on the judge's tree: pads
    every round with the slot the judge hands it, splits by the book,
    and proves every statement the judge hands it through
    ``splitter.prove_node_denial``, true branch first: branch 1 (a repeat,
    or one copy) at the node its message went to, else branch 0."""

    def __init__(self, params, view, tree, payload, payload_bits, rng):
        self.params = params
        self.view = view
        self.pid = view.pid
        self.tree = tree
        self.payload = payload
        self.payload_bits = payload_bits
        self.rng = rng
        self.blinds = {}    # node -> blinding sum of this participant's context
        self.slot_value = None if payload is None else encode_slot(payload, payload_bits)
        self.message_node = None if payload is None else 1

    # -- decisions ---------------------------------------------------------

    def _goes_left(self, parent) -> bool:
        return self.payload < parent.threshold

    def _message_for(self, round_id):
        """The slot this round carries: the message, where it goes to the round's node."""
        if self.message_node == round_id // 2:   # its node is split: follow the message
            go_left = self._goes_left(self.tree.nodes[round_id // 2])
            self.message_node = round_id if go_left else round_id + 1
        return self.slot_value if self.message_node == round_id else None

    # -- protocol surface ----------------------------------------------------

    def broadcast(self, round_id, slot) -> RoundCiphertext:
        ct = make_ciphertext(self.view, slot, self._message_for(round_id))
        splitter.add_blind(self.params, self.blinds, round_id, self.view.blind_sum(slot))
        return ct

    def prove_round(self, round_id, statement):
        """A retransmission proof, in wire form; branch b's witness is B(round_id + b)."""
        empty, repeat = (0, self.blinds[round_id]), (1, self.blinds[round_id + 1])
        candidates = (repeat, empty) if self.message_node == round_id else (empty, repeat)
        return self._wire(self._proof(statement, candidates))

    def respond_demand(self, node_id, statement):
        """A denial proof, in wire form; every branch's witness is B(node_id)."""
        order = sorted(range(len(statement.branches)), reverse=self.message_node == node_id)
        return self._wire(self._proof(statement, [(b, self.blinds[node_id]) for b in order]))

    def _proof(self, statement, candidates):
        try:
            return splitter.prove_node_denial(self.params, statement, candidates, self.rng)
        except WitnessMismatch:
            return None

    def _wire(self, proof):
        """A proof as broadcast: hex text, or None when withheld."""
        return None if proof is None else zkp.proof_to_bytes(self.params, proof).hex()


class _ForgingAdversary(HonestParticipant):
    """Shared adversary plumbing: proves by the honest rule where some
    candidate's witness holds, and otherwise emits a well-shaped forgery
    of the statement instead of staying silent."""

    def _proof(self, statement, candidates):
        proof = super()._proof(statement, candidates)
        return zkp.forge_attempt(self.params, statement, self.rng) if proof is None else proof


class BadPadParticipant(_ForgingAdversary):
    """Shifts one pad in the first round without fixing the commitment
    product, so the round's validity check fails."""

    def broadcast(self, round_id, slot):
        ct = super().broadcast(round_id, slot)
        if round_id == 1:
            ct = ct._replace(
                value=((ct.value[0] + 1) % self.params.q, ct.value[1]),
                commitment=ct.commitment * self.params.g % self.params.p,
            )
        return ct


class WrongBranchParticipant(_ForgingAdversary):
    """Retransmits its message against every split rule."""

    def _goes_left(self, parent):
        return not super()._goes_left(parent)


class DoubleBranchParticipant(_ForgingAdversary):
    """Behaves honestly for its own path, then re-injects a copy of its
    message into the first split of a collision it is not part of
    (every round after the first splits one)."""

    injected = False

    def _message_for(self, round_id):
        if (
            round_id != 1
            and not self.injected
            and self.slot_value is not None
            and self.message_node != round_id // 2
        ):
            self.injected = True
            return self.slot_value
        return super()._message_for(round_id)


class MutateMessageParticipant(_ForgingAdversary):
    """Retransmits a shifted message instead of the one it sent, at the
    first split of its message's node, whichever side the message
    belongs on."""

    mutated = False

    def _message_for(self, round_id):
        message = super()._message_for(round_id)
        # the honest rule has just moved the message to one of this round's nodes
        if round_id != 1 and not self.mutated and self.message_node in (round_id, round_id + 1):
            self.mutated = True
            message = (self.slot_value[0], (self.slot_value[1] + 1) % self.params.q)
        return message


class LateInjectionParticipant(_ForgingAdversary):
    """Starts silent, then injects a fresh message mid-tree, where no
    new message may enter."""

    injected = False

    def __init__(self, *args):
        super().__init__(*args)
        self.inject_payload = self.rng.randrange(1 << self.payload_bits)

    def _message_for(self, round_id):
        if round_id != 1 and not self.injected:
            self.injected = True
            return encode_slot(self.inject_payload, self.payload_bits)
        return super()._message_for(round_id)


class BadSlotCountParticipant(_ForgingAdversary):
    """Sends an initial slot claiming two messages instead of one."""

    def __init__(self, *args):
        super().__init__(*args)
        self.slot_value = (2, self.payload)


class RefuseProofParticipant(HonestParticipant):
    """Participates but withholds every proof obligation."""

    def _proof(self, statement, candidates):
        return None


_STRATEGY_CLASSES = {
    BAD_PAD: BadPadParticipant,
    WRONG_BRANCH: WrongBranchParticipant,
    DOUBLE_BRANCH: DoubleBranchParticipant,
    MUTATE_MESSAGE: MutateMessageParticipant,
    LATE_INJECTION: LateInjectionParticipant,
    BAD_SLOT_COUNT: BadSlotCountParticipant,
    # the key graph opts the refuser's edges out; it is otherwise honest
    REFUSE_SIGNATURE: HonestParticipant,
    REFUSE_PROOF: RefuseProofParticipant,
}
# every strategy, in the order above: bench workloads cycle through them by index
STRATEGIES = tuple(_STRATEGY_CLASSES)


# ---------------------------------------------------------------------------
# scenario execution


def _session_tag(scenario_digest: str, session: int) -> bytes:
    return b"dcmesh|" + scenario_digest.encode()[:16] + b"|s%d" % session


def _key_records(session, public: KeyGraphPublic):
    """PUBKEY records, the OPTOUT records and the ENDORSE records of epoch 0."""
    records = [
        record("PUBKEY", session=session, part=pid, y=public.publics[pid])
        for pid in public.participants
    ]
    records.extend(
        record("OPTOUT", session=session, lo=lo, hi=hi) for lo, hi in sorted(public.optouts)
    )
    records.extend(endorse_record(session, 0, signed) for signed in public.epochs[0])
    return records


def _group_record(params):
    """A group as the header's GROUP record, which ``dcmesh keygen`` prints first."""
    return record(
        "GROUP",
        name=params.name,
        p=params.p,
        q=params.q,
        generators=",".join(str(x) for x in params.generators),
        tag=params.domain_tag.hex(),
    )


def _header(params, config, digest=records_digest):
    """The transcript header for a group and a CONFIG record."""
    header = [
        record("DCMESH", version=FORMAT_VERSION, hash="sha256"), _group_record(params), config
    ]
    header.append(record("HEADEREND", digest=digest(header)))
    return header


def _session_head(session, public: KeyGraphPublic, digest=records_digest):
    """The SESSION record followed by the session's key records; its
    budget is the slots of every epoch ``public`` holds."""
    key_records = _key_records(session, public)
    head = record(
        "SESSION",
        idx=session,
        active=",".join(str(pid) for pid in public.participants),
        budget=EPOCH_SLOTS * len(public.epochs),
        keys=digest(key_records),
    )
    return [head] + key_records


def _summary(outcomes, bind):
    """The closing SUMMARY: session totals and ``bind``, the digest of the body before it."""
    return record(
        "SUMMARY",
        sessions=len(outcomes),
        delivered=sum(len(o.resolved) for o in outcomes),
        transmitted=sum(o.transmitted for o in outcomes),
        proofs_checked=sum(o.proofs_checked for o in outcomes),
        proofs_failed=sum(o.proofs_failed for o in outcomes),
        verdicts=sum(len(o.verdicts) for o in outcomes),
        bind=bind,
    )


class _Participants:
    """The judge's source in a live run, which builds its own session
    from the scenario: the session's key graph, whose ``refuse_signature``
    adversaries opt out of their edges and which endorses epoch k from
    its own stream of the scenario seed, the session's tree, and the
    active participants, in pid order, on that tree.  Each broadcast
    pads with the slot the judge names.  Its sink is a plain list."""

    def __init__(self, params, scenario, active, pending, session):
        self.seed, self.session = scenario.seed, session
        strategy_of = dict(scenario.adversaries)
        refusers = {pid for pid in active if strategy_of.get(pid) == REFUSE_SIGNATURE}
        self.graph = build_key_graph(
            params, active, fork_rng(self.seed, "keys", session), refusers=refusers
        )
        self.tree = ResolutionTree(params.q, scenario.payload_bits)
        self.participants = [
            _STRATEGY_CLASSES.get(strategy_of.get(pid), HonestParticipant)(
                params,
                self.graph.view(pid),
                self.tree,
                pending.get(pid),
                scenario.payload_bits,
                fork_rng(self.seed, "participant", pid),
            )
            for pid in sorted(active)
        ]
        self.records = []

    def epoch(self, k):
        self.graph.add_epoch(fork_rng(self.seed, "keys", self.session, k))
        return self.graph.epochs[k].signed

    def broadcast(self, round_id, slot):
        return [p.broadcast(round_id, slot) for p in self.participants]

    def prove(self, round_id, statements):
        return [p.prove_round(round_id, s) for p, s in zip(self.participants, statements)]

    def publish(self, slot):
        return {p.pid: p.view.published_pairs(slot) for p in self.participants}

    def respond(self, node_id, statements):
        return [p.respond_demand(node_id, s) for p, s in zip(self.participants, statements)]


def _play_session(params, scenario, active, pending, session, session_tag):
    """Key setup, participants and the judge for one session; returns the judged session."""
    live = _Participants(params, scenario, active, pending, session)
    return run_session(params, live.graph.public(), live.tree, session, session_tag, live)


def _survivors(active, outcome):
    """The participants of the session after ``outcome``'s: the active
    ones it did not ban, or None when it banned no one or everyone, and
    the run ends with it.  Every later session has fewer participants
    than the one before, and at least one."""
    banned = {v.participant for v in outcome.verdicts}
    survivors = [pid for pid in active if pid not in banned]
    return survivors if banned and survivors else None


def run_scenario(scenario: Scenario) -> Transcript:
    """Execute a scenario to completion and return its transcript.

    Sessions repeat, banning every flagged disruptor, until all honest
    pending messages have been delivered or a session bans no one.
    """
    scenario.validate()
    params = derive_params(scenario.group, DOMAIN_TAG)
    digest = scenario.digest()
    transcript = Transcript()   # its digests write each record's line once
    transcript.header = _header(
        params,
        record(
            "CONFIG",
            n=scenario.n,
            payload_bits=scenario.payload_bits,
            scenario=digest,
        ),
        transcript.digest,
    )

    active = list(range(scenario.n))
    pending = dict(scenario.senders)
    body = transcript.records
    outcomes = []

    while True:
        session = len(outcomes) + 1
        outcome = _play_session(
            params, scenario, active, pending, session, _session_tag(digest, session)
        )
        body.extend(_session_head(session, outcome.public, transcript.digest))
        body.extend(outcome.records)
        outcomes.append(outcome)

        resolved_counts = Counter(payload for _, payload in outcome.resolved)
        for pid in sorted(pending):
            payload = pending[pid]
            if resolved_counts.get(payload, 0) > 0:
                resolved_counts[payload] -= 1
                del pending[pid]
        active = _survivors(active, outcome)
        if active is None:
            break
        pending = {pid: payload for pid, payload in pending.items() if pid in active}
        if not pending:
            break

    body.append(_summary(outcomes, transcript.digest(body)))
    return transcript


def single_session(senders, adversaries=(), seed=0, *, n=None, group="test_medium",
                   payload_bits=8):
    """Session 1 of the scenario the arguments make, as ``run_scenario`` plays it."""
    ids = [pid for pid, _ in senders] + [pid for pid, _ in adversaries]
    n = n if n is not None else (max(ids) + 1 if ids else 1)
    scenario = Scenario(
        n=n,
        senders=tuple(senders),
        adversaries=tuple(adversaries),
        seed=seed,
        group=group,
        payload_bits=payload_bits,
    )
    scenario.validate()
    params = derive_params(group, DOMAIN_TAG)
    return _play_session(
        params, scenario, list(range(n)), dict(senders), 1, _session_tag(scenario.digest(), 1)
    )


# ---------------------------------------------------------------------------
# independent transcript verification


class VerificationReport:
    def __init__(self):
        self.divergences = []   # (record_index, message)

    @property
    def clean(self) -> bool:
        return not self.divergences

    def compare(self, index, recorded, recomputed) -> None:
        """Report the record at ``index`` if it is not the recomputed one."""
        if recorded != recomputed:
            message = f"recorded {_line(recorded)} != recomputed {_line(recomputed)}"
            self.divergences.append((index, message))


class _Replay:
    """The judge's source and sink on verify: one cursor over a session's
    records after its SESSION record.  Each record the judge emits to
    ``records``, this replay, is compared with the one at the cursor,
    ``(none)`` past the session's end.  Inputs are read from the cursor
    on, where the judge emits them next; one that is not the input asked
    for is reported, and ProtocolOrderViolation stops the judge.  A
    round's ciphertexts come from its CIPHER records, read for each
    active participant in turn, so a list position is the participant
    and nothing else labels it."""

    def __init__(self, params, pids, recorded, index, report):
        self.params = params
        self.pids = pids
        self.recorded = recorded
        self.index = index   # transcript index of recorded[0]
        self.report = report
        self.at = self.read = 0   # the cursor; inputs are read from it on
        # the key records open the session; reading stops at the first one
        # out of place, before anything grows with the participant count
        self.publics = {}
        for pid in pids:
            self.publics[pid] = self._input("PUBKEY", part=pid)["y"]
            if not 1 <= self.publics[pid] < params.p:
                raise MalformedRecord(self.index + self.read - 1, "PUBKEY y outside [1, p)")
        # a pair that is not two active ids in order is dropped here, so
        # the re-emitted key records show it as a divergence; the rest are
        # signed into each ENDORSE
        optouts = set()
        while self.read < len(recorded) and recorded[self.read]["type"] == "OPTOUT":
            lo, hi = recorded[self.read]["lo"], recorded[self.read]["hi"]
            if lo < hi and {lo, hi} <= self.publics.keys():
                optouts.add((lo, hi))
            self.read += 1
        self.optouts = frozenset(optouts)
        signed = self.epoch(0)
        self.public = KeyGraphPublic(tuple(pids), self.publics, self.optouts, (signed,))
        self.at = self.read   # the judge's records follow the key records

    @property
    def records(self):
        """The judge's sink, this replay: a property, not an attribute
        holding itself, so no reference cycle keeps a finished replay and
        the records it holds alive until the cyclic collector runs."""
        return self

    def _input(self, rtype, **key):
        rec = self.recorded[self.read] if self.read < len(self.recorded) else None
        if rec is None or rec["type"] != rtype or not key.items() <= rec.items():
            expected = " ".join([rtype] + [f"{k}={v}" for k, v in key.items()])
            message = f"recorded {_line(rec)} != expected {expected}"
            self.report.divergences.append((self.index + self.read, message))
            raise ProtocolOrderViolation(message)
        self.read += 1
        return rec

    def _signed_root(self, epoch, pid) -> SignedRoot:
        rec = self._input("ENDORSE", epoch=epoch, part=pid)
        index = self.index + self.read - 1
        try:
            signed = SignedRoot(pid, bytes.fromhex(rec["root"]), (rec["sig_e"], rec["sig_s"]))
        except ValueError:
            raise MalformedRecord(index, "ENDORSE root is not hex") from None
        if not signed.verifies(self.params, self.publics[pid], epoch, self.optouts):
            raise MalformedRecord(index, f"ENDORSE signature of participant {pid} does not verify")
        return signed

    def append(self, rec):
        recorded = self.recorded[self.at] if self.at < len(self.recorded) else None
        self.report.compare(self.index + self.at, recorded, rec)
        self.at = self.read = self.at + 1

    def epoch(self, k):
        return tuple(self._signed_root(k, pid) for pid in self.pids)

    def broadcast(self, round_id, slot):   # the slot is checked in the ROUND record
        cts, self.proofs = [], []
        for pid in self.pids:
            rec = self._input("CIPHER", round=round_id, part=pid)
            if not self.params.is_element(rec["c"]):
                message = f"CIPHER c of {pid} not in the group"
                raise MalformedRecord(self.index + self.read - 1, message)
            value = (rec["O_count"] % self.params.q, rec["O_total"] % self.params.q)
            cts.append(RoundCiphertext(value, rec["c"]))
            self.proofs.append(_proof(rec))
        return cts

    def prove(self, round_id, statements):
        return self.proofs   # as read with the round's CIPHER records

    def publish(self, slot):
        # every participant publishes, if only the empty set of a participant
        # whose edges are all opted out; the PUBLISH records run at the cursor
        published = {pid: {} for pid in self.pids}
        for rec in self.recorded[self.at :]:
            if rec["type"] != "PUBLISH" or rec["slot"] != slot or rec["part"] not in published:
                break
            published[rec["part"]][rec["peer"]] = RevealedCommitment(rec["c"], rec["path"])
        return published

    def respond(self, node_id, statements):
        return [_proof(self._input("DEMAND", node=node_id, part=pid)) for pid in self.pids]


def _proof(rec):
    return None if rec["proof"] == "-" else rec["proof"]


def _line(rec) -> str:
    return "(none)" if rec is None else record_to_line(rec)


def _keys_digest(transcript, recorded):
    """The SESSION ``keys`` digest on verify: over the lines ``transcript``
    holds for the session's ``recorded`` key records when each equals its
    recomputed one, so they are not serialised again, else over the
    recomputed records."""
    def digest(records):
        held = recorded[: len(records)]
        return transcript.digest(held) if held == records else records_digest(records)
    return digest


def _check_header(header, report):
    """Group parameters and CONFIG of a header; reports each header record that differs."""
    types = [r["type"] for r in header]
    if "GROUP" not in types or "CONFIG" not in types:
        raise MalformedRecord(len(header) - 1, "incomplete header")
    if header[0].get("version") != FORMAT_VERSION:
        raise MalformedRecord(0, f"not a format {FORMAT_VERSION} transcript")
    group = header[types.index("GROUP")]
    try:
        # only built-in groups are named: p, q and the generators follow
        # from the name and the tag, and the header comparison below
        # reports a GROUP record that says otherwise
        params = derive_params(group["name"], bytes.fromhex(group["tag"]))
    except ValueError as exc:
        raise MalformedRecord(types.index("GROUP"), f"bad group parameters: {exc}") from exc
    config = header[types.index("CONFIG")]
    try:
        check_config(config["n"], config["payload_bits"], params)
    except ConfigInvalid as exc:
        raise MalformedRecord(types.index("CONFIG"), f"bad CONFIG: {exc}") from exc
    for index, (rec, exp) in enumerate(zip_longest(header, _header(params, config))):
        report.compare(index, rec, exp)
    return params, config


def verify_transcript(transcript: Transcript) -> VerificationReport:
    """Re-judge every session from its recorded inputs and report, in
    transcript order, each record that differs from the recomputed one.

    The body is split at its SESSION records, and each session goes
    through the judge with a ``_Replay`` as its source and sink.  Where
    the judge asks for an input the record at the cursor is not, verify
    stops there.  A session that bans no one, or bans everyone, ends the
    run, as it does the runner's: a SESSION record after it is reported
    and verify stops there too.  Raises MalformedRecord only for what
    cannot be parsed or checked: the header, its format version and
    group, a CONFIG n the body cannot hold, a missing SUMMARY or opening
    SESSION record, and, at its own index, a PUBKEY y outside [1, p), an
    ENDORSE root that is not hex or whose signature does not verify
    under the participant's PUBKEY, or a CIPHER c outside the group.

    Verify serialises only the header it recomputes, and a session's
    recomputed key records only where one differs from its recorded
    record: the SESSION ``keys`` and SUMMARY ``bind`` digests are
    otherwise checked over the lines the transcript holds, and no
    recorded body record is written again except in a divergence message.
    """
    report = VerificationReport()
    params, config = _check_header(transcript.header, report)
    base = len(transcript.header)
    body = transcript.records
    if not body or body[-1]["type"] != "SUMMARY":
        raise MalformedRecord(base + len(body), "missing SUMMARY record")
    starts = [i for i, rec in enumerate(body) if rec["type"] == "SESSION"]
    if starts[:1] != [0]:
        raise MalformedRecord(base, "expected a SESSION record")
    if not 0 < config["n"] <= len(body):   # every participant has a PUBKEY record
        raise MalformedRecord(base, f"CONFIG n={config['n']} does not fit the transcript")
    active = list(range(config["n"]))
    outcomes = []
    for session, (start, end) in enumerate(zip(starts, starts[1:] + [len(body) - 1]), 1):
        index = base + start
        if active is None:   # the run ended with the session before
            report.compare(index, body[start], None)
            break
        try:
            replay = _Replay(params, active, body[start + 1 : end], index + 1, report)
            outcome = run_session(
                params,
                replay.public,
                ResolutionTree(params.q, config["payload_bits"]),
                session,
                _session_tag(config["scenario"], session),
                replay,
            )
        except ProtocolOrderViolation:
            break   # the replay's stop, after it reported the divergence
        except (ValueError, OverflowError) as exc:
            raise MalformedRecord(index, f"unreplayable session: {exc}") from exc
        for _ in range(len(replay.recorded) - replay.at):   # recorded, never emitted
            replay.append(None)
        head = _session_head(session, outcome.public, _keys_digest(transcript, replay.recorded))
        for offset, rec in enumerate(head):
            report.compare(index + offset, body[start + offset], rec)
        outcomes.append(outcome)
        active = _survivors(active, outcome)
    else:
        bind = transcript.digest(body[:-1])   # over the recorded lines
        report.compare(base + len(body) - 1, body[-1], _summary(outcomes, bind))
    report.divergences.sort(key=lambda divergence: divergence[0])
    return report
