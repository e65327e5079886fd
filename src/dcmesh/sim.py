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
from dataclasses import dataclass, field, replace
from itertools import zip_longest

from . import splitter, zkp
from .dcnet import RoundCiphertext, make_ciphertext
from .errors import ConfigInvalid, MalformedRecord, ProtocolOrderViolation, WitnessMismatch
from .groups import SECURITY_LEVELS, GroupParams, derive_params
from .keysetup import (
    EPOCH_SLOTS,
    KeyGraph,
    KeyGraphPublic,
    RevealedCommitment,
    SignedRoot,
    build_key_graph,
)
from .splitter import (
    COLLISION,
    encode_slot,
    endorse_record,
    run_session,
    slot_fits,
)
from .transcript import Transcript, record, record_to_line, records_digest

DOMAIN_TAG = b"dc-mesh/v1"
# the transcript format this engine writes, and the only one it replays
FORMAT_VERSION = "v8"

# adversary strategies; wrong_branch doubles as its verdict reason code
BAD_PAD = "bad_pad"
WRONG_BRANCH = "wrong_branch"
DOUBLE_BRANCH = "double_branch"
MUTATE_MESSAGE = "mutate_message"
LATE_INJECTION = "late_injection"
BAD_SLOT_COUNT = "bad_slot_count"
REFUSE_SIGNATURE = "refuse_signature"
REFUSE_PROOF = "refuse_proof"

STRATEGIES = (
    BAD_PAD,
    WRONG_BRANCH,
    DOUBLE_BRANCH,
    MUTATE_MESSAGE,
    LATE_INJECTION,
    BAD_SLOT_COUNT,
    REFUSE_SIGNATURE,
    REFUSE_PROOF,
)

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


@dataclass(frozen=True)
class Scenario:
    n: int
    senders: tuple = ()        # ((participant, payload), ...)
    adversaries: tuple = ()    # ((participant, strategy), ...)
    seed: int = 0
    group: str = "test_medium"
    payload_bits: int = 8
    # read by nothing and not serialised: bench/workloads.py still passes max_retries=
    max_retries: int | None = field(default=None, compare=False)

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
    """Follows the protocol: pads every round, splits by the book,
    proves every non-root broadcast, answers every demand it can."""

    def __init__(self, params, view, payload, payload_bits, rng, session_tag):
        self.params = params
        self.view = view
        self.pid = view.pid
        self.payload = payload
        self.payload_bits = payload_bits
        self.rng = rng
        self.session_tag = session_tag

    def begin_session(self, tree):
        self.tree = tree
        self.broadcasts = {}
        self.blinds = {}
        self.slot_value = (
            None if self.payload is None else encode_slot(self.payload, self.payload_bits)
        )
        self.message_node = None if self.payload is None else 1

    # -- decisions ---------------------------------------------------------

    def _transmit_decision(self, round_id) -> bool:
        if round_id == 1:
            return self.message_node == 1
        parent_id = round_id // 2
        if self.message_node != parent_id:
            return False
        go_left = self._goes_left(self.tree.nodes[parent_id])
        self.message_node = round_id if go_left else round_id + 1
        return go_left

    def _goes_left(self, parent) -> bool:
        return self.payload < parent.threshold

    def _message_for(self, round_id):
        return self.slot_value if self._transmit_decision(round_id) else None

    # -- protocol surface ----------------------------------------------------

    def broadcast(self, round_id) -> RoundCiphertext:
        message = self._message_for(round_id)
        ct = make_ciphertext(self.view, round_id, message)
        self.broadcasts[round_id] = (ct.value, ct.commitment)
        self.blinds[round_id] = self.view.blind_sum(self.view.slot_of(round_id))
        if round_id != 1:
            ct = replace(ct, proof=self._wire(self._attach_proof(round_id, message is not None)))
        return ct

    def _attach_proof(self, round_id, retransmitted):
        return splitter.prove_retransmission(
            self.params,
            self.broadcasts,
            self.blinds,
            self.pid,
            round_id,
            retransmitted,
            self.rng,
            self.session_tag,
        )

    def respond_demand(self, node_id):
        return self._wire(self._denial_proof(node_id))

    def _denial_proof(self, node_id):
        try:
            return splitter.prove_node_denial(
                self.params,
                self.broadcasts,
                self.blinds,
                self.pid,
                node_id,
                self.rng,
                self.session_tag,
                self.tree.nodes[node_id].equal_payload,
            )
        except WitnessMismatch:
            return None

    def _wire(self, proof):
        """A proof as broadcast: hex text, or None when withheld."""
        return None if proof is None else zkp.proof_to_bytes(self.params, proof).hex()

    def publish_pairs(self, slot):
        return self.view.published_pairs(slot)


class _ForgingAdversary(HonestParticipant):
    """Shared adversary plumbing: when no witness exists for a proof
    obligation, emit a well-shaped forgery instead of staying silent."""

    def _attach_proof(self, round_id, retransmitted):
        for branch_retransmitted in (retransmitted, not retransmitted):
            try:
                return super()._attach_proof(round_id, branch_retransmitted)
            except WitnessMismatch:
                continue
        stmt = splitter.retransmission_statement(
            self.params, self.broadcasts, self.pid, round_id, self.session_tag
        )
        return zkp.forge_attempt(self.params, stmt, self.rng)

    def _denial_proof(self, node_id):
        proof = super()._denial_proof(node_id)
        if proof is None:
            stmt = splitter.denial_statement(
                self.params,
                self.broadcasts,
                self.pid,
                node_id,
                self.session_tag,
                self.tree.nodes[node_id].equal_payload,
            )
            proof = zkp.forge_attempt(self.params, stmt, self.rng)
        return proof


class BadPadParticipant(_ForgingAdversary):
    """Shifts one pad in the first round without fixing the commitment
    product, so the round's validity check fails."""

    def broadcast(self, round_id):
        ct = super().broadcast(round_id)
        if round_id == 1:
            tampered_value = ((ct.value[0] + 1) % self.params.q, ct.value[1])
            tampered_commitment = ct.commitment * self.params.g % self.params.p
            self.broadcasts[round_id] = (tampered_value, tampered_commitment)
            ct = replace(ct, value=tampered_value, commitment=tampered_commitment)
        return ct


class WrongBranchParticipant(_ForgingAdversary):
    """Retransmits its message against every split rule."""

    def _goes_left(self, parent):
        return not super()._goes_left(parent)


class DoubleBranchParticipant(_ForgingAdversary):
    """Behaves honestly for its own path, then re-injects a copy of its
    message into the first split of a collision it is not part of."""

    def begin_session(self, *args):
        super().begin_session(*args)
        self.injected = False

    def _message_for(self, round_id):
        parent_id = round_id // 2
        if (
            round_id != 1
            and not self.injected
            and self.slot_value is not None
            and self.message_node != parent_id
            and self.tree.nodes[parent_id].status == COLLISION
        ):
            self.injected = True
            return self.slot_value
        return super()._message_for(round_id)


class MutateMessageParticipant(_ForgingAdversary):
    """Retransmits a shifted message instead of the one it sent, at the
    first split of its message's node, whichever side the message
    belongs on."""

    def begin_session(self, *args):
        super().begin_session(*args)
        self.mutated = False

    def _message_for(self, round_id):
        message = super()._message_for(round_id)
        # _transmit_decision has just moved the message to one of this round's nodes
        if round_id != 1 and not self.mutated and self.message_node in (round_id, round_id + 1):
            self.mutated = True
            message = (self.slot_value[0], (self.slot_value[1] + 1) % self.params.q)
        return message


class LateInjectionParticipant(_ForgingAdversary):
    """Starts silent, then injects a fresh message mid-tree, where no
    new message may enter."""

    def __init__(self, *args):
        super().__init__(*args)
        self.inject_payload = self.rng.randrange(1 << self.payload_bits)

    def begin_session(self, *args):
        super().begin_session(*args)
        self.injected = False

    def _message_for(self, round_id):
        if round_id != 1 and not self.injected:
            self.injected = True
            return encode_slot(self.inject_payload, self.payload_bits)
        return super()._message_for(round_id)


class BadSlotCountParticipant(_ForgingAdversary):
    """Sends an initial slot claiming two messages instead of one."""

    def begin_session(self, *args):
        super().begin_session(*args)
        self.slot_value = (2, self.payload)


class RefuseProofParticipant(HonestParticipant):
    """Participates but withholds every proof obligation."""

    def _attach_proof(self, round_id, retransmitted):
        return None

    def respond_demand(self, node_id):
        return None


class RefuseSignatureParticipant(HonestParticipant):
    """Opts out of key setup (handled at graph construction); otherwise
    honest, with all-zero pads on its edges."""


_STRATEGY_CLASSES = {
    BAD_PAD: BadPadParticipant,
    WRONG_BRANCH: WrongBranchParticipant,
    DOUBLE_BRANCH: DoubleBranchParticipant,
    MUTATE_MESSAGE: MutateMessageParticipant,
    LATE_INJECTION: LateInjectionParticipant,
    BAD_SLOT_COUNT: BadSlotCountParticipant,
    REFUSE_SIGNATURE: RefuseSignatureParticipant,
    REFUSE_PROOF: RefuseProofParticipant,
}


# ---------------------------------------------------------------------------
# scenario execution


def _session_tag(scenario_digest: str, session: int) -> bytes:
    return b"dcmesh|" + scenario_digest.encode()[:16] + b"|s%d" % session


def _build_participants(params, scenario, graph, active, pending, session_tag):
    strategy_of = dict(scenario.adversaries)
    participants = []
    for pid in sorted(active):
        cls = _STRATEGY_CLASSES.get(strategy_of.get(pid), HonestParticipant)
        participants.append(
            cls(
                params,
                graph.view(pid),
                pending.get(pid),
                scenario.payload_bits,
                fork_rng(scenario.seed, "participant", pid),
                session_tag,
            )
        )
    return participants


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


def _header(params, config):
    """The transcript header for a group and a CONFIG record."""
    header = [
        record("DCMESH", version=FORMAT_VERSION, hash="sha256"),
        record(
            "GROUP",
            name=params.name,
            p=params.p,
            q=params.q,
            generators=",".join(str(x) for x in params.generators),
            tag=params.domain_tag.hex(),
        ),
        config,
    ]
    header.append(record("HEADEREND", digest=records_digest(header)))
    return header


def _session_head(session, public: KeyGraphPublic, epochs: int):
    """The SESSION record followed by the session's key records; its
    budget is the slots endorsed over the session's ``epochs``."""
    key_records = _key_records(session, public)
    head = record(
        "SESSION",
        idx=session,
        active=",".join(str(pid) for pid in public.participants),
        budget=EPOCH_SLOTS * epochs,
        keys=records_digest(key_records),
    )
    return [head] + key_records


def _summary(outcomes, body):
    """The closing SUMMARY: session totals and the digest of the body before it."""
    return record(
        "SUMMARY",
        sessions=len(outcomes),
        delivered=sum(len(o.resolved) for o in outcomes),
        transmitted=sum(o.transmitted for o in outcomes),
        proofs_checked=sum(o.proofs_checked for o in outcomes),
        proofs_failed=sum(o.proofs_failed for o in outcomes),
        verdicts=sum(len(o.verdicts) for o in outcomes),
        bind=records_digest(body),
    )


@dataclass
class _Participants:
    """The judge's source in a live run: the participants, in pid order,
    and the session's key graph, which endorses epoch k from its own
    stream of the scenario seed.  Its sink is a plain list."""

    participants: list
    graph: KeyGraph
    seed: int
    session: int
    records: list = field(default_factory=list)

    def begin(self, tree):
        for p in self.participants:
            p.begin_session(tree)

    def epoch(self, k):
        self.graph.add_epoch(fork_rng(self.seed, "keys", self.session, k))
        return self.graph.epochs[k].signed

    def broadcast(self, round_id):
        return [p.broadcast(round_id) for p in self.participants]

    def publish(self, slot):
        return {p.pid: p.publish_pairs(slot) for p in self.participants}

    def respond(self, node_id):
        return [(p.pid, p.respond_demand(node_id)) for p in self.participants]


def _play_session(params, scenario, active, pending, session, session_tag):
    """Key setup, participants and the judge for one session."""
    refusers = {pid for pid, strategy in scenario.adversaries if strategy == REFUSE_SIGNATURE}
    graph = build_key_graph(
        params,
        active,
        fork_rng(scenario.seed, "keys", session),
        refusers=refusers & set(active),
    )
    public = graph.public()
    participants = _build_participants(params, scenario, graph, active, pending, session_tag)
    outcome = run_session(
        params,
        public,
        scenario.payload_bits,
        session,
        session_tag,
        _Participants(participants, graph, scenario.seed, session),
    )
    return public, outcome


def run_scenario(scenario: Scenario) -> Transcript:
    """Execute a scenario to completion and return its transcript.

    Sessions repeat, banning every flagged disruptor, until all honest
    pending messages have been delivered (or no progress is possible,
    which scripted strategies never cause).
    """
    scenario.validate()
    params = derive_params(scenario.group, DOMAIN_TAG)
    digest = scenario.digest()
    header = _header(
        params,
        record(
            "CONFIG",
            n=scenario.n,
            payload_bits=scenario.payload_bits,
            scenario=digest,
        ),
    )

    active = list(range(scenario.n))
    pending = dict(scenario.senders)
    body = []
    outcomes = []

    while True:
        session = len(outcomes) + 1
        public, outcome = _play_session(
            params, scenario, active, pending, session, _session_tag(digest, session)
        )
        body.extend(_session_head(session, public, outcome.epochs))
        body.extend(outcome.records)
        outcomes.append(outcome)

        resolved_counts = Counter(payload for _, payload in outcome.resolved)
        for pid in sorted(pending):
            payload = pending[pid]
            if resolved_counts.get(payload, 0) > 0:
                resolved_counts[payload] -= 1
                del pending[pid]
        banned = {v.participant for v in outcome.verdicts}
        active = [pid for pid in active if pid not in banned]
        for pid in banned:
            pending.pop(pid, None)

        if not pending or not banned or session > scenario.n:
            break

    body.append(_summary(outcomes, body))
    return Transcript(header=header, records=body)


def single_session(senders, adversaries=(), seed=0, *, n=None, group="test_medium",
                   payload_bits=8):
    """Run one collision resolution session (no bans, no restarts)."""
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
    _, outcome = _play_session(
        params, scenario, list(range(n)), dict(senders), 1, b"dcmesh|adhoc|s1"
    )
    return outcome


# ---------------------------------------------------------------------------
# independent transcript verification


@dataclass
class VerificationReport:
    divergences: list = field(default_factory=list)  # (record_index, message)

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
    for is reported, and ProtocolOrderViolation stops the judge."""

    def __init__(self, params, pids, recorded, index, report):
        self.params = params
        self.pids = pids
        self.recorded = recorded
        self.index = index   # transcript index of recorded[0]
        self.report = report
        self.at = self.read = 0   # the cursor; inputs are read from it on
        self.records = self
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

    def begin(self, tree):
        pass

    def epoch(self, k):
        return tuple(self._signed_root(k, pid) for pid in self.pids)

    def broadcast(self, round_id):
        cts = []
        for pid in self.pids:
            rec = self._input("CIPHER", round=round_id, part=pid)
            if not self.params.is_element(rec["c"]):
                message = f"CIPHER c of {pid} not in the group"
                raise MalformedRecord(self.index + self.read - 1, message)
            value = (rec["O_count"] % self.params.q, rec["O_total"] % self.params.q)
            cts.append(RoundCiphertext(pid, round_id, value, rec["c"], _proof(rec)))
        return cts

    def publish(self, slot):
        # every participant publishes, if only the empty set of a participant
        # whose edges are all opted out; the PUBLISH records run at the cursor
        published = {pid: {} for pid in self.pids}
        for rec in self.recorded[self.at :]:
            if rec["type"] != "PUBLISH" or rec["slot"] != slot or rec["part"] not in published:
                break
            published[rec["part"]][rec["peer"]] = RevealedCommitment(rec["c"], rec["path"])
        return published

    def respond(self, node_id):
        return [(pid, _proof(self._input("DEMAND", node=node_id, part=pid))) for pid in self.pids]


def _proof(rec):
    return None if rec["proof"] == "-" else rec["proof"]


def _line(rec) -> str:
    return "(none)" if rec is None else record_to_line(rec)


def _check_header(header, report):
    """Group parameters and CONFIG of a header; reports each header record that differs."""
    types = [r["type"] for r in header]
    if "GROUP" not in types or "CONFIG" not in types:
        raise MalformedRecord(len(header) - 1, "incomplete header")
    if header[0].get("version") != FORMAT_VERSION:
        raise MalformedRecord(0, f"not a format {FORMAT_VERSION} transcript")
    group = header[types.index("GROUP")]
    try:
        # a GROUP record's fields are GroupParams.to_text's, in its layout
        params = GroupParams.from_text(record_to_line(group).partition(" ")[2])
    except (ValueError, KeyError) as exc:
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
    stops there.  Raises MalformedRecord only for what cannot be parsed
    or checked: the header, its format version and group, a CONFIG n
    the body cannot hold, a missing SUMMARY or opening SESSION record,
    and, at its own index, a PUBKEY y outside [1, p), an ENDORSE root
    that is not hex or whose signature does not verify under the
    participant's PUBKEY, or a CIPHER c outside the group.
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
        try:
            replay = _Replay(params, active, body[start + 1 : end], index + 1, report)
            outcome = run_session(
                params,
                replay.public,
                config["payload_bits"],
                session,
                _session_tag(config["scenario"], session),
                replay,
            )
        except (ProtocolOrderViolation, ValueError, OverflowError) as exc:
            if isinstance(exc, ProtocolOrderViolation) and not report.clean:
                break   # the replay's stop; the judge's own order check reports nothing
            raise MalformedRecord(index, f"unreplayable session: {exc}") from exc
        for _ in range(len(replay.recorded) - replay.at):   # recorded, never emitted
            replay.append(None)
        for offset, rec in enumerate(_session_head(session, replay.public, outcome.epochs)):
            report.compare(index + offset, body[start + offset], rec)
        outcomes.append(outcome)
        banned = {v.participant for v in outcome.verdicts}
        active = [pid for pid in active if pid not in banned]
    else:
        report.compare(base + len(body) - 1, body[-1], _summary(outcomes, body[:-1]))
    report.divergences.sort(key=lambda divergence: divergence[0])
    return report
