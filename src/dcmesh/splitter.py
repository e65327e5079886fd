"""Verifiable superposed receiving: tree-based collision resolution.

A message x travels as the slot (1, x), a pair of scalars, and
colliding slots add componentwise mod q, so an aggregate reads
(count, total) directly: how many messages collided and what their
payloads sum to.  A collision observed in round k is split over rounds
2k and 2k+1: holders of payloads below the collision's average
retransmit in round 2k, the rest do nothing, and round 2k+1 is never
transmitted -- its aggregate is inferred as C(k) - C(2k).  That
inference gives one delivered message per transmitted round when all
payloads are distinct.

Every node carries the interval [lo, hi) its honest payloads lie in:
[0, 2^payload_bits) at the root, and a split at threshold t gives the
children [lo, c) and [c, hi), c being t clamped into [lo, hi].  An
honest payload goes left exactly when it is below t, so it stays
inside the interval of every node it reaches.

When the payloads at a collision are all equal, the split is
degenerate: round 2k comes back empty and the inferred node 2k+1 holds
(count, count * x), where x is the average and the node's lo.  The
judge then asks every participant to prove that its context there is
empty or exactly one copy (1, lo), and delivers lo count times when
every proof verifies.  A lone failed proof is blamed: the verified
contexts leave the failer the share (c, c * lo), which an honest
context of at most one message passes with.  At a node one value wide
every failer is blamed, since an honest context there is empty or
(1, lo).

Every participant broadcasts in every transmitted round and proves,
for every non-root round, that the new broadcast either carries no
message or repeats exactly the message content of the nearest
transmitted ancestor context.  Only the judge keeps target maps, one
no-message target per participant and tree node, built from the
public broadcasts; it builds every statement from them once, hands
each participant its statement to prove, and checks a round's proofs,
or a DEMAND round's, in one call.  A split that survives those
proofs but is inconsistent -- the children's counts do not add up to
the parent's, or one side is empty -- comes from a malformed slot.
Its colliding children, and an equal-payload node where two or more
proofs fail, are split at the midpoint (lo + hi) // 2 of their
interval instead of the average, and a midpoint node whose interval
holds at most one value becomes an equal-payload node.  A delivered
payload outside its leaf's interval, against an ancestor's split or
outside [0, 2^payload_bits), is found by the wrong-branch audit, and
blame is assigned by demanding no-message proofs at the offending leaf.

The proofs bound a session's length.  Call a participant's first-round
slot its unit: the proofs make every unit travel down the tree whole,
so a split either separates the units at its node, at most n - 1
times in a session of n participants, or sends them all one way.  Such
a split is inconsistent, so a chain of them under one set of units
holds at most one split at the average, and then midpoint splits, each
of which halves the interval, until it holds at most one value: at
most payload_bits of them.  A chain hangs below the root and below
each side of a separating split, at most 2n - 1 places, and every
transmitted round after the first is one split, so a session transmits
at most n + (2n - 1)(payload_bits + 1) rounds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from . import zkp
from .dcnet import (
    INVALID_PROOF,
    NON_COOPERATION,
    UNEQUAL_PAYLOAD,
    WRONG_BRANCH,
    RoundResult,
    aggregate_round,
    investigate,
)
from .errors import (
    NotACollision,
    PayloadOverflow,
    ProtocolOrderViolation,
)
from .groups import GroupParams, value_term
from .keysetup import EPOCH_SLOTS
from .transcript import record

# node statuses
PENDING = "pending"
EMPTY = "empty"
RESOLVED = "resolved"
COLLISION = "collision"
EQUAL = "equal"   # a degenerate split's collision of equal payloads


# ---------------------------------------------------------------------------
# slot encoding


def encode_slot(payload: int, payload_bits: int) -> tuple[int, int]:
    """The slot (1, payload) of a single message."""
    if not 0 <= payload < (1 << payload_bits):
        raise PayloadOverflow(f"payload {payload} needs more than {payload_bits} bits")
    return (1, payload)


def slot_fits(count: int, payload_bits: int, q: int) -> bool:
    """Configuration guard: ``count`` messages of ``payload_bits`` bits fit below q.

    Their total needs only count * (2^payload_bits - 1) < q; the bound
    checked is about twice that, the one configurations have always
    been validated against.
    """
    return count * (1 << payload_bits) + count * ((1 << payload_bits) - 1) < q


def threshold(count: int, total: int) -> int:
    """Split point of a collision: payloads strictly below it go left.

    This is the average rounded up, which makes "payload < threshold"
    coincide with "payload < total/count" for integers, so any
    collision holding two distinct payloads always separates.
    """
    if count < 2:
        raise NotACollision(f"count {count} is not a collision")
    return -(-total // count)


# ---------------------------------------------------------------------------
# the resolution tree


@dataclass
class TreeNode:
    round_id: int
    lo: int                   # the node's honest payloads lie in [lo, hi)
    hi: int
    aggregate: tuple[int, int] | None = None
    count: int | None = None
    total: int | None = None
    status: str = PENDING
    threshold: int | None = None
    midpoint: bool = False    # split at the interval's midpoint, not the average

    @property
    def kind(self) -> str:
        return "transmitted" if self.round_id == 1 or self.round_id % 2 == 0 else "inferred"

    @property
    def equal_payload(self) -> int | None:
        """The payload every message at an equal-payload node carries."""
        return self.lo if self.status == EQUAL else None


class ResolutionTree:
    """Shared public state of one collision resolution session.

    Children of node k are 2k (transmitted) and 2k+1 (inferred), the
    frontier of pending transmitted rounds is processed in increasing
    round id, and no new message may enter until the tree is done.
    """

    def __init__(self, q: int, payload_bits: int):
        self.q = q
        self.nodes: dict[int, TreeNode] = {1: TreeNode(1, 0, 1 << payload_bits)}
        self._frontier = [1]
        self.transmitted_order: list[int] = []
        self.resolved: list[tuple[int, int]] = []   # (node_id, payload)
        self._touched: list[int] = []

    def next_round(self) -> int | None:
        return self._frontier[0] if self._frontier else None

    @property
    def done(self) -> bool:
        return not self._frontier

    def advance(self, result: RoundResult) -> list[int]:
        """Fold one transmitted round into the tree.

        Returns the ids of nodes whose classification changed, in
        increasing order (used for transcript emission and replay).
        """
        if not self._frontier or result.round_id != self._frontier[0]:
            raise ProtocolOrderViolation(
                f"round {result.round_id} is not next (expected {self.next_round()})"
            )
        heapq.heappop(self._frontier)
        self._touched = []
        rid = result.round_id
        node = self.nodes[rid]
        node.aggregate = result.aggregate
        self.transmitted_order.append(rid)
        self._classify(node)
        if rid == 1:
            if node.status == COLLISION:
                self._schedule_split(node)
        else:
            parent = self.nodes[rid // 2]
            sibling = self.nodes[rid + 1]
            sibling.aggregate = tuple(
                (a - b) % self.q for a, b in zip(parent.aggregate, node.aggregate)
            )
            self._classify(sibling)
            self._check_split(parent, node, sibling)
        return sorted(set(self._touched))

    def _classify(self, node: TreeNode) -> None:
        node.count, node.total = node.aggregate
        if node.count == 0:
            node.status = EMPTY
        elif node.count == 1:
            node.status = RESOLVED
            self.resolved.append((node.round_id, node.total))
        else:
            node.status = COLLISION
        self._touched.append(node.round_id)

    def _schedule_split(self, node: TreeNode) -> None:
        if node.midpoint:
            node.threshold = (node.lo + node.hi) // 2
        else:
            node.threshold = threshold(node.count, node.total)
        cut = min(max(node.threshold, node.lo), node.hi)
        left = TreeNode(2 * node.round_id, node.lo, cut)
        right = TreeNode(2 * node.round_id + 1, cut, node.hi)
        self.nodes[left.round_id] = left
        self.nodes[right.round_id] = right
        heapq.heappush(self._frontier, left.round_id)

    def _check_split(self, parent: TreeNode, left: TreeNode, right: TreeNode) -> None:
        clean = (
            left.count + right.count == parent.count
            and left.count > 0
            and right.count > 0
        )
        if (
            not parent.midpoint
            and left.aggregate == (0, 0)
            and right.total == right.count * parent.threshold
        ):
            # every message went right and all sit at the average: equal
            # payloads, which no split separates; the judge checks them
            right.status = EQUAL
            return
        for child in (left, right):
            if child.status != COLLISION:
                continue
            # a collision that an inconsistent split left behind holds a
            # malformed slot: bisect its interval down to a single value
            child.midpoint = not clean
            if child.midpoint and child.hi - child.lo <= 1:
                child.status = EQUAL
            else:
                self._schedule_split(child)

    def deliver(self, node_id: int) -> None:
        """Resolve an equal-payload node: its payload, once per message."""
        node = self.nodes[node_id]
        self.resolved.extend([(node_id, node.equal_payload)] * node.count)

    def bisect(self, node_id: int) -> None:
        """Split an equal-payload node whose check failed at its midpoint."""
        node = self.nodes[node_id]
        node.status, node.midpoint = COLLISION, True
        self._schedule_split(node)

    def snapshot(self, node_id: int) -> dict:
        node = self.nodes[node_id]
        return record(
            "NODE",
            session=0,  # filled in by the caller
            id=node.round_id,
            kind=node.kind,
            count=node.count,
            total=node.total,
            status=node.status,
            threshold="-" if node.threshold is None else str(node.threshold),
        )


# ---------------------------------------------------------------------------
# the judge's target maps and the statements built from them
#
# ``targets`` maps participant id -> {node id: N}, N the no-message
# target g^-count * f^-total * gamma of the participant's context
# ((count, total), gamma) at the node, a power of h exactly when the
# context carries no message.  A transmitted node's context is its
# broadcast (O, c); an inferred node k's is its parent's less its
# sibling k - 1's, so N(k) = N(k // 2) * N(k - 1)^-1.  Only the judge
# keeps these maps; a participant keeps ``blinds``, mapping each node to
# the blinding sum of its context by the same rule, B(k) = B(k // 2) -
# B(k - 1): the witness of N(k), which it proves the judge's statements with.


def add_round(params: GroupParams, targets: dict, cts) -> None:
    """Add one transmitted round's ciphertexts to their participants'
    target maps, each with its inferred sibling's target after a split."""
    p = params.p
    fresh = zkp.no_message_targets(params, [(ct.value, ct.commitment) for ct in cts])
    for ct, target in zip(cts, fresh):
        nodes, rid = targets[ct.participant], ct.round_id
        nodes[rid] = target
        if rid != 1:
            nodes[rid + 1] = nodes[rid // 2] * pow(target, -1, p) % p


def add_blind(params: GroupParams, blinds: dict, round_id: int, blind: int) -> None:
    """Add a transmitted round's blinding sum to a participant's map,
    with its inferred sibling's after a split."""
    blinds[round_id] = blind
    if round_id != 1:
        blinds[round_id + 1] = (blinds[round_id // 2] - blind) % params.q


def retransmission_statement(
    nodes: dict, pid: int, round_id: int, session_tag: bytes
) -> zkp.OrStatement:
    """Either this broadcast carries nothing, N(r), or it repeats the
    parent context, N(r // 2) * N(r)^-1, which is N(r + 1).  A proof on
    branch 0 has witness B(r), on branch 1 B(r + 1)."""
    ctx = session_tag + b"|retrans|%d|%d" % (pid, round_id)
    return zkp.OrStatement(
        (zkp.RepStatement(nodes[round_id], ctx), zkp.RepStatement(nodes[round_id + 1], ctx))
    )


def denial_statement(
    params: GroupParams,
    nodes: dict,
    pid: int,
    node_id: int,
    session_tag: bytes,
    copy: int | None = None,
) -> zkp.OrStatement:
    """Claim that this participant's context at a node carries no
    message, N(k), or, where ``copy`` is an equal-payload node's payload
    x, no message or exactly the one slot (1, x), N(k) * g * f^x."""
    ctx = session_tag + b"|denial|%d|%d" % (pid, node_id)
    branches = [nodes[node_id]]
    if copy is not None:
        branches.append(branches[0] * value_term(params, (1, copy)) % params.p)
    return zkp.OrStatement(tuple(zkp.RepStatement(t, ctx) for t in branches))


def prove_node_denial(
    params: GroupParams, stmt: zkp.OrStatement, alpha: int, rng
) -> zkp.SigmaProof:
    """A proof of a :func:`denial_statement` with witness ``alpha``, the
    context's blinding sum, on the branch h^alpha is the target of;
    WitnessMismatch when it is none of them."""
    target = params.h_table.power(alpha)
    branch = next((i for i, b in enumerate(stmt.branches) if b.target == target), 0)
    return zkp.prove_or(params, stmt, branch, alpha, rng)


# ---------------------------------------------------------------------------
# the session judge


@dataclass(frozen=True)
class Verdict:
    participant: int
    reason: str
    where: str


@dataclass
class SessionOutcome:
    session: int
    resolved: list = field(default_factory=list)       # (node_id, payload) in order
    transmitted: int = 0
    verdicts: list = field(default_factory=list)
    records: list = field(default_factory=list)
    tree: ResolutionTree | None = None
    epochs: int = 1           # endorsement epochs the session used
    proofs_checked: int = 0
    proofs_failed: int = 0


def audit_wrong_branches(tree: ResolutionTree) -> list[int]:
    """Leaves whose payload lies outside their node's interval [lo, hi),
    which holds every honest payload that reaches the node.  Returns
    offending leaf node ids."""
    nodes = tree.nodes
    return [
        leaf_id
        for leaf_id, payload in tree.resolved
        if not nodes[leaf_id].lo <= payload < nodes[leaf_id].hi
    ]


def _read_proof(params: GroupParams, text: str | None) -> zkp.SigmaProof | None:
    """Decode a wire-form (hex) proof; None when there is none or the
    text is not a proof."""
    if text is None:
        return None
    try:
        return zkp.proof_from_bytes(params, bytes.fromhex(text))
    except ValueError:
        return None


def run_session(
    params: GroupParams,
    graph_public,
    payload_bits: int,
    session: int,
    session_tag: bytes,
    source,
) -> SessionOutcome:
    """Judge one collision resolution session, closed to new messages
    until its tree is done.

    The judge owns every session rule: round order, the validity check
    and the investigation after a failed one, retransmission proofs,
    the check of equal-payload nodes, the wrong-branch audit, verdicts
    and bans.  It alone keeps the session's target maps and builds every
    proof statement from them, once.  It emits every session record to
    ``source.records`` and reads only public data: the participant set,
    the opt-outs and epoch 0's signed roots come from ``graph_public``,
    and every protocol input from ``source``, which answers six calls:

    * ``begin(tree)``: the session starts on this tree;
    * ``epoch(k)``: the signed roots of endorsement epoch k, one
      SignedRoot per participant in participant order, asked for before
      the first round that spends one of its slots;
    * ``broadcast(round_id)``: one RoundCiphertext per participant, in
      participant order;
    * ``prove(round_id, statements)``: for a round after the first, one
      proof or None per participant, in participant order, of the
      participant's retransmission statement;
    * ``publish(slot)``: ``{pid: {peer: RevealedCommitment}}`` revealed
      for an investigation, paths in wire form;
    * ``respond(node_id, statements)``: one proof or None per
      participant, in participant order, of its denial statement: at an
      equal-payload node each denies a message or claims one copy of
      the node's payload.

    Proofs arrive in wire form (hex text) and are recorded as given.
    The simulator's source is the live participants and its sink a list,
    which becomes ``outcome.records``; the verifier's reads the same
    inputs back from a transcript and compares each record as it is emitted.
    """
    pids = list(graph_public.participants)
    tree = ResolutionTree(params.q, payload_bits)
    outcome = SessionOutcome(session=session, tree=tree, records=source.records)
    source.begin(tree)

    targets = {pid: {} for pid in pids}   # pid -> node -> no-message target
    demanded: set[int] = set()
    slot = 0
    aborted = False

    while not tree.done:
        rid = tree.next_round()
        if slot == EPOCH_SLOTS * len(graph_public.epochs):
            graph_public = _endorse_epoch(source, graph_public, session, outcome)
        outcome.records.append(record("ROUND", session=session, id=rid, slot=slot))
        cts = source.broadcast(rid)
        add_round(params, targets, cts)
        if rid == 1:   # the opening round carries no proof; none is asked for or recorded
            stmts, texts = [], [None] * len(cts)
        else:
            stmts = [
                retransmission_statement(targets[ct.participant], ct.participant, rid, session_tag)
                for ct in cts
            ]
            texts = source.prove(rid, stmts)
        for ct, text in zip(cts, texts):
            outcome.records.append(
                record(
                    "CIPHER",
                    session=session,
                    round=rid,
                    part=ct.participant,
                    O_count=ct.value[0],
                    O_total=ct.value[1],
                    c=ct.commitment,
                    proof="-" if text is None else text,
                )
            )
        result = aggregate_round(params, pids, cts)
        outcome.records.append(
            record(
                "AGGREGATE",
                session=session,
                round=rid,
                C_count=result.aggregate[0],
                C_total=result.aggregate[1],
                valid=int(result.valid),
            )
        )
        outcome.transmitted += 1

        if not result.valid:
            _run_investigation(params, source, graph_public, result, slot, session, outcome)
            aborted = True
            break

        if rid != 1:
            oks = _check_proofs(params, stmts, texts, outcome)
            for ct, text, ok in zip(cts, texts, oks):
                if not ok:
                    reason = NON_COOPERATION if text is None else INVALID_PROOF
                    outcome.verdicts.append(Verdict(ct.participant, reason, f"round:{rid}"))
            if not all(oks):
                aborted = True
                break

        touched = tree.advance(result)
        _emit_nodes(tree, touched, session, outcome)
        slot += 1

        for node_id in touched:
            node = tree.nodes[node_id]
            if node.status != EQUAL:
                continue
            demanded.add(node_id)
            copy = node.equal_payload
            failed = _run_demand(
                params, source, targets, node_id, session, session_tag, outcome, copy
            )
            if not failed:
                tree.deliver(node_id)
                for _ in range(node.count):
                    outcome.records.append(
                        record("RESOLVED", session=session, node=node_id, payload=copy)
                    )
            elif len(failed) == 1 or node.hi - node.lo <= 1:
                _blame(outcome, failed, UNEQUAL_PAYLOAD, node_id)
            else:
                tree.bisect(node_id)
                _emit_nodes(tree, [node_id], session, outcome)

    if not aborted:
        for leaf_id in audit_wrong_branches(tree):
            if leaf_id in demanded:
                continue
            demanded.add(leaf_id)
            failed = _run_demand(params, source, targets, leaf_id, session, session_tag, outcome)
            _blame(outcome, failed, WRONG_BRANCH, leaf_id)

    outcome.resolved = list(tree.resolved)
    outcome.epochs = len(graph_public.epochs)
    for verdict in outcome.verdicts:
        outcome.records.append(
            record(
                "VERDICT",
                session=session,
                part=verdict.participant,
                reason=verdict.reason,
                where=verdict.where,
            )
        )
    for pid in sorted({v.participant for v in outcome.verdicts}):
        outcome.records.append(record("BAN", session=session, part=pid))
    return outcome


def endorse_record(session: int, epoch: int, signed) -> dict:
    """An ENDORSE record: one participant's signed root for the epoch."""
    return record(
        "ENDORSE",
        session=session,
        epoch=epoch,
        part=signed.part,
        root=signed.root.hex(),
        sig_e=signed.signature[0],
        sig_s=signed.signature[1],
    )


def _endorse_epoch(source, graph_public, session, outcome):
    """Take the next epoch's signed roots from the source and record them."""
    epoch = len(graph_public.epochs)
    signed = source.epoch(epoch)
    for s in signed:
        outcome.records.append(endorse_record(session, epoch, s))
    return graph_public.with_epoch(signed)


def _emit_nodes(tree, touched, session, outcome):
    for node_id in touched:
        snap = tree.snapshot(node_id)
        snap["session"] = session
        outcome.records.append(snap)
        node = tree.nodes[node_id]
        if node.status == RESOLVED:
            outcome.records.append(
                record("RESOLVED", session=session, node=node_id, payload=node.total)
            )


def _run_investigation(params, source, graph_public, result, slot, session, outcome):
    published = source.publish(slot)
    for pid in sorted(published):
        for peer, sc in sorted(published[pid].items()):
            outcome.records.append(
                record(
                    "PUBLISH",
                    session=session,
                    slot=slot,
                    part=pid,
                    peer=peer,
                    c=sc.commitment,
                    path=sc.path,
                )
            )
    blamed = investigate(params, result, slot, published, graph_public)
    cheaters = ",".join(f"{pid}:{'+'.join(reasons)}" for pid, reasons in blamed.items())
    outcome.records.append(
        record(
            "INVESTIGATION",
            session=session,
            round=result.round_id,
            cheaters=cheaters or "-",
        )
    )
    for pid, reasons in blamed.items():
        for reason in reasons:
            outcome.verdicts.append(Verdict(pid, reason, f"round:{result.round_id}"))


def _check_proofs(params, statements, texts, outcome) -> list[bool]:
    """One verdict per statement and its wire-form proof, counted in the outcome."""
    oks = zkp.verify_or(params, statements, [_read_proof(params, text) for text in texts])
    outcome.proofs_checked += len(oks)
    outcome.proofs_failed += oks.count(False)
    return oks


def _run_demand(params, source, targets, node_id, session, session_tag, outcome, copy=None):
    """Ask every participant to deny carrying a message at a node (or,
    where ``copy`` is an equal-payload node's payload, to carry nothing
    or that one copy); returns those whose proofs fail."""
    stmts = [
        denial_statement(params, nodes, pid, node_id, session_tag, copy)
        for pid, nodes in targets.items()
    ]
    texts = source.respond(node_id, stmts)
    oks = _check_proofs(params, stmts, texts, outcome)
    for pid, text, ok in zip(targets, texts, oks):
        outcome.records.append(
            record(
                "DEMAND",
                session=session,
                node=node_id,
                part=pid,
                ok=int(ok),
                proof="-" if text is None else text,
            )
        )
    return [pid for pid, ok in zip(targets, oks) if not ok]


def _blame(outcome, pids, reason, node_id):
    outcome.verdicts.extend(Verdict(pid, reason, f"node:{node_id}") for pid in pids)
