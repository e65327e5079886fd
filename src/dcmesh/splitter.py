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
transmitted ancestor context.  The judge is one :class:`Session`,
which holds a session's state, stamps every record it emits with the
session, and is the session's outcome.  Only the judge keeps target
maps, one no-message target per participant and tree node, built from
the public broadcasts; it builds every statement from them once, hands
each participant its statement to prove, and checks a round's proofs,
or a DEMAND round's, in one call.  A participant proves every
statement by one rule, :func:`prove_node_denial`: it lists the
(branch, witness) pairs it could prove, its true branch first, and
proves the first whose witness holds.  A split that survives those
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
from typing import NamedTuple

from . import zkp
from .dcnet import (
    INVALID_PROOF,
    NON_COOPERATION,
    UNEQUAL_PAYLOAD,
    WRONG_BRANCH,
    aggregate_round,
    investigate,
)
from .errors import NotACollision, PayloadOverflow, WitnessMismatch
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


class TreeNode:
    __slots__ = ("round_id", "lo", "hi", "count", "total", "status", "threshold", "midpoint")

    def __init__(self, round_id: int, lo: int, hi: int):
        self.round_id = round_id
        self.lo, self.hi = lo, hi   # the node's honest payloads lie in [lo, hi)
        self.count: int | None = None
        self.total: int | None = None
        self.status = PENDING
        self.threshold: int | None = None
        self.midpoint = False   # split at the interval's midpoint, not the average

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
    The tree alone names the next round; the judge transmits it and
    folds its aggregate back in.
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

    def advance(self, aggregate: tuple[int, int]) -> list[int]:
        """Fold the aggregate (count, total) of round ``next_round()``
        into the tree; after a split the inferred sibling holds the
        parent's less it, mod q.

        Returns the ids of nodes whose classification changed, in
        increasing order (used for transcript emission and replay).
        """
        rid = heapq.heappop(self._frontier)
        self._touched = []
        node = self.nodes[rid]
        self.transmitted_order.append(rid)
        self._classify(node, *aggregate)
        if rid == 1:
            if node.status == COLLISION:
                self._schedule_split(node)
        else:
            parent = self.nodes[rid // 2]
            sibling = self.nodes[rid + 1]
            self._classify(
                sibling, (parent.count - node.count) % self.q, (parent.total - node.total) % self.q
            )
            self._check_split(parent, node, sibling)
        return sorted(set(self._touched))

    def _classify(self, node: TreeNode, count: int, total: int) -> None:
        node.count, node.total = count, total
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
            and left.count == left.total == 0
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


def add_round(params: GroupParams, node_maps, rid: int, cts) -> None:
    """Add transmitted round ``rid``'s ciphertexts to their participants'
    target maps, each with its inferred sibling's target after a split.
    The judge names the round, and ``node_maps`` and ``cts`` pair up by
    position: one map and one ciphertext per participant, in participant
    order."""
    p = params.p
    fresh = zkp.no_message_targets(params, [(ct.value, ct.commitment) for ct in cts])
    for nodes, target in zip(node_maps, fresh):
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
    params: GroupParams, stmt: zkp.OrStatement, candidates, rng
) -> zkp.SigmaProof:
    """Any statement's proof, on the first of ``candidates``, (branch,
    blinding sum) pairs in the prover's order, whose witness holds; the
    other branches are simulated.  WitnessMismatch when none holds."""
    for branch, alpha in candidates:
        try:
            return zkp.prove_or(params, stmt, branch, alpha, rng)
        except WitnessMismatch:
            continue
    raise WitnessMismatch("no candidate witness satisfies its branch")


# ---------------------------------------------------------------------------
# the session judge


class Verdict(NamedTuple):
    participant: int
    reason: str
    where: str


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
    """Decode a wire-form (lowercase hex) proof; None when there is none
    or the text is not a proof's one spelling."""
    if text is None:
        return None
    try:
        raw = bytes.fromhex(text)
        return zkp.proof_from_bytes(params, raw) if raw.hex() == text else None
    except ValueError:
        return None


def run_session(
    params: GroupParams,
    graph_public,
    tree: ResolutionTree,
    session: int,
    session_tag: bytes,
    source,
) -> Session:
    """Judge one collision resolution session on ``tree``, new from the
    caller, closed to new messages until it is done, and return the
    :class:`Session` that judged it.

    The judge owns every session rule: round order, the slot schedule,
    the validity check and the investigation after a failed one,
    retransmission proofs, the check of equal-payload nodes, the
    wrong-branch audit, verdicts and bans.  Slots start at 0 and each
    transmitted round takes the next one, once; an epoch is endorsed
    before its first slot is handed out.  The judge alone keeps the
    session's target maps and builds every proof statement from them,
    once.  It emits every session record to ``source.records`` and
    reads only public data: the participant set, the opt-outs and epoch
    0's signed roots come from ``graph_public``, and every protocol
    input from ``source``, which answers five calls:

    * ``epoch(k)``: the signed roots of endorsement epoch k, one
      SignedRoot per participant in participant order, asked for before
      the first round that spends one of its slots;
    * ``broadcast(round_id, slot)``: one RoundCiphertext per
      participant, padded with the slot's secrets, in a list whose
      position is the participant: a ciphertext names neither its
      sender nor its round, which the judge knows;
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
    The simulator's source is the live participants, which read the
    same ``tree``, and its sink a list, which becomes the session's
    ``records``; the verifier's reads the same inputs back from a
    transcript and compares each record as it is emitted.
    """
    return Session(params, graph_public, tree, session, session_tag, source).run()


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


class Session:
    """One session's judge, and its outcome once :meth:`run` returns."""

    def __init__(self, params, graph_public, tree, session, session_tag, source):
        self.params = params
        self.tree = tree
        self.session = session
        self.tag = session_tag
        self.source = source
        self.records = source.records   # the source's sink
        self.pids = list(graph_public.participants)
        self.targets = {pid: {} for pid in self.pids}   # pid -> node -> no-message target
        self.public = graph_public   # the key material, with every epoch endorsed so far
        # the outcome: verdicts, deliveries (node_id, payload) in order, and counts
        self.verdicts = []
        self.resolved = tree.resolved
        self.transmitted = self.proofs_checked = self.proofs_failed = 0

    def emit(self, rtype: str, **fields) -> None:
        """Append a record of this session to the sink."""
        self.records.append({"type": rtype, "session": self.session, **fields})

    def run(self) -> Session:
        tree, pids, source = self.tree, self.pids, self.source
        while not tree.done:
            rid, slot = tree.next_round(), self.transmitted
            if slot == EPOCH_SLOTS * len(self.public.epochs):
                self._endorse()
            self.emit("ROUND", id=rid, slot=slot)
            cts = source.broadcast(rid, slot)
            add_round(self.params, self.targets.values(), rid, cts)
            if rid == 1:   # the opening round carries no proof; none is asked for or recorded
                stmts, texts = [], [None] * len(pids)
            else:
                stmts = [
                    retransmission_statement(self.targets[pid], pid, rid, self.tag) for pid in pids
                ]
                texts = source.prove(rid, stmts)
            for pid, ct, text in zip(pids, cts, texts):
                self.emit(
                    "CIPHER",
                    round=rid,
                    part=pid,
                    O_count=ct.value[0],
                    O_total=ct.value[1],
                    c=ct.commitment,
                    proof="-" if text is None else text,
                )
            aggregate, valid = aggregate_round(self.params, cts)
            self.emit(
                "AGGREGATE", round=rid, C_count=aggregate[0], C_total=aggregate[1], valid=int(valid)
            )
            self.transmitted += 1

            if not valid:
                self._investigate(rid, slot, cts)
                break

            if rid != 1:
                oks = self._check_proofs(stmts, texts)
                for pid, text, ok in zip(pids, texts, oks):
                    if not ok:
                        reason = NON_COOPERATION if text is None else INVALID_PROOF
                        self.verdicts.append(Verdict(pid, reason, f"round:{rid}"))
                if not all(oks):
                    break

            touched = tree.advance(aggregate)
            self._emit_nodes(touched)

            for node_id in touched:
                node = tree.nodes[node_id]
                if node.status != EQUAL:
                    continue
                failed = self._demand(node_id, node.equal_payload)
                if not failed:
                    tree.deliver(node_id)
                    for _ in range(node.count):
                        self.emit("RESOLVED", node=node_id, payload=node.equal_payload)
                elif len(failed) == 1 or node.hi - node.lo <= 1:
                    self._blame(failed, UNEQUAL_PAYLOAD, node_id)
                else:
                    tree.bisect(node_id)
                    self._emit_nodes([node_id])
        else:   # a session that ran to its end is audited
            for leaf_id in audit_wrong_branches(tree):
                # a leaf is resolved once, or is an equal-payload node, checked already
                if tree.nodes[leaf_id].status != EQUAL:
                    self._blame(self._demand(leaf_id), WRONG_BRANCH, leaf_id)

        for verdict in self.verdicts:
            self.emit(
                "VERDICT", part=verdict.participant, reason=verdict.reason, where=verdict.where
            )
        for pid in sorted({v.participant for v in self.verdicts}):
            self.emit("BAN", part=pid)
        # the outcome outlives the session: drop the participants, key graph and targets
        self.source = self.targets = None
        return self

    def _endorse(self) -> None:
        """Take the next epoch's signed roots from the source and record them."""
        epoch = len(self.public.epochs)
        signed = self.source.epoch(epoch)
        for s in signed:
            self.records.append(endorse_record(self.session, epoch, s))
        self.public = self.public.with_epoch(signed)

    def _emit_nodes(self, touched) -> None:
        for node_id in touched:
            node = self.tree.nodes[node_id]
            self.emit(
                "NODE",
                id=node.round_id,
                kind=node.kind,
                count=node.count,
                total=node.total,
                status=node.status,
                threshold="-" if node.threshold is None else str(node.threshold),
            )
            if node.status == RESOLVED:
                self.emit("RESOLVED", node=node_id, payload=node.total)

    def _investigate(self, rid, slot, cts) -> None:
        published = self.source.publish(slot)
        for pid in sorted(published):
            for peer, sc in sorted(published[pid].items()):
                self.emit("PUBLISH", slot=slot, part=pid, peer=peer, c=sc.commitment, path=sc.path)
        blamed = investigate(self.params, cts, slot, published, self.public)
        cheaters = ",".join(f"{pid}:{'+'.join(reasons)}" for pid, reasons in blamed.items())
        self.emit("INVESTIGATION", round=rid, cheaters=cheaters or "-")
        for pid, reasons in blamed.items():
            self.verdicts.extend(Verdict(pid, reason, f"round:{rid}") for reason in reasons)

    def _check_proofs(self, statements, texts) -> list[bool]:
        """One verdict per statement and its wire-form proof, counted in the outcome."""
        proofs = [_read_proof(self.params, text) for text in texts]
        oks = zkp.verify_or(self.params, statements, proofs)
        self.proofs_checked += len(oks)
        self.proofs_failed += oks.count(False)
        return oks

    def _demand(self, node_id, copy=None) -> list[int]:
        """Ask every participant to deny carrying a message at a node (or,
        where ``copy`` is an equal-payload node's payload, to carry nothing
        or that one copy); returns those whose proofs fail."""
        stmts = [
            denial_statement(self.params, nodes, pid, node_id, self.tag, copy)
            for pid, nodes in self.targets.items()
        ]
        texts = self.source.respond(node_id, stmts)
        oks = self._check_proofs(stmts, texts)
        for pid, text, ok in zip(self.pids, texts, oks):
            proof = "-" if text is None else text
            self.emit("DEMAND", node=node_id, part=pid, ok=int(ok), proof=proof)
        return [pid for pid, ok in zip(self.pids, oks) if not ok]

    def _blame(self, pids, reason, node_id) -> None:
        self.verdicts.extend(Verdict(pid, reason, f"node:{node_id}") for pid in pids)
