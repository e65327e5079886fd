"""Pairwise secret establishment and mutual commitment endorsement.

Each unordered pair of participants shares, per slot, a key and a
blinding value; the reverse direction holds the negations so all pads
cancel in a round sum, and its commitments, from hi to lo, are the
inverses of the lo -> hi ones.  Slots are endorsed in epochs of
``EPOCH_SLOTS``: each direction's commitments for an epoch are the
leaves of a Merkle tree whose root the counterparty signs once, bound
to the epoch; a commitment revealed with its inclusion path is endorsed
by that one signature, which is what later lets an investigation pin
blame.  Epoch 0 is built with the graph and later epochs on demand,
over the same edges and signing keys.  A participant may refuse to
share a secret with a peer; the edge is then publicly marked opted out
and contributes zero pads and identity commitments.

An epoch is set up one participant row at a time: the edges from a
participant to its higher peers go through each stage together, the
secrets drawn in one loop, the commitments made with
``WindowTable.powers``, their inverses with ``groups.invert_all`` and
the Merkle trees with one ``merkle.build_tree``.  A participant's view
sums each epoch once: its pad and blinding sums and its aggregate
commitment for every slot of the epoch.

Secrets travel over ideal channels here: the builder simply hands both
endpoints the same values.  Key agreement protocols are out of scope.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import merkle
from .errors import RoundBudgetExhausted
from .groups import GroupParams, commit, invert_all

# slots per endorsement epoch: one Merkle root, and one signature, per
# edge direction and epoch; fits the median session of every bench
# workload in epoch 0
EPOCH_SLOTS = 16


# ---------------------------------------------------------------------------
# Schnorr signatures over the same group (one keypair per participant)


@dataclass(frozen=True)
class SigningKey:
    secret: int
    public: int


def gen_signing_key(params: GroupParams, rng) -> SigningKey:
    x = rng.randrange(1, params.q)
    return SigningKey(secret=x, public=params.g_table.power(x))


def _sig_challenge(params, public, nonce_point, message) -> int:
    h = hashlib.sha256()
    h.update(b"dcmesh/sig/v1")
    h.update(params.domain_tag)
    h.update(params.element_to_bytes(public))
    h.update(params.element_to_bytes(nonce_point))
    h.update(len(message).to_bytes(4, "big"))
    h.update(message)
    return int.from_bytes(h.digest(), "big") % params.q


def sign(params: GroupParams, key: SigningKey, message: bytes) -> tuple[int, int]:
    # deterministic nonce keeps the whole setup reproducible from a seed
    nonce_material = hashlib.sha256(
        b"dcmesh/nonce" + params.scalar_to_bytes(key.secret) + message
    ).digest()
    k = int.from_bytes(nonce_material, "big") % params.q
    nonce_point = params.g_table.power(k)
    e = _sig_challenge(params, key.public, nonce_point, message)
    s = (k + e * key.secret) % params.q
    return (e, s)


def verify_sig(params: GroupParams, public: int, message: bytes, signature) -> bool:
    try:
        e, s = signature
    except (TypeError, ValueError):
        return False
    if not (0 <= e < params.q and 0 <= s < params.q):
        return False
    q, p = params.q, params.p
    nonce_point = params.g_table.power(s) * pow(public, (q - e) % q, p) % p
    return _sig_challenge(params, public, nonce_point, message) == e


# ---------------------------------------------------------------------------
# pairwise secrets


class RoundSecret(NamedTuple):
    key: int
    blind: int


@dataclass(frozen=True)
class PairwiseSecret:
    """One epoch's per-slot keys and blinding values for the directed edge i -> j."""

    i: int
    j: int
    keys: tuple[int, ...]
    blinds: tuple[int, ...]


def root_payload(root: bytes, holder: int, peer: int, epoch: int) -> bytes:
    """What the peer signs to endorse one epoch of edge holder -> peer."""
    return (
        b"dcmesh/edge-root/v2"
        + epoch.to_bytes(4, "big")
        + root
        + holder.to_bytes(4, "big")
        + peer.to_bytes(4, "big")
    )


def _path_text(siblings) -> str:
    return "".join(s.hex() for s in siblings) or "-"


@dataclass(frozen=True)
class RevealedCommitment:
    """A pair commitment revealed for an investigation.

    ``path`` is the commitment's inclusion path in wire form: hex of the
    concatenated sibling digests, or "-" when it is empty.
    ``signature`` is the peer's signature over the epoch's root.
    """

    commitment: int
    path: str
    signature: tuple[int, int]


@dataclass(frozen=True)
class Endorsement:
    """One edge direction's commitments for an epoch, their Merkle root
    and the peer's signature over the root."""

    commitments: tuple[int, ...]
    root: bytes
    signature: tuple[int, int]

    def reveal(self, params: GroupParams, index: int) -> RevealedCommitment:
        """The commitment at ``index`` of the epoch, with its path."""
        levels = merkle.build_tree(
            [params.element_to_bytes(c) for c in self.commitments], EPOCH_SLOTS
        )
        return RevealedCommitment(
            self.commitments[index], _path_text(merkle.path(levels, index)), self.signature
        )


def endorse(params: GroupParams, commitments, directions, epoch: int):
    """One epoch's endorsement per direction ``(holder, peer, peer_key)``,
    of the next ``EPOCH_SLOTS`` commitments in turn: the peer signs the
    root of the commitments edge holder -> peer holds."""
    size = params.element_bytes
    roots = merkle.build_tree([c.to_bytes(size, "big") for c in commitments], EPOCH_SLOTS)[-1]
    return [
        Endorsement(
            tuple(commitments[at : at + EPOCH_SLOTS]),
            root,
            sign(params, peer_key, root_payload(root, holder, peer, epoch)),
        )
        for at, root, (holder, peer, peer_key) in zip(
            range(0, len(commitments), EPOCH_SLOTS), roots, directions, strict=True
        )
    ]


def is_endorsed(
    params: GroupParams,
    root: bytes,
    peer_public: int,
    holder: int,
    peer: int,
    slot: int,
    revealed: RevealedCommitment,
) -> bool:
    """Whether the revealed path leads from the commitment at ``slot`` to
    ``root``, the direction's root for the slot's epoch, and the peer's
    signature over that root and epoch verifies.

    A path that is not canonical hex fails, as does a commitment that
    does not fit the group's encoding.
    """
    try:
        raw = b"" if revealed.path == "-" else bytes.fromhex(revealed.path)
        leaf = params.element_to_bytes(revealed.commitment)
    except (ValueError, OverflowError):
        return False
    siblings = [raw[i : i + 32] for i in range(0, len(raw), 32)]
    if _path_text(siblings) != revealed.path:
        return False
    epoch, index = divmod(slot, EPOCH_SLOTS)
    if merkle.root_at(leaf, index, EPOCH_SLOTS, siblings) != root:
        return False
    return verify_sig(
        params, peer_public, root_payload(root, holder, peer, epoch), revealed.signature
    )


def establish_row(params: GroupParams, lo: int, key_lo: SigningKey, peers, rng, epoch: int):
    """One epoch of the edges lo -> hi for each ``(hi, key_hi)`` of
    ``peers``, in order: per edge, the secrets of direction lo -> hi,
    the endorsement lo holds (signed by hi) and the one hi holds (signed
    by lo).

    The edges go through each stage together.  Each draws its secrets
    from ``rng`` in turn, key then blinding value for each slot, as
    ``rng.randrange(q)`` would.
    """
    # rng.randrange(q) 2 * EPOCH_SLOTS times per edge: the same rejection
    # loop over q.bit_length() random bits, without a call per draw
    q, p, getrandbits, draws = params.q, params.p, rng.getrandbits, []
    bits = q.bit_length()
    for _ in range(2 * EPOCH_SLOTS * len(peers)):
        r = getrandbits(bits)
        while r >= q:
            r = getrandbits(bits)
        draws.append(r)
    keys, blinds = draws[::2], draws[1::2]
    c_lo = [
        a * b % p for a, b in zip(params.g_table.powers(keys), params.h_table.powers(blinds))
    ]
    # commit(-k, -r) is the inverse of commit(k, r)
    c_hi = invert_all(params, c_lo)
    held = endorse(
        params,
        c_lo + c_hi,
        [(lo, hi, key_hi) for hi, key_hi in peers] + [(hi, lo, key_lo) for hi, _ in peers],
        epoch,
    )
    secrets = [
        PairwiseSecret(
            lo, hi, tuple(keys[at : at + EPOCH_SLOTS]), tuple(blinds[at : at + EPOCH_SLOTS])
        )
        for (hi, _), at in zip(peers, range(0, len(keys), EPOCH_SLOTS))
    ]
    return list(zip(secrets, held, held[len(peers) :]))


# ---------------------------------------------------------------------------
# the key graph and per-participant views


@dataclass(frozen=True)
class EdgeState:
    """One epoch of one edge."""

    lo: int
    hi: int
    established: bool
    secret: PairwiseSecret | None = None   # direction lo -> hi
    held_lo: Endorsement | None = None     # held by lo, endorsed by hi
    held_hi: Endorsement | None = None     # held by hi, endorsed by lo

    def public(self) -> EdgePublic:
        if not self.established:
            return EdgePublic(self.lo, self.hi, False)
        return EdgePublic(self.lo, self.hi, True, self.held_lo.root, self.held_hi.root)


@dataclass(frozen=True)
class EdgePublic:
    lo: int
    hi: int
    established: bool
    root_lo: bytes = b""
    root_hi: bytes = b""


class EpochShare(NamedTuple):
    """One participant's sums for each slot of an epoch: of its pads, of
    its blinding values and, as a product, of the pair commitments it
    holds; and those commitments' endorsements, by peer."""

    pads: list[int]
    blinds: list[int]
    commitments: list[int]
    held: dict


@dataclass(frozen=True)
class KeyGraphPublic:
    """What everyone may see: identities, opt-outs, and each endorsed
    epoch's roots.  Every epoch lists every pair in (lo, hi) order."""

    participants: tuple[int, ...]
    publics: dict
    epochs: tuple[tuple[EdgePublic, ...], ...]

    def optout_pairs(self) -> set:
        return {(e.lo, e.hi) for e in self.epochs[0] if not e.established}

    def with_epoch(self, edges) -> "KeyGraphPublic":
        return replace(self, epochs=self.epochs + (tuple(edges),))


class KeyGraph:
    """Complete graph of pairwise edges over the active participants."""

    def __init__(self, params, participants, signing, refusers):
        self.params = params
        self.participants = tuple(participants)
        self.signing = signing      # pid -> SigningKey
        self.refusers = refusers    # their edges are opted out in every epoch
        self.epochs = []            # per endorsed epoch: (lo, hi) -> EdgeState

    def add_epoch(self, rng: random.Random) -> None:
        """Endorse the next epoch of every edge, drawing its secrets from
        ``rng``, one ``establish_row`` per participant and its higher peers;
        an edge with a refuser is opted out and draws nothing."""
        epoch, edges = len(self.epochs), {}
        for a_idx, lo in enumerate(self.participants):
            higher = self.participants[a_idx + 1 :]
            shared = [] if lo in self.refusers else [hi for hi in higher if hi not in self.refusers]
            row = establish_row(
                self.params, lo, self.signing[lo], [(hi, self.signing[hi]) for hi in shared],
                rng, epoch,
            )
            states = {hi: EdgeState(lo, hi, True, *pair) for hi, pair in zip(shared, row)}
            for hi in higher:
                edges[(lo, hi)] = states.get(hi) or EdgeState(lo, hi, False)
        self.epochs.append(edges)

    def edge(self, a: int, b: int, epoch: int = 0) -> EdgeState:
        return self.epochs[epoch][(min(a, b), max(a, b))]

    def round_secret(self, i: int, j: int, slot: int) -> RoundSecret:
        """Directed per-slot secret for edge i -> j (zero when opted out).

        The reference that the sums of ``KeyView`` are tested against.
        """
        epoch, index = divmod(slot, EPOCH_SLOTS)
        state = self.edge(i, j, epoch)
        if not state.established:
            return RoundSecret(0, 0)
        key, blind = state.secret.keys[index], state.secret.blinds[index]
        if i == state.lo:
            return RoundSecret(key, blind)
        q = self.params.q
        return RoundSecret((-key) % q, (-blind) % q)

    def public_edges(self, epoch: int) -> tuple[EdgePublic, ...]:
        return tuple(state.public() for _, state in sorted(self.epochs[epoch].items()))

    def public(self) -> KeyGraphPublic:
        return KeyGraphPublic(
            participants=self.participants,
            publics={pid: self.signing[pid].public for pid in self.participants},
            epochs=tuple(self.public_edges(k) for k in range(len(self.epochs))),
        )

    def view(self, pid: int) -> "KeyView":
        return KeyView(self, pid)

    def share(self, pid: int, epoch: int) -> EpochShare:
        """One participant's part of an epoch, summed once for all the
        epoch's slots over its established edges; an edge's lo -> hi
        secrets count negated when the participant is the hi end."""
        q, p = self.params.q, self.params.p
        zeros = (0,) * EPOCH_SLOTS   # one row in each list, so every column exists
        keys_lo, blinds_lo, keys_hi, blinds_hi, held = [zeros], [zeros], [zeros], [zeros], {}
        for peer in self.participants:
            if peer == pid:
                continue
            state = self.edge(pid, peer, epoch)
            if not state.established:
                continue  # opted-out edges contribute zero pads
            if pid == state.lo:
                keys_lo.append(state.secret.keys)
                blinds_lo.append(state.secret.blinds)
                held[peer] = state.held_lo
            else:
                keys_hi.append(state.secret.keys)
                blinds_hi.append(state.secret.blinds)
                held[peer] = state.held_hi
        commitments = [1] * EPOCH_SLOTS
        for endorsement in held.values():
            commitments = [a * c % p for a, c in zip(commitments, endorsement.commitments)]
        return EpochShare(
            _column_differences(keys_lo, keys_hi, q),
            _column_differences(blinds_lo, blinds_hi, q),
            commitments,
            held,
        )


def _column_differences(plus, minus, q: int) -> list[int]:
    """Per column, the sum of the ``plus`` rows less that of the ``minus`` rows, mod q."""
    return [(a - b) % q for a, b in zip(map(sum, zip(*plus)), map(sum, zip(*minus)))]


class KeyView:
    """One participant's private share of the key graph.

    Reads each endorsed epoch's sums from its ``EpochShare``, made on
    first use, and tracks which slots have been consumed; the same slot
    is never handed out twice, nor one whose epoch is not endorsed yet.
    """

    def __init__(self, graph: KeyGraph, pid: int):
        self.graph = graph
        self.params = graph.params
        self.pid = pid
        self._shares = []   # per epoch: KeyGraph.share(pid, epoch)
        self._next_slot = 0
        self._slot_by_round = {}

    def spend(self, round_id) -> int:
        """Consume the next unspent slot for the given protocol round."""
        if round_id in self._slot_by_round:
            raise RoundBudgetExhausted(f"round {round_id} already consumed a slot")
        slot = self._next_slot
        if slot >= EPOCH_SLOTS * len(self.graph.epochs):
            raise RoundBudgetExhausted(
                f"slot {slot} lies in epoch {slot // EPOCH_SLOTS}, which is not endorsed"
            )
        self._next_slot += 1
        self._slot_by_round[round_id] = slot
        return slot

    def slot_of(self, round_id) -> int:
        return self._slot_by_round[round_id]

    def _share(self, slot: int):
        """The slot's epoch share, and the slot's index in the epoch."""
        epoch, index = divmod(slot, EPOCH_SLOTS)
        while len(self._shares) <= epoch:
            self._shares.append(self.graph.share(self.pid, len(self._shares)))
        return self._shares[epoch], index

    def pad_sum(self, slot: int) -> int:
        share, index = self._share(slot)
        return share.pads[index]

    def blind_sum(self, slot: int) -> int:
        share, index = self._share(slot)
        return share.blinds[index]

    def aggregate_commitment(self, slot: int) -> int:
        """Product of the stored pair commitments; opted-out edges add the identity."""
        share, index = self._share(slot)
        return share.commitments[index]

    def published_pairs(self, slot: int):
        """The endorsed per-pair commitments this participant can reveal."""
        share, index = self._share(slot)
        return {peer: share.held[peer].reveal(self.params, index) for peer in sorted(share.held)}


def build_key_graph(
    params: GroupParams,
    participants,
    rng: random.Random,
    refusers=frozenset(),
) -> KeyGraph:
    """Signing keys for the participants and the endorsed epoch 0 of every edge."""
    participants = sorted(participants)
    signing = {pid: gen_signing_key(params, rng) for pid in participants}
    graph = KeyGraph(params, participants, signing, frozenset(refusers))
    graph.add_epoch(rng)
    return graph


def aggregate_commitment(graph: KeyGraph, pid: int, slot: int) -> int:
    """Product of the participant's directed pair commitments for a slot,
    recomputed from the secrets: the reference for ``KeyView.aggregate_commitment``."""
    params = graph.params
    acc = 1
    for peer in graph.participants:
        if peer == pid:
            continue
        s = graph.round_secret(pid, peer, slot)
        if not graph.edge(pid, peer).established:
            continue  # opted-out edges contribute the identity
        acc = acc * commit(params, s.key, s.blind) % params.p
    return acc
