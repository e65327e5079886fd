"""Pairwise secret establishment and mutual commitment endorsement.

Each unordered pair of participants shares, per scheduled round, a key
and a blinding value; the reverse direction holds the negations so all
pads cancel in a round sum.  Each direction's per-round commitments are
the leaves of a Merkle tree whose root the counterparty signs once; a
commitment revealed with its inclusion path is endorsed by that one
signature, which is what later lets an investigation pin blame.  A
participant may refuse to share a secret with a peer; the edge is then
publicly marked opted out and contributes zero pads and identity
commitments.

Secrets travel over ideal channels here: the builder simply hands both
endpoints the same values.  Key agreement protocols are out of scope.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import NamedTuple

from . import merkle
from .errors import RoundBudgetExhausted, SignatureRefused
from .groups import GroupParams, commit


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
    """Per-round secrets for the directed edge i -> j."""

    i: int
    j: int
    rounds: tuple[RoundSecret, ...]


def root_payload(root: bytes, holder: int, peer: int) -> bytes:
    """What the peer signs to endorse every commitment of edge holder -> peer."""
    return b"dcmesh/edge-root/v1" + root + holder.to_bytes(4, "big") + peer.to_bytes(4, "big")


def _path_text(siblings) -> str:
    return "".join(s.hex() for s in siblings) or "-"


@dataclass(frozen=True)
class RevealedCommitment:
    """A pair commitment revealed for an investigation.

    ``path`` is the commitment's inclusion path in wire form: hex of the
    concatenated sibling digests, or "-" when it is empty.
    ``signature`` is the peer's signature over the direction's root.
    """

    commitment: int
    path: str
    signature: tuple[int, int]


@dataclass(frozen=True)
class Endorsement:
    """One edge direction's per-round commitments, their Merkle root and
    the peer's signature over the root."""

    commitments: tuple[int, ...]
    root: bytes
    signature: tuple[int, int]

    def reveal(self, params: GroupParams, slot: int) -> RevealedCommitment:
        levels = merkle.build_tree([params.element_to_bytes(c) for c in self.commitments])
        return RevealedCommitment(
            self.commitments[slot], _path_text(merkle.path(levels, slot)), self.signature
        )


def endorse(params: GroupParams, commitments, holder: int, peer: int, peer_key: SigningKey):
    """The peer's endorsement of the commitment list edge holder -> peer holds."""
    commitments = tuple(commitments)
    root = merkle.build_tree([params.element_to_bytes(c) for c in commitments])[-1][0]
    return Endorsement(commitments, root, sign(params, peer_key, root_payload(root, holder, peer)))


def is_endorsed(
    params: GroupParams,
    root: bytes,
    peer_public: int,
    holder: int,
    peer: int,
    slot: int,
    budget: int,
    revealed: RevealedCommitment,
) -> bool:
    """Whether the revealed path leads from the commitment at ``slot`` to
    the direction's ``root`` and the peer's signature over it verifies.

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
    if merkle.root_at(leaf, slot, budget, siblings) != root:
        return False
    return verify_sig(params, peer_public, root_payload(root, holder, peer), revealed.signature)


def establish_pair(
    params: GroupParams,
    i: int,
    j: int,
    rng,
    rounds: int,
    key_i: SigningKey,
    key_j: SigningKey,
    refusers=frozenset(),
):
    """Agree on fresh per-round secrets for the pair (i, j).

    Returns the direction i -> j secrets along with both directions'
    endorsements: i's commitments signed by j, and j's signed by i.
    Raises SignatureRefused when either endpoint declines; the caller
    records the edge as opted out.
    """
    if i == j:
        raise ValueError("a participant does not pair with itself")
    if i in refusers:
        raise SignatureRefused(i)
    if j in refusers:
        raise SignatureRefused(j)
    secrets = PairwiseSecret(
        i=i,
        j=j,
        rounds=tuple(
            RoundSecret(rng.randrange(params.q), rng.randrange(params.q)) for _ in range(rounds)
        ),
    )
    c_ij = [commit(params, s.key, s.blind) for s in secrets.rounds]
    c_ji = [commit(params, -s.key, -s.blind) for s in secrets.rounds]
    return secrets, endorse(params, c_ij, i, j, key_j), endorse(params, c_ji, j, i, key_i)


# ---------------------------------------------------------------------------
# the key graph and per-participant views


@dataclass(frozen=True)
class EdgeState:
    lo: int
    hi: int
    established: bool
    secret: PairwiseSecret | None = None   # direction lo -> hi
    held_lo: Endorsement | None = None     # held by lo, endorsed by hi
    held_hi: Endorsement | None = None     # held by hi, endorsed by lo


@dataclass(frozen=True)
class EdgePublic:
    lo: int
    hi: int
    established: bool
    root_lo: bytes = b""
    root_hi: bytes = b""


@dataclass(frozen=True)
class KeyGraphPublic:
    """What everyone may see: identities, opt-outs, and endorsed roots."""

    n: int
    budget: int
    participants: tuple[int, ...]
    publics: dict
    edges: tuple[EdgePublic, ...]

    def optout_pairs(self) -> set:
        return {(e.lo, e.hi) for e in self.edges if not e.established}


class KeyGraph:
    """Complete graph of pairwise edges over the active participants."""

    def __init__(self, params, participants, budget, signing, edges):
        self.params = params
        self.participants = tuple(participants)
        self.budget = budget
        self.signing = signing  # pid -> SigningKey
        self.edges = edges      # (lo, hi) -> EdgeState

    def edge(self, a: int, b: int) -> EdgeState:
        return self.edges[(min(a, b), max(a, b))]

    def round_secret(self, i: int, j: int, slot: int) -> RoundSecret:
        """Directed per-round secret for edge i -> j (zero when opted out).

        The reference that the sums of ``KeyView`` are tested against.
        """
        state = self.edge(i, j)
        if not state.established:
            return RoundSecret(0, 0)
        s = state.secret.rounds[slot]
        if i == state.lo:
            return s
        q = self.params.q
        return RoundSecret((-s.key) % q, (-s.blind) % q)

    def public(self) -> KeyGraphPublic:
        edges = []
        for (lo, hi), state in sorted(self.edges.items()):
            if not state.established:
                edges.append(EdgePublic(lo, hi, False))
                continue
            edges.append(EdgePublic(lo, hi, True, state.held_lo.root, state.held_hi.root))
        return KeyGraphPublic(
            n=len(self.participants),
            budget=self.budget,
            participants=self.participants,
            publics={pid: self.signing[pid].public for pid in self.participants},
            edges=tuple(edges),
        )

    def view(self, pid: int) -> "KeyView":
        secrets, held = [], {}
        for peer in self.participants:
            if peer == pid:
                continue
            state = self.edge(pid, peer)
            if not state.established:
                continue  # opted-out edges contribute zero pads
            if pid == state.lo:
                secrets.append((1, state.secret.rounds))
                held[peer] = state.held_lo
            else:
                secrets.append((-1, state.secret.rounds))
                held[peer] = state.held_hi
        return KeyView(self.params, pid, self.budget, secrets, held)


class KeyView:
    """One participant's private share of the key graph.

    Tracks which per-round secrets have been consumed; the same slot is
    never handed out twice.
    """

    def __init__(self, params, pid, budget, secrets, held):
        self.params = params
        self.pid = pid
        self.budget = budget
        # (sign, rounds) per established edge: the edge's lo -> hi secrets,
        # negated (sign -1) when this participant is the hi end
        self.secrets = secrets
        self.held = held        # peer -> Endorsement, established edges only
        self._next_slot = 0
        self._slot_by_round = {}

    def spend(self, round_id) -> int:
        """Consume the next unspent slot for the given protocol round."""
        if round_id in self._slot_by_round:
            raise RoundBudgetExhausted(f"round {round_id} already consumed a slot")
        if self._next_slot >= self.budget:
            raise RoundBudgetExhausted(f"all {self.budget} scheduled rounds consumed")
        slot = self._next_slot
        self._next_slot += 1
        self._slot_by_round[round_id] = slot
        return slot

    def slot_of(self, round_id) -> int:
        return self._slot_by_round[round_id]

    def pad_sum(self, slot: int) -> int:
        return sum(sign * rounds[slot].key for sign, rounds in self.secrets) % self.params.q

    def blind_sum(self, slot: int) -> int:
        return sum(sign * rounds[slot].blind for sign, rounds in self.secrets) % self.params.q

    def aggregate_commitment(self, slot: int) -> int:
        """Product of the stored pair commitments; opted-out edges add the identity."""
        acc = 1
        for endorsement in self.held.values():
            acc = acc * endorsement.commitments[slot] % self.params.p
        return acc

    def published_pairs(self, slot: int):
        """The endorsed per-pair commitments this participant can reveal."""
        return {peer: self.held[peer].reveal(self.params, slot) for peer in sorted(self.held)}


def build_key_graph(
    params: GroupParams,
    participants,
    budget: int,
    rng: random.Random,
    refusers=frozenset(),
) -> KeyGraph:
    participants = sorted(participants)
    signing = {pid: gen_signing_key(params, rng) for pid in participants}
    edges = {}
    for a_idx, lo in enumerate(participants):
        for hi in participants[a_idx + 1 :]:
            try:
                secret, held_lo, held_hi = establish_pair(
                    params, lo, hi, rng, budget, signing[lo], signing[hi], refusers
                )
                edges[(lo, hi)] = EdgeState(lo, hi, True, secret, held_lo, held_hi)
            except SignatureRefused:
                edges[(lo, hi)] = EdgeState(lo, hi, False)
    return KeyGraph(params, participants, budget, signing, edges)


def aggregate_commitment(graph: KeyGraph, pid: int, slot: int) -> int:
    """Product of the participant's directed pair commitments for a round,
    recomputed from the secrets: the reference for ``KeyView.aggregate_commitment``."""
    params = graph.params
    acc = 1
    for peer in graph.participants:
        if peer == pid:
            continue
        s = graph.round_secret(pid, peer, slot)
        state = graph.edge(pid, peer)
        if not state.established:
            continue  # opted-out edges contribute the identity
        acc = acc * commit(params, s.key, s.blind) % params.p
    return acc

