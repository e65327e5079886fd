"""Pairwise secret establishment and mutual commitment endorsement.

Each unordered pair of participants lo < hi shares, per slot, a pair of
keys (one pads a slot's count, the other its total) and a blinding
value, committed to as g^count_key * f^total_key * h^blinding.  The
keys are lo's pads and their negations hi's, so all pads cancel in a
round sum.  Slots are endorsed in epochs of ``EPOCH_SLOTS`` = 8, the
measured median session: every honest bench session at seed 1 but one
transmits 8 rounds.  Each edge's lo -> hi commitments for an epoch are
hashed, in slot order, into one digest, and both ends endorse it: it is
the leaf for lo in hi's tree and the leaf for hi in lo's.  A
participant's tree has one leaf per other participant, in id order,
and it signs that tree's root once per epoch, bound to the epoch and to
the peers it shares no edge with (an ENDORSE record).  A commitment
revealed with the edge's other ones for the epoch, which leak nothing
as Pedersen commitments are perfectly hiding, and its path through the
other end's tree is endorsed by that one signature, which is what later
lets an investigation pin blame.  Epoch 0 is built with the graph and
later epochs on demand, over the same edges and signing keys.

One ``Edge`` record holds an edge's epoch: lo's keys and blinding
values, the lo -> hi commitments to them, and their digest.  A
participant may refuse to share a secret with a peer.  The edge is then
opted out for the whole session: the graph's ``optouts`` names it once,
and no epoch holds a record for it.  It contributes zero pads and
identity commitments, and has a fixed tag leaf in both ends' trees,
which are padded with the same tag to a power-of-two width.

An epoch's edges are established one participant row at a time: the
edges from a participant to its higher peers go through each stage
together, the secrets drawn in one loop, the commitments made with
``groups.commit_all`` and serialised once, and each edge's digest
hashed from its slice.  The graph then walks the epoch's edges once,
hashing each edge's leaf once for both ends' trees, which one
``merkle.build_tree`` builds, and adding its secrets to both ends'
sums.  So every participant's (count, total) pad sums, blinding sums
and, committed to with one ``commit_all``, aggregate commitments for
every slot of the epoch are made when the epoch is set up, and a view
reads them.  What it reveals in an investigation it reads from the
graph's edges.  A view keeps no schedule: the session judge names the
slot of every round, so each slot's pads are used for one round only.

Secrets travel over ideal channels here: the builder simply hands both
endpoints the same values.  Key agreement protocols are out of scope.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations
from typing import NamedTuple

from . import merkle
from .groups import GroupParams, commit_all

# slots per endorsement epoch: one digest per edge and epoch, and
# one signature per participant and epoch; the median session
# fits epoch 0, and a longer one endorses more epochs as it reaches them
EPOCH_SLOTS = 8
# the domain of an edge's digest over its commitments for an epoch
_EDGE_TAG = b"dcmesh/edge/v1"
# a signer's leaf where it endorses no edge: an opted-out edge, or padding
NO_EDGE = b"dcmesh/no-edge"


# ---------------------------------------------------------------------------
# Schnorr signatures over the same group (one keypair per participant)


class SigningKey(NamedTuple):
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
# edges and their endorsement


class Edge(NamedTuple):
    """One epoch of one established edge lo -> hi: per slot, lo's count
    key, total key and blinding value (hi's are their negations), the
    lo -> hi commitment to them, and the digest of those commitments
    that both ends endorse."""

    count_keys: tuple[int, ...]
    total_keys: tuple[int, ...]
    blinds: tuple[int, ...]
    commitments: tuple[int, ...]
    digest: bytes


def endorse_payload(root: bytes, signer: int, epoch: int, opted_out) -> bytes:
    """What a participant signs to endorse, for one epoch, every edge it
    is an end of: the root of its tree, and the peers it shares no edge
    with, in id order."""
    fields = [epoch, signer, len(opted_out), *sorted(opted_out)]
    return b"dcmesh/endorse/v2" + b"".join(x.to_bytes(4, "big") for x in fields) + root


def opted_out_peers(optouts, pid: int) -> list[int]:
    """The peers ``pid`` shares no edge with, given the opted-out (lo, hi) pairs."""
    return sorted(lo + hi - pid for lo, hi in optouts if pid in (lo, hi))


def signer_width(count: int) -> int:
    """Leaves of a signer's tree among ``count`` participants: one per
    other participant, padded to a power of two."""
    return 1 << max(0, count - 2).bit_length()


def _leaf_index(participants, holder: int, signer: int) -> int:
    """The leaf of the edge between holder and signer in the signer's
    tree: the holder's place among the participants other than the
    signer."""
    index = participants.index(holder)
    return index - (index > participants.index(signer))


def edge_digest(row: bytes) -> bytes:
    """What both ends endorse of an edge: its epoch's serialised commitments, in slot order."""
    return hashlib.sha256(_EDGE_TAG + row).digest()


class RevealedCommitment(NamedTuple):
    """A pair commitment revealed for an investigation.

    ``path`` is its endorsement in wire form: hex of the edge's other
    commitments for the epoch, in slot order, then of the signer tree's siblings.
    """

    commitment: int
    path: str


class SignedRoot(NamedTuple):
    """A participant's signature over its tree's root and its opted-out
    peers for one epoch."""

    part: int
    root: bytes
    signature: tuple[int, int]

    def verifies(self, params: GroupParams, public: int, epoch: int, optouts) -> bool:
        """Whether the signature holds under ``public`` for the epoch and
        the session's opted-out pairs ``optouts``."""
        payload = endorse_payload(self.root, self.part, epoch, opted_out_peers(optouts, self.part))
        return verify_sig(params, public, payload, self.signature)


def is_endorsed(
    params: GroupParams,
    participants,
    root: bytes,
    holder: int,
    signer: int,
    slot: int,
    revealed: RevealedCommitment,
) -> bool:
    """Whether the revealed commitment, put back at ``slot``'s place
    among its edge's other ones for the epoch, hashes to the digest
    whose path leads from the edge's leaf to ``root``, the signer's root
    for that epoch (its signature is checked where it is read).  One
    equal to the edge's commitment at another slot passes there too: it
    is that slot's.  Non-canonical hex, a path of another length and a
    commitment outside the group's encoding fail.
    """
    try:
        raw = bytes.fromhex(revealed.path)
        own = params.element_to_bytes(revealed.commitment)
    except (ValueError, OverflowError):
        return False
    width = signer_width(len(participants))
    split = (EPOCH_SLOTS - 1) * len(own)   # the other commitments, then the siblings
    if raw.hex() != revealed.path or len(raw) != split + 32 * (width.bit_length() - 1):
        return False
    at = slot % EPOCH_SLOTS * len(own)
    digest = edge_digest(raw[:at] + own + raw[at:split])
    siblings = [raw[i : i + 32] for i in range(split, len(raw), 32)]
    index = _leaf_index(participants, holder, signer)
    return root == merkle.root_at(digest, index, width, siblings)


def establish_row(params: GroupParams, peers, rng) -> list[Edge]:
    """One epoch of the edges from one participant to each of its
    higher ``peers``, in order.

    The edges go through each stage together.  Each draws its secrets
    from ``rng`` in turn, count key, total key and blinding value for
    each slot, as ``rng.randrange(q)`` would.
    """
    # rng.randrange(q) 3 * EPOCH_SLOTS times per edge: the same rejection
    # loop over q.bit_length() random bits, without a call per draw
    q, getrandbits, draws = params.q, rng.getrandbits, []
    bits = q.bit_length()
    for _ in range(3 * EPOCH_SLOTS * len(peers)):
        r = getrandbits(bits)
        while r >= q:
            r = getrandbits(bits)
        draws.append(r)
    columns = [draws[::3], draws[1::3], draws[2::3]]
    columns.append(commit_all(params, *columns))
    size = params.element_bytes
    row = b"".join([c.to_bytes(size, "big") for c in columns[-1]])
    return [
        Edge(
            *(tuple(x[at : at + EPOCH_SLOTS]) for x in columns),
            edge_digest(row[at * size : (at + EPOCH_SLOTS) * size]),
        )
        for at in range(0, len(columns[-1]), EPOCH_SLOTS)
    ]


# ---------------------------------------------------------------------------
# the key graph and per-participant views


class Epoch(NamedTuple):
    """One endorsed epoch: its established edges, the levels of all the
    signers' trees (one per participant, in order, built together), each
    participant's signed root and each participant's sums."""

    edges: dict     # (lo, hi) -> Edge; an opted-out pair is absent
    trees: list
    signed: tuple   # SignedRoot per participant
    shares: tuple   # EpochShare per participant


class EpochShare(NamedTuple):
    """One participant's sums for each slot of an epoch: of its pads, as
    (count, total) pairs, and of its blinding values; and the commitment
    to each slot's sums, its aggregate commitment."""

    pads: list[tuple[int, int]]
    blinds: list[int]
    commitments: list[int]


class KeyGraphPublic(NamedTuple):
    """What everyone may see: identities, the pairs opted out for the
    whole session, and per endorsed epoch each participant's signed
    root, in participant order."""

    participants: tuple[int, ...]
    publics: dict
    optouts: frozenset   # (lo, hi) pairs
    epochs: tuple[tuple[SignedRoot, ...], ...]

    def with_epoch(self, signed) -> "KeyGraphPublic":
        return self._replace(epochs=self.epochs + (tuple(signed),))


class KeyGraph:
    """Complete graph of pairwise edges over the active participants, in id order."""

    def __init__(self, params, participants, signing, refusers):
        self.params = params
        self.participants = tuple(sorted(participants))
        self.signing = signing      # pid -> SigningKey
        # every edge of a refuser, opted out for the whole session
        pairs = combinations(self.participants, 2)
        self.optouts = frozenset(pair for pair in pairs if not refusers.isdisjoint(pair))
        self.width = signer_width(len(self.participants))
        self.epochs: list[Epoch] = []

    def add_epoch(self, rng: random.Random) -> None:
        """Endorse the next epoch: every edge's secrets drawn from ``rng``,
        one ``establish_row`` per participant and its higher peers (an
        opted-out edge draws nothing), then signed."""
        edges = {}
        for a_idx, lo in enumerate(self.participants):
            shared = [hi for hi in self.participants[a_idx + 1 :] if (lo, hi) not in self.optouts]
            row = establish_row(self.params, shared, rng)
            edges.update(((lo, hi), edge) for hi, edge in zip(shared, row))
        self.epochs.append(self.sign_epoch(edges, len(self.epochs)))

    def sign_epoch(self, edges, epoch: int) -> Epoch:
        """Epoch ``epoch`` over ``edges``, walked once: every participant's
        tree over the leaf hashes of its edges' digests, built together,
        one signature per root, and every participant's sums.

        An edge's lo -> hi secrets count negated for its hi end.  Pedersen
        commitments are homomorphic, so committing to a participant's sums
        gives the product of its pair commitments, the hi end's inverted,
        without an inversion.
        """
        params, width, q = self.params, self.width, self.params.q
        at = {pid: index for index, pid in enumerate(self.participants)}
        # signer s's leaf for holder t sits at s * width + t's place among the others
        leaves = [merkle.leaf_hash(NO_EDGE)] * (len(at) * width)
        zeros = (0,) * (3 * EPOCH_SLOTS)   # one row in each list, so every column exists
        # per participant: the secrets of the edges it is the lo end of, then the hi end of
        plus, minus = [[zeros] for _ in at], [[zeros] for _ in at]
        for (lo, hi), edge in edges.items():
            a, b = at[lo], at[hi]
            leaves[a * width + b - 1] = leaves[b * width + a] = merkle.leaf_hash(edge.digest)
            secrets = edge.count_keys + edge.total_keys + edge.blinds
            plus[a].append(secrets)
            minus[b].append(secrets)
        trees = merkle.build_tree(leaves, width)
        signed = []
        for signer, root in zip(self.participants, trees[-1]):
            payload = endorse_payload(root, signer, epoch, opted_out_peers(self.optouts, signer))
            signed.append(SignedRoot(signer, root, sign(params, self.signing[signer], payload)))
        shares = []
        for added, taken in zip(plus, minus):
            # column by column: the count key sums, total key sums and blinding sums, slot by slot
            sums = [(x - y) % q for x, y in zip(map(sum, zip(*added)), map(sum, zip(*taken)))]
            counts, totals, blinds = (sums[i : i + EPOCH_SLOTS] for i in range(0, len(sums), EPOCH_SLOTS))
            commitments = commit_all(params, counts, totals, blinds)
            shares.append(EpochShare(list(zip(counts, totals)), blinds, commitments))
        return Epoch(edges, trees, tuple(signed), tuple(shares))

    def edge(self, a: int, b: int, epoch: int = 0) -> Edge | None:
        """The edge between a and b in the epoch; None when it is opted out."""
        return self.epochs[epoch].edges.get((min(a, b), max(a, b)))

    def signer_path(self, epoch: int, holder: int, signer: int) -> list[bytes]:
        """The siblings from the leaf of the edge between holder and
        signer up to the signer's root for the epoch."""
        leaf = self.participants.index(signer) * self.width
        leaf += _leaf_index(self.participants, holder, signer)
        return merkle.path(self.epochs[epoch].trees, leaf)

    def public(self) -> KeyGraphPublic:
        return KeyGraphPublic(
            participants=self.participants,
            publics={pid: self.signing[pid].public for pid in self.participants},
            optouts=self.optouts,
            epochs=tuple(epoch.signed for epoch in self.epochs),
        )

    def view(self, pid: int) -> "KeyView":
        return KeyView(self, pid)


class KeyView:
    """One participant's private share of the key graph.

    Reads each endorsed epoch's sums from the participant's
    ``EpochShare``, made when the epoch was set up.  It keeps no
    schedule: the session judge hands out each round's slot, and a slot
    whose epoch is not endorsed yet raises IndexError.
    """

    def __init__(self, graph: KeyGraph, pid: int):
        self.graph = graph
        self.params = graph.params
        self.pid = pid
        self._at = graph.participants.index(pid)

    def _share(self, slot: int):
        """The slot's epoch share, and the slot's index in the epoch."""
        epoch, index = divmod(slot, EPOCH_SLOTS)
        return self.graph.epochs[epoch].shares[self._at], index

    def pad_sum(self, slot: int) -> tuple[int, int]:
        """The slot's (count, total) pad sum."""
        share, index = self._share(slot)
        return share.pads[index]

    def blind_sum(self, slot: int) -> int:
        share, index = self._share(slot)
        return share.blinds[index]

    def aggregate_commitment(self, slot: int) -> int:
        """The commitment to the slot's pad and blinding sums: the product
        of the participant's pair commitments, the hi end's inverted, in
        which opted-out edges count as the identity."""
        share, index = self._share(slot)
        return share.commitments[index]

    def published_pairs(self, slot: int):
        """The endorsed lo -> hi commitment of each of this participant's
        edges at the slot, which both ends reveal alike, each with the
        edge's other commitments for the slot's epoch and the path from
        the edge's digest up to the peer's signed root."""
        epoch, index = divmod(slot, EPOCH_SLOTS)
        published = {}
        for peer in self.graph.participants:
            edge = None if peer == self.pid else self.graph.edge(self.pid, peer, epoch)
            if edge is None:
                continue
            row = [self.params.element_to_bytes(c) for c in edge.commitments]
            del row[index]
            path = b"".join(row + self.graph.signer_path(epoch, self.pid, peer))
            published[peer] = RevealedCommitment(edge.commitments[index], path.hex())
        return published


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
