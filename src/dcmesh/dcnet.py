"""Single-round engine: ciphertexts, round aggregation, investigation.

A round broadcast is (O, c): O is the slot value (O_count, O_total),
the participant's pad sums plus, if it sends, its message slot (1, x),
and c is the aggregate pair-commitment product.  The broadcast values
of a round add componentwise mod q to the aggregate (C_count,
C_total): how many messages the round carries and what their payloads
sum to, exactly, since n * 2^payload_bits < q.  A round is valid
when the commitment product over all participants is the identity;
when it is not, participants publish their endorsed per-pair
commitments and the checks here attribute blame.  A broadcast carries
no proof: the session judge asks for a round's proofs separately,
against statements it builds from the broadcasts.

A broadcast carries no label either: a round's broadcasts are a list
in participant order, and the session judge, which schedules the
round, knows its id and whose broadcast sits at each position.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .groups import GroupParams
from .keysetup import EPOCH_SLOTS, KeyGraphPublic, KeyView, is_endorsed

# verdict reason codes
BAD_SIGNATURE = "bad_signature"
AGGREGATE_MISMATCH = "aggregate_mismatch"
PAIR_MISMATCH = "pair_mismatch"
NON_COOPERATION = "non_cooperation"
INVALID_PROOF = "invalid_proof"
WRONG_BRANCH = "wrong_branch"
UNEQUAL_PAYLOAD = "unequal_payload"


class RoundCiphertext(NamedTuple):
    value: tuple[int, int]          # O: (count, total) pad sums, plus the message slot if sending
    commitment: int                 # c: aggregate pair commitment


def make_ciphertext(view: KeyView, slot: int, message=None) -> RoundCiphertext:
    """Build this participant's broadcast for one round from the secrets
    of ``slot``, which the session judge schedules, once per round.

    The message, a (count, total) slot when present, is added to the pad
    sums only; the commitment never depends on it.
    """
    value = view.pad_sum(slot)
    if message is not None:
        q = view.params.q
        value = ((value[0] + message[0]) % q, (value[1] + message[1]) % q)
    return RoundCiphertext(value, view.aggregate_commitment(slot))


def aggregate_round(params: GroupParams, cts) -> tuple[tuple[int, int], bool]:
    """A round's aggregate (count, total), its broadcasts' sums mod q,
    and whether its commitment product is the identity."""
    q = params.q
    aggregate = (sum(ct.value[0] for ct in cts) % q, sum(ct.value[1] for ct in cts) % q)
    product = 1
    for ct in cts:
        product = product * ct.commitment % params.p
    return aggregate, product == 1


def investigate(
    params: GroupParams,
    cts,
    slot: int,
    published: dict,
    graph_public: KeyGraphPublic,
) -> dict[int, list[str]]:
    """Attribute blame for a round from published pair commitments:
    each blamed participant, in id order, with its sorted reasons.
    ``cts`` are the round's broadcasts, one per participant of
    ``graph_public``, in its participant order.

    ``published`` maps participant -> {peer: RevealedCommitment} as each
    participant revealed them: both ends of an edge reveal its lo -> hi
    commitment.  Checks, per participant: each revealed commitment, put
    back among its edge's other ones for the epoch of ``slot``, hashes
    to a digest whose path leads to the peer's signed ENDORSE root for
    the epoch (whose signature was checked when it was read), and the
    broadcast aggregate times the commitments of the edges it is the hi
    end of equals the product of those it is the lo end of; and per
    edge, that both ends revealed the same commitment.  A bare pair
    mismatch with both endorsements intact flags both endpoints; anyone
    whose revealed value lacks a valid endorsement is pinned directly.
    """
    flagged = defaultdict(set)   # pid -> its reasons
    participants = graph_public.participants
    optouts = graph_public.optouts
    # signer -> its signed root for the slot's epoch
    roots = {signed.part: signed.root for signed in graph_public.epochs[slot // EPOCH_SLOTS]}
    sig_ok: dict[tuple[int, int], bool] = {}
    broadcast = {pid: ct.commitment for pid, ct in zip(participants, cts)}

    for pid in participants:
        revealed = published.get(pid)
        if revealed is None:
            flagged[pid].add(NON_COOPERATION)
            continue
        expected_peers = {
            peer
            for peer in participants
            if peer != pid and (min(pid, peer), max(pid, peer)) not in optouts
        }
        if set(revealed) != expected_peers:
            flagged[pid].add(NON_COOPERATION)
            continue
        # the broadcast times the hi-end edges' commitments, and the lo-end edges' product
        hi_side, lo_side = broadcast[pid], 1
        for peer, sc in sorted(revealed.items()):
            ok = is_endorsed(params, participants, roots[peer], pid, peer, slot, sc)
            sig_ok[(pid, peer)] = ok
            if not ok:
                flagged[pid].add(BAD_SIGNATURE)
            if peer < pid:
                hi_side = hi_side * sc.commitment % params.p
            else:
                lo_side = lo_side * sc.commitment % params.p
        if hi_side != lo_side:
            flagged[pid].add(AGGREGATE_MISMATCH)

    # both ends of each edge reveal the same lo -> hi commitment
    for idx, a in enumerate(participants):
        for b in participants[idx + 1 :]:
            if (a, b) in optouts:
                continue
            pub_a, pub_b = published.get(a), published.get(b)
            if pub_a is None or pub_b is None:
                continue
            sc_ab, sc_ba = pub_a.get(b), pub_b.get(a)
            if sc_ab is None or sc_ba is None:
                continue
            if sc_ab.commitment == sc_ba.commitment:
                continue
            a_ok = sig_ok.get((a, b), False)
            b_ok = sig_ok.get((b, a), False)
            if a_ok and not b_ok:
                flagged[b].add(PAIR_MISMATCH)
            elif b_ok and not a_ok:
                flagged[a].add(PAIR_MISMATCH)
            else:
                # both endorsements check out (or both fail): cannot
                # separate the endpoints, so both are flagged
                flagged[a].add(PAIR_MISMATCH)
                flagged[b].add(PAIR_MISMATCH)
    return {pid: sorted(flagged[pid]) for pid in sorted(flagged)}
