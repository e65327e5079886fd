"""Round engine: sums, validity, hiding, and blame attribution."""

import random
from collections import Counter
from itertools import permutations

import pytest

from dcmesh.dcnet import (
    AGGREGATE_MISMATCH,
    BAD_SIGNATURE,
    NON_COOPERATION,
    PAIR_MISMATCH,
    RoundCiphertext,
    aggregate_round,
    investigate,
    make_ciphertext,
)
from dcmesh.groups import commit
from dcmesh.keysetup import EPOCH_SLOTS, KeyGraph, build_key_graph, edge_digest, gen_signing_key
from dcmesh.zkp import OrStatement, RepStatement, no_message_targets, prove_or, verify_or


def fresh_graph(params, n, seed=0, refusers=frozenset()):
    return build_key_graph(params, range(n), random.Random(seed), refusers=refusers)


def run_round(params, graph, n, messages=None):
    """Slot 0: every participant's broadcast, their aggregate and its validity."""
    messages = messages or {}
    cts = [make_ciphertext(graph.view(pid), 0, messages.get(pid)) for pid in range(n)]
    return (cts, *aggregate_round(params, cts))


def shift(value, delta, q=53):
    """A slot value with ``delta`` added to one component: the count for
    a (delta, 0) pair, the total for (0, delta)."""
    return ((value[0] + delta[0]) % q, (value[1] + delta[1]) % q)


def test_honest_round_no_sender(small):
    _, aggregate, valid = run_round(small, fresh_graph(small, 4), 4)
    assert valid
    assert aggregate == (0, 0)


def test_honest_round_single_sender(small):
    _, aggregate, valid = run_round(small, fresh_graph(small, 5), 5, messages={2: (1, 42)})
    assert valid
    assert aggregate == (1, 42)


def test_colliding_messages_add(small):
    messages = {1: (1, 3), 3: (1, 4)}
    _, aggregate, valid = run_round(small, fresh_graph(small, 5), 5, messages=messages)
    assert valid
    assert aggregate == (2, 7)


def test_degenerate_single_participant(small):
    graph = fresh_graph(small, 1)
    view = graph.view(0)
    ct = make_ciphertext(view, 0, (1, 9))
    assert ct.value == (1, 9)
    assert ct.commitment == 1
    assert aggregate_round(small, [ct]) == ((1, 9), True)


def test_no_message_proof_from_honest_ciphertext(small):
    graph = fresh_graph(small, 4, seed=3)
    view = graph.view(1)
    ct = make_ciphertext(view, 0, None)
    (target,) = no_message_targets(small, [(ct.value, ct.commitment)])
    stmt = OrStatement((RepStatement(target),))
    proof = prove_or(small, stmt, 0, view.blind_sum(0), random.Random(5))
    assert verify_or(small, [stmt], [proof]) == [True]


def test_random_honest_configurations(small):
    rng = random.Random(6)
    for trial in range(60):
        n = rng.randrange(2, 9)
        graph = fresh_graph(small, n, seed=100 + trial)
        senders = {
            pid: (1, rng.randrange(53)) for pid in rng.sample(range(n), rng.randrange(n + 1))
        }
        _, aggregate, valid = run_round(small, graph, n, messages=senders)
        assert valid
        assert aggregate == (len(senders), sum(x for _, x in senders.values()) % 53)


def test_pad_tampering_invalidates_round(small):
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randrange(2, 7)
        graph = fresh_graph(small, n, seed=200 + trial)
        views = {pid: graph.view(pid) for pid in range(n)}
        cts = [make_ciphertext(views[pid], 0) for pid in range(n)]
        cheat = rng.randrange(n)
        bad = cts[cheat]
        delta = rng.randrange(1, 53)
        # a consistent shift of the count (g) or of the total (f)
        base, component = (small.g, (delta, 0)) if trial % 2 else (small.f, (0, delta))
        bad = bad._replace(
            value=shift(bad.value, component),
            commitment=bad.commitment * pow(base, delta, small.p) % small.p,
        )
        cts[cheat] = bad
        _, valid = aggregate_round(small, cts)
        assert not valid


def test_single_tampering_never_silently_changes_the_sum(medium):
    """Any one-participant tampering of a retransmission round either
    breaks the validity product or leaves an unprovable broadcast; a
    value-only shift keeps validity but then no proof branch has a
    witness."""
    from dcmesh.errors import WitnessMismatch
    from dcmesh.splitter import add_blind, add_round, retransmission_statement
    from dcmesh.zkp import prove_or

    rng = random.Random(77)
    styles = ("value_only", "commitment_only", "consistent_pair")
    # each style shifts the count (with g) and then the total (with f)
    for style, (base, delta) in (
        (style, shifted) for style in styles for shifted in ((medium.g, (5, 0)), (medium.f, (0, 5)))
    ):
        graph = build_key_graph(medium, range(3), rng)
        views = {pid: graph.view(pid) for pid in range(3)}
        broadcasts, blinds = {pid: {} for pid in range(3)}, {pid: {} for pid in range(3)}
        targets = {pid: {} for pid in range(3)}
        for slot, rid in enumerate((1, 2)):
            for pid in range(3):
                ct = make_ciphertext(views[pid], slot, None)
                o, c = ct.value, ct.commitment
                if pid == 0 and rid == 2:
                    if style in ("value_only", "consistent_pair"):
                        o = shift(o, delta, medium.q)
                    if style in ("commitment_only", "consistent_pair"):
                        c = c * pow(base, 5, medium.p) % medium.p
                broadcasts[pid][rid] = (o, c)
                add_round(medium, [targets[pid]], rid, [RoundCiphertext(o, c)])
                add_blind(medium, blinds[pid], rid, views[pid].blind_sum(slot))
        product = 1
        for pid in range(3):
            product = product * broadcasts[pid][2][1] % medium.p
        valid = product == 1
        if style in ("commitment_only", "consistent_pair"):
            assert not valid  # the commitment product catches it at once
            continue
        assert valid  # a bare value shift is invisible to the product...
        stmt = retransmission_statement(targets[0], 0, 2, b"t")
        for branch in (0, 1):  # ...but leaves no provable branch
            with pytest.raises(WitnessMismatch):
                prove_or(medium, stmt, branch, blinds[0][2 + branch], rng)


def test_transcript_level_hiding_is_uniform(small):
    """Exhaustive pad enumeration: each broadcast value is uniform."""
    q = 53
    message = 29
    # two participants: O_0 = k + M, O_1 = -k
    seen = Counter(( (k + message) % q) for k in range(q))
    assert all(seen[v] == 1 for v in range(q))
    # three participants: marginal of O_0 over all pad choices is uniform
    marginal = Counter()
    for k01 in range(q):
        for k02 in range(q):
            marginal[(k01 + k02 + message) % q] += 1
    assert all(marginal[v] == q for v in range(q))


def with_slot0(edge, count_key, total_key, blind, q):
    """The edge with its slot-0 secrets replaced."""
    return edge._replace(
        count_keys=(count_key % q,) + edge.count_keys[1:],
        total_keys=(total_key % q,) + edge.total_keys[1:],
        blinds=(blind % q,) + edge.blinds[1:],
    )


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1]], ids=["sorted", "unsorted"])
def test_broadcasts_hide_the_sender_exactly(small, dlog, order):
    """Untraceability through the engine, at test_small: for a sender a
    of (1, x) and any other participant b, take delta with h^delta =
    g * f^x and s = +1 when a is the lo end of edge (a, b), else -1.
    Mapping the edge's slot-0 count key by +s, total key by +s * x and
    blinding value by -s * delta takes every participant's round-1
    broadcast with a sending, under the original keys, to the same
    broadcast with b sending under the mapped keys, and leaves the
    edge's endorsed commitment as it was.  The map is a bijection on the
    uniform keys, so the broadcasts are as likely from either sender.
    The count key is enumerated; total key, blinding value and x are
    sampled."""
    q, p, rng = small.q, small.p, random.Random(23)
    signing = {pid: gen_signing_key(small, rng) for pid in order}
    graph = KeyGraph(small, order, signing, frozenset())
    graph.add_epoch(rng)
    edges = graph.epochs[0].edges
    deltas = [dlog(small, small.h, small.g * pow(small.f, x, p) % p) for x in range(q)]

    def broadcasts(pair, edge, sender, x):
        graph.epochs[0] = graph.sign_epoch({**edges, pair: edge}, 0)
        return [
            make_ciphertext(graph.view(pid), 0, (1, x) if pid == sender else None)
            for pid in graph.participants
        ]

    for a, b in permutations(graph.participants, 2):
        pair, s = (min(a, b), max(a, b)), 1 if a < b else -1
        for count_key in range(q):
            for _ in range(4):
                total_key, blind, x = rng.randrange(q), rng.randrange(q), rng.randrange(q)
                keys = (count_key, total_key, blind)
                mapped = (count_key + s, total_key + s * x, blind - s * deltas[x])
                assert commit(small, keys[:2], keys[2]) == commit(small, mapped[:2], mapped[2])
                original = broadcasts(pair, with_slot0(edges[pair], *keys, q), a, x)
                assert broadcasts(pair, with_slot0(edges[pair], *mapped, q), b, x) == original


def honest_published(graph, n, slot):
    return {pid: graph.view(pid).published_pairs(slot) for pid in range(n)}


def test_investigation_honest_round_empty_verdicts(small):
    n = 4
    graph = fresh_graph(small, n, seed=8)
    cts, _, _ = run_round(small, graph, n)
    verdicts = investigate(small, cts, 0, honest_published(graph, n, 0), graph.public())
    assert verdicts == {}


def test_investigation_aggregate_mismatch(small):
    n = 4
    graph = fresh_graph(small, n, seed=9)
    views = {pid: graph.view(pid) for pid in range(n)}
    cts = [make_ciphertext(views[pid], 0) for pid in range(n)]
    cts[2] = cts[2]._replace(
        value=shift(cts[2].value, (1, 0)),
        commitment=cts[2].commitment * small.g % small.p,
    )
    _, valid = aggregate_round(small, cts)
    assert not valid
    verdicts = investigate(small, cts, 0, honest_published(graph, n, 0), graph.public())
    assert verdicts == {2: [AGGREGATE_MISMATCH]}


def test_investigation_bad_signature_pins_tamperer(small):
    n = 3
    graph = fresh_graph(small, n, seed=10)
    views = {pid: graph.view(pid) for pid in range(n)}
    cts = [make_ciphertext(views[pid], 0) for pid in range(n)]
    # participant 1 used a shifted pad toward 2 and published the shifted
    # commitment with the stale endorsement
    published = honest_published(graph, n, 0)
    sc = published[1][2]
    shifted = sc._replace(commitment=sc.commitment * small.g % small.p)
    published[1] = dict(published[1])
    published[1][2] = shifted
    cts[1] = cts[1]._replace(
        value=shift(cts[1].value, (1, 0)),
        commitment=cts[1].commitment * small.g % small.p,
    )
    _, valid = aggregate_round(small, cts)
    assert not valid
    verdicts = investigate(small, cts, 0, published, graph.public())
    assert 1 in verdicts
    assert BAD_SIGNATURE in verdicts[1]
    assert 2 not in verdicts  # honest counterparty stays clean
    assert 0 not in verdicts


def forge_endorsement(params, graph, holder, signer, commitments):
    """A corrupted setup channel in epoch 0: ``signer`` endorses
    ``commitments`` as its edge with ``holder``, which reveals them,
    while every other tree holds the edge's real root.  Returns what
    everyone reveals at slot 0 and the public key graph."""
    real = graph.epochs[0]
    pair = (min(holder, signer), max(holder, signer))
    edges = dict(real.edges)
    row = b"".join(params.element_to_bytes(c) for c in commitments)
    edges[pair] = edges[pair]._replace(commitments=tuple(commitments), digest=edge_digest(row))
    graph.epochs[0] = graph.sign_epoch(edges, 0)
    # every reveal toward the signer leads to its root over the forged edge
    toward_signer = {
        pid: graph.view(pid).published_pairs(0)[signer]
        for pid in graph.participants
        if pid != signer
    }
    signed = tuple(s if s.part == signer else r for s, r in zip(graph.epochs[0].signed, real.signed))
    graph.epochs[0] = real
    n = len(graph.participants)
    published = {pid: dict(pairs) for pid, pairs in honest_published(graph, n, 0).items()}
    for pid, revealed in toward_signer.items():
        published[pid][signer] = revealed
    return published, graph.public()._replace(epochs=(signed,))


def test_investigation_pair_mismatch_both_flagged(small):
    """If both endpoints reveal mutually inconsistent endorsed values (a
    corrupted setup channel), both are flagged: there is no tiebreak."""
    n = 3
    graph = fresh_graph(small, n, seed=11)

    views = {pid: graph.view(pid) for pid in range(n)}
    cts = [make_ciphertext(views[pid], 0) for pid in range(n)]
    # forge a consistent-looking but differing endorsement of edge (0, 1):
    # 1 signs its tree over the root of a list whose slot 0 is shifted
    commitments = graph.edge(0, 1).commitments
    forged_list = (commitments[0] * small.g % small.p,) + commitments[1:]
    published, public = forge_endorsement(small, graph, 0, 1, forged_list)
    assert published[0][1].commitment != published[1][0].commitment
    cts[0] = cts[0]._replace(commitment=cts[0].commitment * small.g % small.p)
    verdicts = investigate(small, cts, 0, published, public)
    assert PAIR_MISMATCH in verdicts.get(0, [])
    assert PAIR_MISMATCH in verdicts.get(1, [])


def test_investigation_binds_revealed_commitment_to_its_slot(small):
    """An endorsed commitment revealed with its own valid path does not
    pass for another slot's: it is put back at the slot's place in its
    edge's row, and the root and its signature follow from the slot's
    epoch."""
    n = 3
    graph = fresh_graph(small, n, seed=16)
    graph.add_epoch(random.Random(17))
    endorsed = [graph.edge(1, 2, epoch) for epoch in (0, 1)]
    # (slot spent, the epoch of what 1 used and revealed, its index):
    # another slot's in the same epoch, and the same index of another epoch
    cases = [(0, 0, 1), (0, 1, 0), (EPOCH_SLOTS, 0, 0)]
    for slot, used_epoch, index in cases:
        honest, used = endorsed[slot // EPOCH_SLOTS], endorsed[used_epoch]
        assert used.commitments[index] != honest.commitments[slot % EPOCH_SLOTS]
        cts = [make_ciphertext(graph.view(pid), slot) for pid in range(n)]
        # participant 1 used that pad toward 2 in this slot and reveals
        # its commitment with its own path, up to 2's root for its epoch
        shift = used.commitments[index] * pow(
            honest.commitments[slot % EPOCH_SLOTS], -1, small.p
        ) % small.p
        cts[1] = cts[1]._replace(commitment=cts[1].commitment * shift % small.p)
        _, valid = aggregate_round(small, cts)
        assert not valid
        published = honest_published(graph, n, slot)
        published[1] = dict(published[1])
        published[1][2] = graph.view(1).published_pairs(used_epoch * EPOCH_SLOTS + index)[2]
        verdicts = investigate(small, cts, slot, published, graph.public())
        assert BAD_SIGNATURE in verdicts[1], (slot, index)
        assert AGGREGATE_MISMATCH not in verdicts[1]
        assert 2 not in verdicts  # honest counterparty stays clean
        assert 0 not in verdicts


def test_investigation_short_or_swapped_path_is_bad_signature(small):
    # an honest round, but 1 reveals its commitment toward 2 with a path
    # one sibling or one commitment short or long, or with its row of the
    # edge's other commitments and its signer-tree siblings swapped: only
    # 1 is flagged, and nothing raises
    n = 4
    graph = fresh_graph(small, n, seed=18)
    cts, _, _ = run_round(small, graph, n)
    path = graph.view(1).published_pairs(0)[2].path
    one = 2 * small.element_bytes   # hex digits of one commitment
    split = (EPOCH_SLOTS - 1) * one
    assert len(path) == split + 2 * 64
    row, siblings = path[:split], path[split:]
    for tampered in (
        path[:-64],
        path + siblings[:64],
        row[one:] + siblings,
        row + row[:one] + siblings,
        siblings + row,
    ):
        published = honest_published(graph, n, 0)
        published[1] = dict(published[1])
        published[1][2] = published[1][2]._replace(path=tampered)
        verdicts = investigate(small, cts, 0, published, graph.public())
        assert verdicts == {1: [BAD_SIGNATURE]}


def test_investigation_non_cooperation(small):
    n = 3
    graph = fresh_graph(small, n, seed=12)
    cts, _, _ = run_round(small, graph, n)
    published = honest_published(graph, n, 0)
    del published[1]
    verdicts = investigate(small, cts, 0, published, graph.public())
    assert verdicts == {1: [NON_COOPERATION]}


def test_investigation_respects_optouts(small):
    n = 3
    graph = fresh_graph(small, n, seed=13, refusers={2})
    cts, _, valid = run_round(small, graph, n)
    assert valid
    published = {pid: graph.view(pid).published_pairs(0) for pid in range(n)}
    verdicts = investigate(small, cts, 0, published, graph.public())
    assert verdicts == {}


def test_investigation_verdict_nonempty_on_invalid_rounds(small):
    # whenever validity fails and everyone publishes, someone is flagged
    rng = random.Random(14)
    for trial in range(25):
        n = rng.randrange(2, 6)
        graph = fresh_graph(small, n, seed=300 + trial)
        views = {pid: graph.view(pid) for pid in range(n)}
        cts = [make_ciphertext(views[pid], 0) for pid in range(n)]
        cheat = rng.randrange(n)
        cts[cheat] = cts[cheat]._replace(commitment=cts[cheat].commitment * small.g % small.p)
        _, valid = aggregate_round(small, cts)
        assert not valid
        verdicts = investigate(small, cts, 0, honest_published(graph, n, 0), graph.public())
        assert set(verdicts) == {cheat}
