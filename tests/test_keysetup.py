"""Pairwise setup: antisymmetry, endorsements, opt-outs, epochs."""

import hashlib
import random
from types import SimpleNamespace

import pytest

from dcmesh import groups, keysetup, merkle, zkp
from dcmesh.errors import WitnessMismatch
from dcmesh.groups import commit, commit_scalars, derive_params
from dcmesh.keysetup import (
    EPOCH_SLOTS,
    NO_EDGE,
    KeyGraph,
    SignedRoot,
    build_key_graph,
    edge_digest,
    endorse_payload,
    endorse_statement,
    establish_edges,
    gen_signing_key,
    is_endorsed,
    opted_out_peers,
    signer_width,
)
from dcmesh.splitter import denial_statement, retransmission_statement

TAG = b"dc-mesh/v1"


# ---------------------------------------------------------------------------
# references recomputed from the secrets, which the key views are tested against


def round_secret(graph, i, j, slot):
    """((count key, total key), blinding value) of edge i -> j for a slot;
    zero when opted out."""
    epoch, index = divmod(slot, EPOCH_SLOTS)
    edge = graph.edge(i, j, epoch)
    if edge is None:
        return (0, 0), 0
    key = (edge.count_keys[index], edge.total_keys[index])
    blind = edge.blinds[index]
    if i < j:
        return key, blind
    q = graph.params.q
    return (-key[0] % q, -key[1] % q), (-blind) % q


def pair_sum(pairs, q):
    pairs = list(pairs)
    return sum(a for a, _ in pairs) % q, sum(b for _, b in pairs) % q


def build_tree(leaves, width):
    """``merkle.build_tree`` over the leaves' hashes."""
    return merkle.build_tree([merkle.leaf_hash(leaf) for leaf in leaves], width)


def aggregate_commitment(graph, pid, slot):
    """Product of the participant's directed pair commitments for a slot;
    an opted-out edge's zero secrets commit to the identity."""
    acc = 1
    for peer in graph.participants:
        if peer != pid:
            acc = acc * commit(graph.params, *round_secret(graph, pid, peer, slot)) % graph.params.p
    return acc


def endorses(params, signed, signer, key, epoch, optouts) -> bool:
    """Whether ``signed`` verifies as ``signer``'s ENDORSE under ``key``
    for the epoch and the opted-out pairs ``optouts``, as the judge checks it."""
    stmt = endorse_statement(params, key, signed.root, signer, epoch, optouts)
    return zkp.verify_or(params, [stmt], [(signed.signature,)]) == [True]


def test_signature_roundtrip(small):
    # a signature is a one-branch proof of the key's log to h, whose
    # context is the endorse payload: it holds for its root and its key only
    rng = random.Random(0)
    key = gen_signing_key(small, rng)
    assert key.public == small.h_table.power(key.secret)
    root = bytes(32)
    stmt = endorse_statement(small, key.public, root, 0, 0, frozenset())
    (signature,) = zkp.prove_or(small, stmt, 0, key.secret, rng)
    signed = SignedRoot(root, signature)
    assert endorses(small, signed, 0, key.public, 0, frozenset())
    assert not endorses(small, signed._replace(root=b"\x01" + root[1:]), 0, key.public, 0, frozenset())
    other = gen_signing_key(small, rng)
    assert not endorses(small, signed, 0, other.public, 0, frozenset())
    # no signature under a key its signer does not hold
    with pytest.raises(WitnessMismatch):
        zkp.prove_or(small, stmt, 0, other.secret, rng)


def test_a_signature_is_only_its_endorse(medium):
    # an ENDORSE signature and the judge's proofs share one Fiat-Shamir
    # scheme over one base: a signature verifies as its signer's ENDORSE
    # for its own epoch and opt-outs only, not as a denial or
    # retransmission proof with the key as a target, and no such proof
    # made with the key verifies as the ENDORSE
    rng, tag = random.Random(23), bytes(32) + b"|s1"
    graph = build_key_graph(medium, range(4), random.Random(21), refusers={3})
    graph.add_epoch(random.Random(22))
    public = graph.public()
    optouts = public.optouts
    assert optouts == {(0, 3), (1, 3), (2, 3)}
    for epoch, signed in enumerate(public.epochs):
        for pid, s in enumerate(signed):
            key = public.publics[pid]
            assert endorses(medium, s, pid, key, epoch, optouts)
            assert not endorses(medium, s, pid, key, 1 - epoch, optouts)
            assert not endorses(medium, s, (pid + 1) % 4, key, epoch, optouts)
            assert not endorses(medium, s, pid, key, epoch, frozenset())
            endorse = endorse_statement(medium, key, s.root, pid, epoch, optouts)
            denial = denial_statement(medium, {5: key}, pid, 5, tag)
            retransmission = retransmission_statement(medium, {2: key, 3: key}, pid, 2, tag)
            forms = [(s.signature,), (s.signature,) * 2]
            stmts = [denial, denial, retransmission, retransmission]
            assert zkp.verify_or(medium, stmts, forms * 2) == [False] * 4
            for stmt in (denial, retransmission):
                proof = zkp.prove_or(medium, stmt, 0, graph.signing[pid].secret, rng)
                assert zkp.verify_or(medium, [stmt], [proof]) == [True]
                # as the ENDORSE's proof, and each of its branches as one
                attempts = [proof] + [(pair,) for pair in proof]
                assert zkp.verify_or(medium, [endorse] * len(attempts), attempts) == [False] * len(attempts)


@pytest.mark.parametrize("level", ["small", "medium"])
def test_establish_pair_antisymmetry(level, request):
    params = request.getfixturevalue(level)
    rng = random.Random(1)
    (edge,) = establish_edges(params, [(0, 1)], rng).values()
    assert len(edge.count_keys) == len(edge.total_keys) == len(edge.blinds) == EPOCH_SLOTS
    q = params.q
    for slot, (count, total, blind) in enumerate(zip(edge.count_keys, edge.total_keys, edge.blinds)):
        c_ij = commit(params, (count, total), blind)
        c_ji = commit(params, (-count % q, -total % q), -blind % q)
        assert c_ij * c_ji % params.p == 1
        # one list per edge: the lo -> hi commitments, which both ends reveal
        assert edge.commitments[slot] == c_ij
    # the edge's digest is over its commitments, in slot order
    row = b"".join(params.element_to_bytes(c) for c in edge.commitments)
    assert edge.digest == edge_digest(row)


@pytest.mark.parametrize("level", ["test_small", "test_medium", "production"])
def test_pair_secrets_are_a_randrange_stream(level, monkeypatch):
    # one getrandbits loop draws exactly what randrange(q) would, and
    # leaves the generator in the same state: for one pair, and for an
    # epoch's rows, whose shared edges draw in (lo, hi) order
    params = derive_params(level, TAG)
    if level == "production":
        # only the draws are asserted, and a production walk of 3 * 410
        # rows per commitment is checked against commit in test_groups
        monkeypatch.setattr(keysetup, "commit_scalars", lambda params, counts, *_: [1] * len(counts))
    keys = random.Random(4)
    signing = {pid: gen_signing_key(params, keys) for pid in range(6)}
    rng, reference = random.Random(5), random.Random(5)
    (first,) = establish_edges(params, [(0, 1)], rng).values()
    graph = KeyGraph(params, range(6), signing, frozenset({2}))
    graph.add_epoch(rng)
    shared = [edge for _, edge in sorted(graph.epochs[0].edges.items())]
    assert len(shared) == 10   # fifteen edges, five of them opted out by 2
    drawn = [
        x
        for s in [first] + shared
        for triple in zip(s.count_keys, s.total_keys, s.blinds)
        for x in triple
    ]
    assert drawn == [reference.randrange(params.q) for _ in range(11 * 3 * EPOCH_SLOTS)]
    # then the epoch's six signatures, each one proof nonce, the refuser's too
    for _ in range(6):
        reference.randrange(params.q)
    assert rng.getstate() == reference.getstate()


def test_establish_pair_exponentiation_count(medium, monkeypatch):
    # one commitment per slot: 3 * EPOCH_SLOTS table powers (g, f and h),
    # no inversion, and one digest per edge; an epoch adds two table
    # powers per participant's signature, its proof's witness check and
    # its nonce, each participant's commitments to its sums, and the
    # participants' trees over leaves each hashed once.  Every SHA-256
    # call of key setup is counted, in keysetup, merkle and zkp alike; a
    # signature's one, its proof's challenge, apart
    rng = random.Random(6)
    table_power, table_powers = groups.WindowTable.power, groups.WindowTable.powers
    exponents, inversions, hashes, walks = [], [], [], []

    def counting_power(table, exponent):
        exponents.append(exponent)
        return table_power(table, exponent)

    def counting_powers(table, batch):
        exponents.extend(batch)
        return table_powers(table, batch)

    def counting_commit_scalars(params, counts, totals, blinds):
        # one walk of the g, f and h tables: an exponent per list item
        exponents.extend([*counts, *totals, *blinds])
        walks.append(len(counts))
        return commit_scalars(params, counts, totals, blinds)

    def counting_pow(*args):
        if args[1] == -1:
            inversions.append(args)
        return pow(*args)

    def counting_sha256(data=b""):
        hashes.append(data)
        return hashlib.sha256(data)

    def setup_hashes():
        """(hashes outside signatures, hashes in signatures) since the last clear."""
        signing = sum(data.startswith(medium.fs_prefix) for data in hashes)
        return len(hashes) - signing, signing

    monkeypatch.setattr(groups.WindowTable, "power", counting_power)
    monkeypatch.setattr(groups.WindowTable, "powers", counting_powers)
    for module in (groups, keysetup):
        monkeypatch.setattr(module, "commit_scalars", counting_commit_scalars)
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    for module in (keysetup, merkle, zkp):
        monkeypatch.setattr(module, "hashlib", SimpleNamespace(sha256=counting_sha256))
    establish_edges(medium, [(0, 1)], rng)
    assert len(exponents) == 3 * EPOCH_SLOTS
    assert walks == [EPOCH_SLOTS]
    assert inversions == []
    assert setup_hashes() == (1, 0)
    # six participants: fifteen edges, one digest and one leaf hash each,
    # one leaf hash of NO_EDGE, six signers' trees eight leaves wide, 7
    # node hashes each, six signatures of two powers and six participants' sums
    graph = build_key_graph(medium, range(6), rng)
    exponents.clear()
    hashes.clear()
    walks.clear()
    graph.add_epoch(rng)
    assert inversions == []
    assert len(exponents) == (15 + 6) * 3 * EPOCH_SLOTS + 2 * 6 == 516
    # two walks an epoch: every edge's slots, then every participant's sums
    assert walks == [15 * EPOCH_SLOTS, 6 * EPOCH_SLOTS]
    assert signer_width(6) == 8
    assert setup_hashes() == (15 + 15 + 1 + 6 * (8 - 1), 6) == (73, 6)
    # a view's first read makes no power; the build and every view's first
    # read together make as many as when each view summed its epoch itself
    for pid in range(6):
        graph.view(pid).aggregate_commitment(EPOCH_SLOTS)
    assert len(exponents) == 15 * 3 * EPOCH_SLOTS + 2 * 6 + 6 * 3 * EPOCH_SLOTS
    # thirty-two: 496 edges and 32 signers' trees 32 leaves wide
    graph = build_key_graph(medium, range(32), rng)
    hashes.clear()
    graph.add_epoch(rng)
    assert signer_width(32) == 32
    assert setup_hashes() == (496 + 496 + 1 + 32 * (32 - 1), 32) == (1985, 32)


def test_per_round_secrets_are_fresh(small):
    # two slots draw independently: over many edges the per-slot keys
    # must not be systematically equal
    rng = random.Random(3)
    repeats = 0
    for _ in range(120):
        (edge,) = establish_edges(small, [(0, 1)], rng).values()
        if edge.count_keys[0] == edge.count_keys[1]:
            repeats += 1
        if edge.total_keys[0] == edge.total_keys[1]:
            repeats += 1
    assert repeats < 20  # expectation is about 240/53


def test_key_graph_structure_and_views(small):
    rng = random.Random(4)
    graph = build_key_graph(small, range(4), rng)
    graph.add_epoch(random.Random(40))
    assert [len(epoch.edges) for epoch in graph.epochs] == [6, 6]
    slots = [0, 1, EPOCH_SLOTS - 1, EPOCH_SLOTS, 2 * EPOCH_SLOTS - 1]
    # directed secrets are negations of each other, in every epoch
    for slot in slots:
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                (a_count, a_total), a_blind = round_secret(graph, i, j, slot)
                (b_count, b_total), b_blind = round_secret(graph, j, i, slot)
                assert (a_count + b_count) % 53 == 0
                assert (a_total + b_total) % 53 == 0
                assert (a_blind + b_blind) % 53 == 0
    # pad sums cancel across all participants
    for slot in slots:
        assert pair_sum((graph.view(i).pad_sum(slot) for i in range(4)), 53) == (0, 0)


def test_aggregate_commitments_cancel(small):
    rng = random.Random(5)
    graph = build_key_graph(small, range(5), rng)
    for slot in range(2):
        product = 1
        for pid in range(5):
            product = product * aggregate_commitment(graph, pid, slot) % small.p
        assert product == 1
        # view agrees with graph-level aggregation
        for pid in range(5):
            assert graph.view(pid).aggregate_commitment(slot) == aggregate_commitment(
                graph, pid, slot
            )


def test_views_match_the_round_secret_oracle(small):
    # refusers opt out every edge they touch; a view sums only the rest
    n, q = 6, small.q
    graph = build_key_graph(small, range(n), random.Random(14), refusers={1, 4})
    views = {pid: graph.view(pid) for pid in range(n)}
    graph.add_epoch(random.Random(15))   # after the views exist: they read it too
    budget = 2 * EPOCH_SLOTS
    for slot in range(budget):
        for pid, view in views.items():
            secrets = [round_secret(graph, pid, peer, slot) for peer in range(n) if peer != pid]
            assert view.pad_sum(slot) == pair_sum((key for key, _ in secrets), q)
            assert view.blind_sum(slot) == sum(blind for _, blind in secrets) % q
            assert view.aggregate_commitment(slot) == aggregate_commitment(graph, pid, slot)
        assert pair_sum((v.pad_sum(slot) for v in views.values()), q) == (0, 0)
        assert sum(v.blind_sum(slot) for v in views.values()) % q == 0
    with pytest.raises(IndexError):   # its epoch is not endorsed
        views[2].pad_sum(budget)
    assert views[1].pad_sum(0) == (0, 0) and views[1].blind_sum(0) == 0


def test_key_graph_over_unsorted_participants(small):
    # the graph orders its participants itself: its edges run lo -> hi,
    # and every view's sums match the oracle and cancel
    rng = random.Random(18)
    signing = {pid: gen_signing_key(small, rng) for pid in (2, 0, 1)}
    graph = KeyGraph(small, [2, 0, 1], signing, frozenset())
    graph.add_epoch(rng)
    assert graph.participants == (0, 1, 2)
    assert sorted(graph.epochs[0].edges) == [(0, 1), (0, 2), (1, 2)]
    views = {pid: graph.view(pid) for pid in (2, 0, 1)}
    for slot in range(EPOCH_SLOTS):
        for pid, view in views.items():
            secrets = [round_secret(graph, pid, peer, slot) for peer in range(3) if peer != pid]
            assert view.pad_sum(slot) == pair_sum((key for key, _ in secrets), small.q)
            assert view.blind_sum(slot) == sum(blind for _, blind in secrets) % small.q
            assert view.aggregate_commitment(slot) == aggregate_commitment(graph, pid, slot)
        assert pair_sum((v.pad_sum(slot) for v in views.values()), small.q) == (0, 0)
        assert sum(v.blind_sum(slot) for v in views.values()) % small.q == 0
    assert_endorsements_match_a_reference(graph)


def test_optout_edges_contribute_identity(small):
    rng = random.Random(6)
    graph = build_key_graph(small, range(4), rng, refusers={2})
    for peer in (0, 1, 3):
        assert graph.edge(2, peer) is None
        assert round_secret(graph, 2, peer, 0) == ((0, 0), 0)
    # a full refuser has the identity aggregate
    assert aggregate_commitment(graph, 2, 0) == 1
    # validity still holds for everyone
    product = 1
    for pid in range(4):
        product = product * aggregate_commitment(graph, pid, 0) % small.p
    assert product == 1


def test_opted_out_edges_are_absent(small):
    # a refuser in mid-row: its five edges are held nowhere, in any epoch
    graph = build_key_graph(small, range(6), random.Random(16), refusers={2})
    graph.add_epoch(random.Random(17))
    established = [(lo, hi) for lo in range(6) for hi in range(lo + 1, 6) if 2 not in (lo, hi)]
    assert len(established) == 10
    for epoch in graph.epochs:
        assert sorted(epoch.edges) == established
    for peer in (0, 1, 3, 4, 5):
        assert graph.edge(2, peer) is None and graph.edge(peer, 2, 1) is None
    assert graph.view(2).published_pairs(0) == {}
    assert graph.optouts == {(min(2, peer), max(2, peer)) for peer in (0, 1, 3, 4, 5)}
    assert graph.public().optouts == graph.optouts


def test_all_edges_opted_out(small):
    rng = random.Random(7)
    graph = build_key_graph(small, range(3), rng, refusers={0, 1, 2})
    for pid in range(3):
        assert aggregate_commitment(graph, pid, 0) == 1
        assert graph.view(pid).pad_sum(0) == (0, 0)


def test_public_header_shape(small):
    rng = random.Random(9)
    graph = build_key_graph(small, range(3), rng, refusers={1})
    public = graph.public()
    assert public.participants == (0, 1, 2)
    assert sorted(public.publics) == [0, 1, 2]
    assert len(public.epochs) == 1
    # every participant signs, the refuser too, each at its own position
    signed = zip(public.participants, public.epochs[0], strict=True)
    assert all(endorses(small, s, pid, public.publics[pid], 0, public.optouts) for pid, s in signed)
    # only the established edge is held; the opted-out pairs are absent
    assert list(graph.epochs[0].edges) == [(0, 2)]
    assert public.optouts == graph.optouts == {(0, 1), (1, 2)}


def test_key_setup_signs_once_per_participant_and_epoch(medium, monkeypatch):
    signed = []
    prove_or = zkp.prove_or

    def counting_prove_or(params, stmt, *args):
        signed.append(stmt.context)
        return prove_or(params, stmt, *args)

    monkeypatch.setattr(zkp, "prove_or", counting_prove_or)
    graph = build_key_graph(medium, range(5), random.Random(13), refusers={3})
    graph.add_epoch(random.Random(14))
    graph.add_epoch(random.Random(15))
    public = graph.public()
    # exactly one root signature per participant and epoch, the refuser's too
    assert len(signed) == 5 * 3
    # each signs its opted-out peers too: 3 refuses every edge
    assert [opted_out_peers(public.optouts, pid) for pid in range(5)] == [
        [3], [3], [3], [0, 1, 2, 4], [3]
    ]
    # the signer of each root is its position
    assert signed == [
        endorse_payload(s.root, pid, epoch, opted_out_peers(public.optouts, pid))
        for epoch, e in enumerate(graph.epochs)
        for pid, s in zip(range(5), e.signed, strict=True)
    ]
    for epoch, e in enumerate(graph.epochs):
        for pid, s in enumerate(e.signed):
            # it verifies as the signer's under its key, for its epoch and
            # the session's opt-outs only
            optouts, key = public.optouts, public.publics[pid]
            assert endorses(medium, s, pid, key, epoch, optouts)
            assert not endorses(medium, s, pid, key, epoch + 1, optouts)
            assert not endorses(medium, s, pid, public.publics[(pid + 1) % 5], epoch, optouts)
            assert not endorses(medium, s, (pid + 1) % 5, key, epoch, optouts)
            assert not endorses(medium, s, pid, key, epoch, frozenset())
            # an opt-out added to one of its edges (3 has none left)
            for peer in sorted(set(range(5)) - {pid} - set(opted_out_peers(optouts, pid))):
                added = optouts | {(min(pid, peer), max(pid, peer))}
                assert not endorses(medium, s, pid, key, epoch, added)
            # over the digests of its edges, in id order, with a tag leaf
            # for an opted-out edge and for padding
            leaves = []
            for holder in range(5):
                if holder != pid:
                    edge = graph.edge(holder, pid, epoch)
                    leaves.append(NO_EDGE if edge is None else edge.digest)
            assert build_tree(leaves, 4)[-1] == [s.root]


def test_signer_width():
    # one leaf per other participant, padded to a power of two
    widths = [signer_width(n) for n in range(1, 35)]
    assert widths[:6] == [1, 1, 2, 4, 4, 8]
    assert widths[15:18] == [16, 16, 32]
    assert widths[32:] == [32, 64]


def test_merkle_batch_single_leaf(small):
    leaf = small.element_to_bytes(36)
    levels = build_tree([leaf], 1)
    assert levels == [[merkle.leaf_hash(leaf)]]
    assert merkle.path(levels, 0) == []
    assert merkle.root_at(leaf, 0, 1, []) == merkle.leaf_hash(leaf)
    assert merkle.root_at(leaf, 1, 1, []) is None


def reference_root(leaves):
    """A power-of-two tree's root, halving recursively."""
    if len(leaves) == 1:
        return merkle.leaf_hash(leaves[0])
    half = len(leaves) // 2
    return merkle.node_hash(reference_root(leaves[:half]), reference_root(leaves[half:]))


def test_merkle_roots_match_build_tree(small):
    # many trees built together have the roots each tree has alone
    leaves = [small.element_to_bytes(c) for c in range(1, 49)]
    for width in (1, 2, 4, 8, EPOCH_SLOTS):
        for trees in (0, 1, 2, 3):
            runs = [leaves[k * width : (k + 1) * width] for k in range(trees)]
            expected = [reference_root(run) for run in runs]
            assert [build_tree(run, width)[-1] for run in runs] == [[r] for r in expected]
            assert build_tree(leaves[: trees * width], width)[-1] == expected
    # a width that is not a power of two, and a ragged last tree
    for count, width in ((6, 3), (6, 4), (1, 0)):
        with pytest.raises(ValueError):
            build_tree(leaves[:count], width)


def assert_endorsements_match_a_reference(graph, epoch=0):
    """Each signed root of the epoch is that of a tree hashed leaf by
    leaf: the signer's peers in id order, each edge's digest or NO_EDGE,
    padded with NO_EDGE; and every commitment revealed is endorsed."""
    public, width = graph.public(), signer_width(len(graph.participants))
    roots = {}
    for pid, signed in zip(graph.participants, graph.epochs[epoch].signed, strict=True):
        peers = [peer for peer in graph.participants if peer != pid]
        edges = [graph.edge(peer, pid, epoch) for peer in peers]
        leaves = [NO_EDGE if edge is None else edge.digest for edge in edges]
        assert signed.root == reference_root(leaves + [NO_EDGE] * (width - len(peers)))
        assert endorses(graph.params, signed, pid, public.publics[pid], epoch, public.optouts)
        roots[pid] = signed.root
    revealed = 0
    for holder in graph.participants:
        view = graph.view(holder)
        for slot in range(epoch * EPOCH_SLOTS, (epoch + 1) * EPOCH_SLOTS):
            for signer, reveal in view.published_pairs(slot).items():
                args = (graph.params, graph.participants, roots[signer], holder, signer, slot)
                assert is_endorsed(*args, reveal)
                revealed += 1
    assert revealed == 2 * len(graph.epochs[epoch].edges) * EPOCH_SLOTS


@pytest.mark.parametrize("refuse", [False, True], ids=["no_refuser", "one_refuser"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 33, 34])
def test_signed_roots_match_a_reference_tree(small, n, refuse):
    # every tree width up to 64: n=33 fills 32 leaves with no padding,
    # n=34 pads 33 to 64; a refuser's edges are NO_EDGE in both ends' trees
    refusers = {n // 2} if refuse else set()
    graph = build_key_graph(small, range(n), random.Random(n), refusers=refusers)
    assert_endorsements_match_a_reference(graph)


def test_merkle_batch_inclusion_paths(small):
    rng = random.Random(11)
    commitments = [commit(small, (k, 0), k + 1) for k in range(2 * EPOCH_SLOTS)]
    # every tree width, in a forest of two trees
    for width in (1, 2, 4, 8, EPOCH_SLOTS):
        leaves = [small.element_to_bytes(c) for c in commitments[: 2 * width]]
        levels = build_tree(leaves, width)
        for tree, root in enumerate(levels[-1]):
            for index in range(width):
                path = merkle.path(levels, tree * width + index)
                leaf = leaves[tree * width + index]
                assert merkle.root_at(leaf, index, width, path) == root
                # a path only reproduces the root at the index it was made for
                for other in (index - 1, index + 1):
                    assert merkle.root_at(leaf, other, width, path) != root
                # and only with one sibling per level
                if path:
                    assert merkle.root_at(leaf, index, width, path[:-1]) is None
                assert merkle.root_at(leaf, index, width, path + [root]) is None
    # two endorsed epochs of five participants, one of them a refuser:
    # at every slot both ends of an edge reveal its lo -> hi commitment,
    # each with the edge's other commitments for the epoch and a path,
    # from the edge's digest, to the root the other end signed
    graph = build_key_graph(small, range(5), rng, refusers={3})
    graph.add_epoch(rng)
    participants = graph.participants
    split = (EPOCH_SLOTS - 1) * small.element_bytes   # bytes of the other commitments
    shared = [(a, b) for a in participants for b in participants if a != b and 3 not in (a, b)]

    def endorsed(revealed, holder, signer, slot, epoch=None, root_of=None):
        epoch = slot // EPOCH_SLOTS if epoch is None else epoch
        root = graph.epochs[epoch].signed[signer if root_of is None else root_of].root
        return is_endorsed(small, participants, root, holder, signer, slot, revealed)

    for slot in range(2 * EPOCH_SLOTS):
        epoch, index = divmod(slot, EPOCH_SLOTS)
        pairs = {holder: graph.view(holder).published_pairs(slot) for holder in participants}
        assert pairs[3] == {}
        assert sorted((a, b) for a in pairs for b in pairs[a]) == sorted(shared)
        for holder, signer in shared:
            revealed = pairs[holder][signer]
            lo, hi = min(holder, signer), max(holder, signer)
            assert revealed.commitment == graph.edge(lo, hi, epoch).commitments[index]
            assert revealed.commitment == pairs[signer][holder].commitment
            # the edge's seven other commitments, alike from both ends,
            # then two levels of the signer's tree
            assert revealed.path[:split] == pairs[signer][holder].path[:split]
            assert len(revealed.path) == split + 2 * 32
            assert endorsed(revealed, holder, signer, slot)
            # not against a third signer's root
            for third in participants:
                if third not in (holder, signer):
                    assert not endorsed(revealed, holder, signer, slot, root_of=third)
            # nor at another slot: another index, unless the edge's
            # commitment there is the same value (the small group repeats
            # some), or the same index of the other epoch, which has its
            # own roots
            row = graph.edge(lo, hi, epoch).commitments
            for other in (index - 1, index + 1):
                if 0 <= other < EPOCH_SLOTS:
                    same = row[other] == row[index]
                    assert endorsed(revealed, holder, signer, epoch * EPOCH_SLOTS + other) == same
            assert not endorsed(revealed, holder, signer, slot, 1 - epoch)
            # another holder's leaf of the same signer's tree
            other_holder = next(p for p in participants if p not in (holder, signer))
            assert not endorsed(revealed, other_holder, signer, slot)


def test_merkle_batch_rejects_tampering(small):
    graph = build_key_graph(small, range(3), random.Random(12))
    graph.add_epoch(random.Random(13))
    published = graph.view(0).published_pairs(2)
    revealed = published[1]
    edge = graph.edge(0, 1)

    def endorsed(revealed, holder=0, signer=1, epoch=0):
        root = graph.epochs[epoch].signed[signer].root
        return is_endorsed(small, graph.participants, root, holder, signer, 2, revealed)

    assert endorsed(revealed)
    # the edge's other commitments in slot order, then one sibling in the
    # signer's tree (width 2)
    split = (EPOCH_SLOTS - 1) * small.element_bytes
    row, siblings = revealed.path[:split], revealed.path[split:]
    others = [c for slot, c in enumerate(edge.commitments) if slot != 2]
    assert row == b"".join(small.element_to_bytes(c) for c in others)
    assert len(siblings) == 32
    # the other end reveals the same commitment and row, up to 0's root
    other_end = graph.view(1).published_pairs(2)[0]
    assert (other_end.commitment, other_end.path[:split]) == (revealed.commitment, row)
    assert endorsed(other_end, holder=1, signer=0)
    # wrong leaf value: the right row with a neighbouring slot's commitment
    for neighbour in (1, 3):
        assert not endorsed(revealed._replace(commitment=edge.commitments[neighbour]))
    # another edge's row from the same holder and slot
    assert not endorsed(revealed._replace(path=published[2].path[:split] + siblings))
    # epoch 1's reveal, or its row, against epoch 0's signed root
    later = graph.view(0).published_pairs(EPOCH_SLOTS + 2)[1]
    assert endorsed(later, epoch=1)
    assert not endorsed(later)
    assert not endorsed(revealed._replace(path=later.path[:split] + siblings))
    # a flipped bit in the row or in the signer tree's siblings
    for at in (0, split):
        flipped = revealed.path[:at] + bytes([revealed.path[at] ^ 1]) + revealed.path[at + 1 :]
        assert not endorsed(revealed._replace(path=flipped))
    # wrong length: a row one commitment short or long, no sibling, one
    # too many, one byte short, and no path at all
    one = small.element_bytes
    for path in (
        row[one:] + siblings, row + row[:one] + siblings, row, revealed.path + bytes(32),
        revealed.path[:-1], b"",
    ):
        assert not endorsed(revealed._replace(path=path))
    # the row and the siblings swapped
    assert not endorsed(revealed._replace(path=siblings + row))
    # a commitment outside the group's encoding
    assert not endorsed(revealed._replace(commitment=-1))
    assert not endorsed(revealed._replace(commitment=1 << 8 * small.element_bytes))
    # another signer's root, and the other end's leaf in 0's own tree
    assert not endorsed(revealed, signer=2)
    assert not endorsed(revealed, holder=1, signer=0)


def test_setup_determinism(small):
    a = build_key_graph(small, range(4), random.Random(99))
    b = build_key_graph(small, range(4), random.Random(99))
    for pair in a.epochs[0].edges:
        # the secrets, the commitments and their digest
        assert a.edge(*pair) == b.edge(*pair)
    assert a.public() == b.public()
