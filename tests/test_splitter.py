"""Collision resolution: slot codec, tree scheduling, chain proofs."""

import random

import pytest

from dcmesh import sim, zkp
from dcmesh.dcnet import aggregate_round
from dcmesh.errors import NotACollision, PayloadOverflow, ProtocolOrderViolation
from dcmesh.splitter import (
    COLLISION,
    EMPTY,
    EQUAL,
    RESOLVED,
    STUCK,
    ResolutionTree,
    audit_wrong_branches,
    branch_context,
    encode_slot,
    prove_node_denial,
    prove_retransmission,
    slot_fits,
    split_decision,
    threshold,
    verify_node_denial,
    verify_retransmission,
)


# ---------------------------------------------------------------------------
# slot codec and split arithmetic


def add_slots(*slots):
    return tuple(map(sum, zip(*slots))) if slots else (0, 0)


def test_encode_decode_roundtrip():
    assert encode_slot(130, 8) == (1, 130)
    for payload in (0, 1, 254, 255):
        assert encode_slot(payload, 8) == (1, payload)


def test_three_colliding_slots_add():
    m1, m2, m3 = 20, 31, 77
    assert add_slots(encode_slot(m1, 8), encode_slot(m2, 8), encode_slot(m3, 8)) == (
        3, m1 + m2 + m3
    )


def test_slots_summing_past_the_payload_width_keep_their_count(medium):
    # 200 + 100 + 50 = 350 >= 2^8, which one packed scalar would carry
    # into the count, reading (4, 94); the pair reads (3, 350), in a round too
    slots = [encode_slot(m, 8) for m in (200, 100, 50)]
    assert add_slots(*slots) == (3, 350)
    from dcmesh.dcnet import make_ciphertext
    from dcmesh.keysetup import build_key_graph

    graph = build_key_graph(medium, range(4), random.Random(2))
    cts = [make_ciphertext(graph.view(pid), 1, (slots + [None])[pid]) for pid in range(4)]
    result = aggregate_round(medium, range(4), cts)
    assert result.valid and result.aggregate == (3, 350)


def test_zero_aggregate_is_empty():
    assert add_slots() == (0, 0)
    tree = ResolutionTree(1009, 4)
    tree.advance(synthetic_result(1, []))
    assert tree.nodes[1].status == EMPTY and (tree.nodes[1].count, tree.nodes[1].total) == (0, 0)


def test_payload_overflow_guard():
    with pytest.raises(PayloadOverflow):
        encode_slot(256, 8)
    with pytest.raises(PayloadOverflow):
        encode_slot(-1, 8)


def test_slot_fits_guard(medium, small):
    assert slot_fits(16, 12, medium.q)
    assert not slot_fits(17, 12, medium.q)
    assert not slot_fits(1, 8, small.q)  # the tiny group holds no slots


def test_threshold_reference_values():
    assert threshold(5, 130) == 26
    assert threshold(2, 28) == 14
    assert threshold(3, 102) == 34
    assert threshold(2, 74) == 37
    with pytest.raises(NotACollision):
        threshold(1, 10)


def test_threshold_always_separates_distinct_payloads():
    rng = random.Random(0)
    for _ in range(500):
        count = rng.randrange(2, 9)
        payloads = rng.sample(range(256), count)
        t = threshold(count, sum(payloads))
        left = [m for m in payloads if m < t]
        right = [m for m in payloads if m >= t]
        assert left and right


def test_split_decision_reference_values():
    assert split_decision(11, 14, False, None) is True
    assert split_decision(17, 14, False, None) is False
    assert split_decision(36, 37, False, None) is True
    assert split_decision(38, 37, False, None) is False
    # tie goes right by convention
    assert split_decision(14, 14, False, None) is False
    # probabilistic mode consults the coin only
    assert split_decision(99, None, True, lambda: 1) is True
    assert split_decision(0, None, True, lambda: 0) is False


# ---------------------------------------------------------------------------
# tree mechanics against the worked example


def reference_tree():
    out = sim.single_session(sim.REFERENCE_SCENARIO.senders, seed=7, n=5)
    assert not out.verdicts
    return out.tree


def test_reference_tree_seed_invariant():
    """Deterministic splitting consumes no randomness, so the tree is
    identical under any seed (pads and commitments differ, values not)."""
    baseline = None
    for seed in (7, 0, 123456789):
        out = sim.single_session(sim.REFERENCE_SCENARIO.senders, seed=seed, n=5)
        shape = (
            out.tree.transmitted_order,
            sorted(out.tree.resolved),
            {nid: (n.count, n.total) for nid, n in out.tree.nodes.items() if n.count is not None},
        )
        if baseline is None:
            baseline = shape
        assert shape == baseline


def test_reference_tree_reproduced_exactly():
    tree = reference_tree()
    slots = {nid: (n.count, n.total) for nid, n in tree.nodes.items() if n.count is not None}
    assert slots == sim.REFERENCE_NODES
    thresholds = {nid: n.threshold for nid, n in tree.nodes.items() if n.threshold is not None}
    assert thresholds == sim.REFERENCE_THRESHOLDS
    assert tree.transmitted_order == [1, 2, 4, 6, 14]
    assert [p for _, p in tree.resolved] == [11, 17, 28, 36, 38]
    kinds = {nid: tree.nodes[nid].kind for nid in slots}
    assert [nid for nid in sorted(kinds) if kinds[nid] == "transmitted"] == [1, 2, 4, 6, 14]
    assert [nid for nid in sorted(kinds) if kinds[nid] == "inferred"] == [3, 5, 7, 15]


def test_tree_conservation_exact():
    tree = reference_tree()
    for nid, node in tree.nodes.items():
        if node.status != COLLISION:
            continue
        left, right = tree.nodes[2 * nid], tree.nodes[2 * nid + 1]
        assert left.count + right.count == node.count
        assert left.total + right.total == node.total
        # aggregate-level cancellation holds in the scalar field too
        q = tree.q
        assert tuple((a + b) % q for a, b in zip(left.aggregate, right.aggregate)) == node.aggregate


def test_single_sender_resolves_at_root():
    out = sim.single_session([(0, 77)], seed=1, n=3)
    tree = out.tree
    assert tree.transmitted_order == [1]
    assert tree.nodes[1].status == RESOLVED
    assert [p for _, p in tree.resolved] == [77]


def test_no_sender_root_empty():
    out = sim.single_session([], seed=1, n=2)
    assert out.tree.nodes[1].status == EMPTY
    assert out.tree.transmitted_order == [1]
    assert out.resolved == []


def test_advance_rejects_out_of_order_rounds(medium):
    tree = ResolutionTree(medium.q, 4)
    fake = aggregate_round(medium, [], [])
    with pytest.raises(ProtocolOrderViolation):
        tree.advance(fake)  # round id 0 is never schedulable


def synthetic_result(rid, payloads, payload_bits=8):
    """RoundResult carrying just an aggregate; tree mechanics need no crypto."""
    from dcmesh.dcnet import RoundResult

    aggregate = add_slots(*(encode_slot(m, payload_bits) for m in payloads))
    return RoundResult(round_id=rid, aggregate=aggregate, valid=True, ciphertexts=())


def test_tree_blocked_until_fully_resolved(medium):
    tree = ResolutionTree(medium.q, 4)
    assert not tree.blocked
    tree.advance(synthetic_result(1, [10, 20, 30]))  # collision opens the tree
    assert tree.blocked
    assert tree.next_round() == 2
    tree.advance(synthetic_result(2, [10]))  # 10 below ceil(60/3)=20
    assert tree.blocked
    assert tree.next_round() == 6  # node 3 = {20,30} splits next
    tree.advance(synthetic_result(6, [20]))
    assert not tree.blocked and tree.done
    assert [p for _, p in tree.resolved] == [10, 20, 30]
    assert tree.transmitted_order == [1, 2, 6]


def test_tree_rejects_skipped_round(medium):
    tree = ResolutionTree(medium.q, 4)
    tree.advance(synthetic_result(1, [10, 20]))
    with pytest.raises(ProtocolOrderViolation):
        tree.advance(synthetic_result(4, [10]))  # round 2 is next, not 4


def test_frontier_processes_increasing_ids():
    # in the reference run rounds 4 and 6 are pending together; 4 goes first
    tree = reference_tree()
    order = tree.transmitted_order
    assert order.index(4) < order.index(6)
    assert sorted(order) == order


def malformed_beside_honest(seed, max_retries=32):
    """An honest 5 beside a slot (2, 4) claiming two messages: (3, 9) =
    3 * 3 splits degenerately, and neither holder can claim (1, 3)."""
    return sim.single_session(
        [(0, 5), (1, 4)], adversaries=[(1, "bad_slot_count")], seed=seed, n=2,
        max_retries=max_retries,
    )


def test_equal_payloads_nonsplit_then_probabilistic():
    out = sim.single_session([(0, 9), (1, 9)], seed=13, n=2)
    tree = out.tree
    assert not out.verdicts
    assert [p for _, p in tree.resolved] == [9, 9]
    # the deterministic split failed: everything went right (ties go right)
    assert tree.nodes[2].status == EMPTY
    assert tree.nodes[3].count == 2
    # equal payloads: both prove one copy of 9 or nothing, and 9 is
    # delivered twice without a coin flip
    assert tree.nodes[3].status == EQUAL and tree.nodes[3].equal_payload == 9
    assert not tree.nodes[3].probabilistic
    assert tree.transmitted_order == [1, 2]
    assert tree.split_attempts == []
    demands = [r for r in out.records if r["type"] == "DEMAND"]
    assert [(r["node"], r["part"], r["ok"]) for r in demands] == [(3, 0, 1), (3, 1, 1)]
    # an inconsistent non-split goes probabilistic: two proofs fail there
    out = malformed_beside_honest(seed=13)
    tree = out.tree
    assert tree.nodes[2].status == EMPTY and tree.nodes[3].count == 3
    assert tree.nodes[3].status == COLLISION
    assert tree.nodes[3].probabilistic
    assert tree.nodes[3].attempt == 1
    assert tree.split_attempts and tree.split_attempts[0] >= 1
    demands = [r for r in out.records if r["type"] == "DEMAND" and r["node"] == 3]
    assert [r["ok"] for r in demands] == [0, 0]


def test_probabilistic_retry_statistics():
    attempts = []
    resolved_within = 0
    for seed in range(400):
        out = sim.single_session([(0, 5), (1, 5)], seed=seed, n=2, max_retries=32)
        tree = out.tree
        assert [p for _, p in tree.resolved] == [5, 5]
        assert not out.verdicts and tree.split_attempts == []
        out = malformed_beside_honest(seed)
        if [p for _, p in out.tree.resolved] == [5]:
            resolved_within += 1
        attempts.extend(out.tree.split_attempts)
    assert resolved_within == 400
    mean = sum(attempts) / len(attempts)
    assert 1.5 <= mean <= 2.5  # geometric with success probability 1/2


# ---------------------------------------------------------------------------
# branch contexts and chain proofs (the worked proof chain)


def participant_state(seed=7):
    """Run the reference session and pull one participant's records."""
    params = sim.derive_params("test_medium", sim.DOMAIN_TAG)
    out = sim.single_session(sim.REFERENCE_SCENARIO.senders, seed=seed, n=5)
    broadcasts = {}
    for rec in out.records:
        if rec["type"] == "CIPHER":
            value = (rec["O_count"], rec["O_total"])
            broadcasts.setdefault(rec["part"], {})[rec["round"]] = (value, rec["c"])
    return params, out, broadcasts


def test_branch_context_matches_worked_chain():
    params, out, broadcasts = participant_state()
    q, p = params.q, params.p
    for pid in range(5):
        b = broadcasts[pid]
        # transmitted nodes are their own context
        assert branch_context(params, b, 2) == b[2]
        def less(node, *rounds):
            # each component of a node's value less those of the rounds
            return tuple(
                (b[node][0][i] - sum(b[r][0][i] for r in rounds)) % q for i in (0, 1)
            )

        # node 3 accumulates rounds 1 and 2
        v3, g3 = branch_context(params, b, 3)
        assert v3 == less(1, 2)
        assert g3 == b[1][1] * pow(b[2][1], -1, p) % p
        # node 7 accumulates rounds 1, 2 and 6
        v7, g7 = branch_context(params, b, 7)
        assert v7 == less(1, 2, 6)
        assert g7 == b[1][1] * pow(b[2][1], -1, p) * pow(b[6][1], -1, p) % p
        # node 15 additionally subtracts round 14
        v15, _ = branch_context(params, b, 15)
        assert v15 == less(1, 2, 6, 14)


def test_all_reference_proofs_verify():
    params, out, broadcasts = participant_state()
    proofs = {
        (rec["part"], rec["round"]): rec["proof"]
        for rec in out.records
        if rec["type"] == "CIPHER" and rec["proof"] != "-"
    }
    from dcmesh.zkp import proof_from_bytes

    tag = b"dcmesh|adhoc|s1"
    assert len(proofs) == 20  # 5 participants, 4 non-root rounds
    for (pid, rid), blob in proofs.items():
        proof = proof_from_bytes(params, bytes.fromhex(blob))
        assert verify_retransmission(params, broadcasts[pid], pid, rid, proof, tag)


def test_retransmission_proof_makes_no_pow_of_h(medium, monkeypatch):
    # h is the base of both branches; its powers go through its table,
    # so pow is left only for the variable targets
    from dcmesh.keysetup import build_key_graph
    from dcmesh.dcnet import make_ciphertext

    rng = random.Random(8)
    view = build_key_graph(medium, range(2), rng).view(0)
    broadcasts, blinds = {}, {}
    for rid in (1, 2):
        ct = make_ciphertext(view, rid, encode_slot(50, 8))
        broadcasts[rid] = (ct.value, ct.commitment)
        blinds[rid] = view.blind_sum(view.slot_of(rid))
    bases = []

    def counting_pow(base, *rest):
        bases.append(base)
        return pow(base, *rest)

    monkeypatch.setattr(zkp, "pow", counting_pow, raising=False)
    proof = prove_retransmission(medium, broadcasts, blinds, 0, 2, True, rng, b"unit")
    assert verify_retransmission(medium, broadcasts, 0, 2, proof, b"unit")
    assert bases and medium.h not in bases


def test_retransmission_proof_fresh_construction(medium):
    """Hand-built two-round flow: pads only, then honest retransmission,
    then a mutated retransmission that cannot be proven."""
    from dcmesh.keysetup import build_key_graph
    from dcmesh.dcnet import make_ciphertext

    rng = random.Random(3)
    graph = build_key_graph(medium, range(3), rng)
    tag = b"unit"
    slot_value = encode_slot(50, 8)

    views = {pid: graph.view(pid) for pid in range(3)}
    broadcasts = {pid: {} for pid in range(3)}
    blinds = {pid: {} for pid in range(3)}

    def tx(pid, rid, message):
        ct = make_ciphertext(views[pid], rid, message)
        broadcasts[pid][rid] = (ct.value, ct.commitment)
        blinds[pid][rid] = views[pid].blind_sum(views[pid].slot_of(rid))
        return ct

    for pid in range(3):
        tx(pid, 1, slot_value if pid == 0 else None)
    for pid in range(3):
        tx(pid, 2, slot_value if pid == 0 else None)

    # honest sender proves the repeat branch, non-senders the empty branch
    for pid, retransmitted in ((0, True), (1, False), (2, False)):
        proof = prove_retransmission(
            medium, broadcasts[pid], blinds[pid], pid, 2, retransmitted, rng, tag
        )
        assert verify_retransmission(medium, broadcasts[pid], pid, 2, proof, tag)

    # a shifted retransmission has no witness on either branch
    from dcmesh.errors import WitnessMismatch

    tx(0, 4, (slot_value[0], slot_value[1] + 1))
    for retransmitted in (False, True):
        with pytest.raises(WitnessMismatch):
            prove_retransmission(
                medium, broadcasts[0], blinds[0], 0, 4, retransmitted, rng, tag
            )
    # the forged fallback is rejected by every verifier
    from dcmesh.zkp import forge_attempt
    from dcmesh.splitter import retransmission_statement

    stmt = retransmission_statement(medium, broadcasts[0], 0, 4, tag)
    assert not verify_retransmission(
        medium, broadcasts[0], 0, 4, forge_attempt(medium, stmt, rng), tag
    )


def test_retransmission_proof_binds_participant_and_round():
    params, out, broadcasts = participant_state()
    from dcmesh.zkp import proof_from_bytes

    tag = b"dcmesh|adhoc|s1"
    blob = next(
        rec["proof"]
        for rec in out.records
        if rec["type"] == "CIPHER" and rec["round"] == 2 and rec["part"] == 0
    )
    proof = proof_from_bytes(params, bytes.fromhex(blob))
    assert verify_retransmission(params, broadcasts[0], 0, 2, proof, tag)
    # same proof rejected for another participant, round, or session tag
    assert not verify_retransmission(params, broadcasts[1], 1, 2, proof, tag)
    assert not verify_retransmission(params, broadcasts[0], 1, 2, proof, tag)
    assert not verify_retransmission(params, broadcasts[0], 0, 4, proof, tag)
    assert not verify_retransmission(params, broadcasts[0], 0, 2, proof, b"other")


def test_node_denial_proofs(medium):
    params, out, broadcasts = participant_state()
    # recover blinding data by rebuilding the same session's key graph
    from dcmesh.keysetup import build_key_graph

    graph = build_key_graph(params, range(5), sim.fork_rng(7, "keys", 1))
    tag = b"dcmesh|adhoc|s1"
    tree_rounds = [1, 2, 4, 6, 14]
    for pid in range(5):
        blinds = {
            rid: graph.view(pid).blind_sum(slot) for slot, rid in enumerate(tree_rounds)
        }
        # participant 0 sent payload 36, resolved at node 14; everyone
        # except the sender can deny node 14
        if pid == 0:
            from dcmesh.errors import WitnessMismatch

            with pytest.raises(WitnessMismatch):
                prove_node_denial(
                    params, broadcasts[pid], blinds, pid, 14, random.Random(1), tag
                )
        else:
            proof = prove_node_denial(
                params, broadcasts[pid], blinds, pid, 14, random.Random(1), tag
            )
            assert verify_node_denial(params, broadcasts[pid], pid, 14, proof, tag)


# ---------------------------------------------------------------------------
# optimality and adversarial paths through the convenience entry point


def test_resolve_optimal_rounds_for_distinct_payloads():
    rng = random.Random(99)
    for trial in range(30):
        m = rng.randrange(1, 17)
        payloads = rng.sample(range(200), m)
        senders = [(pid, payloads[pid]) for pid in range(m)]
        out = sim.single_session(senders, seed=trial, payload_bits=12)
        assert not out.verdicts
        assert sorted(p for _, p in out.resolved) == sorted(payloads)
        assert out.transmitted == m


def test_resolve_double_branch_adversary():
    senders = [(0, 10), (1, 20), (2, 30), (3, 5)]
    out = sim.single_session(senders, adversaries=[(3, "double_branch")], seed=2)
    assert any(v.participant == 3 and v.reason == "invalid_proof" for v in out.verdicts)
    assert all(v.participant == 3 for v in out.verdicts)


def test_resolve_wrong_branch_adversary_audited():
    out = sim.single_session(
        [(0, 10), (1, 40)], adversaries=[(1, "wrong_branch")], seed=3
    )
    assert [v.participant for v in out.verdicts] == [1]
    assert out.verdicts[0].reason == "wrong_branch"
    # both messages still delivered; the audit names the right leaf
    assert sorted(p for _, p in out.resolved) == [10, 40]
    leaf = int(out.verdicts[0].where.split(":")[1])
    assert out.tree.nodes[leaf].total == 40


def test_resolve_stuck_malformed_slot():
    out = sim.single_session(
        [(0, 10), (1, 20), (2, 7)],
        adversaries=[(2, "bad_slot_count")],
        seed=4,
        max_retries=6,
    )
    assert [v.participant for v in out.verdicts] == [2]
    assert out.verdicts[0].reason == "stuck_collision"
    assert sorted(p for _, p in out.resolved if p in (10, 20)) == [10, 20]
    stuck = int(out.verdicts[0].where.split(":")[1])
    assert out.tree.nodes[stuck].status == STUCK


def test_audit_ignores_probabilistic_ancestors():
    out = sim.single_session([(0, 9), (1, 9)], seed=13, n=2)
    assert audit_wrong_branches(out.tree) == []
    # the honest 5 resolves under coin-flip ancestors: no rule to audit
    out = malformed_beside_honest(seed=13)
    (leaf,) = [leaf for leaf, payload in out.tree.resolved if payload == 5]
    assert out.tree.nodes[leaf // 2].probabilistic
    assert audit_wrong_branches(out.tree) == []


def test_chain_proof_soundness_exhaustive(medium):
    """Exhaustive sweep over one participant's message placements.

    Rounds 1, 2, 6 form a root -> inferred-sibling chain (6 splits node
    3, whose content is round 1 minus round 2).  A placement is legal
    when round 2 repeats the root content or nothing, and round 6
    repeats the node-3 context or nothing.  Every legal placement must
    prove on some branch; every illegal one must have no witness on
    either branch and its forged fallback must be rejected.
    """
    from dcmesh.dcnet import make_ciphertext
    from dcmesh.errors import WitnessMismatch
    from dcmesh.keysetup import build_key_graph
    from dcmesh.splitter import retransmission_statement
    from dcmesh.zkp import forge_attempt

    rng = random.Random(17)
    message, none = encode_slot(77, 8), (0, 0)
    cases = []
    for c1 in (none, message):
        for c2 in (none, message):
            for c6 in (none, message):
                node3 = tuple((a - b) % medium.q for a, b in zip(c1, c2))
                legal = c2 in (none, c1) and c6 in (none, node3)
                cases.append(((c1, c2, c6), legal))
    checked_legal = checked_illegal = 0
    for (c1, c2, c6), legal in cases:
        graph = build_key_graph(medium, range(2), rng)
        view = graph.view(0)
        broadcasts, blinds = {}, {}
        for rid, content in ((1, c1), (2, c2), (6, c6)):
            ct = make_ciphertext(view, rid, None if content == none else content)
            broadcasts[rid] = (ct.value, ct.commitment)
            blinds[rid] = view.blind_sum(view.slot_of(rid))
        outcomes = []
        for rid, content in ((2, c2), (6, c6)):
            provable = False
            for branch in (False, True):
                try:
                    proof = prove_retransmission(
                        medium, broadcasts, blinds, 0, rid, branch, rng, b"sweep"
                    )
                    assert verify_retransmission(medium, broadcasts, 0, rid, proof, b"sweep")
                    provable = True
                    break
                except WitnessMismatch:
                    continue
            if not provable:
                stmt = retransmission_statement(medium, broadcasts, 0, rid, b"sweep")
                forged = forge_attempt(medium, stmt, rng)
                assert not verify_retransmission(medium, broadcasts, 0, rid, forged, b"sweep")
            outcomes.append(provable)
        if legal:
            assert all(outcomes), (c1, c2, c6)
            checked_legal += 1
        else:
            assert not all(outcomes), (c1, c2, c6)
            checked_illegal += 1
    assert checked_legal == 4 and checked_illegal == 4
