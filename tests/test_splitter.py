"""Collision resolution: slot codec, tree scheduling, chain proofs."""

import random

import pytest

from dcmesh import sim, zkp
from dcmesh.dcnet import RoundCiphertext, aggregate_round
from dcmesh.errors import NotACollision, PayloadOverflow, WitnessMismatch
from dcmesh.splitter import (
    COLLISION,
    EMPTY,
    EQUAL,
    RESOLVED,
    ResolutionTree,
    add_blind,
    add_round,
    audit_wrong_branches,
    denial_statement,
    encode_slot,
    prove_node_denial,
    retransmission_statement,
    slot_fits,
    threshold,
)
from dcmesh.groups import value_term


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
    cts = [make_ciphertext(graph.view(pid), 0, (slots + [None])[pid]) for pid in range(4)]
    assert aggregate_round(medium, cts) == ((3, 350), True)


def test_zero_aggregate_is_empty():
    assert add_slots() == (0, 0)
    tree = ResolutionTree(1009, 8)
    tree.advance(synthetic_result([]))
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


def synthetic_result(payloads, payload_bits=8):
    """The aggregate of these payloads' slots; tree mechanics need no crypto."""
    return add_slots(*(encode_slot(m, payload_bits) for m in payloads))


def test_tree_blocked_until_fully_resolved(medium):
    tree = ResolutionTree(medium.q, 8)
    tree.advance(synthetic_result([10, 20, 30]))  # collision opens the tree
    assert tree.next_round() == 2 and not tree.done
    tree.advance(synthetic_result([10]))  # 10 below ceil(60/3)=20
    assert tree.next_round() == 6 and not tree.done  # node 3 = {20,30} splits next
    tree.advance(synthetic_result([20]))
    assert tree.next_round() is None and tree.done
    assert [p for _, p in tree.resolved] == [10, 20, 30]
    assert tree.transmitted_order == [1, 2, 6]


def test_frontier_processes_increasing_ids():
    # in the reference run rounds 4 and 6 are pending together; 4 goes first
    tree = reference_tree()
    order = tree.transmitted_order
    assert order.index(4) < order.index(6)
    assert sorted(order) == order


def test_children_split_the_interval_at_the_clamped_threshold():
    tree = reference_tree()
    intervals = {nid: (n.lo, n.hi) for nid, n in tree.nodes.items()}
    assert intervals == {
        1: (0, 256), 2: (0, 26), 3: (26, 256), 4: (0, 14), 5: (14, 26),
        6: (26, 34), 7: (34, 256), 14: (34, 37), 15: (37, 256),
    }
    # an average outside the interval is clamped into it: (4, 400) splits
    # at 100, then (2, 350) at [0, 100) splits at 175 and (2, 50) at
    # [100, 256) at 25, each leaving one child an empty interval
    tree = ResolutionTree(1009, 8)
    tree.advance(synthetic_result([175, 175, 25, 25]))
    tree.advance(synthetic_result([175, 175]))
    assert (tree.nodes[2].threshold, tree.nodes[3].threshold) == (175, 25)
    intervals = {nid: (tree.nodes[nid].lo, tree.nodes[nid].hi) for nid in (4, 5, 6, 7)}
    assert intervals == {4: (0, 100), 5: (100, 100), 6: (100, 100), 7: (100, 256)}
    assert not any(node.midpoint for node in tree.nodes.values())


def test_inconsistent_split_bisects_down_to_one_value():
    tree = ResolutionTree(1009, 2)   # payloads in [0, 4)
    tree.advance((3, 3))   # average 1: [0, 1) and [1, 4)
    # a count of 0 beside a nonzero total: the split is inconsistent, so
    # node 3 splits at the midpoint of [1, 4), not at its average
    tree.advance((0, 1))
    node = tree.nodes[3]
    assert (node.count, node.total, node.status) == (3, 2, COLLISION)
    assert node.midpoint and node.threshold == 2
    assert [(tree.nodes[k].lo, tree.nodes[k].hi) for k in (6, 7)] == [(1, 2), (2, 4)]
    # everything goes left again, into [1, 2): one value, so the judge
    # checks it as an equal-payload node of payload 1
    tree.advance((3, 2))
    assert tree.nodes[6].status == EQUAL and tree.nodes[6].equal_payload == 1
    assert tree.nodes[7].status == EMPTY
    assert tree.done and tree.transmitted_order == [1, 2, 6]


def malformed_beside_honest(seed):
    """An honest 5 beside a slot (2, 4) claiming two messages: (3, 9) =
    3 * 3 splits degenerately, and neither holder can claim (1, 3)."""
    return sim.single_session(
        [(0, 5), (1, 4)], adversaries=[(1, "bad_slot_count")], seed=seed, n=2
    )


def test_equal_payloads_nonsplit_then_bisected():
    out = sim.single_session([(0, 9), (1, 9)], seed=13, n=2)
    tree = out.tree
    assert not out.verdicts
    assert [p for _, p in tree.resolved] == [9, 9]
    # the deterministic split failed: everything went right (ties go right)
    assert tree.nodes[2].status == EMPTY
    assert tree.nodes[3].count == 2
    # equal payloads: both prove one copy of 9 or nothing, and 9 is
    # delivered twice without another split
    assert tree.nodes[3].status == EQUAL and tree.nodes[3].equal_payload == 9
    assert not tree.nodes[3].midpoint
    assert tree.transmitted_order == [1, 2]
    demands = [r for r in out.records if r["type"] == "DEMAND"]
    assert [(r["node"], r["part"], r["ok"]) for r in demands] == [(3, 0, 1), (3, 1, 1)]
    # two proofs fail at an equal-payload node: it is bisected at the
    # midpoint of [3, 256), and the halving goes on until the 5 and the
    # malformed (2, 4) part, at the split of [4, 6) at 5
    out = malformed_beside_honest(seed=13)
    tree = out.tree
    assert tree.nodes[2].status == EMPTY and tree.nodes[3].count == 3
    assert tree.nodes[3].status == COLLISION
    assert tree.nodes[3].midpoint and tree.nodes[3].threshold == 129
    demands = [r for r in out.records if r["type"] == "DEMAND" and r["node"] == 3]
    assert [r["ok"] for r in demands] == [0, 0]
    (leaf,) = [leaf for leaf, payload in tree.resolved if payload == 5]
    parent = tree.nodes[leaf // 2]
    assert (parent.lo, parent.hi, parent.threshold) == (4, 6, 5)
    assert [(v.participant, v.reason) for v in out.verdicts] == [(1, "unequal_payload")]


def test_malformed_slot_beside_honest_never_blames_the_honest_holder():
    # a stuck node's denial demand once blamed both holders here, the
    # honest one on 92 of these 200 seeds; bisection separates them
    for seed in range(200):
        out = malformed_beside_honest(seed)
        assert [(v.participant, v.reason) for v in out.verdicts] == [(1, "unequal_payload")]
        assert [p for _, p in out.resolved] == [5]


# ---------------------------------------------------------------------------
# target maps and chain proofs (the worked proof chain)


def participant_state(seed=7):
    """Run the reference session and pull each participant's broadcasts
    and target map from its records."""
    params = sim.derive_params("test_medium", sim.DOMAIN_TAG)
    out = sim.single_session(sim.REFERENCE_SCENARIO.senders, seed=seed, n=5)
    broadcasts, targets = {}, {pid: {} for pid in range(5)}
    for rec in out.records:
        if rec["type"] == "CIPHER":
            value = (rec["O_count"], rec["O_total"])
            broadcasts.setdefault(rec["part"], {})[rec["round"]] = (value, rec["c"])
            ct = RoundCiphertext(value, rec["c"])
            add_round(params, [targets[rec["part"]]], rec["round"], [ct])
    return params, out, broadcasts, targets


def prove_retransmission(params, nodes, blinds, pid, round_id, branches, rng, tag):
    """pid's proof of the retransmission statement over ``nodes``, as a
    participant makes it: through the one proving rule, trying
    ``branches`` in order, branch b with witness B(round_id + b)."""
    stmt = retransmission_statement(params, nodes, pid, round_id, tag)
    return prove_node_denial(params, stmt, [(b, blinds[round_id + b]) for b in branches], rng)


def verifies(params, nodes, pid, round_id, proof, tag):
    """Whether ``proof`` verifies as pid's retransmission proof over ``nodes``."""
    stmt = retransmission_statement(params, nodes, pid, round_id, tag)
    (ok,) = zkp.verify_or(params, [stmt], [proof])
    return ok


@pytest.mark.parametrize("group", ["test_small", "test_medium"])
def test_add_round_inverts_a_round_with_one_inverse(group, monkeypatch):
    # Montgomery's trick: each inferred sibling is N(k // 2) * N(k)^-1 with
    # the per-target inverse, for one pow(x, -1, p) per round after the first
    from dcmesh.dcnet import make_ciphertext
    from dcmesh.keysetup import build_key_graph
    from dcmesh import splitter

    params = sim.derive_params(group, sim.DOMAIN_TAG)
    p, rng = params.p, random.Random(12)
    inverses = []

    def counting_pow(base, exponent, *modulus):
        inverses.append(exponent == -1)
        return pow(base, exponent, *modulus)

    monkeypatch.setattr(splitter, "pow", counting_pow, raising=False)
    for n in (1, 2, 5, 9):
        graph = build_key_graph(params, range(n), rng)
        maps = [{} for _ in range(n)]
        for slot, rid in enumerate((1, 2, 4, 8)):
            cts = [
                make_ciphertext(graph.view(pid), slot, (1, rng.randrange(8)) if pid % 2 else None)
                for pid in range(n)
            ]
            inverses.clear()
            add_round(params, maps, rid, cts)
            assert inverses == ([] if rid == 1 else [True])
            fresh = zkp.no_message_targets(params, [(ct.value, ct.commitment) for ct in cts])
            for nodes, target in zip(maps, fresh):
                assert nodes[rid] == target
                if rid != 1:
                    assert nodes[rid + 1] == nodes[rid // 2] * pow(target, -1, p) % p


def test_judge_checks_the_statement_objects_it_hands_out(monkeypatch):
    # a participant proves the statement object the judge hands it, and the
    # judge checks that same object; each head is the one its targets and
    # context give, and each context opens with the session tag
    from dcmesh import splitter

    proved, checked, endorsed = [], [], []
    prove, verify = splitter.prove_node_denial, zkp.verify_or

    def proving(params, stmt, candidates, rng):
        proved.append(stmt)
        return prove(params, stmt, candidates, rng)

    def verifying(params, statements, proofs):
        # an epoch's signatures are the judge's own statements, checked in one call
        endorsing = [s.context.startswith(b"dcmesh/endorse/") for s in statements]
        if any(endorsing):
            assert all(endorsing)
            endorsed.append(len(statements))
        else:
            checked.extend(statements)
        return verify(params, statements, proofs)

    monkeypatch.setattr(splitter, "prove_node_denial", proving)
    monkeypatch.setattr(zkp, "verify_or", verifying)
    params = sim.derive_params("test_medium", sim.DOMAIN_TAG)
    # the reference run's retransmissions, and the equal-payload check of two 7s
    for senders, seed, roles in ((sim.REFERENCE_SCENARIO.senders, 7, {b"retrans"}),
                                 (((0, 7), (1, 7)), 5, {b"retrans", b"denial"})):
        proved.clear()
        checked.clear()
        endorsed.clear()
        out = sim.single_session(senders, seed=seed)
        assert endorsed == [len(out.public.participants)]
        assert proved and [id(s) for s in proved] == [id(s) for s in checked]
        assert {s.context.split(b"|")[-3] for s in checked} == roles
        for stmt in checked:
            assert stmt.head == zkp.OrStatement(params, stmt.targets, stmt.context).head
            assert stmt.context.startswith(out.tag + b"|")


def test_target_map_matches_worked_chain():
    params, out, broadcasts, targets = participant_state()
    q, p = params.q, params.p

    def target(value, gamma):
        # the no-message target of a context ((count, total), gamma)
        return gamma * value_term(params, (-value[0], -value[1])) % p

    for pid in range(5):
        b, n = broadcasts[pid], targets[pid]
        # transmitted nodes are their own context
        assert n[2] == target(*b[2])
        def less(node, *rounds):
            # each component of a node's value less those of the rounds
            return tuple(
                (b[node][0][i] - sum(b[r][0][i] for r in rounds)) % q for i in (0, 1)
            )

        # node 3 accumulates rounds 1 and 2
        g3 = b[1][1] * pow(b[2][1], -1, p) % p
        assert n[3] == target(less(1, 2), g3)
        # node 7 accumulates rounds 1, 2 and 6
        g7 = b[1][1] * pow(b[2][1], -1, p) * pow(b[6][1], -1, p) % p
        assert n[7] == target(less(1, 2, 6), g7)
        # node 15 additionally subtracts round 14
        g15 = g7 * pow(b[14][1], -1, p) % p
        assert n[15] == target(less(1, 2, 6, 14), g15)


def test_all_reference_proofs_verify():
    params, out, broadcasts, targets = participant_state()
    proofs = {
        (rec["part"], rec["round"]): rec["proof"]
        for rec in out.records
        if rec["type"] == "CIPHER" and rec["proof"] != "-"
    }
    from dcmesh.zkp import proof_from_text

    tag = out.tag
    assert len(proofs) == 20  # 5 participants, 4 non-root rounds
    for (pid, rid), blob in proofs.items():
        proof = proof_from_text(params, blob)
        assert verifies(params, targets[pid], pid, rid, proof, tag)
    # and round by round, in one check each
    for rid in (2, 4, 6, 14):
        stmts = [
            retransmission_statement(params, targets[pid], pid, rid, tag) for pid in range(5)
        ]
        round_proofs = [proof_from_text(params, proofs[pid, rid]) for pid in range(5)]
        assert zkp.verify_or(params, stmts, round_proofs) == [True] * 5


def test_retransmission_proof_makes_no_pow_of_h(medium, monkeypatch):
    # h is the base of both branches; its powers go through its table,
    # so pow is left only for the variable targets
    from dcmesh.keysetup import build_key_graph
    from dcmesh.dcnet import make_ciphertext

    rng = random.Random(8)
    view = build_key_graph(medium, range(2), rng).view(0)
    targets, blinds = {0: {}}, {}
    for slot, rid in enumerate((1, 2)):
        ct = make_ciphertext(view, slot, encode_slot(50, 8))
        add_round(medium, [targets[0]], rid, [ct])
        add_blind(medium, blinds, rid, view.blind_sum(slot))
    bases = []

    def counting_pow(base, *rest):
        bases.append(base)
        return pow(base, *rest)

    monkeypatch.setattr(zkp, "pow", counting_pow, raising=False)
    proof = prove_retransmission(medium, targets[0], blinds, 0, 2, (1, 0), rng, b"unit")
    assert verifies(medium, targets[0], 0, 2, proof, b"unit")
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
    targets = {pid: {} for pid in range(3)}
    blinds = {pid: {} for pid in range(3)}

    def tx(pid, rid, message):
        slot = {1: 0, 2: 1, 4: 2}[rid]   # the judge's slot for each transmitted round
        ct = make_ciphertext(views[pid], slot, message)
        add_round(medium, [targets[pid]], rid, [ct])
        add_blind(medium, blinds[pid], rid, views[pid].blind_sum(slot))
        return ct

    for pid in range(3):
        tx(pid, 1, slot_value if pid == 0 else None)
    for pid in range(3):
        tx(pid, 2, slot_value if pid == 0 else None)

    # honest sender proves the repeat branch, non-senders the empty branch
    for pid, branch in ((0, 1), (1, 0), (2, 0)):
        proof = prove_retransmission(medium, targets[pid], blinds[pid], pid, 2, (branch,), rng, tag)
        assert verifies(medium, targets[pid], pid, 2, proof, tag)

    # a shifted retransmission has no witness on either branch
    tx(0, 4, (slot_value[0], slot_value[1] + 1))
    for branches in ((0,), (1,), (0, 1)):
        with pytest.raises(WitnessMismatch):
            prove_retransmission(medium, targets[0], blinds[0], 0, 4, branches, rng, tag)
    # the forged fallback is rejected by every verifier
    from dcmesh.zkp import forge_attempt

    stmt = retransmission_statement(medium, targets[0], 0, 4, tag)
    assert not verifies(medium, targets[0], 0, 4, forge_attempt(medium, stmt, rng), tag)


def test_retransmission_proof_binds_participant_and_round():
    params, out, broadcasts, targets = participant_state()
    from dcmesh.zkp import proof_from_text

    tag = out.tag
    blob = next(
        rec["proof"]
        for rec in out.records
        if rec["type"] == "CIPHER" and rec["round"] == 2 and rec["part"] == 0
    )
    proof = proof_from_text(params, blob)
    assert verifies(params, targets[0], 0, 2, proof, tag)
    # same proof rejected for another participant, round, or session tag
    assert not verifies(params, targets[1], 1, 2, proof, tag)
    assert not verifies(params, targets[0], 1, 2, proof, tag)
    assert not verifies(params, targets[0], 0, 4, proof, tag)
    assert not verifies(params, targets[0], 0, 2, proof, b"other")


def test_node_denial_proofs(medium):
    params, out, broadcasts, targets = participant_state()
    # recover blinding data by rebuilding the same session's key graph
    from dcmesh.keysetup import build_key_graph

    graph = build_key_graph(params, range(5), sim.fork_rng(7, "keys", 1))
    tag = out.tag
    tree_rounds = [1, 2, 4, 6, 14]
    for pid in range(5):
        blinds = {}
        for slot, rid in enumerate(tree_rounds):
            add_blind(params, blinds, rid, graph.view(pid).blind_sum(slot))
        # participant 0 sent payload 36, resolved at node 14; everyone
        # except the sender can deny node 14
        stmt = denial_statement(params, targets[pid], pid, 14, tag)
        if pid == 0:
            with pytest.raises(WitnessMismatch):
                prove_node_denial(params, stmt, [(0, blinds[14])], random.Random(1))
        else:
            proof = prove_node_denial(params, stmt, [(0, blinds[14])], random.Random(1))
            assert zkp.verify_or(params, [stmt], [proof]) == [True]

        # the same rule proves round 14's retransmission statement: the
        # sender repeated its message there, on branch 1 with B(15), and
        # the others sent nothing, on branch 0 with B(14)
        stmt = retransmission_statement(params, targets[pid], pid, 14, tag)
        held, other = (1, 0) if pid == 0 else (0, 1)
        witness = {0: blinds[14], 1: blinds[15]}
        proof = prove_node_denial(params, stmt, [(held, witness[held])], random.Random(1))
        assert zkp.verify_or(params, [stmt], [proof]) == [True]
        # a candidate whose witness fails is passed over for the next one
        walked = prove_node_denial(
            params, stmt, [(held, witness[other]), (held, witness[held])], random.Random(1)
        )
        assert walked == proof
        # and none holding is WitnessMismatch, as is no candidate at all;
        # the sender's empty branch has no witness
        failing = [[(held, witness[other])], [(2, witness[held])], []]
        if pid == 0:
            failing.append([(0, witness[0])])
        for candidates in failing:
            with pytest.raises(WitnessMismatch):
                prove_node_denial(params, stmt, candidates, random.Random(1))


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


def test_resolve_malformed_slot_by_bisection():
    out = sim.single_session(
        [(0, 10), (1, 20), (2, 7)],
        adversaries=[(2, "bad_slot_count")],
        seed=4,
    )
    assert [v.participant for v in out.verdicts] == [2]
    assert out.verdicts[0].reason == "unequal_payload"
    assert sorted(p for _, p in out.resolved) == [10, 20]
    # (2, 7) splits inconsistently at its average 4, and bisection takes
    # it down to [7, 8), where it cannot claim the one copy (1, 7)
    node = out.tree.nodes[int(out.verdicts[0].where.split(":")[1])]
    assert (node.status, node.lo, node.hi, node.count, node.total) == (EQUAL, 7, 8, 2, 7)


def test_audit_passes_honest_leaves_under_bisected_ancestors():
    out = sim.single_session([(0, 9), (1, 9)], seed=13, n=2)
    assert audit_wrong_branches(out.tree) == []
    # the honest 5 resolves under midpoint splits, and obeys every one
    out = malformed_beside_honest(seed=13)
    (leaf,) = [leaf for leaf, payload in out.tree.resolved if payload == 5]
    assert out.tree.nodes[leaf // 2].midpoint
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
    from dcmesh.keysetup import build_key_graph
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
        targets, blinds = {0: {}}, {}
        for slot, (rid, content) in enumerate(((1, c1), (2, c2), (6, c6))):
            ct = make_ciphertext(view, slot, None if content == none else content)
            add_round(medium, [targets[0]], rid, [ct])
            add_blind(medium, blinds, rid, view.blind_sum(slot))
        outcomes = []
        for rid, content in ((2, c2), (6, c6)):
            try:
                proof = prove_retransmission(medium, targets[0], blinds, 0, rid, (0, 1), rng, b"sweep")
                assert verifies(medium, targets[0], 0, rid, proof, b"sweep")
                provable = True
            except WitnessMismatch:
                provable = False
            if not provable:
                stmt = retransmission_statement(medium, targets[0], 0, rid, b"sweep")
                forged = forge_attempt(medium, stmt, rng)
                assert not verifies(medium, targets[0], 0, rid, forged, b"sweep")
            outcomes.append(provable)
        if legal:
            assert all(outcomes), (c1, c2, c6)
            checked_legal += 1
        else:
            assert not all(outcomes), (c1, c2, c6)
            checked_illegal += 1
    assert checked_legal == 4 and checked_illegal == 4
