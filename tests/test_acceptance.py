"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import random
import time
from collections import Counter

from dcmesh import sim
from dcmesh.dcnet import aggregate_round, investigate, make_ciphertext
from dcmesh.errors import MalformedRecord
from dcmesh.groups import commit, derive_params
from dcmesh.keysetup import build_key_graph, edge_digest
from dcmesh.splitter import COLLISION
from dcmesh.transcript import Transcript

SMALL = derive_params("test_small", sim.DOMAIN_TAG)


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_c01_reference_tree_reproduction():
    start = time.monotonic()
    out = sim.single_session(sim.REFERENCE_SCENARIO.senders, seed=7, n=5)
    elapsed = time.monotonic() - start
    tree = out.tree
    slots = {nid: (n.count, n.total) for nid, n in tree.nodes.items() if n.count is not None}
    thresholds = {nid: n.threshold for nid, n in tree.nodes.items() if n.threshold is not None}
    ok = (
        slots == sim.REFERENCE_NODES
        and thresholds == sim.REFERENCE_THRESHOLDS
        and tree.transmitted_order == [1, 2, 4, 6, 14]
        and elapsed < 1.0
    )
    report("C01 reference tree: slots, thresholds, rounds {1,2,4,6,14}", ok,
           f"{elapsed * 1000:.0f} ms")


def test_c02_throughput_optimality():
    rng = random.Random(2024)
    start = time.monotonic()
    failures = []
    for trial in range(200):
        m = rng.randrange(1, 17)
        payloads = rng.sample(range(256), m)  # distinct, sums < 2^12
        senders = [(pid, payloads[pid]) for pid in range(m)]
        out = sim.single_session(
            senders, seed=trial, n=m, payload_bits=12
        )
        if out.transmitted != m or out.verdicts:
            failures.append((trial, m, out.transmitted))
        if sorted(p for _, p in out.resolved) != sorted(payloads):
            failures.append((trial, m, "bad delivery"))
    elapsed = time.monotonic() - start
    report(
        "C02 throughput: transmitted rounds == messages in 200/200 runs",
        not failures and elapsed < 30.0,
        f"{elapsed:.1f} s",
    )


def _honest_round(params, n, seed, messages):
    graph = build_key_graph(params, range(n), random.Random(seed))
    views = {pid: graph.view(pid) for pid in range(n)}
    cts = [make_ciphertext(views[pid], 0, messages.get(pid)) for pid in range(n)]
    return graph, cts


def test_c03_round_validity():
    rng = random.Random(3)
    bad = []
    for trial in range(200):
        n = rng.randrange(2, 9)
        messages = {
            pid: (1, rng.randrange(53)) for pid in rng.sample(range(n), rng.randrange(n + 1))
        }
        _, cts = _honest_round(SMALL, n, trial, messages)
        expected = (len(messages), sum(x for _, x in messages.values()) % 53)
        if aggregate_round(SMALL, cts) != (expected, True):
            bad.append(("honest", trial))
    for trial in range(200):
        n = rng.randrange(2, 9)
        _, cts = _honest_round(SMALL, n, 10_000 + trial, {})
        cheat = rng.randrange(n)
        delta = rng.randrange(1, 53)
        count, total = cts[cheat].value
        cts[cheat] = cts[cheat]._replace(
            value=((count + delta) % 53, total),
            commitment=cts[cheat].commitment * pow(SMALL.g, delta, SMALL.p) % SMALL.p,
        )
        if aggregate_round(SMALL, cts)[1]:
            bad.append(("tampered", trial))
    report("C03 validity: 200 honest rounds valid, 200 tampered rounds invalid",
           not bad, "exact")


def test_c04_investigation_blame():
    rng = random.Random(4)
    failures = []
    # zero false positives across honest investigations
    for trial in range(100):
        n = rng.randrange(2, 7)
        graph, cts = _honest_round(SMALL, n, 20_000 + trial, {})
        published = [graph.view(pid).published_pairs(0) for pid in range(n)]
        if investigate(SMALL, cts, 0, published, graph.public()):
            failures.append(("honest", trial))

    # scripted cheats -> exactly the scripted set, each over the same
    # fixed key graphs
    def run_script(name, expected, mutate):
        n = 4
        for seed in range(10):
            graph, cts = _honest_round(SMALL, n, seed, {})
            published = [graph.view(pid).published_pairs(0) for pid in range(n)]
            cts, published, public = mutate(graph, cts, published, graph.public())
            verdicts = investigate(SMALL, cts, 0, published, public)
            if set(verdicts) != expected:
                failures.append((name, seed, verdicts))

    def aggregate_mismatch(graph, cts, published, public):
        cts[1] = cts[1]._replace(commitment=cts[1].commitment * SMALL.g % SMALL.p)
        return cts, published, public

    def bad_signature(graph, cts, published, public):
        cts[2] = cts[2]._replace(commitment=cts[2].commitment * SMALL.g % SMALL.p)
        sc = published[2][0]
        published[2] = dict(published[2])
        published[2][0] = sc._replace(commitment=sc.commitment * SMALL.g % SMALL.p)
        return cts, published, public

    def pair_mismatch(graph, cts, published, public):
        # both endpoints reveal endorsed but differing values: 1 signed
        # its tree over the root of a forged list of edge (0, 1), 0 its
        # own over the real one, and each reveal toward 1 leads to 1's
        real = graph.epochs[0]
        commitments = real.edges[(0, 1)].commitments
        forged_list = (commitments[0] * SMALL.g % SMALL.p,) + commitments[1:]
        row = b"".join(SMALL.element_to_bytes(c) for c in forged_list)
        edges = dict(real.edges)
        edges[(0, 1)] = edges[(0, 1)]._replace(commitments=forged_list, digest=edge_digest(row))
        graph.epochs[0] = graph.sign_epoch(edges, 0, random.Random(0))
        for pid in (0, 2, 3):
            published[pid] = dict(published[pid])
            published[pid][1] = graph.view(pid).published_pairs(0)[1]
        signed = (real.signed[0], graph.epochs[0].signed[1]) + real.signed[2:]
        graph.epochs[0] = real
        cts[0] = cts[0]._replace(commitment=cts[0].commitment * SMALL.g % SMALL.p)
        return cts, published, public._replace(epochs=(signed,))

    def non_cooperation(graph, cts, published, public):
        cts[3] = cts[3]._replace(commitment=cts[3].commitment * SMALL.g % SMALL.p)
        published[3] = {}   # 3 reveals none of its edges
        return cts, published, public

    run_script("aggregate-mismatch", {1}, aggregate_mismatch)
    run_script("bad-signature", {2}, bad_signature)
    run_script("pair-mismatch", {0, 1}, pair_mismatch)
    run_script("non-cooperation", {3}, non_cooperation)
    report("C04 investigation: exact blame on 4 scripts x 10 seeds, 0/100 false positives",
           not failures, str(failures) if failures else "exact")


def test_c05_proof_completeness_and_detection():
    rng = random.Random(5)
    # 10^3 honest two-branch retransmission proofs in the small group
    from dcmesh.dcnet import RoundCiphertext
    from dcmesh.splitter import add_blind, add_round, retransmission_statement
    from dcmesh.zkp import prove_or, verify_or

    def add(value, message):
        return ((value[0] + message[0]) % 53, (value[1] + message[1]) % 53)

    proof_failures = 0
    for _ in range(1000):
        pad1, pad2 = ((rng.randrange(53), rng.randrange(53)) for _ in range(2))
        blind1, blind2 = rng.randrange(53), rng.randrange(53)
        message = (1, rng.randrange(53))
        sends = rng.random() < 0.5
        c1, c2 = commit(SMALL, pad1, blind1), commit(SMALL, pad2, blind2)
        v1 = add(pad1, message)
        v2 = add(pad2, message if sends else (0, 0))
        # rounds 1 and 2 of one participant: node 3 infers blind1 - blind2
        targets, blinds = {0: {}}, {}
        for rid, value, c, blind in ((1, v1, c1, blind1), (2, v2, c2, blind2)):
            add_round(SMALL, [targets[0]], rid, [RoundCiphertext(value, c)])
            add_blind(SMALL, blinds, rid, blind)
        stmt = retransmission_statement(SMALL, targets[0], 0, 2, b"acc")
        branch = int(sends)   # a retransmission proves branch 1, with node 3's blinding sum
        proof = prove_or(SMALL, stmt, branch, blinds[2 + branch], rng)
        if verify_or(SMALL, [stmt], [proof]) != [True]:
            proof_failures += 1

    scenarios = {
        "mutate_message": lambda seed: sim.Scenario(
            n=4, senders=((0, 3), (1, 60), (2, 80), (3, 100)),
            adversaries=((0, "mutate_message"),), seed=seed,
        ),
        "double_branch": lambda seed: sim.Scenario(
            n=4, senders=((0, 5), (1, 10), (2, 30), (3, 40)),
            adversaries=((0, "double_branch"),), seed=seed,
        ),
        "late_injection": lambda seed: sim.Scenario(
            n=4, senders=((0, 9), (1, 50), (2, 120)),
            adversaries=((3, "late_injection"),), seed=seed,
        ),
        "refuse_proof": lambda seed: sim.Scenario(
            n=3, senders=((0, 9), (1, 50)),
            adversaries=((2, "refuse_proof"),), seed=seed,
        ),
    }
    detection = Counter()
    honest_flagged = 0
    for name, make in scenarios.items():
        for seed in range(100):
            scenario = make(seed)
            adversary = scenario.adversaries[0][0]
            transcript = sim.run_scenario(scenario)
            flagged = {
                r["part"] for r in transcript.records if r["type"] == "VERDICT"
            }
            if adversary in flagged:
                detection[name] += 1
            honest_flagged += len(flagged - {adversary})
    ok = (
        proof_failures == 0
        and all(detection[name] == 100 for name in scenarios)
        and honest_flagged == 0
    )
    report(
        "C05 proofs: 1000/1000 honest verify; 4 strategies 100/100 flagged; "
        "honest never flagged",
        ok,
        f"detection={dict(detection)}",
    )


def test_c06_two_transcript_extraction_and_binding_break(dlog, reference_prover):
    rng = random.Random(6)
    failures = []
    h, p, q = SMALL.h, SMALL.p, SMALL.q

    def extract(targets, true_index, alpha):
        prover = reference_prover(SMALL, targets, true_index, alpha, rng)
        b1 = prover.respond(5)
        b2 = prover.respond(29)
        for target, (e1, z1), (e2, z2) in zip(targets, b1, b2):
            if e1 == e2:
                continue
            de = (e1 - e2) % q
            dz = (z1 - z2) % q
            got = dz * pow(de, -1, q) % q
            if got != alpha:
                return None
            if pow(h, got, p) != target:
                return None
            return got
        return None

    for alpha in (0, 7, 52):
        target = pow(h, alpha, p)
        # single representation
        if extract([target], 0, alpha) != alpha:
            failures.append(("rep", alpha))
        # two-branch disjunction (decoy branch unprovable)
        decoy = pow(h, 3, p) * SMALL.g % p
        if extract([decoy, target], 1, alpha) != alpha:
            failures.append(("or", alpha))

    # fabricated double opening reveals the inter-generator relation
    lam = dlog(SMALL, h, SMALL.g)
    for _ in range(25):
        a, b = rng.randrange(q), rng.randrange(q)
        delta = rng.randrange(1, q)
        a2, b2 = (a + delta) % q, (b - lam * delta) % q
        if commit(SMALL, (a, 0), b) != commit(SMALL, (a2, 0), b2):
            failures.append(("opening", a, b))
        if (b2 - b) * pow(a - a2, -1, q) % q != lam:
            failures.append(("formula", a, b))
    report("C06 extraction: rewinding recovers witnesses; double opening "
           "yields log_h g exactly", not failures, f"log_h g = {lam}")


def test_c07_conservation_exact():
    rng = random.Random(7)
    checked = 0
    failures = []
    runs = [sim.single_session(sim.REFERENCE_SCENARIO.senders, seed=7, n=5)]
    for trial in range(30):
        m = rng.randrange(2, 11)
        payloads = rng.sample(range(250), m)
        runs.append(
            sim.single_session(
                [(pid, payloads[pid]) for pid in range(m)],
                seed=trial, n=m, payload_bits=12,
            )
        )
    for trial in range(10):  # duplicate payloads exercise the degenerate split
        runs.append(sim.single_session([(0, 5), (1, 5)], seed=trial, n=2))
    for out in runs:
        tree = out.tree
        for nid, node in tree.nodes.items():
            if node.status != COLLISION or 2 * nid not in tree.nodes:
                continue
            left, right = tree.nodes[2 * nid], tree.nodes[2 * nid + 1]
            if left.count is None or right.count is None:
                continue
            checked += 1
            if (left.count + right.count, left.total + right.total) != (
                node.count,
                node.total,
            ):
                failures.append(("slot", nid))
    report("C07 conservation: parent slot == left + right at every split",
           checked > 50 and not failures, f"{checked} splits checked")


def test_c08_bisection_fallback():
    # equal honest payloads need no fallback: the degenerate split and the
    # equal-payload check deliver both in two rounds, every time
    runs = 1000
    equal_checked = 0
    for seed in range(runs):
        out = sim.single_session([(0, 5), (1, 5)], seed=seed, n=2)
        delivered = sorted(p for _, p in out.resolved) == [5, 5]
        bisected = any(node.midpoint for node in out.tree.nodes.values())
        if delivered and not out.verdicts and out.transmitted == 2 and not bisected:
            equal_checked += 1
    # an honest 5 beside a malformed slot (2, 4) sums to (3, 9) = 3 * 3,
    # but neither can claim the copy (1, 3): the node is bisected until
    # the two part, and only the malformed slot is blamed, within the
    # splitter's bound of n + (2n - 1)(payload_bits + 1) = 29 rounds
    within = 0
    rounds = set()
    for seed in range(runs):
        out = sim.single_session(
            [(0, 5), (1, 4)], adversaries=[(1, "bad_slot_count")], seed=seed, n=2
        )
        delivered = [p for _, p in out.resolved] == [5]
        if delivered and {v.participant for v in out.verdicts} == {1} and out.transmitted <= 29:
            within += 1
        rounds.add(out.transmitted)
    ok = equal_checked == runs and within == runs
    report(
        "C08 bisection fallback: equal honest payloads 1000/1000 in two rounds; "
        "1000/1000 resolve beside a malformed slot, blaming it alone within 29 rounds",
        ok,
        f"equal {equal_checked}/1000, resolved {within}/1000, rounds {sorted(rounds)}",
    )


def test_c09_untraceability_exhaustive():
    q, message = 53, 29
    multisets = []
    for sender in range(3):
        counter = Counter()
        add = message
        for k01 in range(q):
            for k02 in range(q):
                base0 = k01 + k02
                for k12 in range(q):
                    o0 = (base0 + (add if sender == 0 else 0)) % q
                    o1 = (-k01 + k12 + (add if sender == 1 else 0)) % q
                    o2 = (-k02 - k12 + (add if sender == 2 else 0)) % q
                    counter[(o0, o1, o2)] += 1
        multisets.append(counter)
    ok = multisets[0] == multisets[1] == multisets[2]
    report("C09 untraceability: identical transcript multisets for all "
           "sender identities (exhaustive pads, n=3)", ok,
           f"{sum(multisets[0].values())} transcripts per sender")


def _mutation_detected(text: str) -> bool:
    try:
        return not sim.verify_transcript(Transcript.from_text(text)).clean
    except MalformedRecord:
        return True


def test_c10_transcript_closure_and_mutation_detection():
    matrix = [
        sim.REFERENCE_SCENARIO,
        sim.Scenario(n=2, seed=1),
        sim.Scenario(n=3, senders=((1, 99),), seed=1),
        sim.Scenario(n=2, senders=((0, 7), (1, 7)), seed=5),
        sim.Scenario(n=4, senders=((0, 3), (1, 60), (2, 80), (3, 100)),
                     adversaries=((0, "mutate_message"),), seed=2),
        sim.Scenario(n=4, senders=((0, 36), (1, 11), (2, 28), (3, 17)),
                     adversaries=((3, "bad_pad"),), seed=2),
        sim.Scenario(n=2, senders=((0, 10), (1, 40)),
                     adversaries=((1, "wrong_branch"),), seed=2),
        sim.Scenario(n=3, senders=((0, 10), (1, 20), (2, 7)),
                     adversaries=((2, "bad_slot_count"),), seed=2),
        sim.Scenario(n=4, senders=((0, 36), (1, 11), (2, 28)),
                     adversaries=((3, "refuse_signature"),), seed=2),
    ]
    unclean = []
    missed = []
    mutations = 0
    for index, scenario in enumerate(matrix):
        transcript = sim.run_scenario(scenario)
        if not sim.verify_transcript(transcript).clean:
            unclean.append(index)
            continue
        lines = transcript.to_text().splitlines()
        for i, line in enumerate(lines):
            tokens = line.split(" ")
            # mutate one field per record, rotating over the fields
            j = 1 + (i % (len(tokens) - 1))
            key, value = tokens[j].split("=", 1)
            if value == "-":
                new_value = "0"
            else:
                try:
                    new_value = str(int(value) + 1)
                except ValueError:
                    if all(c in "0123456789abcdef" for c in value) and len(value) > 1:
                        new_value = ("0" if value[0] != "0" else "1") + value[1:]
                    else:
                        new_value = value + "x"
            mutated = tokens[:j] + [f"{key}={new_value}"] + tokens[j + 1 :]
            candidate = "\n".join(lines[:i] + [" ".join(mutated)] + lines[i + 1 :]) + "\n"
            mutations += 1
            if not _mutation_detected(candidate):
                missed.append((index, i, key))
    ok = not unclean and not missed
    report(
        "C10 closure: clean replay for the matrix; every record mutation detected",
        ok,
        f"{mutations} mutations over {len(matrix)} transcripts"
        + (f"; missed {missed[:5]}" if missed else ""),
    )
