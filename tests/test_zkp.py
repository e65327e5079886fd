"""Sigma protocol properties: completeness, soundness, zero-knowledge.

Soundness is checked at desk scale with an actual rewinding extractor,
and zero-knowledge structurally: over the full challenge space of the
small group, real and simulated transcripts form identical multisets.
"""

import hashlib
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmesh import zkp
from dcmesh.errors import WitnessMismatch
from dcmesh.groups import commit, derive_params
from dcmesh.zkp import (
    OrStatement,
    forge_attempt,
    fs_challenge,
    no_message_targets,
    proof_from_text,
    proof_to_text,
    prove_or,
    simulate,
    verify_or,
)


def rep_for(params, alpha, context=b"t"):
    """The one-branch statement: knowledge of alpha with target h^alpha."""
    return OrStatement(params, (pow(params.h, alpha, params.p),), context)


def prove_one(params, stmt, alpha, rng):
    """A proof of the one-branch statement ``stmt``."""
    return prove_or(params, stmt, 0, alpha, rng)


def verify_proof(params, stmt, proof):
    """The verdict on one proof, checked as a round of one."""
    (ok,) = verify_or(params, [stmt], [proof])
    return ok


# ---------------------------------------------------------------------------
# challenge derivation


def test_fs_challenge_deterministic(small):
    stmt = OrStatement(small, (4, 9), b"stmt")
    a = fs_challenge(small, stmt, [4, 9])
    b = fs_challenge(small, stmt, [4, 9])
    assert a == b
    assert 0 <= a < small.q


def test_fs_challenge_sensitivity(small):
    base = fs_challenge(small, OrStatement(small, (4, 9), b"stmt"), [4, 9])
    # single-byte changes move the challenge for the vast majority of inputs
    changed = sum(
        fs_challenge(small, OrStatement(small, (4, 9), bytes([i]) + b"tmt"), [4, 9]) != base
        for i in range(256)
    )
    assert changed > 230


def test_fs_challenge_empty_inputs(small):
    assert 0 <= fs_challenge(small, OrStatement(small, ()), []) < small.q


def challenge_input(params, targets, context, announcements):
    """The challenge input, spelled out: the prefix (tag, domain tag,
    element width, p, q, g, f, h), len(context) as 4 bytes, context, k
    as 2 bytes, the k targets and the k announcements, each element at
    the group's width."""
    size = params.element_bytes

    def elements(xs):
        return b"".join(x.to_bytes(size, "big") for x in xs)

    prefix = (
        b"dcmesh/fs/v2" + len(params.domain_tag).to_bytes(4, "big") + params.domain_tag
        + size.to_bytes(2, "big") + elements((params.p, params.q, *params.generators))
    )
    return (
        prefix + len(context).to_bytes(4, "big") + context + len(targets).to_bytes(2, "big")
        + elements(targets) + elements(announcements)
    )


def test_challenge_input_is_prefix_context_targets_announcements(small, monkeypatch):
    # test_small's elements are one byte wide: p, q, g, f, h are 107, 53, 4, 25, 9
    p, h = small.p, small.h
    stmt = OrStatement(small, (pow(h, 17, p), pow(h, 40, p)), b"ctx")
    k, e1, z1 = 5, 23, 8   # the nonce, then branch 1's simulated pair
    announcements = [pow(h, k, p), simulate(small, stmt.targets[1], e1, z1)]
    expected = (
        b"dcmesh/fs/v2" + b"\x00\x00\x00\x0a" + b"dc-mesh/v1" + b"\x00\x01"
        + bytes([107, 53, 4, 25, 9])
        + b"\x00\x00\x00\x03" + b"ctx" + b"\x00\x02" + bytes(stmt.targets) + bytes(announcements)
    )
    assert challenge_input(small, stmt.targets, b"ctx", announcements) == expected
    assert stmt.head + bytes(announcements) == expected
    hashed = []

    def sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(zkp, "hashlib", SimpleNamespace(sha256=sha256))
    proof = prove_or(small, stmt, 0, 17, ScriptedRng([k, e1, z1]))
    assert verify_proof(small, stmt, proof)
    # one hash each, the prover's and the verifier's, over exactly that input
    assert hashed == [expected, expected]
    challenge = int.from_bytes(hashlib.sha256(expected).digest(), "big") % small.q
    assert sum(e for e, _ in proof) % small.q == challenge


def test_challenge_input_frames_the_context(small):
    # a byte moved across the end of the context into the first target
    # leaves the unframed bytes as they were, but not the challenge input
    moved = OrStatement(small, (4, 9), b"ctx\x19")
    other = OrStatement(small, (25, 4, 9), b"ctx")
    assert moved.context + bytes(moved.targets) == other.context + bytes(other.targets)
    assert moved.head != other.head
    announcements = [16, 36]
    assert fs_challenge(small, moved, announcements) != fs_challenge(small, other, announcements)


def test_head_is_rebuilt_from_targets_and_context(small, medium):
    for params in (small, medium):
        stmt = OrStatement(params, [params.g, params.f], b"ctx")
        assert stmt.targets == (params.g, params.f)
        assert stmt.head == OrStatement(params, stmt.targets, stmt.context).head
        assert stmt.head == challenge_input(params, stmt.targets, stmt.context, [])
        assert stmt.head.startswith(params.fs_prefix)


# ---------------------------------------------------------------------------
# knowledge of a single representation


def test_rep_completeness_random(small):
    rng = random.Random(11)
    for _ in range(1000):
        alpha = rng.randrange(small.q)
        stmt = rep_for(small, alpha)
        proof = prove_one(small, stmt, alpha, rng)
        assert verify_proof(small, stmt, proof)


def test_rep_zero_witness_identity_target(small):
    rng = random.Random(1)
    stmt = rep_for(small, 0)
    assert stmt.targets == (1,)
    assert verify_proof(small, stmt, prove_one(small, stmt, 0, rng))


def test_rep_wrong_witness_refused(small):
    stmt = rep_for(small, 5)
    with pytest.raises(WitnessMismatch):
        prove_one(small, stmt, 6, random.Random(0))


def test_prover_refuses_an_empty_statement_and_an_index_outside_it(small):
    # no branch to prove, or a true index naming none: a negative one
    # would read a branch from the end and simulate every branch
    (target,) = rep_for(small, 5).targets
    with pytest.raises(WitnessMismatch):
        prove_or(small, OrStatement(small, ()), 0, 5, random.Random(0))
    for index in (-1, -2, 2, 3):
        with pytest.raises(WitnessMismatch):
            prove_or(small, OrStatement(small, [target, target]), index, 5, random.Random(0))


def test_rep_tampered_response_rejected(small):
    rng = random.Random(3)
    stmt = rep_for(small, 21)
    proof = prove_one(small, stmt, 21, rng)
    ((e, z),) = proof
    bad = ((e, (z + 1) % small.q),)
    assert not verify_proof(small, stmt, bad)


def test_statement_byte_binding(small):
    rng = random.Random(4)
    stmt = rep_for(small, 9, context=b"round-7")
    proof = prove_one(small, stmt, 9, rng)
    other = OrStatement(small, stmt.targets, b"round-8")
    assert verify_proof(small, stmt, proof)
    assert not verify_proof(small, other, proof)


# ---------------------------------------------------------------------------
# OR composition


def or_pair(params, alpha, true_branch, rng):
    """Two-branch statement where only ``true_branch`` has a known witness."""
    decoy = (
        pow(params.h, rng.randrange(params.q), params.p)
        * params.g % params.p  # witness would require the dlog of g base h
    )
    targets = [decoy, decoy]
    targets[true_branch] = pow(params.h, alpha, params.p)
    return OrStatement(params, targets, b"pair")


def test_or_completeness_both_sides(small):
    rng = random.Random(5)
    for true_branch in (0, 1):
        alpha = rng.randrange(small.q)
        stmt = or_pair(small, alpha, true_branch, rng)
        proof = prove_or(small, stmt, true_branch, alpha, rng)
        assert verify_proof(small, stmt, proof)


def test_or_wrong_branch_witness_refused(small):
    rng = random.Random(6)
    stmt = or_pair(small, 13, 0, rng)
    with pytest.raises(WitnessMismatch):
        prove_or(small, stmt, 1, 13, rng)


def test_or_challenge_split_tampering_rejected(small):
    rng = random.Random(7)
    stmt = or_pair(small, 22, 0, rng)
    proof = prove_or(small, stmt, 0, 22, rng)
    (e0, z0), (e1, z1) = proof
    shifted = (((e0 + 1) % small.q, z0), ((e1 - 1) % small.q, z1))
    # sum is still right, but the rebuilt announcements now hash elsewhere
    assert sum(e for e, _ in shifted) % small.q == sum(e for e, _ in proof) % small.q
    assert not verify_proof(small, stmt, shifted)


def test_or_hiding_structure(small):
    """Swapping which branch is true changes nothing observable."""
    rng = random.Random(8)
    alpha = 31
    true_target = pow(small.h, alpha, small.p)
    # both branches satisfiable by construction, so either index proves
    stmt = OrStatement(small, (true_target, true_target), b"both")
    sizes = set()
    first_challenges = {0: Counter(), 1: Counter()}
    for true_branch in (0, 1):
        for _ in range(250):
            proof = prove_or(small, stmt, true_branch, alpha, rng)
            assert verify_proof(small, stmt, proof)
            sizes.add(len(proof_to_text(small, proof)))
            first_challenges[true_branch][proof[0][0]] += 1
    assert len(sizes) == 1
    # the first branch's challenge spreads over the space either way; no
    # field separates the proofs by which branch was real
    assert len(first_challenges[0]) > 30
    assert len(first_challenges[1]) > 30


class ScriptedRng:
    """Hands ``randrange`` its draws from a script, in order, and counts
    them in ``used``."""

    def __init__(self, draws):
        self.draws = iter(draws)
        self.used = 0

    def randrange(self, stop):
        draw = next(self.draws)
        assert 0 <= draw < stop
        self.used += 1
        return draw


def test_or_proof_is_witness_indistinguishable(small):
    """Exactly, at test_small: a prover with a true branch 0, nonce k and
    simulated branch-1 pair (e1, z1), and a prover with a true branch 1,
    nonce z1 - e1 * alpha1 and the first proof's branch-0 pair (e0, z0)
    as its simulated one, make the same announcements, so they emit the
    same proof.  The map between their draws is a bijection, so each
    proof is as likely under either witness."""
    q, alphas = small.q, (17, 40)
    stmt = OrStatement(small, [pow(small.h, alpha, small.p) for alpha in alphas], b"wi")
    e1, z1 = 23, 8
    nonce = (z1 - e1 * alphas[1]) % q
    for k in range(q):
        proof = prove_or(small, stmt, 0, alphas[0], ScriptedRng([k, e1, z1]))
        (e0, z0), _ = proof
        assert prove_or(small, stmt, 1, alphas[1], ScriptedRng([nonce, e0, z0])) == proof


# ---------------------------------------------------------------------------
# special soundness: the rewinding extractor


def extract(params, targets, prover, e1, e2):
    """Two-transcript extractor for the OR core."""
    pairs1 = prover.respond(e1)
    pairs2 = prover.respond(e2)
    for target, (c1, z1), (c2, z2) in zip(targets, pairs1, pairs2):
        if c1 == c2:
            continue
        de = (c1 - c2) % params.q
        dz = (z1 - z2) % params.q
        alpha = dz * pow(de, -1, params.q) % params.q
        # the recovered witness must satisfy the branch
        assert pow(params.h, alpha, params.p) == target
        return alpha
    raise AssertionError("no differing branch challenge; extraction impossible")


def test_extractor_rep_family(small, reference_prover):
    rng = random.Random(13)
    for alpha in (0, 1, 29, 52):
        stmt = rep_for(small, alpha)
        prover = reference_prover(small, stmt.targets, 0, alpha, rng)
        assert extract(small, stmt.targets, prover, 3, 17) == alpha


def test_extractor_or_family(small, reference_prover):
    rng = random.Random(14)
    for alpha in (5, 40):
        for branch in (0, 1):
            stmt = or_pair(small, alpha, branch, rng)
            targets = stmt.targets
            prover = reference_prover(small, targets, branch, alpha, rng)
            for e1 in range(0, 10):
                e2 = (e1 + 7) % small.q
                got = extract(small, targets, prover, e1, e2)
                assert got == alpha


# ---------------------------------------------------------------------------
# the one-pass prover against the reference rewinding prover


@st.composite
def provable_statements(draw):
    """A statement of one to three branches over test_small, any branch
    true under any witness and the others any group elements, with the
    true branch, the witness and the draws of a proof: the nonce, then
    each other branch's challenge and response."""
    params = derive_params("test_small", b"dc-mesh/v1")
    q, p = params.q, params.p
    scalars = st.integers(0, q - 1)
    k = draw(st.integers(1, 3))
    true_index, alpha = draw(st.integers(0, k - 1)), draw(scalars)
    targets = [pow(params.g, draw(scalars), p) for _ in range(k)]
    targets[true_index] = pow(params.h, alpha, p)
    stmt = OrStatement(params, targets, draw(st.binary(max_size=8)))
    draws = draw(st.lists(scalars, min_size=2 * k - 1, max_size=2 * k - 1))
    return params, stmt, true_index, alpha, draws


@settings(max_examples=200, deadline=None)
@given(provable_statements(), st.integers(1, 52))
def test_prove_or_is_the_reference_prover_in_one_pass(reference_prover, case, shift):
    # the same draws make the same proof as the reference's answer to
    # the challenge of its announcements, and take every draw; a wrong
    # witness raises before it takes any
    params, stmt, true_index, alpha, draws = case
    reference = reference_prover(params, stmt.targets, true_index, alpha, ScriptedRng(draws))
    expected = reference.respond(fs_challenge(params, stmt, reference.announcements))
    rng = ScriptedRng(draws)
    assert prove_or(params, stmt, true_index, alpha, rng) == expected
    assert rng.used == len(draws)
    assert verify_proof(params, stmt, expected)
    rng = ScriptedRng(draws)
    with pytest.raises(WitnessMismatch):
        prove_or(params, stmt, true_index, alpha + shift, rng)
    assert rng.used == 0


# ---------------------------------------------------------------------------
# zero-knowledge: exhaustive transcript distributions at q = 53


def test_simulated_transcripts_match_real_exactly(small):
    """Full enumeration: {(t,e,z)} from real provers equals the
    simulator's set, so transcripts carry no information about alpha
    beyond the statement itself.  A chi-square over the enumeration is
    identically zero because the multisets are equal."""
    alpha = 19
    stmt = rep_for(small, alpha)
    q, p, h = small.q, small.p, small.h
    real = Counter()
    for w in range(q):
        t = pow(h, w, p)
        for e in range(q):
            z = (w + e * alpha) % q
            real[(t, e, z)] += 1
    simulated = Counter()
    for z in range(q):
        for e in range(q):
            t = simulate(small, stmt.targets[0], e, z)
            simulated[(t, e, z)] += 1
    assert real == simulated
    chi_square = sum(
        (real[k] - simulated[k]) ** 2 / simulated[k] for k in simulated
    )
    assert chi_square == 0


def test_simulator_transcripts_verify_interactively(small):
    """Challenge-first simulation satisfies the verification equation for
    every possible challenge and serializes to the same length as a real
    proof."""
    rng = random.Random(16)
    alpha = 44
    stmt = rep_for(small, alpha)
    real = prove_one(small, stmt, alpha, rng)
    p, h = small.p, small.h
    for e in range(small.q):
        z = rng.randrange(small.q)
        t = simulate(small, stmt.targets[0], e, z)
        assert pow(h, z, p) == t * pow(stmt.targets[0], e, p) % p
        assert len(proof_to_text(small, ((e, z),))) == len(proof_to_text(small, real))


# ---------------------------------------------------------------------------
# statement builders


def add(a, b, q=53):
    return ((a[0] + b[0]) % q, (a[1] + b[1]) % q)


def stmt_no_message(params, value, commitment, context=b""):
    """Claim that the broadcast (value, commitment) carries no message."""
    return OrStatement(params, no_message_targets(params, [(value, commitment)]), context)


def stmt_same_message(params, value1, commitment1, value2, commitment2, context=b""):
    """Claim that two broadcasts carry the same message: the quotient of
    their no-message targets."""
    t1, t2 = no_message_targets(params, [(value1, commitment1), (value2, commitment2)])
    return OrStatement(params, (t1 * pow(t2, -1, params.p) % params.p,), context)


def test_no_message_statement_honest_case(small):
    rng = random.Random(17)
    for _ in range(50):
        pad, blind = (rng.randrange(53), rng.randrange(53)), rng.randrange(53)
        c = commit(small, pad, blind)
        stmt = stmt_no_message(small, pad, c)
        proof = prove_one(small, stmt, blind, rng)
        assert verify_proof(small, stmt, proof)


def test_no_message_statement_with_message_unprovable(small):
    rng = random.Random(18)
    pad, blind = (12, 40), 30
    c = commit(small, pad, blind)
    # a message in either component leaves no witness
    for message in ((1, 7), (0, 7), (1, 0)):
        stmt = stmt_no_message(small, add(pad, message), c)
        with pytest.raises(WitnessMismatch):
            prove_one(small, stmt, blind, rng)


def test_no_message_identity_case(small):
    stmt = stmt_no_message(small, (0, 0), 1)
    assert stmt.targets == (1,)
    proof = prove_one(small, stmt, 0, random.Random(19))
    assert verify_proof(small, stmt, proof)


def test_same_message_statement_cases(small):
    rng = random.Random(20)
    q = small.q
    for _ in range(50):
        pad1, pad2 = ((rng.randrange(q), rng.randrange(q)) for _ in range(2))
        blind1, blind2 = rng.randrange(q), rng.randrange(q)
        message = (rng.randrange(q), rng.randrange(q))
        c1, c2 = commit(small, pad1, blind1), commit(small, pad2, blind2)
        v1, v2 = add(pad1, message), add(pad2, message)
        stmt = stmt_same_message(small, v1, c1, v2, c2)
        proof = prove_one(small, stmt, (blind1 - blind2) % q, rng)
        assert verify_proof(small, stmt, proof)
    # identical tuples need witness zero
    c = commit(small, (5, 7), 6)
    stmt = stmt_same_message(small, (11, 3), c, (11, 3), c)
    assert stmt.targets == (1,)
    # different messages, in either component, leave no witness for the
    # honest blinding delta
    c1, c2 = commit(small, (3, 4), 8), commit(small, (9, 10), 2)
    for m1, m2 in (((1, 20), (1, 21)), ((1, 20), (2, 20)), ((0, 0), (1, 0))):
        stmt = stmt_same_message(small, add((3, 4), m1), c1, add((9, 10), m2), c2)
        with pytest.raises(WitnessMismatch):
            prove_one(small, stmt, (8 - 2) % q, rng)


# ---------------------------------------------------------------------------
# deliberate forgeries and serialization


def test_forge_attempt_always_rejected(small):
    rng = random.Random(21)
    for _ in range(100):
        alpha = rng.randrange(small.q)
        stmt = or_pair(small, alpha, 0, rng)
        forged = forge_attempt(small, stmt, rng)
        assert len(forged) == 2
        assert not verify_proof(small, stmt, forged)


def test_forge_attempt_rep_rejected(small):
    rng = random.Random(22)
    stmt = rep_for(small, 10)
    assert not verify_proof(small, stmt, forge_attempt(small, stmt, rng))


def test_proof_serialization_roundtrip(small, medium):
    rng = random.Random(23)
    for params in (small, medium):
        alpha = rng.randrange(params.q)
        stmt = or_pair(params, alpha, 1, rng)
        proof = prove_or(params, stmt, 1, alpha, rng)
        text = proof_to_text(params, proof)
        # a proof is the hex of its scalars, one (challenge, response) pair
        # per branch: in test_medium 12 bytes for two branches, 6 for one
        width = 2 * params.scalar_bytes   # hex digits per scalar
        assert len(text) == 2 * 2 * width
        true_branch = OrStatement(params, stmt.targets[1:], stmt.context)
        alone = prove_one(params, true_branch, alpha, rng)
        assert len(proof_to_text(params, alone)) == 2 * width
        again = proof_from_text(params, text)
        assert again == proof
        assert verify_proof(params, stmt, again)
        assert proof_to_text(params, None) == zkp.NO_PROOF == "-"
        # empty, truncated and trailing bytes, a half byte, the withheld
        # proof's text and a non-hex text are not a proof
        for bad in ("", text[:-2], text + "00", text[: 2 * width + 2], text[:-1], "-",
                    "zz" + text[2:]):
            assert proof_from_text(params, bad) is None, bad
        # a pair short, or one too many, parses but is no proof of stmt,
        # even an extra pair whose zero challenge keeps the sum; nor is a
        # valid one-branch proof of its true branch alone
        assert not verify_proof(params, stmt, proof_from_text(params, text[: 2 * width]))
        assert not verify_proof(params, stmt, proof_from_text(params, text + text[: 2 * width]))
        assert not verify_proof(params, stmt, proof + ((0, 0),))
        assert verify_proof(params, true_branch, alone)
        assert not verify_proof(params, stmt, alone)
        # a first scalar of 0, or of 1 (in test_medium, two leading zero
        # bytes), keeps its digits: every scalar is spelled at the fixed
        # width, the packed text's leading zeros included
        q = params.q
        for fixed in (((0, 1),), ((0, 0), (q - 1, 5)), ((1, q - 1),), ((1, 0), (0, 2), (3, 0))):
            text = proof_to_text(params, fixed)
            assert text == "".join(f"{x:0{width}x}" for pair in fixed for x in pair)
            assert len(text) == 2 * width * len(fixed)
            assert proof_from_text(params, text) == fixed


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["test_small", "test_medium"]),
    st.lists(st.tuples(st.integers(-(1 << 30), 1 << 30), st.integers(-(1 << 30), 1 << 30)),
             max_size=3),
)
def test_a_proof_text_reads_back_as_its_proof(group, pairs):
    # any pairs of scalars, negative ones and ones wider than the group's
    # scalar width included: the text is NO_PROOF, or it reads back as the
    # very proof it spells, so a run never checks one proof and records another
    params = derive_params(group, b"dc-mesh/v1")
    proof = tuple(pairs)
    text = proof_to_text(params, proof)
    fits = all(0 <= x < 1 << 8 * params.scalar_bytes for pair in proof for x in pair)
    if proof and fits:
        assert proof_from_text(params, text) == proof
    else:
        assert text == zkp.NO_PROOF


def test_verify_rejects_scalars_outside_the_field(small, medium):
    # (e + q, z) and (e, z + q) are congruent to a valid pair and still
    # fit the wire's scalar width, but only canonical scalars verify
    rng = random.Random(26)
    for params in (small, medium):
        q = params.q
        alpha = rng.randrange(q)
        stmt = or_pair(params, alpha, 1, rng)
        (e0, z0), (e1, z1) = proof = prove_or(params, stmt, 1, alpha, rng)
        assert verify_proof(params, stmt, proof)
        for bad in (((e0 + q, z0), (e1, z1)), ((e0, z0), (e1, z1 + q))):
            text = proof_to_text(params, bad)
            assert not verify_proof(params, stmt, proof_from_text(params, text))


# ---------------------------------------------------------------------------
# the batched check against the single-proof algorithm


def reference_verify(params, stmt, proof):
    """One proof checked on its own, as before rounds were checked in one
    call: challenge input, announcements and challenge rebuilt here."""
    if len(proof) != len(stmt.targets):
        return False
    p, q = params.p, params.q
    if not all(0 <= e < q and 0 <= z < q for e, z in proof):
        return False
    announcements = [
        pow(params.h, z, p) * pow(t, q - e, p) % p for t, (e, z) in zip(stmt.targets, proof)
    ]
    data = challenge_input(params, stmt.targets, stmt.context, announcements)
    return sum(e for e, _ in proof) % q == int.from_bytes(hashlib.sha256(data).digest(), "big") % q


TAMPERINGS = ("none", "changed_scalar", "dropped_pair", "added_pair", "out_of_range")


@st.composite
def proved_statements(draw):
    """A one- or two-branch statement, an honest proof of it, and one
    tampering of that proof."""
    params = derive_params("test_small", b"dc-mesh/v1")
    q, p = params.q, params.p
    alpha = draw(st.integers(0, q - 1))
    context = draw(st.binary(max_size=8))
    targets, true_index = [pow(params.h, alpha, p)], 0
    if draw(st.booleans()):
        # a decoy: any element of the group, provable or not
        decoy = pow(params.g, draw(st.integers(0, q - 1)), p)
        true_index = 1 - draw(st.integers(0, 1))
        targets.insert(1 - true_index, decoy)
    stmt = OrStatement(params, targets, context)
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    pairs = [list(pair) for pair in prove_or(params, stmt, true_index, alpha, rng)]
    tampering = draw(st.sampled_from(TAMPERINGS))
    at = draw(st.integers(0, len(pairs) - 1))
    side = draw(st.integers(0, 1))
    if tampering == "changed_scalar":
        pairs[at][side] = (pairs[at][side] + draw(st.integers(1, q - 1))) % q
    elif tampering == "dropped_pair":
        del pairs[at]
    elif tampering == "added_pair":
        pairs.insert(at, [draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))])
    elif tampering == "out_of_range":
        pairs[at][side] += q
    return stmt, tuple(tuple(pair) for pair in pairs)


@settings(max_examples=150, deadline=None)
@given(st.lists(proved_statements(), min_size=1, max_size=6))
def test_batched_verify_agrees_with_one_proof_at_a_time(batch):
    params = derive_params("test_small", b"dc-mesh/v1")
    statements = [stmt for stmt, _ in batch]
    proofs = [proof for _, proof in batch]
    expected = [reference_verify(params, stmt, proof) for stmt, proof in batch]
    assert verify_or(params, statements, proofs) == expected
