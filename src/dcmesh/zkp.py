"""Non-interactive proofs of knowledge for discrete-log statements.

Everything here is a Fiat-Shamir sigma protocol over branches of one
shape, "I know alpha with target = h^alpha", for the group's blinding
generator h.  Composition is by the classic simulate-the-untrue-branches
OR technique (Cramer-Damgard-Schoenmakers 1994):

* a plain knowledge proof is a one-branch OR,
* an OR statement becomes one block per branch, with the branch
  challenges summing to the hashed top-level challenge.

A block is one announcement, its challenge and its response.  Provers
check their own witness and refuse to emit anything unsound; dishonest
transcripts are produced explicitly via :func:`forge_attempt`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import EmptyClauseList, WitnessMismatch
from .groups import GroupParams, value_term

_FS_TAG = b"dcmesh/fs/v1"

# a block's announcement count on the wire; every block holds one
_ONE_ANNOUNCEMENT = (1).to_bytes(2, "big")


@dataclass(frozen=True)
class RepStatement:
    """Claim of knowledge of alpha with ``target = h^alpha``.

    ``context`` carries the statement's role bytes (round ids,
    participant id, session label) so a proof cannot be replayed for a
    different slot of the protocol.
    """

    target: int
    context: bytes = b""


@dataclass(frozen=True)
class OrStatement:
    branches: tuple[RepStatement, ...]

    def __post_init__(self):
        if not self.branches:
            raise EmptyClauseList("an OR statement needs at least one branch")


@dataclass(frozen=True)
class ProofBlock:
    commitment: int
    challenge: int
    response: int


@dataclass(frozen=True)
class SigmaProof:
    statement_digest: bytes
    blocks: tuple[ProofBlock, ...]


# ---------------------------------------------------------------------------
# canonical statement encoding


def rep_statement_bytes(params: GroupParams, stmt: RepStatement) -> bytes:
    return (
        b"rep|"
        + params.element_to_bytes(stmt.target)
        + params.element_to_bytes(params.h)   # the base of every branch
        + len(stmt.context).to_bytes(4, "big")
        + stmt.context
    )


def or_statement_bytes(params: GroupParams, stmt: OrStatement) -> bytes:
    body = b"".join(rep_statement_bytes(params, b) for b in stmt.branches)
    return b"or|" + len(stmt.branches).to_bytes(2, "big") + body


def fs_challenge(params: GroupParams, statement_bytes: bytes, commitments: list[int]) -> int:
    """Hash the statement and announcement elements into a challenge scalar."""
    h = hashlib.sha256()
    h.update(_FS_TAG)
    h.update(len(params.domain_tag).to_bytes(4, "big"))
    h.update(params.domain_tag)
    h.update(len(statement_bytes).to_bytes(4, "big"))
    h.update(statement_bytes)
    h.update(len(commitments).to_bytes(4, "big"))
    for c in commitments:
        h.update(params.element_to_bytes(c))
    return int.from_bytes(h.digest(), "big") % params.q


# ---------------------------------------------------------------------------
# OR core over powers of h


class Prover:
    """Interactive core of the OR proof over ``targets``, one branch
    each; also used by rewinding tests.

    The announcements are fixed at construction, and :meth:`respond` may
    be called several times with different challenges, which is exactly
    the rewinding game the soundness extractor plays.
    """

    def __init__(self, params, targets, true_index, alpha, rng):
        self.params = params
        self.true_index = true_index
        self.alpha = alpha % params.q
        q, power = params.q, params.h_table.power
        if power(self.alpha) != targets[true_index]:
            raise WitnessMismatch("witness does not satisfy the designated branch")
        self._sim = {}
        self.witness_nonce = rng.randrange(q)
        self.announcements = []
        for d, target in enumerate(targets):
            if d == true_index:
                self.announcements.append(power(self.witness_nonce))
            else:
                e_d = rng.randrange(q)
                z_d = rng.randrange(q)
                self.announcements.append(simulate(params, target, e_d, z_d))
                self._sim[d] = (e_d, z_d)

    def respond(self, challenge: int) -> tuple[ProofBlock, ...]:
        q = self.params.q
        used = sum(e for e, _ in self._sim.values()) % q
        e_true = (challenge - used) % q
        z_true = (self.witness_nonce + e_true * self.alpha) % q
        return tuple(
            ProofBlock(t, e_true, z_true) if d == self.true_index else ProofBlock(t, *self._sim[d])
            for d, t in enumerate(self.announcements)
        )


def simulate(params, target, challenge, response):
    """Announcement that makes (challenge, response) verify for ``target``."""
    p, q = params.p, params.q
    return params.h_table.power(response) * pow(target, q - challenge % q, p) % p


def _prove(params, statement_bytes, targets, true_index, alpha, rng) -> SigmaProof:
    prover = Prover(params, targets, true_index, alpha, rng)
    challenge = fs_challenge(params, statement_bytes, prover.announcements)
    return SigmaProof(
        statement_digest=hashlib.sha256(statement_bytes).digest(),
        blocks=prover.respond(challenge),
    )


def _verify(params, statement_bytes, targets, proof: SigmaProof) -> bool:
    if proof.statement_digest != hashlib.sha256(statement_bytes).digest():
        return False
    if len(proof.blocks) != len(targets):
        return False
    challenge = fs_challenge(params, statement_bytes, [b.commitment for b in proof.blocks])
    if sum(b.challenge for b in proof.blocks) % params.q != challenge:
        return False
    p, q, power = params.p, params.q, params.h_table.power
    for target, block in zip(targets, proof.blocks):
        if not (0 <= block.challenge < q and 0 <= block.response < q):
            return False
        if not 0 < block.commitment < p:  # reject non-canonical encodings
            return False
        if power(block.response) != block.commitment * pow(target, block.challenge, p) % p:
            return False
    return True


# ---------------------------------------------------------------------------
# statement families


def prove_rep(params, stmt: RepStatement, alpha: int, rng) -> SigmaProof:
    return _prove(params, rep_statement_bytes(params, stmt), [stmt.target], 0, alpha, rng)


def verify_rep(params, stmt: RepStatement, proof: SigmaProof) -> bool:
    return _verify(params, rep_statement_bytes(params, stmt), [stmt.target], proof)


def prove_or(params, stmt: OrStatement, true_branch: int, alpha: int, rng) -> SigmaProof:
    targets = [b.target for b in stmt.branches]
    return _prove(params, or_statement_bytes(params, stmt), targets, true_branch, alpha, rng)


def verify_or(params, stmt: OrStatement, proof: SigmaProof) -> bool:
    targets = [b.target for b in stmt.branches]
    return _verify(params, or_statement_bytes(params, stmt), targets, proof)


def stmt_no_message(params, value, commitment: int, context: bytes = b"") -> RepStatement:
    """Statement that a broadcast slot value (count, total) carries no message.

    The commitment binds the broadcaster to its pad sums; dividing the
    g and f terms of the claimed value out of it leaves a pure power of h
    exactly when the value equals the pad sums.
    """
    count, total = value
    target = commitment * value_term(params, (-count, -total)) % params.p
    return RepStatement(target=target, context=context)


def stmt_same_message(
    params, value1, commitment1: int, value2, commitment2: int, context: bytes = b""
) -> RepStatement:
    """Statement that two broadcast slot values carry the same message.

    Taking the quotient of the two commitments and dividing out the
    g and f terms of the value difference leaves a power of h exactly
    when the two message contributions cancel.
    """
    p = params.p
    quotient = commitment1 * pow(commitment2, -1, p) % p
    shift = (value2[0] - value1[0], value2[1] - value1[1])
    target = quotient * value_term(params, shift) % p
    return RepStatement(target=target, context=context)


def forge_attempt(params, statement: RepStatement | OrStatement, rng) -> SigmaProof:
    """Structurally valid proof bytes for a statement the caller cannot prove.

    Adversary simulation hook: the result has the right shape and a
    consistent challenge sum, but at least one verification equation is
    broken, so honest verifiers always reject it.
    """
    if isinstance(statement, RepStatement):
        statement_bytes = rep_statement_bytes(params, statement)
        targets = [statement.target]
    else:
        statement_bytes = or_statement_bytes(params, statement)
        targets = [b.target for b in statement.branches]
    q = params.q
    challenges = [rng.randrange(q) for _ in targets]
    responses = [rng.randrange(q) for _ in targets]
    blocks = [
        ProofBlock(simulate(params, target, e, z), e, z)
        for target, e, z in zip(targets, challenges, responses)
    ]
    top = fs_challenge(params, statement_bytes, [b.commitment for b in blocks])
    # force the challenge sum to match; the first block's equation now
    # refers to a challenge its announcement was not simulated for
    delta = (top - sum(challenges)) % q
    fixed = (blocks[0].challenge + delta) % q
    blocks[0] = ProofBlock(blocks[0].commitment, fixed, blocks[0].response)
    proof = SigmaProof(hashlib.sha256(statement_bytes).digest(), tuple(blocks))
    if _verify(params, statement_bytes, targets, proof):
        # delta landed on zero (or the targets were trivial); break an equation
        blocks[0] = ProofBlock(
            blocks[0].commitment, blocks[0].challenge, (blocks[0].response + 1) % q
        )
        proof = SigmaProof(proof.statement_digest, tuple(blocks))
    return proof


# ---------------------------------------------------------------------------
# wire format


def proof_to_bytes(params: GroupParams, proof: SigmaProof) -> bytes:
    out = [proof.statement_digest, len(proof.blocks).to_bytes(2, "big")]
    for block in proof.blocks:
        out.append(_ONE_ANNOUNCEMENT)
        out.append(params.element_to_bytes(block.commitment))
        out.append(params.scalar_to_bytes(block.challenge))
        out.append(params.scalar_to_bytes(block.response))
    return b"".join(out)


def proof_from_bytes(params: GroupParams, data: bytes) -> SigmaProof:
    """Parse a proof; ValueError for truncated or trailing bytes, and for
    a block whose announcement count is not one."""
    ew, sw = params.element_bytes, params.scalar_bytes
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(data):
            raise ValueError("proof bytes truncated")
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    digest = take(32)
    n_blocks = int.from_bytes(take(2), "big")
    blocks = []
    for _ in range(n_blocks):
        if take(2) != _ONE_ANNOUNCEMENT:
            raise ValueError("a proof block holds one announcement")
        commitment = int.from_bytes(take(ew), "big")
        challenge = int.from_bytes(take(sw), "big")
        response = int.from_bytes(take(sw), "big")
        blocks.append(ProofBlock(commitment, challenge, response))
    if pos != len(data):
        raise ValueError("trailing bytes after proof")
    return SigmaProof(digest, tuple(blocks))
