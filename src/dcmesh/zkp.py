"""Non-interactive proofs of knowledge for discrete-log statements.

Everything here is a Fiat-Shamir sigma protocol over statements of the
shape "I know alpha with target = base^alpha".  Composition is by the
classic simulate-the-untrue-branches OR technique:

* a plain knowledge proof is a one-branch OR,
* an OR statement becomes one block per branch, with the branch
  challenges summing to the hashed top-level challenge.

Provers check their own witness and refuse to emit anything unsound;
dishonest transcripts are produced explicitly via :func:`forge_attempt`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import EmptyClauseList, WitnessMismatch
from .groups import GroupParams

_FS_TAG = b"dcmesh/fs/v1"


@dataclass(frozen=True)
class RepStatement:
    """Claim of knowledge of alpha with ``target = base^alpha``.

    ``context`` carries the statement's role bytes (round ids,
    participant id, session label) so a proof cannot be replayed for a
    different slot of the protocol.
    """

    target: int
    base: int
    context: bytes = b""


@dataclass(frozen=True)
class OrStatement:
    branches: tuple[RepStatement, ...]

    def __post_init__(self):
        if not self.branches:
            raise EmptyClauseList("an OR statement needs at least one branch")


@dataclass(frozen=True)
class ProofBlock:
    commitments: tuple[int, ...]
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
        + params.element_to_bytes(stmt.base)
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
# flat OR core
#
# A "disjunct" is a list of (target, base) atoms that must all hold for
# one shared alpha; the proof asserts at least one disjunct holds.


class FlatProver:
    """Interactive core of the OR proof; also used by rewinding tests.

    The announcement is fixed at construction, and :meth:`respond` may
    be called several times with different challenges, which is exactly
    the rewinding game the soundness extractor plays.
    """

    def __init__(self, params, disjuncts, true_index, alpha, rng):
        self.params = params
        self.disjuncts = disjuncts
        self.true_index = true_index
        self.alpha = alpha % params.q
        q, p, power = params.q, params.p, params.power
        for target, base in disjuncts[true_index]:
            if power(base, self.alpha) != target:
                raise WitnessMismatch("witness does not satisfy the designated disjunct")
        self._sim = {}
        commitments = []
        self.witness_nonce = rng.randrange(q)
        for d, atoms in enumerate(disjuncts):
            if d == true_index:
                block = tuple(power(base, self.witness_nonce) for _, base in atoms)
            else:
                e_d = rng.randrange(q)
                z_d = rng.randrange(q)
                block = tuple(
                    power(base, z_d) * pow(target, q - e_d, p) % p for target, base in atoms
                )
                self._sim[d] = (e_d, z_d)
            commitments.append(block)
        self.block_commitments = commitments

    def commitments(self) -> list[int]:
        return [t for block in self.block_commitments for t in block]

    def respond(self, challenge: int) -> tuple[ProofBlock, ...]:
        q = self.params.q
        used = sum(e for e, _ in self._sim.values()) % q
        e_true = (challenge - used) % q
        z_true = (self.witness_nonce + e_true * self.alpha) % q
        blocks = []
        for d, block in enumerate(self.block_commitments):
            if d == self.true_index:
                blocks.append(ProofBlock(block, e_true, z_true))
            else:
                e_d, z_d = self._sim[d]
                blocks.append(ProofBlock(block, e_d, z_d))
        return tuple(blocks)


def simulate_block(params, atoms, challenge, response):
    """Announcement that makes (challenge, response) verify for these atoms."""
    p, q = params.p, params.q
    return tuple(
        params.power(base, response) * pow(target, q - challenge % q, p) % p
        for target, base in atoms
    )


def prove_flat(params, statement_bytes, disjuncts, true_index, alpha, rng) -> SigmaProof:
    prover = FlatProver(params, disjuncts, true_index, alpha, rng)
    challenge = fs_challenge(params, statement_bytes, prover.commitments())
    return SigmaProof(
        statement_digest=hashlib.sha256(statement_bytes).digest(),
        blocks=prover.respond(challenge),
    )


def verify_flat(params, statement_bytes, disjuncts, proof: SigmaProof) -> bool:
    if proof.statement_digest != hashlib.sha256(statement_bytes).digest():
        return False
    if len(proof.blocks) != len(disjuncts):
        return False
    for atoms, block in zip(disjuncts, proof.blocks):
        if len(block.commitments) != len(atoms):
            return False
    flat = [t for block in proof.blocks for t in block.commitments]
    challenge = fs_challenge(params, statement_bytes, flat)
    if sum(b.challenge for b in proof.blocks) % params.q != challenge:
        return False
    p, q, power = params.p, params.q, params.power
    for atoms, block in zip(disjuncts, proof.blocks):
        if not (0 <= block.challenge < q and 0 <= block.response < q):
            return False
        for (target, base), announced in zip(atoms, block.commitments):
            if not 0 < announced < p:  # reject non-canonical encodings
                return False
            if power(base, block.response) != announced * pow(target, block.challenge, p) % p:
                return False
    return True


# ---------------------------------------------------------------------------
# statement families


def _rep_disjuncts(stmt: RepStatement):
    return [[(stmt.target, stmt.base)]]


def _or_disjuncts(stmt: OrStatement):
    return [[(b.target, b.base)] for b in stmt.branches]


def prove_rep(params, stmt: RepStatement, alpha: int, rng) -> SigmaProof:
    return prove_flat(params, rep_statement_bytes(params, stmt), _rep_disjuncts(stmt), 0, alpha, rng)


def verify_rep(params, stmt: RepStatement, proof: SigmaProof) -> bool:
    return verify_flat(params, rep_statement_bytes(params, stmt), _rep_disjuncts(stmt), proof)


def prove_or(params, stmt: OrStatement, true_branch: int, alpha: int, rng) -> SigmaProof:
    return prove_flat(
        params, or_statement_bytes(params, stmt), _or_disjuncts(stmt), true_branch, alpha, rng
    )


def verify_or(params, stmt: OrStatement, proof: SigmaProof) -> bool:
    return verify_flat(params, or_statement_bytes(params, stmt), _or_disjuncts(stmt), proof)


def stmt_no_message(params, value: int, commitment: int, context: bytes = b"") -> RepStatement:
    """Statement that a broadcast value carries no message.

    The commitment binds the broadcaster to the pad sum; dividing the
    claimed value out of it leaves a pure power of h exactly when the
    value equals the pad sum.
    """
    target = commitment * params.g_table.power(-value) % params.p
    return RepStatement(target=target, base=params.h, context=context)


def stmt_same_message(
    params, value1: int, commitment1: int, value2: int, commitment2: int, context: bytes = b""
) -> RepStatement:
    """Statement that two broadcasts carry the same message.

    Taking the quotient of the two commitments and dividing out the
    value difference leaves a power of h exactly when the two message
    contributions cancel.
    """
    p = params.p
    quotient = commitment1 * pow(commitment2, -1, p) % p
    target = quotient * params.g_table.power(value2 - value1) % p
    return RepStatement(target=target, base=params.h, context=context)


def forge_attempt(params, statement: RepStatement | OrStatement, rng) -> SigmaProof:
    """Structurally valid proof bytes for a statement the caller cannot prove.

    Adversary simulation hook: the result has the right shape and a
    consistent challenge sum, but at least one verification equation is
    broken, so honest verifiers always reject it.
    """
    if isinstance(statement, RepStatement):
        statement_bytes = rep_statement_bytes(params, statement)
        disjuncts = _rep_disjuncts(statement)
    else:
        statement_bytes = or_statement_bytes(params, statement)
        disjuncts = _or_disjuncts(statement)
    q = params.q
    challenges = [rng.randrange(q) for _ in disjuncts]
    responses = [rng.randrange(q) for _ in disjuncts]
    blocks = [
        ProofBlock(simulate_block(params, atoms, e, z), e, z)
        for atoms, e, z in zip(disjuncts, challenges, responses)
    ]
    flat = [t for b in blocks for t in b.commitments]
    top = fs_challenge(params, statement_bytes, flat)
    # force the challenge sum to match; the first block's equations now
    # refer to a challenge its announcement was not simulated for
    delta = (top - sum(challenges)) % q
    fixed = (blocks[0].challenge + delta) % q
    blocks[0] = ProofBlock(blocks[0].commitments, fixed, blocks[0].response)
    proof = SigmaProof(hashlib.sha256(statement_bytes).digest(), tuple(blocks))
    if verify_flat(params, statement_bytes, disjuncts, proof):
        # delta landed on zero (or the targets were trivial); break an equation
        blocks[0] = ProofBlock(
            blocks[0].commitments, blocks[0].challenge, (blocks[0].response + 1) % q
        )
        proof = SigmaProof(proof.statement_digest, tuple(blocks))
    return proof


# ---------------------------------------------------------------------------
# wire format


def proof_to_bytes(params: GroupParams, proof: SigmaProof) -> bytes:
    out = [proof.statement_digest, len(proof.blocks).to_bytes(2, "big")]
    for block in proof.blocks:
        out.append(len(block.commitments).to_bytes(2, "big"))
        for t in block.commitments:
            out.append(params.element_to_bytes(t))
        out.append(params.scalar_to_bytes(block.challenge))
        out.append(params.scalar_to_bytes(block.response))
    return b"".join(out)


def proof_from_bytes(params: GroupParams, data: bytes) -> SigmaProof:
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
        n_commit = int.from_bytes(take(2), "big")
        commitments = tuple(int.from_bytes(take(ew), "big") for _ in range(n_commit))
        challenge = int.from_bytes(take(sw), "big")
        response = int.from_bytes(take(sw), "big")
        blocks.append(ProofBlock(commitments, challenge, response))
    if pos != len(data):
        raise ValueError("trailing bytes after proof")
    return SigmaProof(digest, tuple(blocks))
