"""Non-interactive proofs of knowledge for discrete-log statements.

Everything here is a Fiat-Shamir sigma protocol over branches of one
shape, "I know alpha with target = h^alpha", for the group's blinding
generator h.  Composition is by the classic simulate-the-untrue-branches
OR technique (Cramer-Damgard-Schoenmakers 1994): every statement is an
OR of branches, a plain knowledge proof is a one-branch OR, and the
branch challenges sum to the hashed top-level challenge.

A proof is in challenge form, one (challenge, response) pair per
branch, the shape of a key-setup signature.  The verifier rebuilds each
branch's announcement h^z * T^-e with :func:`simulate` and accepts when
the challenge of the statement and those announcements is the sum of
the branch challenges.  On the wire a proof is its scalars and nothing
else.  Provers check their own witness and refuse to emit anything
unsound; dishonest proofs are produced explicitly via
:func:`forge_attempt`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import EmptyClauseList, WitnessMismatch
from .groups import GroupParams, value_term

_FS_TAG = b"dcmesh/fs/v1"


@dataclass(frozen=True)
class RepStatement:
    """One branch: knowledge of alpha with ``target = h^alpha``.

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


# one (challenge, response) pair per branch of the statement
SigmaProof = tuple[tuple[int, int], ...]


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


def fs_challenge(params: GroupParams, statement_bytes: bytes, announcements: list[int]) -> int:
    """Hash the statement and announcement elements into a challenge scalar."""
    h = hashlib.sha256()
    h.update(_FS_TAG)
    h.update(len(params.domain_tag).to_bytes(4, "big"))
    h.update(params.domain_tag)
    h.update(len(statement_bytes).to_bytes(4, "big"))
    h.update(statement_bytes)
    h.update(len(announcements).to_bytes(4, "big"))
    for a in announcements:
        h.update(params.element_to_bytes(a))
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

    def respond(self, challenge: int) -> SigmaProof:
        q = self.params.q
        used = sum(e for e, _ in self._sim.values()) % q
        e_true = (challenge - used) % q
        z_true = (self.witness_nonce + e_true * self.alpha) % q
        return tuple(self._sim.get(d, (e_true, z_true)) for d in range(len(self.announcements)))


def simulate(params, target, challenge, response):
    """Announcement that makes (challenge, response) verify for
    ``target``: h^response * target^-challenge.

    target^(q - challenge) is target^-challenge because every target lies
    in the order-q subgroup: targets are built from generator powers and
    CIPHER ``c`` values, and the replay checks each ``c`` with
    ``is_element`` when it reads the record.
    """
    p, q = params.p, params.q
    return params.h_table.power(response) * pow(target, q - challenge % q, p) % p


def prove_or(params, stmt: OrStatement, true_branch: int, alpha: int, rng) -> SigmaProof:
    prover = Prover(params, [b.target for b in stmt.branches], true_branch, alpha, rng)
    statement_bytes = or_statement_bytes(params, stmt)
    return prover.respond(fs_challenge(params, statement_bytes, prover.announcements))


def verify_or(params, stmt: OrStatement, proof: SigmaProof) -> bool:
    # zip below would silently drop the branches a short proof lacks
    if len(proof) != len(stmt.branches):
        return False
    q = params.q
    if not all(0 <= e < q and 0 <= z < q for e, z in proof):
        return False
    announcements = [
        simulate(params, b.target, e, z) for b, (e, z) in zip(stmt.branches, proof)
    ]
    challenge = fs_challenge(params, or_statement_bytes(params, stmt), announcements)
    return sum(e for e, _ in proof) % q == challenge


# ---------------------------------------------------------------------------
# statement families


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


def forge_attempt(params, statement: OrStatement, rng) -> SigmaProof:
    """Well-formed proof for a statement the caller cannot prove.

    Adversary simulation hook, playing a cheat that fixes every branch's
    announcement first: it simulates each branch, takes the challenge of
    those announcements, and moves the first branch's challenge so the
    sum matches, which breaks that branch's announcement.  Honest
    verifiers always reject the result.
    """
    q = params.q
    targets = [b.target for b in statement.branches]
    challenges = [rng.randrange(q) for _ in targets]
    responses = [rng.randrange(q) for _ in targets]
    announcements = [simulate(params, t, e, z) for t, e, z in zip(targets, challenges, responses)]
    top = fs_challenge(params, or_statement_bytes(params, statement), announcements)
    challenges[0] = (challenges[0] + top - sum(challenges)) % q
    proof = tuple(zip(challenges, responses))
    while verify_or(params, statement, proof):
        # the moved challenge changed nothing, or the rebuilt announcement
        # happened to hash to the same sum; move the response until it fails
        responses[0] = (responses[0] + 1) % q
        proof = tuple(zip(challenges, responses))
    return proof


# ---------------------------------------------------------------------------
# wire format


def proof_to_bytes(params: GroupParams, proof: SigmaProof) -> bytes:
    return b"".join(params.scalar_to_bytes(x) for pair in proof for x in pair)


def proof_from_bytes(params: GroupParams, data: bytes) -> SigmaProof:
    """Parse a proof; ValueError unless ``data`` is a non-zero whole
    number of (challenge, response) pairs."""
    sw = params.scalar_bytes
    if not data or len(data) % (2 * sw):
        raise ValueError("proof bytes are not whole (challenge, response) pairs")
    scalars = [int.from_bytes(data[i : i + sw], "big") for i in range(0, len(data), sw)]
    return tuple(zip(scalars[::2], scalars[1::2]))
