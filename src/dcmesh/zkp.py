"""Non-interactive proofs of knowledge for discrete-log statements.

Everything here is a Fiat-Shamir sigma protocol over branches of one
shape, "I know alpha with target = h^alpha", for the group's blinding
generator h.  Composition is by the classic simulate-the-untrue-branches
OR technique (Cramer-Damgard-Schoenmakers 1994): every statement is an
OR of branches, a plain knowledge proof is a one-branch OR, and the
branch challenges sum to the hashed top-level challenge.

A proof is in challenge form, one (challenge, response) pair per
branch, the shape of a key-setup signature.  The verifier rebuilds each
branch's announcement h^z * T^-e and accepts when the challenge of the
statement and those announcements is the sum of the branch challenges.
:func:`verify_or` checks a whole round of statements at once: every h^z
of the round goes through one ``WindowTable.powers`` call, then each
branch takes one ``pow`` and each proof one hash.  Branch targets are
built from no-message targets c * g^-count * f^-total of broadcasts
(count, total) with commitment c, which :func:`no_message_targets`
makes for a round with one ``powers`` per generator; the session judge
makes them once per round and hands each prover the statement built
from them.  On the wire a proof
is its scalars and nothing else.  Provers check their own witness and
refuse to emit anything unsound; dishonest proofs are produced
explicitly via :func:`forge_attempt`.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from .errors import WitnessMismatch
from .groups import GroupParams

_FS_TAG = b"dcmesh/fs/v1"


class RepStatement(NamedTuple):
    """One branch: knowledge of alpha with ``target = h^alpha``.

    ``context`` carries the statement's role bytes (round ids,
    participant id, session label) so a proof cannot be replayed for a
    different slot of the protocol.
    """

    target: int
    context: bytes = b""


class OrStatement(NamedTuple):
    """An OR of branches; no proof of an empty one is made or accepted."""

    branches: tuple[RepStatement, ...]


# one (challenge, response) pair per branch of the statement
SigmaProof = tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# canonical statement encoding


def or_statement_bytes(params: GroupParams, stmt: OrStatement) -> bytes:
    """Each branch as b"rep|" + target + h, the base of every branch, + context."""
    size = params.element_bytes
    base = params.h.to_bytes(size, "big")
    parts = [b"or|", len(stmt.branches).to_bytes(2, "big")]
    for target, ctx in stmt.branches:
        parts += (b"rep|", target.to_bytes(size, "big"), base, len(ctx).to_bytes(4, "big"), ctx)
    return b"".join(parts)


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
        # no branch at all, or none at true_index, is a witness for no branch
        if not 0 <= true_index < len(targets) or power(self.alpha) != targets[true_index]:
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


def verify_or(params, statements, proofs) -> list[bool]:
    """One verdict per (statement, proof) pair of a round; a proof that
    is None or empty, has a branch count other than its statement's, or
    has a scalar outside [0, q) is False."""
    q, p = params.q, params.p
    # zip below would silently drop the branches a short proof lacks
    formed = [
        bool(proof) and len(proof) == len(stmt.branches)
        and all(0 <= e < q and 0 <= z < q for e, z in proof)
        for stmt, proof in zip(statements, proofs)
    ]
    # h^z of every well-formed proof's branches, in order
    h_z = iter(params.h_table.powers([z for ok, pr in zip(formed, proofs) if ok for _, z in pr]))
    verdicts = []
    for ok, stmt, proof in zip(formed, statements, proofs):
        if ok:
            announcements = [
                next(h_z) * pow(b.target, q - e, p) % p for b, (e, _) in zip(stmt.branches, proof)
            ]
            challenge = fs_challenge(params, or_statement_bytes(params, stmt), announcements)
            ok = sum(e for e, _ in proof) % q == challenge
        verdicts.append(ok)
    return verdicts


# ---------------------------------------------------------------------------
# statement targets


def no_message_targets(params, broadcasts) -> list[int]:
    """c * g^-count * f^-total of each broadcast ((count, total), c): as c
    binds its broadcaster to its pad sums, a power of h exactly when the
    broadcast carries no message."""
    p = params.p
    g_terms = params.g_table.powers([-value[0] for value, _ in broadcasts])
    f_terms = params.f_table.powers([-value[1] for value, _ in broadcasts])
    return [c * a % p * b % p for (_, c), a, b in zip(broadcasts, g_terms, f_terms)]


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
    while verify_or(params, [statement], [proof])[0]:
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
    scalars = iter([int.from_bytes(data[i : i + sw], "big") for i in range(0, len(data), sw)])
    return tuple(zip(scalars, scalars))
