"""Non-interactive proofs of knowledge for discrete-log statements.

Everything here is a Fiat-Shamir sigma protocol over branches of one
shape, "I know alpha with target = h^alpha", for the group's blinding
generator h.  Composition is by the classic simulate-the-untrue-branches
OR technique (Cramer-Damgard-Schoenmakers 1994): every statement is an
OR of branches under one context, a plain knowledge proof is a
one-branch OR, and the branch challenges sum to the hashed top-level
challenge.

A statement's challenge is one SHA-256 over a short, injective input,
read mod q: its head, encoded once when the statement is built, then
the announcements A_1 ... A_k:

    fs_prefix || len(context) as 4 bytes || context || k as 2 bytes
              || T_1 ... T_k || A_1 ... A_k

with every element at the group's fixed width.  ``fs_prefix``, cached
on the group, binds the tag ``dcmesh/fs/v2``, the domain tag, p, q and
the three generators.  The judge's retransmission and denial contexts
open with the session tag, the digest of the transcript header's
DCMESH, GROUP and CONFIG lines and the session number, so each such
proof binds the whole header.  A key-setup signature is a one-branch
proof of x for the key h^x, whose context is the endorse payload
(``keysetup.endorse_statement``).

A proof is in challenge form, one (challenge, response) pair per
branch.  The verifier rebuilds each branch's announcement h^z * T^-e
and accepts when the challenge of the statement and those
announcements is the sum of the branch challenges.
:func:`verify_or` checks a whole round of statements at once: every h^z
of the round goes through one ``WindowTable.powers`` call, then each
branch takes one ``pow`` and each proof one hash.  Branch targets are
built from no-message targets c * g^-count * f^-total of broadcasts
(count, total) with commitment c, which :func:`no_message_targets`
makes for a round with one ``powers`` per generator; the session judge
makes them once per round and hands each prover the statement built
from them.  A proof is sent and recorded as text, the lowercase hex
of its scalars, or NO_PROOF where none is sent.  Provers check their
own witness and refuse to emit anything unsound; dishonest proofs are
produced explicitly via :func:`forge_attempt`.
"""

from __future__ import annotations

import hashlib

from .errors import WitnessMismatch
from .groups import GroupParams


class OrStatement:
    """An OR of branches, knowledge of alpha with ``target = h^alpha``,
    one per target, under one context: the statement's role bytes
    (session tag, role, participant id, round or node) so a proof cannot
    be replayed for a different slot of the protocol.  No proof of an
    empty one is made or accepted.

    ``head`` is everything the challenge hashes before the
    announcements, encoded here, once per statement."""

    __slots__ = ("targets", "context", "head")

    def __init__(self, params: GroupParams, targets, context: bytes = b""):
        self.targets = targets = tuple(targets)
        self.context = context
        size = params.element_bytes
        self.head = b"".join([
            params.fs_prefix, len(context).to_bytes(4, "big"), context,
            len(targets).to_bytes(2, "big"), *[t.to_bytes(size, "big") for t in targets],
        ])


# one (challenge, response) pair per branch of the statement
SigmaProof = tuple[tuple[int, int], ...]


def fs_challenge(params: GroupParams, stmt: OrStatement, announcements) -> int:
    """SHA-256 of the statement's head and the announcement elements, mod q."""
    size = params.element_bytes
    data = b"".join([stmt.head] + [a.to_bytes(size, "big") for a in announcements])
    return int.from_bytes(hashlib.sha256(data).digest(), "big") % params.q


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
        q, p, power = params.q, params.p, params.h_table.power
        # no branch at all, or none at true_index, is a witness for no branch
        if not 0 <= true_index < len(targets) or power(self.alpha) != targets[true_index]:
            raise WitnessMismatch("witness does not satisfy the designated branch")
        self._sim = {}
        self.witness_nonce = rng.randrange(q)
        exponents = []   # the power of h in each branch's announcement
        for d in range(len(targets)):
            if d == true_index:
                exponents.append(self.witness_nonce)
            else:
                e_d = rng.randrange(q)
                z_d = rng.randrange(q)
                exponents.append(z_d)
                self._sim[d] = (e_d, z_d)
        # h^nonce on the true branch, a simulated h^z_d * T_d^-e_d on the others
        self.announcements = [
            a * pow(targets[d], q - self._sim[d][0], p) % p if d in self._sim else a
            for d, a in enumerate(params.h_table.powers(exponents))
        ]

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
    CIPHER ``c`` values, and the judge checks each ``c`` with
    ``is_element`` before it builds a target from it.
    """
    p, q = params.p, params.q
    return params.h_table.power(response) * pow(target, q - challenge % q, p) % p


def prove_or(params, stmt: OrStatement, true_branch: int, alpha: int, rng) -> SigmaProof:
    prover = Prover(params, stmt.targets, true_branch, alpha, rng)
    return prover.respond(fs_challenge(params, stmt, prover.announcements))


def verify_or(params, statements, proofs) -> list[bool]:
    """One verdict per (statement, proof) pair of a round; a proof that
    is None or empty, has a branch count other than its statement's, or
    has a scalar outside [0, q) is False."""
    q, p = params.q, params.p
    # zip below would silently drop the branches a short proof lacks
    formed = [
        bool(proof) and len(proof) == len(stmt.targets)
        and all(0 <= e < q and 0 <= z < q for e, z in proof)
        for stmt, proof in zip(statements, proofs)
    ]
    # h^z of every well-formed proof's branches, in order
    h_z = iter(params.h_table.powers([z for ok, pr in zip(formed, proofs) if ok for _, z in pr]))
    verdicts = []
    for ok, stmt, proof in zip(formed, statements, proofs):
        if ok:
            announcements = [
                next(h_z) * pow(t, q - e, p) % p for t, (e, _) in zip(stmt.targets, proof)
            ]
            ok = sum(e for e, _ in proof) % q == fs_challenge(params, stmt, announcements)
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
    q, targets = params.q, statement.targets
    challenges = [rng.randrange(q) for _ in targets]
    responses = [rng.randrange(q) for _ in targets]
    announcements = [simulate(params, t, e, z) for t, e, z in zip(targets, challenges, responses)]
    top = fs_challenge(params, statement, announcements)
    challenges[0] = (challenges[0] + top - sum(challenges)) % q
    proof = tuple(zip(challenges, responses))
    while verify_or(params, [statement], [proof])[0]:
        # the moved challenge changed nothing, or the rebuilt announcement
        # happened to hash to the same sum; move the response until it fails
        responses[0] = (responses[0] + 1) % q
        proof = tuple(zip(challenges, responses))
    return proof


# ---------------------------------------------------------------------------
# text form

NO_PROOF = "-"   # the text of a withheld proof


def proof_to_text(params: GroupParams, proof: SigmaProof | None) -> str:
    """A proof as it is sent and recorded: the lowercase hex of its
    scalars, each at the group's scalar width; NO_PROOF for none."""
    if proof is None:
        return NO_PROOF
    sw = params.scalar_bytes
    return b"".join([x.to_bytes(sw, "big") for pair in proof for x in pair]).hex()


def proof_from_text(params: GroupParams, text: str) -> SigmaProof | None:
    """The proof ``text`` spells; None for NO_PROOF, and for any text that
    is not the one lowercase hex spelling of a whole, non-zero number of
    (challenge, response) pairs."""
    sw = params.scalar_bytes
    try:
        data = bytes.fromhex(text)
    except ValueError:
        return None
    if data.hex() != text or not data or len(data) % (2 * sw):
        return None
    scalars = iter([int.from_bytes(data[i : i + sw], "big") for i in range(0, len(data), sw)])
    return tuple(zip(scalars, scalars))
