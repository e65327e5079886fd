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
:func:`verify_or` checks a whole round of statements in one call, each
proof in one loop that calls neither ``fs_challenge`` nor the table's
``power``: per branch a range check, h^z read from the h table's rows
and a ``pow``, each announcement packed into one integer, then one
hash.  :func:`prove_or` is one pass too, with no prover object: one
table power for its witness check, one ``draw_scalars``, one
``WindowTable.powers`` for the announcements, a ``pow`` per simulated
branch and one hash; the rewinding prover of the soundness tests is
the tests' own reference.  Branch targets are built from no-message
targets c * g^-count * f^-total of broadcasts (count, total) with
commitment c, which :func:`no_message_targets` makes for a round with
one ``powers`` per generator; the session judge makes them once per
round and hands each prover the statement built from them.  A proof
reaches the judge as a value, and is recorded as the text
:func:`proof_to_text` spells, the lowercase hex of its scalars, or
NO_PROOF where none is sent; the judge alone spells, and only a
replay reads a text back, with :func:`proof_from_text`, as
``bytes.fromhex`` reads it, scalars cut from one integer by shifts:
another spelling diverges at its record.
:func:`prove_or` checks its witness and
refuses to emit anything unsound; dishonest proofs are produced
explicitly via :func:`forge_attempt`.
"""

from __future__ import annotations

import hashlib

from .errors import WitnessMismatch
from .groups import GroupParams, draw_scalars


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
        self.head = b"".join([
            params.fs_prefix, len(context).to_bytes(4, "big"), context,
            len(targets).to_bytes(2, "big"), _elements(params, targets),
        ])


# one (challenge, response) pair per branch of the statement
SigmaProof = tuple[tuple[int, int], ...]


def _elements(params: GroupParams, elements) -> bytes:
    """The elements, each at the group's element width, in one to_bytes."""
    bits, packed = 8 * params.element_bytes, 0
    for x in elements:
        packed = packed << bits | x
    return packed.to_bytes(len(elements) * params.element_bytes, "big")


def fs_challenge(params: GroupParams, stmt: OrStatement, announcements) -> int:
    """SHA-256 of the statement's head and the announcement elements, mod q."""
    data = stmt.head + _elements(params, announcements)
    return int.from_bytes(hashlib.sha256(data).digest(), "big") % params.q


# ---------------------------------------------------------------------------
# OR core over powers of h


def simulate(params, target, challenge, response):
    """Announcement that makes (challenge, response) verify for
    ``target``: h^response * target^-challenge.

    target^(q - challenge) is target^-challenge because every target lies
    in the order-q subgroup: targets are built from generator powers,
    CIPHER ``c`` values and PUBKEY ``y`` values, and the judge checks
    each ``c`` and each ``y`` with ``is_element``, a square mod the safe
    prime p, before it builds a target from it.
    """
    p, q = params.p, params.q
    return params.h_table.power(response) * pow(target, q - challenge % q, p) % p


def prove_or(params, stmt: OrStatement, true_branch: int, alpha: int, rng) -> SigmaProof:
    """A proof of ``stmt`` from the witness ``alpha`` of its branch
    ``true_branch``, every other branch simulated.

    WitnessMismatch, before anything is drawn, when alpha is no witness
    of that branch or the statement has no such branch.  Then it draws,
    by ``draw_scalars``, the nonce k, then for each other branch d in
    order its challenge e_d and response z_d; the announcements are h^k
    and each h^z_d * T_d^-e_d, and the true branch answers the rest of
    their challenge."""
    q, p, table, targets = params.q, params.p, params.h_table, stmt.targets
    alpha %= q
    if not 0 <= true_branch < len(targets) or table.power(alpha) != targets[true_branch]:
        raise WitnessMismatch("witness does not satisfy the designated branch")
    nonce, *draws = draw_scalars(q, rng, 2 * len(targets) - 1)
    if len(targets) == 1:
        e = fs_challenge(params, stmt, [table.power(nonce)])
        return ((e, (nonce + e * alpha) % q),)
    simulated = zip(*[iter(draws)] * 2)   # (e_d, z_d) of each other branch, in order
    pairs = [None if d == true_branch else next(simulated) for d in range(len(targets))]
    announcements = table.powers([nonce if pair is None else pair[1] for pair in pairs])
    used = 0
    for d, pair in enumerate(pairs):
        if pair is not None:
            used += pair[0]
            announcements[d] = announcements[d] * pow(targets[d], q - pair[0], p) % p
    e = (fs_challenge(params, stmt, announcements) - used) % q
    pairs[true_branch] = (e, (nonce + e * alpha) % q)
    return tuple(pairs)


def verify_or(params, statements, proofs) -> list[bool]:
    """One verdict per (statement, proof) pair of a round; a proof that
    is None or empty, has a branch count other than its statement's, or
    has a scalar outside [0, q) is False."""
    q, p, size, sha256 = params.q, params.p, params.element_bytes, hashlib.sha256
    table, bits = params.h_table, 8 * size
    width, mask, first, rest = table.width, table.mask, table.rows[0], table.rows[1:]
    verdicts = []
    for stmt, proof in zip(statements, proofs):
        targets = stmt.targets
        # zip below would silently drop the branches a short proof lacks
        ok = bool(proof) and len(proof) == len(targets)
        if ok:
            packed = total = 0
            for t, (e, z) in zip(targets, proof):
                if not (0 <= e < q and 0 <= z < q):
                    ok = False
                    break
                a = first[z & mask]   # h^z, one table entry per width-bit digit of z
                for row in rest:
                    z >>= width
                    a = a * row[z & mask] % p
                packed = packed << bits | a * pow(t, q - e, p) % p
                total += e
            else:
                data = stmt.head + packed.to_bytes(len(targets) * size, "big")
                ok = total % q == int.from_bytes(sha256(data).digest(), "big") % q
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
    draws = draw_scalars(q, rng, 2 * len(targets))   # every challenge, then every response
    challenges, responses = draws[: len(targets)], draws[len(targets) :]
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
    scalars, each at the group's scalar width.  NO_PROOF for None, for
    an empty proof and for one with a scalar outside [0, 2^(8 *
    scalar_bytes)): none has a spelling that :func:`proof_from_text`
    reads back, so every text this spells reads back as its proof."""
    if not proof:
        return NO_PROOF
    bits, packed = 8 * params.scalar_bytes, 0
    for e, z in proof:   # each at the scalar width, in one to_bytes
        if (e | z) >> bits:   # negative, or wider than the width: it would spill
            return NO_PROOF
        packed = (packed << bits | e) << bits | z
    return packed.to_bytes(2 * params.scalar_bytes * len(proof), "big").hex()


def proof_from_text(params: GroupParams, text: str) -> SigmaProof | None:
    """The proof ``text`` reads as, by ``bytes.fromhex``; None for
    NO_PROOF, for a text that is not hex, and for bytes that are not a
    whole, non-zero number of (challenge, response) pairs."""
    if text == NO_PROOF:
        return None
    sw = params.scalar_bytes
    try:
        data = bytes.fromhex(text)
    except ValueError:
        return None
    if not data or len(data) % (2 * sw):
        return None
    bits, packed = 8 * sw, int.from_bytes(data, "big")   # the pairs cut out by shifts, first highest
    mask, top = (1 << bits) - 1, 8 * len(data) - 2 * bits
    return tuple([(packed >> s + bits & mask, packed >> s & mask) for s in range(top, -1, -2 * bits)])
