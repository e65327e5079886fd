import pytest

from dcmesh.errors import WitnessMismatch
from dcmesh.groups import derive_params

TAG = b"dc-mesh/v1"


@pytest.fixture(scope="session")
def small():
    """The enumeration-friendly group: p=107, q=53, g=4, h=9."""
    return derive_params("test_small", TAG)


@pytest.fixture(scope="session")
def medium():
    """The tree-capable test group (large enough for slot encodings)."""
    return derive_params("test_medium", TAG)


@pytest.fixture(scope="session")
def dlog():
    """The exhaustive discrete log of a desk-scale group: x with base^x = target."""

    def search(params, base, target):
        return next(x for x in range(params.q) if pow(base, x, params.p) == target)

    return search


class Prover:
    """The reference OR prover over ``targets``, one branch each, played
    interactively: the rewinding prover of the extractor tests, and the
    reference the one-pass ``zkp.prove_or`` is checked against.

    It refuses a witness that does not satisfy the designated branch
    before it draws.  Then it draws ``rng.randrange(q)`` for the nonce,
    then each simulated branch's challenge and response in branch order,
    and fixes the announcements: h^nonce on the true branch, h^z_d *
    T_d^-e_d on the others.  :meth:`respond` may be called several times
    with different challenges, which is exactly the rewinding game the
    soundness extractor plays.
    """

    def __init__(self, params, targets, true_index, alpha, rng):
        self.params = params
        self.alpha = alpha % params.q
        q, p, h = params.q, params.p, params.h
        if not 0 <= true_index < len(targets) or pow(h, self.alpha, p) != targets[true_index]:
            raise WitnessMismatch("witness does not satisfy the designated branch")
        self.witness_nonce = rng.randrange(q)
        self.simulated = {}
        for d in range(len(targets)):
            if d != true_index:
                e_d = rng.randrange(q)
                self.simulated[d] = (e_d, rng.randrange(q))
        self.announcements = [
            pow(h, self.simulated[d][1], p) * pow(t, q - self.simulated[d][0], p) % p
            if d in self.simulated else pow(h, self.witness_nonce, p)
            for d, t in enumerate(targets)
        ]

    def respond(self, challenge: int):
        q = self.params.q
        used = sum(e for e, _ in self.simulated.values()) % q
        e_true = (challenge - used) % q
        z_true = (self.witness_nonce + e_true * self.alpha) % q
        return tuple(
            self.simulated.get(d, (e_true, z_true)) for d in range(len(self.announcements))
        )


@pytest.fixture(scope="session")
def reference_prover():
    """The reference rewinding OR prover, :class:`Prover`."""
    return Prover
