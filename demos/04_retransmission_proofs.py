"""What a retransmission proof says, and what a cheater runs into.

After a collision, each follow-up broadcast must prove: "this round
carries no message, OR it repeats exactly what my side of the parent
context carried" -- without revealing which.  An adversary who mutates
its message has no witness for either branch; the best it can do is a
well-shaped forgery, which verifiers reject.
"""

import random

from dcmesh.dcnet import make_ciphertext
from dcmesh.groups import derive_params
from dcmesh.keysetup import build_key_graph
from dcmesh.splitter import (
    add_blind,
    add_round,
    encode_slot,
    prove_retransmission,
    retransmission_statement,
    verify_retransmission,
)
from dcmesh.errors import WitnessMismatch
from dcmesh.zkp import forge_attempt

params = derive_params("test_medium", b"dc-mesh/v1")
rng = random.Random(9)
graph = build_key_graph(params, range(3), rng)
tag = b"demo"
slot = encode_slot(50, 8)

views = {pid: graph.view(pid) for pid in range(3)}
# each participant's no-message target and blinding sum at every tree node
targets = {pid: {} for pid in range(3)}
blinds = {pid: {} for pid in range(3)}


def transmit(pid, rid, message):
    ct = make_ciphertext(views[pid], rid, message)
    add_round(params, targets, [ct])
    add_blind(params, blinds[pid], rid, views[pid].blind_sum(views[pid].slot_of(rid)))


print("round 1: P0 sends a slot; P1, P2 send pads only")
for pid in range(3):
    transmit(pid, 1, slot if pid == 0 else None)

print("round 2: P0 retransmits, P1/P2 stay silent; everyone proves")
for pid in range(3):
    transmit(pid, 2, slot if pid == 0 else None)
proofs = {
    pid: prove_retransmission(params, targets[pid], blinds[pid], pid, 2, retransmitted, rng, tag)
    for pid, retransmitted in ((0, True), (1, False), (2, False))
}
# the verifier checks the whole round at once
for pid, ok in zip(proofs, verify_retransmission(params, targets, 2, proofs, tag)):
    print(f"  P{pid} proof verifies: {ok}   (branch hidden from the verifier)")

print("\nround 4: P0 retransmits the message shifted by one")
transmit(0, 4, (slot[0], slot[1] + 1))
for branch in (False, True):
    try:
        prove_retransmission(params, targets[0], blinds[0], 0, 4, branch, rng, tag)
        print("  unexpectedly proved!")
    except WitnessMismatch:
        side = "repeat-parent" if branch else "no-message"
        print(f"  honest prover refuses the {side} branch: no witness")

stmt = retransmission_statement(targets[0], 0, 4, tag)
forged = forge_attempt(params, stmt, rng)
(ok,) = verify_retransmission(params, targets, 4, {0: forged}, tag)
print(f"  forged proof accepted by verifiers: {ok}")
