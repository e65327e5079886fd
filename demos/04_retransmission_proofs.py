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
    prove_node_denial,
    retransmission_statement,
)
from dcmesh.errors import WitnessMismatch
from dcmesh.zkp import forge_attempt, verify_or

params = derive_params("test_medium", b"dc-mesh/v1")
rng = random.Random(9)
graph = build_key_graph(params, range(3), rng)
tag = b"demo"
slot = encode_slot(50, 8)

views = {pid: graph.view(pid) for pid in range(3)}
# the verifier's no-message target of each participant at every tree node,
# built from the broadcasts alone, and each participant's own blinding sums
targets = {pid: {} for pid in range(3)}
blinds = {pid: {} for pid in range(3)}
# the slot the session judge hands out with each transmitted round
round_slots = {1: 0, 2: 1, 4: 2}


def transmit(pid, rid, message):
    ct = make_ciphertext(views[pid], round_slots[rid], message)
    add_round(params, [targets[pid]], rid, [ct])
    add_blind(params, blinds[pid], rid, views[pid].blind_sum(round_slots[rid]))


def prove(pid, rid, stmt, branches):
    """A participant's proof of the statement it is handed, by the one rule
    every participant proves with: the first of ``branches`` whose witness
    holds, branch 0's the round's blinding sum, branch 1's the inferred
    sibling's."""
    return prove_node_denial(params, stmt, [(b, blinds[pid][rid + b]) for b in branches], rng)


print("round 1: P0 sends a slot; P1, P2 send pads only")
for pid in range(3):
    transmit(pid, 1, slot if pid == 0 else None)

print("round 2: P0 retransmits, P1/P2 stay silent; everyone proves")
for pid in range(3):
    transmit(pid, 2, slot if pid == 0 else None)
# the verifier builds each statement once, from public data
stmts = [retransmission_statement(params, targets[pid], pid, 2, tag) for pid in range(3)]
# the true branch first: the repeat for P0, no message for the others
proofs = [prove(pid, 2, stmts[pid], (1, 0) if pid == 0 else (0, 1)) for pid in range(3)]
# and checks the whole round at once
for pid, ok in enumerate(verify_or(params, stmts, proofs)):
    print(f"  P{pid} proof verifies: {ok}   (branch hidden from the verifier)")

print("\nround 4: P0 retransmits the message shifted by one")
transmit(0, 4, (slot[0], slot[1] + 1))
stmt = retransmission_statement(params, targets[0], 0, 4, tag)
for branch in (0, 1):
    try:
        prove(0, 4, stmt, [branch])
        print("  unexpectedly proved!")
    except WitnessMismatch:
        side = "repeat-parent" if branch else "no-message"
        print(f"  honest prover refuses the {side} branch: no witness")

forged = forge_attempt(params, stmt, rng)
(ok,) = verify_or(params, [stmt], [forged])
print(f"  forged proof accepted by verifiers: {ok}")
