"""One anonymous broadcast round, then a cheater and the investigation.

Five participants share pairwise pads; participant 2 sends 42 as the
slot (1, 42).  The
round sum reveals the message while every individual broadcast looks
random; the commitment product certifies nobody broke the pad
structure.  Then participant 3 tampers with a pad and the published
endorsements point straight at them.
"""

import random

from dcmesh.dcnet import aggregate_round, investigate, make_ciphertext
from dcmesh.groups import derive_params
from dcmesh.keysetup import build_key_graph

params = derive_params("test_medium", b"dc-mesh/v1")
n = 5

graph = build_key_graph(params, range(n), random.Random(1))
views = {pid: graph.view(pid) for pid in range(n)}

print("round 1: participant 2 sends the message 42")
cts = [make_ciphertext(views[pid], 0, (1, 42) if pid == 2 else None) for pid in range(n)]
for pid, ct in enumerate(cts):
    print(f"  P{pid} broadcasts (O={ct.value}, c={ct.commitment})")
aggregate, valid = aggregate_round(params, cts)
print(f"sum of broadcasts: {aggregate}   commitments valid: {valid}")

print("\nround 2: participant 3 shifts a pad without fixing the commitments")
cts = [make_ciphertext(views[pid], 1, None) for pid in range(n)]
cts[3] = cts[3]._replace(
    value=((cts[3].value[0] + 1) % params.q, cts[3].value[1]),
    commitment=cts[3].commitment * params.g % params.p,
)
aggregate, valid = aggregate_round(params, cts)
print(f"sum of broadcasts: {aggregate}   commitments valid: {valid}")

print("\ninvestigation: everyone reveals the endorsed pair commitments")
published = [views[pid].published_pairs(1) for pid in range(n)]
blamed = investigate(params, cts, 1, published, graph.public())
for pid, reasons in blamed.items():
    print(f"  verdict: P{pid} cheated ({', '.join(reasons)})")
