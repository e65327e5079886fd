"""One anonymous broadcast round, then a cheater and the investigation.

Five participants share pairwise pads; participant 2 sends 42 as the
slot (1, 42).  The
round sum reveals the message while every individual broadcast looks
random; the commitment product certifies nobody broke the pad
structure.  Then participant 3 tampers with a pad and the published
endorsements point straight at them.
"""

import random
from dataclasses import replace

from dcmesh.dcnet import aggregate_round, investigate, make_ciphertext
from dcmesh.groups import derive_params
from dcmesh.keysetup import build_key_graph

params = derive_params("test_medium", b"dc-mesh/v1")
n = 5

graph = build_key_graph(params, range(n), random.Random(1))
views = {pid: graph.view(pid) for pid in range(n)}

print("round 1: participant 2 sends the message 42")
cts = [make_ciphertext(views[pid], 1, (1, 42) if pid == 2 else None) for pid in range(n)]
for ct in cts:
    print(f"  P{ct.participant} broadcasts (O={ct.value}, c={ct.commitment})")
result = aggregate_round(params, range(n), cts)
print(f"sum of broadcasts: {result.aggregate}   commitments valid: {result.valid}")

print("\nround 2: participant 3 shifts a pad without fixing the commitments")
cts = [make_ciphertext(views[pid], 2, None) for pid in range(n)]
cts[3] = replace(
    cts[3],
    value=((cts[3].value[0] + 1) % params.q, cts[3].value[1]),
    commitment=cts[3].commitment * params.g % params.p,
)
result = aggregate_round(params, range(n), cts)
print(f"sum of broadcasts: {result.aggregate}   commitments valid: {result.valid}")

print("\ninvestigation: everyone reveals the endorsed pair commitments")
published = {pid: views[pid].published_pairs(1) for pid in range(n)}
blamed = investigate(params, result, 1, published, graph.public())
for pid, reasons in blamed.items():
    print(f"  verdict: P{pid} cheated ({', '.join(reasons)})")
