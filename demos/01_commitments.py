"""Commitments 101: hiding, binding, and why breaking binding is a dlog.

Walks through the commitment layer on the tiny test group (p=107,
q=53), where everything can be checked by exhaustive search.
"""

from dcmesh.groups import commit, derive_params

params = derive_params("test_small", b"dc-mesh/v1")
print(f"group: p={params.p} q={params.q} g={params.g} f={params.f} h={params.h}")

# a value is a slot (count, total): g^count * f^total * h^blinding
c = commit(params, (1, 5), 7)
print(f"\ncommit(value=(1,5), blinding=7) = {c}")
print(f"opens with ((1,5),7):  {c == commit(params, (1, 5), 7)}")
print(f"opens with ((1,6),7):  {c == commit(params, (1, 6), 7)}")

print("\nhomomorphism: values add componentwise, blindings add")
lhs = commit(params, (1, 5), 7) * commit(params, (1, 11), 2) % params.p
print(f"  commit((1,5),7)*commit((1,11),2) = {lhs} = commit((2,16),9) = "
      f"{commit(params, (2, 16), 9)}")
print(f"  commit((1,5),7) * its inverse = {c * pow(c, -1, params.p) % params.p}")

print("\nhiding: for a fixed value, every blinding gives a distinct element")
outputs = {commit(params, (1, 5), r) for r in range(params.q)}
print(f"  53 blindings -> {len(outputs)} distinct commitments (the whole subgroup)")

print("\nbinding: a double opening would reveal log_h(g)")
lam = next(x for x in range(params.q) if pow(params.h, x, params.p) == params.g)
print(f"  brute force says log_h(g) = {lam}")
a, b, delta = 20, 31, 6
a2, b2 = (a + delta) % 53, (b - lam * delta) % 53
assert commit(params, (a, 0), b) == commit(params, (a2, 0), b2)
recovered = (b2 - b) * pow(a - a2, -1, 53) % 53
print(f"  fabricated openings ({a},{b}) and ({a2},{b2}) collide;")
print(f"  the collision formula recovers log_h(g) = {recovered}")
