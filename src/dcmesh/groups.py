"""Prime-order group arithmetic and Pedersen commitments.

The protocol algebra lives in the order-q subgroup of Z_p* for a safe
prime p = 2q + 1 (a Schnorr group).  Scalars are plain ints in [0, q),
group elements plain ints in [1, p) satisfying x^q = 1 mod p: the
squares mod p, so ``is_element`` reads the Legendre symbol (x | p), with
no x^q, and ``validate`` refuses a p other than 2q + 1.  Three parameter
sets are built in:

* ``test_small``  -- p=107, q=53.  Tiny enough that discrete logs,
  commitment openings and full pad spaces can be enumerated in tests.
* ``test_medium`` -- p=262643, q=131321.  Still brute-forceable, but
  large enough to hold the slot sums of collision trees.
* ``production``  -- the RFC 3526 2048-bit MODP safe prime, generators
  derived by hashing the domain tag into the subgroup.

A slot value is a pair (count, total) of scalars, and its Pedersen
vector commitment is g^count * f^total * h^blinding over three fixed
generators: fixed constants in the test sets, hash-derived in
``production``.  Powers of the generators go through a window table per
(group, base), built on first use (Brickell-Gordon-McCurley-Wilson 1992,
Lim-Lee 1994).  The tables serve commitments, signatures and the sigma
protocol, every branch of which is a power of h; ``WindowTable.powers``
raises one base to a list of exponents.  The three share width and row
count, so ``commit_scalars`` commits to a list of slot values in one walk
of them, taking each exponent as given: key setup's lie in [0, q).
``pow`` is left for variable bases and inverses; ``draw_scalars`` draws
as ``rng.randrange(q)`` does.  Every group is one of the built-in sets, derived from its name and a domain tag; the
tests check its p and q.  ``derive_params`` derives each (name, tag)
once, so a run, its replay and their window tables share one group.  A
group's text form is the transcript's GROUP record, which
``dcmesh keygen`` prints first, as ``dcmesh run`` writes it.
"""

from __future__ import annotations

import functools
import hashlib
from typing import NamedTuple

# RFC 3526, 2048-bit MODP group: a safe prime, so (p-1)/2 is prime.
_RFC3526_P2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

# name -> (p, q) of the built-in sets
_BUILT_IN = {
    "test_small": (107, 53),
    "test_medium": (262643, 131321),
    "production": (_RFC3526_P2048, (_RFC3526_P2048 - 1) // 2),
}
SECURITY_LEVELS = tuple(_BUILT_IN)

# Window tables take the widest window up to WINDOW_MAX_BITS whose
# entries fit in WINDOW_TABLE_BYTES per base: 9 bits for test_medium,
# 5 for production.
WINDOW_MAX_BITS = 9
WINDOW_TABLE_BYTES = 4 << 20


class WindowTable:
    """Fixed-base exponentiation for one base of a group.

    Row i holds base^(j * 2^(width*i)) for j < 2^width, so base^e is the
    product of one entry per row, picked by e's width-bit digits.
    """

    __slots__ = ("p", "q", "width", "mask", "rows")

    def __init__(self, params: "GroupParams", base: int):
        p, bits, size = params.p, params.q.bit_length(), params.element_bytes
        width = WINDOW_MAX_BITS
        # ceil(bits / width) rows of 2^width entries, size bytes each
        while width > 1 and (-(-bits // width) << width) * size > WINDOW_TABLE_BYTES:
            width -= 1
        self.p, self.q, self.width, self.mask = p, params.q, width, (1 << width) - 1
        self.rows = []
        for _ in range(-(-bits // width)):
            row = [1]
            for _ in range((1 << width) - 1):
                row.append(row[-1] * base % p)
            self.rows.append(row)
            base = row[-1] * base % p

    def power(self, exponent: int) -> int:
        """base^exponent, the exponent taken mod q."""
        e = exponent % self.q
        p, width, mask, rows = self.p, self.width, self.mask, iter(self.rows)
        acc = next(rows)[e & mask]
        for row in rows:
            e >>= width
            acc = acc * row[e & mask] % p
        return acc

    def powers(self, exponents) -> list[int]:
        """``power`` of each exponent, without a call per exponent."""
        q, p, width, mask, rows = self.q, self.p, self.width, self.mask, self.rows
        first, rest = rows[0], rows[1:]
        out = []
        for e in exponents:
            e %= q
            acc = first[e & mask]
            for row in rest:
                e >>= width
                acc = acc * row[e & mask] % p
            out.append(acc)
        return out


class _Group(NamedTuple):
    name: str
    p: int
    q: int
    generators: tuple[int, ...]
    domain_tag: bytes


class GroupParams(_Group):
    """A Schnorr group with its commitment generators.

    ``generators`` is ``(g, f, h)``: the bases of a slot's count and
    total, then the blinding base.  The fields are a NamedTuple's, so a
    group compares and hashes by value; this subclass adds the cached
    byte widths and window tables.
    """

    @property
    def g(self) -> int:
        return self.generators[0]

    @property
    def f(self) -> int:
        return self.generators[1]

    @property
    def h(self) -> int:
        return self.generators[-1]

    @functools.cached_property
    def element_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @functools.cached_property
    def scalar_bytes(self) -> int:
        return (self.q.bit_length() + 7) // 8

    @functools.cached_property
    def fs_prefix(self) -> bytes:
        """What every Fiat-Shamir challenge of the group hashes first:
        the tag ``dcmesh/fs/v2``, the domain tag after its length as 4
        bytes, the element width as 2 bytes, then p, q, g, f and h at
        that width."""
        size = self.element_bytes
        return b"".join(
            [b"dcmesh/fs/v2", len(self.domain_tag).to_bytes(4, "big"), self.domain_tag]
            + [size.to_bytes(2, "big")]
            + [x.to_bytes(size, "big") for x in (self.p, self.q, *self.generators)]
        )

    @functools.cached_property
    def g_table(self) -> WindowTable:
        return WindowTable(self, self.g)

    @functools.cached_property
    def f_table(self) -> WindowTable:
        return WindowTable(self, self.f)

    @functools.cached_property
    def h_table(self) -> WindowTable:
        return WindowTable(self, self.h)

    def is_element(self, x: int) -> bool:
        """1 <= x < p and the Legendre symbol (x | p) is 1, by the binary
        Jacobi loop, each step's factors of two stripped at once."""
        n, a, sign = self.p, x, 1
        if not 1 <= a < n:
            return False
        while a:
            twos = (a & -a).bit_length() - 1
            a >>= twos
            if twos & 1 and n & 7 in (3, 5):   # (2 | n) = -1
                sign = -sign
            if a & n & 2:   # both 3 mod 4: reciprocity flips the sign
                sign = -sign
            a, n = n % a, a
        return n == 1 and sign == 1

    def element_to_bytes(self, x: int) -> bytes:
        return x.to_bytes(self.element_bytes, "big")

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on failure.

        p and q are a built-in set's, whose primality the tests check.
        """
        if self.p != 2 * self.q + 1:
            raise ValueError("p must be the safe prime 2q + 1")
        if len(self.generators) != 3:
            raise ValueError("need the count, total and blinding generators")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generators must be pairwise distinct")
        for x in self.generators:
            if x == 1 or not self.is_element(x):
                raise ValueError(f"generator {x} not an order-q element")
        if not self.domain_tag:
            raise ValueError("domain_tag must be non-empty")


def hash_to_subgroup(p: int, q: int, domain_tag: bytes, label: bytes) -> int:
    """Derive an order-q element by hashing, reducing, and squaring up.

    Hash (tag, label, counter) to an integer mod p, raise it to
    (p-1)/q to land in the subgroup, and retry with the next counter
    until the result is not the identity.
    """
    cofactor = (p - 1) // q
    counter = 0
    while True:
        material = b"dcmesh/gen/v1|" + domain_tag + b"|" + label + b"|" + counter.to_bytes(4, "big")
        digest = b""
        # widen the hash output beyond p's size before reducing
        blocks = (p.bit_length() // 256) + 2
        for i in range(blocks):
            digest += hashlib.sha256(material + bytes([i])).digest()
        candidate = pow(int.from_bytes(digest, "big") % p, cofactor, p)
        if candidate != 1:
            return candidate
        counter += 1


@functools.lru_cache(maxsize=64)
def derive_params(security_level: str, domain_tag: bytes) -> GroupParams:
    """Build group parameters for one of the named security levels."""
    if security_level not in _BUILT_IN:
        raise ValueError(f"unknown security level {security_level!r}")
    p, q = _BUILT_IN[security_level]
    if security_level == "production":
        g, f, h = (hash_to_subgroup(p, q, domain_tag, label) for label in (b"g", b"f", b"h"))
    else:
        g, f, h = 4, 25, 9
    params = GroupParams(security_level, p, q, (g, f, h), domain_tag)
    params.validate()
    return params


def draw_scalars(q: int, rng, k: int) -> list[int]:
    """k scalars in [0, q) from ``rng``, the ones k calls of
    ``rng.randrange(q)`` draw: its rejection loop over q.bit_length()
    random bits, without a call per draw."""
    getrandbits, bits, draws = rng.getrandbits, q.bit_length(), []
    for _ in range(k):
        r = getrandbits(bits)
        while r >= q:
            r = getrandbits(bits)
        draws.append(r)
    return draws


def value_term(params: GroupParams, value) -> int:
    """g^count * f^total: the part of a commitment that a slot value
    (count, total) contributes."""
    count, total = value
    return params.g_table.power(count) * params.f_table.power(total) % params.p


def commit(params: GroupParams, value, blinding: int) -> int:
    """Pedersen vector commitment g^count * f^total * h^blinding to a
    slot value (count, total)."""
    return value_term(params, value) * params.h_table.power(blinding) % params.p


def commit_scalars(params: GroupParams, counts, totals, blinds) -> list[int]:
    """``commit`` of each slot value (count, total) and blinding value of the
    three lists, in one walk of the g, f and h tables, a row of all three at a
    time.  Each exponent is taken as given, one digit per row: every base has
    order q, so the walk is exact for any exponent in [0, 2^(rows * width)),
    which holds [0, q), where key setup's draws and sums lie."""
    p, q, width, mask = params.p, params.q, params.g_table.width, params.g_table.mask
    rows = zip(params.g_table.rows, params.f_table.rows, params.h_table.rows)
    g, f, h = next(rows)
    acc = [g[c & mask] * f[t & mask] % p * h[b & mask] % p for c, t, b in zip(counts, totals, blinds)]
    for s, (g, f, h) in zip(range(width, q.bit_length(), width), rows):   # digits from bit s
        acc = [
            a * g[c >> s & mask] * f[t >> s & mask] % p * h[b >> s & mask] % p
            for a, c, t, b in zip(acc, counts, totals, blinds)
        ]
    return acc
