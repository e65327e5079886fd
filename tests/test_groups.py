"""Group arithmetic and Pedersen commitments against brute-force oracles.

Expected values marked as frozen were computed with the independent
modular-exponentiation oracle below (plain pow on the fixed test
group), not with the code under test.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmesh import groups, sim, zkp
from dcmesh.groups import (
    WINDOW_TABLE_BYTES,
    GroupParams,
    commit,
    commit_scalars,
    derive_params,
)
from dcmesh.transcript import line_to_record, record_to_line

TAG = b"dc-mesh/v1"


def oracle_commit(p, generators, value, r):
    # independent check: direct exponentiation, no library calls
    (g, f, h), (count, total) = generators, value
    return pow(g, count, p) * pow(f, total, p) * pow(h, r, p) % p


def test_test_small_fixed_parameters(small):
    assert (small.p, small.q, small.g, small.f, small.h) == (107, 53, 4, 25, 9)
    small.validate()


def test_validate_wants_three_distinct_generators(small):
    for generators in ((4, 9), (4, 25, 9, 16), (4, 4, 9), (4, 2, 9)):
        with pytest.raises(ValueError):
            GroupParams("test_small", 107, 53, generators, TAG).validate()


def test_derivation_is_deterministic_per_tag():
    a = derive_params("production", b"dc-mesh/v1")
    b = derive_params("production", b"dc-mesh/v1")
    c = derive_params("production", b"other-tag")
    assert a.generators == b.generators
    assert a.generators != c.generators


@pytest.mark.parametrize("level", ["test_small", "test_medium", "production"])
def test_generators_lie_in_the_subgroup(level):
    params = derive_params(level, TAG)
    for x in params.generators:
        assert x != 1
        assert pow(x, params.q, params.p) == 1
    assert len(set(params.generators)) == len(params.generators)


def test_empty_domain_tag_rejected():
    with pytest.raises(ValueError):
        derive_params("test_small", b"")


def test_commit_golden_value(small):
    # frozen: 4^5 * 25^0 * 9^7 mod 107 = 36
    assert commit(small, (5, 0), 7) == 36
    assert commit(small, (5, 0), 7) == oracle_commit(107, (4, 25, 9), (5, 0), 7)
    # frozen: 4^5 * 25^1 * 9^7 mod 107 = 36 * 25 mod 107 = 44
    assert commit(small, (5, 1), 7) == 44
    assert commit(small, (5, 1), 7) == oracle_commit(107, (4, 25, 9), (5, 1), 7)


def test_commit_identity_and_cancellation(small):
    assert commit(small, (0, 0), 0) == 1
    c = commit(small, (5, 3), 7)
    assert c * commit(small, (-5 % 53, -3 % 53), -7 % 53) % small.p == 1


def test_verify_open_roundtrip_and_rejection(small):
    # a commitment opens to a value and blinding when it recomputes to them
    c = commit(small, (5, 0), 7)
    assert c == commit(small, (5, 0), 7)
    # frozen: 4^6 * 9^7 mod 107 = 37 != 36
    assert oracle_commit(107, (4, 25, 9), (6, 0), 7) == 37
    assert c != commit(small, (6, 0), 7)
    # the count and the total are bound separately
    assert c != commit(small, (0, 5), 7)
    assert commit(small, (0, 0), 0) == 1


def test_combine_negate_basics(small):
    # commitments combine by multiplication mod p and negate by inversion
    c = commit(small, (12, 40), 33)
    assert c * 1 % small.p == c
    assert c * pow(c, -1, small.p) % small.p == 1
    # frozen: 5+48 = 2+51 = 7+46 = 53 = 0 mod q
    assert commit(small, (5, 2), 7) * commit(small, (48, 51), 46) % small.p == 1


def test_homomorphism_random_sampling(small):
    rng = random.Random(42)
    for _ in range(300):
        a, a2, b, b2, r, s = (rng.randrange(53) for _ in range(6))
        lhs = commit(small, (a, a2), r) * commit(small, (b, b2), s) % small.p
        assert lhs == commit(small, ((a + b) % 53, (a2 + b2) % 53), (r + s) % 53)


def test_homomorphism_medium_group(medium):
    rng = random.Random(7)
    q = medium.q
    for _ in range(100):
        a, a2, b, b2, r, s = (rng.randrange(q) for _ in range(6))
        lhs = commit(medium, (a, a2), r) * commit(medium, (b, b2), s) % medium.p
        assert lhs == commit(medium, ((a + b) % q, (a2 + b2) % q), (r + s) % q)


def test_hiding_enumeration_covers_coset(small):
    # r -> commit(K, r) is a bijection onto the whole order-q subgroup
    for k in ((0, 0), (5, 0), (29, 11)):
        outputs = {commit(small, k, r) for r in range(53)}
        assert len(outputs) == 53
        subgroup = {pow(small.g, x, small.p) for x in range(53)}
        assert outputs == subgroup


def test_elements_satisfy_subgroup_membership(small):
    rng = random.Random(1)
    for _ in range(50):
        c = commit(small, (rng.randrange(53), rng.randrange(53)), rng.randrange(53))
        assert small.is_element(c)


def test_binding_break_recovers_base_relation(small, dlog):
    # a fabricated double opening yields the discrete log between bases
    lam = dlog(small, small.h, small.g)
    rng = random.Random(5)
    for _ in range(20):
        a, b = rng.randrange(53), rng.randrange(53)
        delta = rng.randrange(1, 53)
        a2 = (a + delta) % 53
        b2 = (b - lam * delta) % 53
        assert commit(small, (a, 0), b) == commit(small, (a2, 0), b2)
        recovered = (b2 - b) * pow(a - a2, -1, 53) % 53
        assert recovered == lam


def test_params_text_roundtrip(small):
    # the GROUP record keygen prints names the group: its name and tag derive it again
    fields = line_to_record(record_to_line(sim._group_record(small)), 0)
    assert fields == {
        "type": "GROUP", "name": "test_small", "p": 107, "q": 53, "generators": "4,25,9",
        "tag": TAG.hex(),
    }
    assert derive_params(fields["name"], bytes.fromhex(fields["tag"])) is small


def test_scalar_element_serialization_widths(medium):
    assert len(medium.element_to_bytes(medium.p - 1)) == medium.element_bytes
    # a proof's text spells each scalar at the scalar width
    text = zkp.proof_to_text(medium, ((medium.q - 1, 0),))
    assert len(bytes.fromhex(text)) == 2 * medium.scalar_bytes


# ---------------------------------------------------------------------------
# fixed-base window tables, checked against plain pow


def edge_exponents(q, rng, extra=50):
    return [0, 1, q - 1, q, q + 1, -1, -q - 1] + [rng.randrange(-q, 2 * q) for _ in range(extra)]


@pytest.mark.parametrize("level", ["test_small", "test_medium"])
def test_window_table_power_matches_pow(level):
    params = derive_params(level, TAG)
    rng = random.Random(21)
    for table, base in ((params.g_table, params.g), (params.f_table, params.f), (params.h_table, params.h)):
        assert table.width == 9
        for e in edge_exponents(params.q, rng):
            assert table.power(e) == pow(base, e % params.q, params.p)


def test_window_table_rows_hold_digit_powers(medium):
    table, bits = medium.g_table, medium.q.bit_length()
    # enough rows for every digit of an exponent below q, and no more
    assert (len(table.rows) - 1) * table.width < bits <= len(table.rows) * table.width
    for i, row in enumerate(table.rows):
        assert len(row) == 1 << table.width
        for j in (0, 1, 2, len(row) - 1):
            assert row[j] == pow(medium.g, j << (table.width * i), medium.p)


@pytest.mark.parametrize("level", ["test_small", "test_medium"])
def test_commit_of_negations_cancels(level):
    params = derive_params(level, TAG)
    rng = random.Random(22)
    q = params.q
    for k, t, r in [(0, 0, 0), (1, q - 1, q - 1)] + [
        (rng.randrange(q), rng.randrange(q), rng.randrange(q)) for _ in range(50)
    ]:
        assert commit(params, (k, t), r) * commit(params, (-k, -t), -r) % params.p == 1


def test_window_table_production():
    params = derive_params("production", TAG)
    bits, rng = params.q.bit_length(), random.Random(23)
    for table, base in ((params.g_table, params.g), (params.f_table, params.f), (params.h_table, params.h)):
        # the widest window whose table fits the per-base budget
        entries = sum(len(row) for row in table.rows)
        assert table.width == 5
        assert entries * params.element_bytes <= WINDOW_TABLE_BYTES
        wider = -(-bits // (table.width + 1)) << (table.width + 1)
        assert wider * params.element_bytes > WINDOW_TABLE_BYTES
        for e in edge_exponents(params.q, rng, extra=1):
            assert table.power(e) == pow(base, e % params.q, params.p)
    k, t, r = (rng.randrange(params.q) for _ in range(3))
    assert commit(params, (k, t), r) == oracle_commit(params.p, params.generators, (k, t), r)
    assert commit(params, (k, t), r) * commit(params, (-k, -t), -r) % params.p == 1


def test_parsed_params_stay_equal(medium):
    again = GroupParams(medium.name, medium.p, medium.q, medium.generators, bytes(medium.domain_tag))
    assert again == medium and hash(again) == hash(medium)
    assert (again.element_bytes, again.scalar_bytes) == (3, 3)


def test_parsed_group_is_validated_once(monkeypatch):
    # a derived group is validated once, when it is first derived, and
    # validation runs no primality test: it checks that the generators
    # lie in the subgroup, one is_element each, and makes no pow call (a
    # tag no other test derives, so this is the first derivation)
    checked, powers = [], []
    is_element = GroupParams.is_element

    def counting_is_element(self, x):
        checked.append(x)
        return is_element(self, x)

    def counting_pow(*args):
        powers.append(args)
        return pow(*args)

    monkeypatch.setattr(GroupParams, "is_element", counting_is_element)
    monkeypatch.setattr(groups, "pow", counting_pow, raising=False)
    params = derive_params("test_medium", b"validated-once")
    assert derive_params("test_medium", b"validated-once") is params
    assert checked == list(params.generators)
    assert powers == []


def test_membership_is_the_legendre_symbol():
    # is_element reads the Legendre symbol (x | p); in a safe prime
    # p = 2q + 1 the order-q subgroup is the squares, so it answers as
    # x^q = 1 does: for every x of test_small, a sample of test_medium,
    # and production's h powers with their negations p - x, which lie
    # outside the subgroup
    def oracle(params, x):
        return 1 <= x < params.p and pow(x, params.q, params.p) == 1

    small = derive_params("test_small", TAG)
    assert all(small.is_element(x) == oracle(small, x) for x in range(-1, small.p + 2))
    medium, rng = derive_params("test_medium", TAG), random.Random(24)
    sample = [0, 1, 2, medium.p - 1, medium.p] + [rng.randrange(medium.p) for _ in range(4000)]
    assert all(medium.is_element(x) == oracle(medium, x) for x in sample)
    production, rng = derive_params("production", TAG), random.Random(25)
    for e in (1, production.q - 1, rng.randrange(production.q), rng.randrange(production.q)):
        x = production.h_table.power(e)
        for y in (x, production.p - x):
            assert production.is_element(y) == oracle(production, y) == (y == x)


def test_validate_wants_a_safe_prime():
    # q = 5 divides 31 - 1 and 2, 4, 8 have order 5, but 31 is not 2q + 1:
    # is_element's squares are no order-q subgroup there, so it is refused
    assert all(pow(x, 5, 31) == 1 for x in (2, 4, 8))
    with pytest.raises(ValueError, match="safe prime"):
        GroupParams("test_small", 31, 5, (2, 4, 8), TAG).validate()


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes and twelve witnesses
    hashed from n, independent of the code under test."""
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for prime in small_primes:
        if n % prime == 0:
            return n == prime
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    seed = hashlib.sha256(n.to_bytes((n.bit_length() + 7) // 8, "big")).digest()
    hashed = [
        int.from_bytes(hashlib.sha256(seed + bytes([i])).digest(), "big") % (n - 3) + 2
        for i in range(12)
    ]
    for a in small_primes + tuple(hashed):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_probable_prime_oracle():
    # the test-local oracle against trial division, and a Carmichael number
    primes = [n for n in range(2, 400) if all(n % k for k in range(2, n))]
    assert [n for n in range(400) if is_probable_prime(n)] == primes
    assert not is_probable_prime(561) and not is_probable_prime(41041)


@pytest.mark.parametrize("level", groups.SECURITY_LEVELS)
def test_built_in_sets_are_safe_primes(level):
    # every group is a built-in set: its primality is checked here only
    p, q = groups._BUILT_IN[level]
    assert is_probable_prime(p) and is_probable_prime(q)
    assert p == 2 * q + 1
    params = derive_params(level, TAG)
    assert (params.p, params.q) == (p, q)


@pytest.mark.parametrize("level", ["test_small", "test_medium", "production"])
def test_window_table_powers_match_power(level):
    params = derive_params(level, TAG)
    exponents = [0, params.q - 1, params.q, -3, 2 * params.q + 5]
    for table in (params.g_table, params.f_table, params.h_table):
        assert table.powers(exponents) == [table.power(e) for e in exponents]
    assert params.g_table.powers([]) == []


@st.composite
def any_exponent_inputs(draw):
    """A test group and a list of (count, total, blinding) exponents of
    any sign and size, empty lists included."""
    level = draw(st.sampled_from(["test_small", "test_medium"]))
    q = groups._BUILT_IN[level][1]
    exponent = st.integers(-3 * q, 3 * q) | st.sampled_from([0, q - 1, q, -q]) | st.integers()
    return level, draw(st.lists(st.tuples(exponent, exponent, exponent), max_size=12))


def _reduced_columns(params, items):
    """The count, total and blinding columns of ``items``, each exponent reduced mod q."""
    return ([item[i] % params.q for item in items] for i in range(3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(any_exponent_inputs())
def test_commit_scalars_of_reduced_exponents_matches_commit(inputs):
    # one walk of the g, f and h tables over exponents reduced mod q
    # commits as commit does over the exponents as given
    level, items = inputs
    params = derive_params(level, TAG)
    expected = [commit(params, (c, t), b) for c, t, b in items]
    assert commit_scalars(params, *_reduced_columns(params, items)) == expected


def test_commit_scalars_of_reduced_exponents_matches_commit_in_production():
    # 410 rows of 5-bit digits per table
    params = derive_params("production", TAG)
    q = params.q
    assert len(params.g_table.rows) == 410
    items = [(q - 1, q, -1), (-5, 0, q + 1), (2 * q + 3, -q - 7, 12345)]
    expected = [commit(params, (c, t), b) for c, t, b in items]
    assert commit_scalars(params, *_reduced_columns(params, items)) == expected


def _walk_bound(params):
    """2^(rows * width): every exponent below it is one digit per row."""
    table = params.g_table
    return 1 << len(table.rows) * table.width


@st.composite
def commit_scalars_inputs(draw):
    """A test group and a list of (count, total, blinding) scalars in [0, q),
    0 and q - 1 likely, and the walk's largest exponent now and then."""
    level = draw(st.sampled_from(["test_small", "test_medium"]))
    params = derive_params(level, TAG)
    q = params.q
    scalar = st.integers(0, q - 1) | st.sampled_from([0, q - 1, _walk_bound(params) - 1])
    return level, draw(st.lists(st.tuples(scalar, scalar, scalar), max_size=12))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(commit_scalars_inputs())
def test_commit_scalars_matches_commit(inputs):
    # the walk key setup makes takes its scalars as given: exact on [0, q),
    # and on to the walk's bound, as every base has order q
    level, items = inputs
    params = derive_params(level, TAG)
    counts, totals, blinds = ([item[i] for item in items] for i in range(3))
    expected = [commit(params, (c, t), b) for c, t, b in items]
    assert commit_scalars(params, counts, totals, blinds) == expected


def test_commit_scalars_matches_commit_in_production():
    params = derive_params("production", TAG)
    q = params.q
    items = [(0, q - 1, 1), (q - 1, 0, q - 2), (12345, q // 3, _walk_bound(params) - 1)]
    counts, totals, blinds = ([item[i] for item in items] for i in range(3))
    expected = [commit(params, (c, t), b) for c, t, b in items]
    assert commit_scalars(params, counts, totals, blinds) == expected
