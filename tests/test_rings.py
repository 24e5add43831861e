import copy
import itertools
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import quotient_add, quotient_mul, series_mul
import wittquant.rings as rings
from wittquant.liealg import WittAlgebra
from wittquant.rings import QQ, ReductionError, TQuotientRing, TSeriesRing, accumulate, binom_int, gf, inverse_factorial, t_quotient, t_series
from wittquant.twist import integral_eta, modular


def test_binom_int_examples():
    assert binom_int(5, 0) == 1
    assert binom_int(-1, 2) == 1  # (-1)(-2)/2
    assert binom_int(2, 2) == 1
    assert binom_int(-2, 3) == -4
    assert binom_int(7, 3) == 35


def test_binom_int_pascal():
    for a in range(-50, 51):
        for r in range(1, 11):
            assert binom_int(a, r) == binom_int(a - 1, r) + binom_int(a - 1, r - 1)


def test_binom_int_is_exact_for_a_rational_top():
    assert binom_int(Fraction(1, 2), 2) == Fraction(-1, 8)  # (1/2)(-1/2)/2
    assert binom_int(Fraction(-1, 3), 3) == Fraction(-14, 81)  # (-1/3)(-4/3)(-7/3)/6
    assert binom_int(Fraction(1, 2), 0) == 1 and binom_int(Fraction(7, 2), 1) == Fraction(7, 2)
    for a in (Fraction(k, 6) for k in range(-30, 31)):
        for r in range(1, 8):
            assert binom_int(a, r) == binom_int(a - 1, r) + binom_int(a - 1, r - 1)
    assert all(type(binom_int(a, r)) is int for a in range(-5, 6) for r in range(6))


def test_binom_int_negative_r_rejected():
    with pytest.raises(ValueError):
        binom_int(3, -1)


def test_gf_basics():
    F = gf(5)
    assert F.add(3, 4) == 2
    assert F.mul(3, 4) == 2
    assert F.inv(2) == 3
    assert F.from_int(-1) == 4


def test_gf_accepts_exactly_the_odd_primes_below_3000():
    # gf(41) runs the squaring loop to its break: 2^5 = 32 and 32^2 = 40 = -1 mod 41
    for p in range(3, 3000, 2):
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            assert gf(p).p == p
        else:
            with pytest.raises(ValueError, match=f"odd prime >= 3, got {p}$"):
                gf(p)


@pytest.mark.parametrize("n", [2047, 3215031751])  # strong pseudoprimes to base 2, and to bases 2, 3, 5, 7
def test_gf_rejects_strong_pseudoprimes(n):
    with pytest.raises(ValueError, match=f"odd prime >= 3, got {n}$"):
        gf(n)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: gf(3.0), "p must be an int, got 3.0"),
        (lambda: gf(Fraction(5)), "p must be an int, got Fraction(5, 1)"),
        (lambda: rings.PrimeField(3.0), "p must be an int, got 3.0"),
        (lambda: t_quotient(3.0, 1), "p must be an int, got 3.0"),
        (lambda: WittAlgebra(1.5), "n must be an int, got 1.5"),
        (lambda: modular(3, 2.0, (1, 1), 1), "n must be an int, got 2.0"),
        (lambda: integral_eta((1,), 1.0, 3), "n must be an int, got 1.0"),
    ],
    ids=["gf-float", "gf-fraction", "prime-field-float", "t-quotient-float-p", "witt-float-n", "modular-float-n", "integral-float-n"],
)
def test_a_p_or_n_that_is_not_an_int_is_refused(make, message):
    F = gf(3)
    built = rings._gf.cache_info().currsize
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
    assert rings._gf.cache_info().currsize == built  # nothing cached
    assert gf(3) is F and type(F.p) is int and F.from_int(5) == 2


def test_p_equal_2_rejected():
    with pytest.raises(ValueError):
        gf(2)
    with pytest.raises(ValueError):
        gf(9)


def _tp(ring, terms):
    """The t-ring value sum_d c_d t^d for a dict {d: c_d} of base scalars."""
    out = ring.zero
    for deg, c in terms.items():
        out = ring.add(out, ring.mul(ring.t_power(deg), ring.from_fraction(c)))
    return out


def test_tpoly_mul_examples():
    Rq1 = t_quotient(3, 1)
    assert Rq1.mul(_tp(Rq1, {2: 1}), _tp(Rq1, {1: 1})) == _tp(Rq1, {1: 1})  # t^3 -> t

    Rs = t_series(QQ, 3)
    f = _tp(Rs, {0: Fraction(1), 1: Fraction(1)})
    assert Rs.mul(f, f) == _tp(Rs, {0: 1, 1: 2, 2: 1})

    Rq0 = t_quotient(3, 0)
    assert not Rq0.mul(_tp(Rq0, {2: 1}), _tp(Rq0, {2: 1}))  # t^4 -> 0*t^2 = 0


def test_tpoly_series_truncation():
    Rs = t_series(QQ, 3)
    f = _tp(Rs, {2: Fraction(1)})
    assert not Rs.mul(f, f)  # t^4 dies at cap 3


def test_tpoly_quotient_relation_vanishes():
    for q in (0, 1, 2):
        R = t_quotient(3, q)
        assert R.t_power(3) == _tp(R, {1: q})
        assert R.add(R.t_power(3), R.mul(R.t_power(1), R.from_int(-q))) == ()


@st.composite
def _quot_polys(draw, p=5, q=1):
    R = t_quotient(p, q)
    terms = draw(st.dictionaries(st.integers(0, p - 1), st.integers(0, p - 1), max_size=p))
    return _tp(R, terms)


@given(_quot_polys(), _quot_polys(), _quot_polys())
def test_tpoly_quotient_assoc_comm(f, g, h):
    R = t_quotient(5, 1)
    assert R.mul(f, g) == R.mul(g, f)
    assert R.mul(R.mul(f, g), h) == R.mul(f, R.mul(g, h))
    assert R.mul(f, R.add(g, h)) == R.add(R.mul(f, g), R.mul(f, h))


@st.composite
def _series_polys(draw, cap=4):
    R = t_series(QQ, cap)
    fracs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 5))
    terms = draw(st.dictionaries(st.integers(0, cap - 1), fracs, max_size=cap))
    return _tp(R, terms)


@given(_series_polys(), _series_polys(), _series_polys())
def test_tpoly_series_assoc_comm(f, g, h):
    R = t_series(QQ, 4)
    assert R.mul(f, g) == R.mul(g, f)
    assert R.mul(R.mul(f, g), h) == R.mul(f, R.mul(g, h))


@pytest.mark.parametrize("p,q", [(3, 0), (3, 1), (5, 2)])
def test_quotient_reduction_is_ring_hom_from_series(p, q):
    # polynomial inputs of degree < p in a big-cap series ring over GF(p):
    # reducing after multiplication equals multiplying the reductions.
    Rs = t_series(gf(p), 2 * p)
    Rq = t_quotient(p, q)

    def reduce(v):
        return Rq._reduce([c for c in v])

    rnd = random.Random(7)
    for _ in range(60):
        f = tuple(rnd.randrange(p) for _ in range(p))
        g = tuple(rnd.randrange(p) for _ in range(p))
        fs, gs = Rs._reduce(list(f)), Rs._reduce(list(g))
        lhs = reduce(list(Rs.mul(fs, gs)))
        rhs = Rq.mul(reduce(list(fs)), reduce(list(gs)))
        assert lhs == rhs


def test_t_power_folding():
    R = t_quotient(3, 1)
    assert R.t_power(3) == R.t_power(1)
    assert R.t_power(4) == R.t_power(2)
    assert R.t_power(5) == R.t_power(3) == (0, 1)
    R0 = t_quotient(3, 0)
    assert R0.t_power(3) == ()


@pytest.mark.parametrize("q", [4, -2])
def test_one_quotient_descriptor_per_residue_of_q(q):
    assert t_quotient(3, q) is t_quotient(3, 1)
    assert t_quotient(3, q).q == 1


@pytest.mark.parametrize("p", [0, 4, 2, -3])
def test_quotient_ring_rejects_a_bad_prime_before_reducing_q(p):
    with pytest.raises(ValueError):
        t_quotient(p, 1)


def test_tpoly_coefficients_view():
    R = t_series(QQ, 5)
    f = _tp(R, {0: Fraction(1, 2), 3: Fraction(-2)})
    assert dict(R.t_terms(f)) == {0: Fraction(1, 2), 3: Fraction(-2)}


def _check_against_oracle(R, pairs):
    p, q = R.p, R.q
    for a, b in pairs:
        want_mul, want_add = quotient_mul(p, q, a, b), quotient_add(p, a, b)
        for _ in range(2):  # the second round is answered by the memo
            assert R.mul(a, b) == want_mul, (p, q, a, b)
            assert R.add(a, b) == want_add, (p, q, a, b)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_quotient_ring_matches_oracle_on_all_pairs_p3(q):
    R = t_quotient(3, q)
    values = [quotient_add(3, v, ()) for v in itertools.product(range(3), repeat=3)]
    _check_against_oracle(R, itertools.product(values, values))


@pytest.mark.parametrize("p,q", [(5, 0), (5, 1), (7, 0), (7, 1)])
def test_quotient_ring_matches_oracle_on_random_pairs(p, q):
    rnd = random.Random(1000 * p + q)
    values = [quotient_add(p, [rnd.randrange(p) for _ in range(rnd.randint(0, p))], ()) for _ in range(1000)]
    _check_against_oracle(t_quotient(p, q), zip(values[::2], values[1::2]))


# -- canonical t-ring values: one object per value, hashed by identity ------------------------


def _handed_out(R, ops) -> list:
    """Values of every kind R returns: zero, one, from_int, from_fraction of scalars and of
    rational t-values, t_power, and the results of ops (R's methods) on a sample of those."""
    m, rnd = R.char or 7, random.Random(repr(R))  # every denominator below m is invertible in R
    base = [R.zero, R.one, *(R.from_int(n) for n in range(-2 * m, 2 * m))]
    base += [R.from_fraction(Fraction(n, d)) for n in range(-m, m) for d in range(1, m)]
    base += [R.t_power(r) for r in range(3 * R.cap)]
    if R.char == R.cap == 3:  # all 27 values
        base += [R.from_fraction(v) for v in itertools.product(range(3), repeat=3)]
    else:
        base += [R.from_fraction(tuple(Fraction(rnd.randint(-9, 9), rnd.randint(1, m - 1)) for _ in range(R.cap + 2))) for _ in range(40)]
    sample = rnd.sample(base, min(len(base), 60))
    return base + [op(a, b) for a in sample for b in sample for op in ops]


def _one_object_per_content(values) -> dict:
    """Check that equal values are one object, hashed by identity, that copies and pickles as
    itself and reads as its plain tuple; returns content -> that object."""
    canonical = {}
    for v in values:
        assert canonical.setdefault(tuple(v), v) is v, v
        assert isinstance(v, tuple) and hash(v) == object.__hash__(v), v
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    for v in canonical.values():  # an element's values copy and pickle as themselves
        assert all(c is v for c in [copy.copy(v), copy.deepcopy(v), *(pickle.loads(pickle.dumps(v, k)) for k in protocols)])
        assert v == tuple(v) and repr(v) == repr(tuple(v)) and bool(v) == bool(tuple(v))
    return canonical


@pytest.mark.parametrize("p, q", [(3, 0), (3, 1), (3, 2), (5, 1)])
def test_a_quotient_ring_hands_out_one_object_per_value(p, q):
    # the cached descriptor and a fresh one: equal content is one object across both
    rings_ = (t_quotient(p, q), TQuotientRing(p, q))
    canonical = _one_object_per_content([v for R in rings_ for v in _handed_out(R, (R.mul, R.add))])
    assert len(canonical) == 27 if p == 3 else len(canonical) > 2 * p


@pytest.mark.parametrize("R", [*(t_series(QQ, cap) for cap in range(1, 7)), t_series(gf(5), 3)], ids=repr)
def test_a_series_ring_hands_out_one_object_per_value(R):
    # the cached descriptor and a fresh one: equal content is one object across both
    rings_ = (R, TSeriesRing(R.base, R.cap))
    canonical = _one_object_per_content([v for S in rings_ for v in _handed_out(S, (S.mul, S.add))])
    assert len(canonical) > 4 * R.cap
    for v in canonical.values():  # an integral rational is held as an int
        assert len(v) <= R.cap and (not v or v[-1]), v
        assert all(type(c) is int or c.denominator > 1 for c in v), v


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 6])
def test_a_fresh_series_ring_matches_a_fraction_only_reference(cap):
    # a fresh descriptor, so no memo entry stands in for a product or a sum; each pair is first
    # asked with plain all-Fraction operands, then with the canonical values of the same content
    R, cached = TSeriesRing(QQ, cap), t_series(QQ, cap)
    rnd = random.Random(200 + cap)

    def plain(length):
        v = [Fraction(c) for c in random_rationals(rnd, length)]
        return tuple(v[:-1]) + (v[-1] or Fraction(1),) if v else ()

    values = [plain(rnd.randint(0, cap)) for _ in range(30)] + [(Fraction(2),), (Fraction(0),) * (cap - 1) + (Fraction(1),)]
    assert any(c.denominator == 1 for v in values for c in v)
    for fa, fb in itertools.product(values, values):
        product, total = R.mul(fa, fb), R.add(fa, fb)
        a, b = R.from_fraction(fa), R.from_fraction(fb)
        assert all(R.mul(x, y) is product for x, y in [(a, b), (tuple(a), b), (a, fb)]), (fa, fb)
        assert all(R.add(x, y) is total for x, y in [(a, b), (tuple(a), b), (a, fb)]), (fa, fb)
        assert product is cached.from_fraction(series_mul(cap, fa, fb)), (fa, fb)
        width = max(len(fa), len(fb))
        padded = [fa + (Fraction(0),) * (width - len(fa)), fb + (Fraction(0),) * (width - len(fb))]
        sums = [x + y for x, y in zip(*padded)]
        while sums and not sums[-1]:
            sums.pop()
        assert total is cached.from_fraction(tuple(sums)), (fa, fb)
        for got, want in ((a, fa), (b, fb), (product, series_mul(cap, fa, fb)), (total, tuple(sums))):
            assert len(got) == len(want)
            for c, w in zip(got, want):
                assert_rational(c, Fraction(w))


def test_a_plain_fraction_operand_leaves_an_integral_value_an_int():
    # contents no other test makes, so this call is the first to meet them: the product's
    # value, and every later value of that content, hold ints
    n = 10**12 + 39
    for k, R in enumerate((TSeriesRing(QQ, 3), TSeriesRing(QQ, 4))):
        plain = (Fraction(n + k), Fraction(0), Fraction(2 * n + k))
        for got in (R.mul(plain, R.one), R.mul(R.one, plain[:1]), R.add(plain, R.zero)):
            assert all(type(c) is int for c in got), got
        assert type(R.from_int(n + k)[0]) is int
        assert all(type(c) is int for c in R.from_fraction((n + k, 0, 2 * n + k)))
        assert R.mul(plain, R.one) is R.add(plain, R.zero) is R.from_fraction(plain) is t_series(QQ, R.cap).from_fraction((n + k, 0, 2 * n + k))


@pytest.mark.parametrize("q", [0, 1, 2])
def test_plain_tuple_operands_get_the_canonical_value_on_a_fresh_descriptor(q):
    # a fresh descriptor per order, so each pair's first call is a memo miss: plain tuple
    # operands first, then the canonical ones, and the other way round
    values = [t_quotient(3, q).from_fraction(v) for v in itertools.product(range(3), repeat=3)]
    for plain_first in (True, False):
        R = TQuotientRing(3, q)
        for a, b in itertools.product(values, values):
            calls = [(tuple(a), tuple(b)), (a, b), (tuple(a), b), (a, tuple(b))]
            for op, want in ((R.mul, quotient_mul(3, q, a, b)), (R.add, quotient_add(3, a, b))):
                got = [op(x, y) for x, y in (calls if plain_first else calls[::-1])]
                assert got[0] == want, (q, a, b)
                assert all(g is got[0] for g in got), (q, a, b)
                assert got[0] is t_quotient(3, q).from_fraction(want)


@pytest.mark.parametrize("q", [1.5, Fraction(1, 2), Fraction(7, 2), Fraction(4, 1), "1", None])
def test_quotient_ring_rejects_a_q_that_is_not_an_int(q):
    built = rings._t_quotient.cache_info().currsize
    for make in (t_quotient, TQuotientRing):
        with pytest.raises(ValueError, match=f"^q must be an int, got {re.escape(repr(q))}$"):
            make(3, q)
    assert rings._t_quotient.cache_info().currsize == built  # nothing cached


def test_quotient_ring_accepts_every_int_q():
    for q in [*range(-12, 13), 10**30 + 1, -(10**30), True, False]:
        for p in (3, 5, 7):
            R = t_quotient(p, q)
            assert R.q == q % p and R is t_quotient(p, q % p), (p, q)


@pytest.mark.parametrize("cap", [2.5, 4.0, "3", Fraction(3), None])
def test_series_ring_rejects_a_cap_that_is_not_an_int(cap):
    built = rings._t_series.cache_info().currsize
    for make in (t_series, TSeriesRing):
        with pytest.raises(ValueError, match=f"^series cap must be an int, got {re.escape(repr(cap))}$"):
            make(QQ, cap)
    assert rings._t_series.cache_info().currsize == built  # nothing cached


def test_series_ring_accepts_every_int_cap_from_one():
    for cap in [*range(1, 13), 10**6, True]:
        for base in (QQ, gf(3), gf(5)):
            R = t_series(base, cap)
            assert R.cap == R.keep == cap and R is t_series(base, int(cap)), (base, cap)
            assert R.t_power(cap) == () and R.t_power(cap - 1) == (0,) * (cap - 1) + (1,)
    for cap in (0, -1):
        with pytest.raises(ValueError, match=f"^series cap must be >= 1, got {cap}$"):
            t_series(QQ, cap)


def test_t_power_of_huge_exponent_is_reduced_arithmetically():
    assert t_quotient(3, 1).t_power(10**9) == (0, 0, 1)  # t^(2k) = t^2 when t^3 = t
    assert t_quotient(5, 2).t_power(10**9 + 1) == (0, 1)  # t^(4k+1) = 2^k t and 2^4 = 1
    assert t_quotient(3, 0).t_power(10**9) == ()
    for p, q in [(3, 1), (5, 2), (7, 0)]:
        R = t_quotient(p, q)
        for r in range(4 * p):
            assert R.t_power(r) == quotient_mul(p, q, (0,) * r + (1,), (1,)), (p, q, r)


@pytest.mark.parametrize("R", [t_series(QQ, 3), t_series(gf(5), 1), t_quotient(3, 1), t_quotient(5, 0)], ids=repr)
def test_t_power_rejects_negative_exponent(R):
    for r in (-1, -7):
        with pytest.raises(ValueError, match="nonnegative"):
            R.t_power(r)
    assert R.t_power(0) == R.one


def test_series_product_matches_oracle_on_all_pairs_gf3():
    R = t_series(gf(3), 3)
    values = [quotient_add(3, v, ()) for v in itertools.product(range(3), repeat=3)]
    for a, b in itertools.product(values, values):
        assert R.mul(a, b) == series_mul(3, a, b, 3), (a, b)


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
def test_series_product_matches_oracle_on_random_pairs_qq(cap):
    R = t_series(QQ, cap)
    rnd = random.Random(cap)
    coeffs = [Fraction(0)] * 4 + [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 7)]

    def value(length):
        v = [rnd.choice(coeffs) for _ in range(length)]
        return tuple(v[:-1]) + (v[-1] or Fraction(1),) if v else ()

    full = value(cap)
    pairs = [((), full), (full, ()), (full, full), (full, R.one)]
    if cap >= 2:
        # t^(cap-2) (1 + t) (1 - t): the degree cap-1 terms cancel, so the product is trimmed
        a, b = (0,) * (cap - 2) + (1, 1), (1, -1)
        assert R.mul(a, b) == (0,) * (cap - 2) + (1,)
        pairs.append((a, b))
    pairs += [(value(rnd.randint(0, cap)), value(rnd.randint(0, cap))) for _ in range(300)]
    assert len(full) == cap  # a length-cap operand
    assert cap == 1 or any(0 in a[:-1] for a, _ in pairs)  # zeros below the top degree
    for a, b in pairs:
        assert R.mul(a, b) == series_mul(cap, a, b), (cap, a, b)


def _constant_products(R, constants, values, want) -> list:
    """R.mul of each constant (a length-1 value) with each value, on both sides, against
    want(constant, value); every nonzero product is trimmed and no longer than the cap.
    Returns the (product, wanted) pairs."""
    out = []
    for c in constants:
        k = R.from_fraction(c)
        assert len(k) == 1, c
        for v in values:
            for got in (R.mul(k, v), R.mul(v, k)):
                assert got == want(k, v), (R, k, v, got)
                assert not got or (got[-1] and len(got) <= R.cap), (R, k, v, got)
                out.append((got, want(k, v)))
    assert any(got for got, _ in out)
    return out


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 6])
def test_a_constant_operand_scales_the_other_over_qq(cap):
    R = t_series(QQ, cap)
    rnd = random.Random(100 + cap)
    constants = [1, 3, -1, -4, Fraction(2, 3), Fraction(-5, 7), Fraction(1, 2)]
    values = [R.from_fraction(tuple(random_rationals(rnd, rnd.randint(0, cap)))) for _ in range(60)]
    values += [R.one, R.t_power(cap - 1), R.from_fraction((Fraction(3, 2), Fraction(1, 7)))]
    assert any(len(v) == cap for v in values) and (cap < 3 or any(0 in v[:-1] for v in values))
    for got, want in _constant_products(R, constants, values, lambda k, v: series_mul(cap, k, v)):
        for g, w in zip(got, want):
            assert_rational(g, Fraction(w))
    # a product that becomes integral is held as an int
    got = R.mul(R.from_fraction(Fraction(2, 3)), R.from_fraction((Fraction(3, 2), Fraction(1, 7))))
    assert_rational(got[0], Fraction(1))
    assert cap == 1 or got[1] == Fraction(2, 21)


def test_a_constant_operand_scales_the_other_over_gf5():
    R = t_series(gf(5), 3)
    values = [quotient_add(5, v, ()) for v in itertools.product(range(5), repeat=3)]
    _constant_products(R, range(1, 5), values, lambda k, v: series_mul(3, k, v, 5))


@pytest.mark.parametrize("p, q", [(5, 2), (7, 1)])
def test_a_constant_operand_scales_the_other_in_the_quotient_ring(p, q):
    R = TQuotientRing(p, q)  # a fresh descriptor: no memo entry stands in for a product
    rnd = random.Random(p)
    values = [quotient_add(p, tuple(rnd.randrange(p) for _ in range(rnd.randint(0, p))), ()) for _ in range(300)]
    values += [R.one, R.t_power(p - 1)]
    _constant_products(R, range(1, p), values, lambda k, v: quotient_mul(p, q, k, v))


# -- the one rule from rationals to ring values -------------------------------------------

FRACTION_RINGS = [QQ, gf(3), gf(5), t_series(QQ, 4), t_series(gf(5), 3), t_quotient(5, 2)]


@pytest.mark.parametrize("R", FRACTION_RINGS, ids=repr)
def test_from_fraction_agrees_with_from_int(R):
    for n in range(-12, 13):
        assert R.from_fraction(n) == R.from_int(n)
        assert R.from_fraction(Fraction(n)) == R.from_int(n)


@pytest.mark.parametrize("R", FRACTION_RINGS, ids=repr)
def test_from_fraction_inverts_the_denominator(R):
    for n in range(-6, 7):
        for d in range(1, 16):
            fr = Fraction(n, d)
            if R.char and fr.denominator % R.char == 0:
                with pytest.raises(ReductionError, match=f"^denominator of {fr} not invertible mod {R.char}$"):
                    R.from_fraction(fr)
            else:
                assert R.mul(R.from_fraction(fr), R.from_int(d)) == R.from_int(n), (n, d)


@pytest.mark.parametrize("R", FRACTION_RINGS, ids=repr)
def test_from_fraction_rejects_a_float_naming_it(R):
    for x in (0.5, 2.0, -1e300, "1/2"):
        with pytest.raises(ValueError, match=f"^from_fraction takes an int or Fraction, got {re.escape(repr(x))}$"):
            R.from_fraction(x)
    if hasattr(R, "t_power"):  # a t-ring names the coefficient it cannot take
        with pytest.raises(ValueError, match=r"^from_fraction takes an int or Fraction, got 0\.5$"):
            R.from_fraction((Fraction(1, 3), 0.5))


def test_from_fraction_maps_a_rational_t_value_through_the_ring():
    t5 = (Fraction(0),) * 5 + (Fraction(1),)  # t^5 over the rationals
    assert t_quotient(5, 2).from_fraction(t5) == (0, 2)  # t^5 = 2 t
    assert t_series(gf(5), 3).from_fraction(t5) == ()  # t^5 = 0 past the cap
    value = (Fraction(1, 2), Fraction(0), Fraction(-3, 4))
    assert t_series(gf(5), 3).from_fraction(value) == (3, 0, 3)  # -3/4 = -3 * 4 = 3 mod 5
    assert t_series(QQ, 4).from_fraction(value) == value


@pytest.mark.parametrize("p", [3, 5, 7])
def test_from_fraction_of_a_rational_t_value_matches_the_oracle(p):
    # sum_d c_d t^d, each c_d reduced mod p, folded by the oracle's quotient arithmetic for
    # every q and cut at the cap of a GF(p) series; one denominator divisible by p at a
    # degree the series drops still raises, as for a scalar
    rnd = random.Random(p)
    dens = [d for d in range(1, 3 * p) if d % p]

    def t_power(q, d):
        out = (1,)
        for _ in range(d):
            out = quotient_mul(p, q, out, (0, 1))
        return out

    for q in range(p):
        quotient, series = t_quotient(p, q), t_series(gf(p), p)
        for _ in range(30):
            value = tuple(Fraction(rnd.randint(-9, 9), rnd.choice(dens)) for _ in range(rnd.randint(0, 3 * p)))
            residues = [c.numerator * pow(c.denominator, -1, p) % p for c in value]
            want = ()
            for d, c in enumerate(residues):
                want = quotient_add(p, want, quotient_mul(p, q, (c,), t_power(q, d)))
            assert quotient.from_fraction(value) == want, (q, value)
            assert series.from_fraction(value) == quotient_add(p, (), residues[:p]), value
        bad = (Fraction(1),) * 2 * p + (Fraction(1, p),)
        for R in (quotient, series):
            with pytest.raises(ReductionError, match=f"^denominator of 1/{p} not invertible mod {p}$"):
                R.from_fraction(bad)


def test_inverse_factorial_exists_below_the_characteristic():
    assert inverse_factorial(gf(5), 4) == 4  # 4! = -1 mod 5, its own inverse
    assert inverse_factorial(t_series(QQ, 4), 3) == (Fraction(1, 6),)
    with pytest.raises(ValueError, match=r"^1/3! does not exist in characteristic 3$"):
        inverse_factorial(gf(3), 3)


# -- rational values: an int when integral, else a Fraction -------------------------------


def random_rationals(rnd, count: int) -> list:
    """Ints, integral Fractions and proper Fractions, mixed."""
    out = []
    for _ in range(count):
        n = rnd.randint(-30, 30)
        out.append(rnd.choice((n, Fraction(n), Fraction(n, rnd.randint(2, 12)))))
    return out


def assert_rational(value, want: Fraction) -> None:
    assert value == want
    assert type(value) is (int if want.denominator == 1 else Fraction), (value, want)


def test_rational_field_agrees_with_fraction_arithmetic():
    rnd = random.Random(17)
    xs = random_rationals(rnd, 80)
    ys = random_rationals(rnd, 80)
    assert any(Fraction(x).denominator > 1 for x in xs) and any(type(x) is Fraction and x.denominator == 1 for x in xs)
    for x, y in zip(xs, ys):
        assert_rational(QQ.from_fraction(x), Fraction(x))
        a, b = QQ.from_fraction(x), QQ.from_fraction(y)
        assert_rational(QQ.add(a, b), Fraction(x) + Fraction(y))
        assert_rational(QQ.mul(a, b), Fraction(x) * Fraction(y))
        assert_rational(QQ.add(x, y), Fraction(x) + Fraction(y))
        assert_rational(QQ.mul(x, y), Fraction(x) * Fraction(y))
    for n in range(-5, 6):
        assert_rational(QQ.from_int(n), Fraction(n))
    assert_rational(QQ.zero, Fraction(0))
    assert_rational(QQ.one, Fraction(1))
    assert_rational(QQ.add(Fraction(1, 2), Fraction(1, 2)), Fraction(1))
    assert_rational(QQ.mul(Fraction(2, 3), Fraction(3, 4)), Fraction(1, 2))
    assert_rational(QQ.mul(Fraction(-2, 3), 3), Fraction(-2))


@pytest.mark.parametrize("cap", [1, 3, 4])
def test_rational_series_agree_with_a_fraction_only_reference(cap):
    R = t_series(QQ, cap)
    rnd = random.Random(cap)

    def value():
        return R.from_fraction(tuple(random_rationals(rnd, rnd.randint(0, cap))))

    for _ in range(200):
        a, b = value(), value()
        fa, fb = tuple(map(Fraction, a)), tuple(map(Fraction, b))
        width = max(len(fa), len(fb))
        padded = [fa + (Fraction(0),) * (width - len(fa)), fb + (Fraction(0),) * (width - len(fb))]
        sums = [x + y for x, y in zip(*padded)]
        while sums and not sums[-1]:
            sums.pop()
        for got, want in ((R.mul(a, b), series_mul(cap, fa, fb)), (R.add(a, b), tuple(sums))):
            assert len(got) == len(want)
            for c, w in zip(got, want):
                assert_rational(c, Fraction(w))


def test_an_int_and_an_equal_fraction_are_one_dict_key():
    d = {3: "int", (1, 2): "int pair"}
    d[Fraction(3)] = "fraction"
    d[(Fraction(1), Fraction(2))] = "fraction pair"
    assert d == {3: "fraction", (1, 2): "fraction pair"}
    assert hash(Fraction(-7)) == hash(-7)
    summed = accumulate(QQ.add, {(Fraction(1),): Fraction(1, 2)}, [((1,), Fraction(1, 2)), ((2,), Fraction(2))])
    assert summed == {(1,): 1, (2,): 2}
    assert type(summed[1,]) is int


# -- truncation: keep and order ---------------------------------------------------------------

KEEPS = [
    (QQ, None),
    (gf(3), None),
    (gf(5), None),
    (t_quotient(3, 0), None),
    (t_quotient(5, 2), None),
    (t_series(QQ, 1), 1),
    (t_series(QQ, 4), 4),
    (t_series(gf(5), 3), 3),
]


@pytest.mark.parametrize("R,keep", KEEPS, ids=[repr(R) for R, _ in KEEPS])
def test_keep_is_the_series_cap_and_none_for_every_other_ring(R, keep):
    assert R.keep == keep


T_RINGS = [R for R, _ in KEEPS[3:]]


@pytest.mark.parametrize("R", T_RINGS, ids=repr)
def test_order_is_the_lowest_t_degree_of_a_nonzero_value(R):
    for r in range(R.cap):
        assert R.order(R.t_power(r)) == r
        assert R.order(R.add(R.t_power(r), R.t_power(R.cap - 1))) == r
    assert R.order(R.from_int(2)) == R.order(R.one) == 0
    with pytest.raises(ValueError, match="no order"):
        R.order(R.zero)


@st.composite
def _nonzero_series(draw, R):
    """A nonzero value of the series ring R: nonzero coefficients in a nonempty set of degrees."""
    fractions = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 5))
    nonzero = st.integers(1, R.char - 1) if R.char else fractions
    return _tp(R, draw(st.dictionaries(st.integers(0, R.cap - 1), nonzero, min_size=1)))


@pytest.mark.parametrize("R", [t_series(QQ, 4), t_series(gf(5), 3)], ids=repr)
@given(data=st.data())
def test_a_series_product_vanishes_exactly_when_the_orders_reach_keep(R, data):
    a, b = data.draw(_nonzero_series(R)), data.draw(_nonzero_series(R))
    assert (not R.mul(a, b)) == (R.order(a) + R.order(b) >= R.keep)
    if R.mul(a, b):
        assert R.order(R.mul(a, b)) == R.order(a) + R.order(b)


@pytest.mark.parametrize(
    "ring, op",
    [
        (t_series(QQ, 4), "mul"),
        (t_series(gf(5), 3), "mul"),
        (t_quotient(3, 1), "mul"),
        (t_quotient(3, 1), "add"),
        (t_series(QQ, 4), "add"),
        (t_series(gf(5), 3), "add"),
    ],
    ids=["series-qq-mul", "series-gf5-mul", "quotient-mul", "quotient-add", "series-qq-add", "series-gf5-add"],
)
def test_a_bare_scalar_is_no_t_ring_operand(ring, op):
    f = getattr(ring, op)
    for bare in (2, Fraction(1, 2)):
        for operands in ((ring.one, bare), (bare, ring.one)):
            with pytest.raises(ValueError, match="t-ring operands are tuples of coefficients"):
                f(*operands)
    assert f(ring.one, tuple(ring.one)) is f(ring.one, ring.one)  # a plain tuple stays an operand
