import random
import time
from fractions import Fraction

import pytest

from wittquant.grammar import MAX_DEGREE, ElementSyntaxError, format_element, parse_element
from wittquant.liealg import JacobsonWitt, WPlusAlgebra
from wittquant.rings import QQ, gf
from wittquant.twist import integral_eta, modular, modular_unrestricted
from wittquant.uea import EnvelopingAlgebra, TensorElement


def u31():
    return modular(3, 1, (1,)).uea


def test_parse_examples():
    U = u31()
    h = parse_element("x(1)D1", U)
    assert h == U.gen(U.alg.basis_symbol((1,), 1))

    e = parse_element("2*x(2)D1", U)
    assert e == U.gen(U.alg.basis_symbol((2,), 1)).scale_int(2)

    t = parse_element("x(1)D1 (x) x(2)D1", U)
    want = TensorElement.of(U.gen(U.alg.basis_symbol((1,), 1)), U.gen(U.alg.basis_symbol((2,), 1)))
    assert t == want


def test_parse_scalars_signs_and_t():
    H = integral_eta((1,), 1, cap=4)
    U = H.uea
    x = parse_element("1", U)
    assert x == U.one()
    x = parse_element("-3/2*x(1)D1*t^2 + 1", U)
    want = U.one() + U.gen(U.alg.basis_symbol((1,), 1)).scale(
        U.ring.mul(U.ring.from_fraction(Fraction(-3, 2)), U.ring.t_power(2))
    )
    assert x == want
    assert parse_element("t", U) == U.scalar(U.ring.t_power(1))


def test_parse_powers_and_products():
    U = u31()
    x = parse_element("x(1)D1.x(2)D1^2", U)
    h = U.gen(U.alg.basis_symbol((1,), 1))
    e1 = U.gen(U.alg.basis_symbol((2,), 1))
    assert x == h * e1 * e1


def test_parse_unsorted_word_normalizes():
    U = u31()
    # products written out of canonical order are straightened on parse
    lhs = parse_element("x(2)D1.x(1)D1", U)
    e1 = U.gen(U.alg.basis_symbol((2,), 1))
    h = U.gen(U.alg.basis_symbol((1,), 1))
    assert lhs == e1 * h  # pbw-normalized product


def test_format_zero_and_canonical_snapshot():
    H = modular(3, 1, (1,))
    U = H.uea
    assert format_element(U.zero()) == "0"
    d = H.delta_basis(U.alg.basis_symbol((1,), 1))
    got = format_element(d)
    assert got == "1 (x) x(1)D1 + x(1)D1 (x) 1 + 2*x(1)D1 (x) x(2)D1*t + x(1)D1 (x) x(2)D1^2*t^2"


def test_an_arity_zero_tensor_renders_as_its_scalar():
    U = u31()
    t = U.ring.t_power(1)
    scalars = {"1": U.ring.one, "2": U.ring.from_int(2), "t": t, "2*t": U.ring.mul(U.ring.from_int(2), t)}
    for text, c in scalars.items():
        got = format_element(TensorElement.unit(U, 0).scale(c))
        assert got == format_element(U.scalar(c)) == text
        assert parse_element(got, U) == U.scalar(c)
    assert format_element(TensorElement.unit(U, 0).scale_int(2)) == "2"


def test_syntax_errors_carry_offsets():
    U = u31()
    with pytest.raises(ElementSyntaxError) as ex:
        parse_element("x(1)D1 + @", U)
    assert ex.value.offset == 9
    with pytest.raises(ElementSyntaxError):
        parse_element("x(1)D", U)
    with pytest.raises(ElementSyntaxError):
        parse_element("", U)
    with pytest.raises(ElementSyntaxError):
        parse_element("x(1)D1 (x) x(1)D1 + x(1)D1", U)  # mixed arity


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("x(1,)D1", "expected integer, found ')D'", 4),
        ("x(1)D1^0", "exponent must be >= 1", 0),
        ("3/ x(1)D1", "expected denominator", 3),
        ("t^-1", "t-degree must be >= 0", 0),
        ("x(1)D1 x(0)D1", "expected '+', '-' or end, found 'x('", 7),
        ("x(1)D1.t", "expected 'x(', found 't'", 7),
        ("x(1(", "expected ')D', found '('", 3),
    ],
)
def test_each_syntax_error_names_the_expected_text_and_its_offset(text, message, offset):
    with pytest.raises(ElementSyntaxError) as ex:
        parse_element(text, u31())
    assert str(ex.value) == f"{message} (at byte {offset})"
    assert ex.value.offset == offset


@pytest.mark.parametrize("text, offset", [("x(1)D1*", 7), ("2* + x(1)D1", 3), ("x(1)D1* (x) 1", 8)])
def test_a_dangling_star_is_an_error_at_the_token_after_it(text, offset):
    with pytest.raises(ElementSyntaxError, match="expected a term") as ex:
        parse_element(text, u31())
    assert ex.value.offset == offset


def test_a_zero_denominator_is_an_error_at_its_offset():
    with pytest.raises(ElementSyntaxError, match="zero denominator") as ex:
        parse_element("1/0*x(1)D1", u31())
    assert ex.value.offset == 2


def test_a_denominator_the_characteristic_divides_is_an_error_at_its_chunk():
    U = u31()
    for text, offset in (("1/3*x(1)D1", 0), ("x(1)D1 + 2/3*x(0)D1", 9), ("x(1)D1 (x) 1/6", 11)):
        with pytest.raises(ElementSyntaxError, match="denominator of .* not invertible mod 3") as ex:
            parse_element(text, U)
        assert ex.value.offset == offset, text
    assert parse_element("1/2*x(1)D1", U) == parse_element("2*x(1)D1", U)


def test_t_power_without_t_ring_reports_its_chunk():
    U = EnvelopingAlgebra(JacobsonWitt(1, 3), gf(3))
    with pytest.raises(ElementSyntaxError, match="t-powers need a t-polynomial ring") as ex:
        parse_element("x(1)D1 + 2*x(0)D1*t", U)
    assert ex.value.offset == 9


def test_inconsistent_arity_reports_the_offending_term():
    with pytest.raises(ElementSyntaxError, match="inconsistent tensor arity across terms") as ex:
        parse_element("x(1)D1 (x) x(0)D1 + x(1)D1", u31())
    assert ex.value.offset == 20

def test_out_of_range_exponent_rejected():
    U = u31()
    with pytest.raises(ElementSyntaxError):
        parse_element("x(3)D1", U)  # component >= p
    with pytest.raises(ElementSyntaxError):
        parse_element("x(1)D2", U)  # index out of range
    UW = EnvelopingAlgebra(WPlusAlgebra(1), QQ)
    with pytest.raises(ElementSyntaxError):
        parse_element("x(-1)D1", UW)  # negative exponent outside W+


def _random_elem(U, rng, max_terms=4):
    gens = U.alg.basis()
    terms = {}
    ring = U.ring
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(
            (g, rng.randint(1, 2)) for g in sorted(rng.sample(gens, rng.randint(1, 2)))
        )
        c = ring.mul(ring.from_int(rng.randint(1, 4)), ring.t_power(rng.randint(0, 2)))
        if c:
            terms[mono] = c
    return U.element(terms)


def test_round_trip_corpus():
    rng = random.Random(99)
    U = u31()
    for _ in range(60):
        x = _random_elem(U, rng)
        assert parse_element(format_element(x), U) == x
    # tensor round trips ("0" is arity-less, so sample nonzero tensors)
    for _ in range(40):
        x = TensorElement.of(_random_elem(U, rng), _random_elem(U, rng))
        if x:
            assert parse_element(format_element(x), U) == x


def test_round_trip_char0_series():
    rng = random.Random(7)
    H = integral_eta((1, 0), 2, cap=4)
    U = H.uea
    alg = U.alg
    ring = U.ring
    pool = [alg.basis_symbol(a, i) for a in ((0, 0), (1, 0), (2, 1)) for i in (1, 2)]
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple((g, rng.randint(1, 2)) for g in sorted(rng.sample(pool, rng.randint(1, 2))))
            c = ring.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            c = ring.mul(c, ring.t_power(rng.randint(0, 3)))
            if c:
                terms[mono] = c
        x = U.element(terms)
        assert parse_element(format_element(x), U) == x


def test_round_trip_signs_a_rational_by_its_value_not_its_type():
    # a rational coefficient may be a plain int; a negative one prints with a leading "- "
    U = EnvelopingAlgebra(WPlusAlgebra(1), QQ)
    a, b = (U.alg.basis_symbol((j,), 1) for j in (0, 1))
    x = U.element({((a, 1),): 1, ((b, 1),): -1})
    assert format_element(x) == "x(0)D1 - x(1)D1"
    assert parse_element(format_element(x), U) == x
    V = integral_eta((1, 0), 2, cap=4).uea
    g = V.alg.basis_symbol((1, 0), 2)
    y = V.element({((g, 1),): (-2, 0, Fraction(-1, 3)), ((g, 2),): (0, 3)})
    assert format_element(y) == "-2*x(1,0)D2 - 1/3*x(1,0)D2*t^2 + 3*x(1,0)D2^2*t"
    assert parse_element(format_element(y), V) == y


def test_huge_exponents_are_folded_not_expanded():
    U = u31()
    h = U.gen(U.alg.basis_symbol((1,), 1))
    start = time.perf_counter()
    assert parse_element("x(1)D1^1000000000", U) == h * h  # H^3 = H, so H^(2k) = H^2
    assert parse_element("x(2)D1^1000000000", U) == U.zero()  # E^3 = 0
    assert parse_element("t^1000000000", U) == U.zero()  # t^3 = 0 at q = 0
    U1 = modular(3, 1, (1,), 1).uea
    assert parse_element("t^1000000000", U1) == U1.scalar(U1.ring.t_power(2))  # t^3 = t at q = 1
    assert time.perf_counter() - start < 1.0


def test_unrestricted_degree_cap():
    U = modular_unrestricted(3, 1, (1,), 4).uea
    with pytest.raises(ElementSyntaxError) as ex:
        parse_element("1 + x(1)D1^1000000000", U)
    assert ex.value.offset == 4
    with pytest.raises(ElementSyntaxError):
        parse_element(f"x(1)D1^{MAX_DEGREE // 2}.x(2)D1^{MAX_DEGREE // 2 + 1}", U)
    h = U.gen(U.alg.basis_symbol((1,), 1))
    assert parse_element(f"x(1)D1^{MAX_DEGREE}", U) == U.power(h, MAX_DEGREE)
