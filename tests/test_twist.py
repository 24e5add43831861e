import itertools
import math
import re
from fractions import Fraction

import pytest
from oracles import one_minus_et_by_powers, reversed_word_antipode0, series_twistors

from wittquant.liealg import BasisDeriv, RMatrixData
from wittquant.twist import (
    NonIntegralExponentError,
    QuantizedHopf,
    char0_general,
    integral_eta,
    modular,
    modular_unrestricted,
)
from wittquant.uea import TensorElement, monomial


# -- twist construction -----------------------------------------------------------------


@pytest.mark.parametrize(
    "make, cap, eta, name",
    [
        (lambda: char0_general(RMatrixData((1, 0), (0, 1), (1, 0)), cap=4), 4, None, "r-matrix twist"),
        (lambda: integral_eta((0, 1), 2, cap=3), 3, (0, 1), "eta=01"),
        (lambda: modular(5, 2, (1, 1), q=1), 5, (1, 1), "eta=11"),
        (lambda: modular_unrestricted(3, 2, (1, 0), cap=6), 6, (1, 0), "eta=10"),
    ],
)
def test_a_context_reads_cap_eta_and_name_off_its_ring_and_directions(make, cap, eta, name):
    H = make()
    assert (H.cap, H.eta, H.name) == (cap, eta, name)


@pytest.mark.parametrize("eta", [(0,), (2,), (-1,), (1, 0), ()])
def test_eta_must_be_a_nonzero_0_1_vector_of_length_n(eta):
    with pytest.raises(ValueError, match="eta must be a nonzero 0/1 vector of length n"):
        modular(3, 1, eta)


@pytest.mark.parametrize("q", [1.5, Fraction(1, 2)])
def test_modular_rejects_a_q_that_is_not_an_int(q):
    with pytest.raises(ValueError, match=f"^q must be an int, got {re.escape(repr(q))}$"):
        modular(3, 1, (1,), q)


@pytest.mark.parametrize("cap", [2.5, 4.0, "3"])
def test_integral_eta_rejects_a_cap_that_is_not_an_int(cap):
    with pytest.raises(ValueError, match=f"^series cap must be an int, got {re.escape(repr(cap))}$"):
        integral_eta((1,), 1, cap=cap)


@pytest.mark.parametrize("make", [lambda: modular(3, 1, (1,), 1), lambda: integral_eta((1,), 1, cap=3)])
def test_a_float_shift_is_refused_by_name(make):
    H = make()
    U, h = H.uea, H.directions[0].h
    for call in (lambda: H.build_twist(a=0.5), lambda: U.factorial_element(h, 0.5, 2)):
        with pytest.raises(ValueError, match=r"^from_fraction takes an int or Fraction, got 0\.5$"):
            call()


def test_a_context_needs_a_twist_direction():
    with pytest.raises(ValueError, match="at least one twist direction is required"):
        QuantizedHopf(modular(3, 1, (1,)).uea, [])


def test_build_twist_modular_series_example():
    H = modular(3, 1, (1,))
    U, ring = H.uea, H.uea.ring
    h = H.directions[0][1]
    e = H.directions[0][2]
    tw = H.build_twist(0)
    h2 = U.factorial_element(h, -1, 2)
    want = (
        TensorElement.unit(U)
        + TensorElement.of(h, e).scale(ring.mul(ring.from_int(-1), ring.t_power(1)))
        + TensorElement.of(h2, e * e).scale(ring.mul(ring.from_int(2), ring.t_power(2)))
    )
    assert tw.forward == want  # 1/2 = 2 mod 3, series stops at r < 3


def test_build_twist_cap_one_is_unit():
    H = integral_eta((1,), 1, cap=1)
    tw = H.build_twist(0)
    assert tw.forward == TensorElement.unit(H.uea)
    assert tw.inverse == TensorElement.unit(H.uea)


@pytest.mark.parametrize(
    "make",
    [
        lambda: integral_eta((1,), 1, cap=4),
        lambda: modular(3, 1, (1,)),
        lambda: modular(3, 2, (1, 1), q=1),
        lambda: char0_general(RMatrixData((1,), (1,), (1,)), cap=4),
    ],
)
def test_twist_inverse_and_counit_invariants(make):
    H = make()
    tw = H.build_twist(0)
    unit = TensorElement.unit(H.uea)
    assert tw.forward * tw.inverse == unit
    assert tw.inverse * tw.forward == unit
    one = H.uea.one()
    for slot in (0, 1):
        assert tw.forward.contract(slot).to_element() == one
        assert tw.inverse.contract(slot).to_element() == one
    for a in (1, 2):  # shifted: (Id (x) eps0) F_a = 1, while (eps0 (x) Id) F_a = prod_d (1 - e_d t)^a
        assert H.build_twist(a).forward.contract(1).to_element() == one
        left = math.prod((H.one_minus_et_power(d, a) for d in range(len(H.directions))), start=one)
        assert H.build_twist(a).forward.contract(0).to_element() == left


def test_antipode_twistors_examples():
    H = integral_eta((1,), 1, cap=1)
    pair = H.antipode_twistors(0)
    assert pair.u_elem == H.uea.one() and pair.v_elem == H.uea.one()

    H = modular(3, 1, (1,))
    U, ring = H.uea, H.uea.ring
    h, e = H.directions[0][1], H.directions[0][2]
    pair = H.antipode_twistors(0)
    h2 = U.factorial_element(h, -1, 2)
    want_v = (
        U.one()
        + (h * e).scale(ring.t_power(1))
        + (h2 * (e * e)).scale(ring.mul(ring.from_int(2), ring.t_power(2)))
    )
    assert pair.v_elem == want_v
    assert pair.v_elem * pair.u_elem == U.one()


@pytest.mark.parametrize(
    "make,shifts",
    [
        (lambda: modular(3, 1, (1,), 1), range(3)),
        (lambda: modular(5, 1, (1,), 0), range(5)),
        (lambda: modular(3, 2, (1, 1), 1), range(3)),
        (lambda: integral_eta((1, 1), 2, cap=3), range(-2, 3)),
        (lambda: char0_general(RMatrixData((1, 0), (0, 1), (1, 0)), cap=4), range(-2, 3)),
    ],
)
def test_twistors_are_the_twist_with_one_slot_antipoded(make, shifts):
    # u_a = m(S0 (x) Id)(F_a^-1) and v_a = m(Id (x) S0)(F_a), built from the twist;
    # the slot map applies the reference S0 to each monomial, then the slots multiply
    H = make()
    U = H.uea
    s0 = lambda m: reversed_word_antipode0(U, m)
    for a in shifts:
        tw, pair = H.build_twist(a), H.antipode_twistors(a)
        assert tw.inverse.map_slot(0, s0).multiply_out() == pair.u_elem, a
        assert tw.forward.map_slot(1, s0).multiply_out() == pair.v_elem, a


@pytest.mark.parametrize(
    "make,shifts",
    [
        (lambda: modular(3, 1, (1,), 0), range(3)),
        (lambda: modular(3, 1, (1,), 1), range(3)),
        (lambda: modular(3, 2, (1, 1), 1), range(3)),
        (lambda: integral_eta((1, 1), 2, cap=4), [*range(-2, 3), Fraction(1, 2)]),
        (lambda: char0_general(RMatrixData((1, 1), (0, 1), (2, 0)), cap=4), [*range(-2, 3), Fraction(1, 2)]),
    ],
)
def test_twistors_match_the_series_identities(make, shifts):
    H = make()
    for a in shifts:
        pair = H.antipode_twistors(a)
        assert (pair.u_elem, pair.v_elem) == series_twistors(H, a), a


def test_series_past_the_characteristic_has_one_error():
    # 1/p! is needed once the series runs to r = p over GF(p)
    H = modular_unrestricted(3, 1, (1,), cap=4)
    message = re.escape("1/3! does not exist in characteristic 3")
    with pytest.raises(ValueError, match=message):
        H.build_twist(0)
    with pytest.raises(ValueError, match=message):
        H.antipode_twistors(0)


# -- the two-parameter product laws -------------------------------------------------------


@pytest.mark.parametrize(
    "make,shifts",
    [
        (lambda: integral_eta((1,), 1, cap=4), range(-2, 3)),
        (lambda: integral_eta((0, 1), 2, cap=4), range(-2, 3)),
        (lambda: char0_general(RMatrixData((1,), (1,), (1,)), cap=4), range(-2, 3)),
        (lambda: modular(3, 1, (1,)), range(3)),
        (lambda: modular(5, 1, (1,), q=1), range(5)),
    ],
)
def test_forward_inverse_product_law(make, shifts):
    # forward_a * inverse_b = 1 (x) (1 - et)^(a-b)
    H = make()
    U = H.uea
    for a in shifts:
        for b in shifts:
            fa = H.build_twist(a).forward
            ib = H.build_twist(b).inverse
            want = TensorElement.of(U.one(), H.one_minus_et_power(0, a - b))
            assert fa * ib == want, (a, b)


@pytest.mark.parametrize(
    "make,shifts",
    [
        (lambda: integral_eta((1,), 1, cap=4), range(-2, 3)),
        (lambda: modular(3, 1, (1,)), range(3)),
        (lambda: modular(5, 1, (1,), q=0), range(5)),
    ],
)
def test_twistor_product_law(make, shifts):
    # v_a * u_b = (1 - et)^(-(a+b))
    H = make()
    for a in shifts:
        for b in shifts:
            va = H.antipode_twistors(a).v_elem
            ub = H.antipode_twistors(b).u_elem
            assert va * ub == H.one_minus_et_power(0, -(a + b)), (a, b)


@pytest.mark.parametrize(
    "make",
    [
        lambda: integral_eta((1,), 1, cap=4),
        lambda: modular(3, 1, (1,)),
    ],
)
def test_inverse_pair_laws(make):
    # forward_a^(-1) = inverse_a and u_a^(-1) = v_(-a)
    H = make()
    U = H.uea
    for a in (0, 1, 2):
        tw = H.build_twist(a)
        assert tw.forward * tw.inverse == TensorElement.unit(U)
        ua = H.antipode_twistors(a).u_elem
        vma = H.antipode_twistors(-a).v_elem
        assert ua * vma == U.one()
        assert vma * ua == U.one()


# -- cocycle and commutation -----------------------------------------------------------------


def _cocycle_holds(H, F):
    d0 = H.uea.coproduct0_mono
    lhs = F.pad(right=1) * F.expand_slot(0, d0)
    rhs = F.pad(left=1) * F.expand_slot(1, d0)
    return lhs == rhs


@pytest.mark.parametrize(
    "make",
    [
        lambda: char0_general(RMatrixData((1,), (1,), (1,)), cap=4),
        lambda: char0_general(RMatrixData((1, 0), (0, 1), (1, 0)), cap=4),
        lambda: integral_eta((1, 0), 2, cap=4),
        lambda: modular(3, 1, (1,)),
        lambda: modular(3, 2, (1, 0)),
        lambda: modular(3, 2, (1, 1)),
        lambda: modular(3, 2, (1, 1), q=1),
        lambda: modular(5, 1, (1,), q=1),
    ],
)
def test_cocycle_condition(make):
    H = make()
    assert _cocycle_holds(H, H.build_twist(0).forward)


def test_product_twist_order_independence():
    # basic twist factors in distinct directions commute, so the product
    # twist does not depend on the direction order
    for make in (lambda: modular(3, 2, (1, 1)), lambda: integral_eta((1, 1), 2, cap=4)):
        H = make()
        F1 = H.basic_twist_factor(0)
        F2 = H.basic_twist_factor(1)
        assert F1 * F2 == F2 * F1
        assert H.build_twist(0).forward == F2 * F1


def test_product_twist_commutation_relations():
    # the two (*) relations behind the product-twist construction, i != j
    H = modular(3, 2, (1, 1))
    d0 = H.uea.coproduct0_mono
    Fi = H.basic_twist_factor(0)
    Fj = H.basic_twist_factor(1)
    for A, B in ((Fi, Fj), (Fj, Fi)):
        lhs = B.pad(right=1) * A.expand_slot(0, d0)
        rhs = A.expand_slot(0, d0) * B.pad(right=1)
        assert lhs == rhs
        lhs = B.pad(left=1) * A.expand_slot(1, d0)
        rhs = A.expand_slot(1, d0) * B.pad(left=1)
        assert lhs == rhs


# -- (1 - et)^m ------------------------------------------------------------------------------


def test_one_minus_et_power_examples():
    H = modular(3, 1, (1,))
    U, ring = H.uea, H.uea.ring
    e = H.directions[0][2]
    assert H.one_minus_et_power(0, 0) == U.one()
    geo = U.one() + e.scale(ring.t_power(1)) + (e * e).scale(ring.t_power(2))
    assert H.one_minus_et_power(0, -1) == geo
    assert H.one_minus_et_power(0, 3) == U.one()  # (1 - et)^p = 1
    assert H.one_minus_et_power(0, -3) == U.one()


def _one_minus_et_contexts():
    """(context, direction index) pairs on which (1 - et)^m is compared with the power route."""
    yield from ((modular(3, 1, (1,), q=q), 0) for q in (0, 1))
    yield modular(5, 1, (1,), q=1), 0
    H = modular(3, 2, (1, 1), q=1)
    yield from ((H, d) for d in (0, 1))
    yield modular_unrestricted(3, 1, (1,), 3), 0
    yield integral_eta((1,), 1, 5), 0
    yield char0_general(RMatrixData((1, 1), (0, 1), (2, 0)), cap=4), 0


def test_one_minus_et_negative_powers_match_binomial_series():
    # independent route: the |m|-th power of the truncated geometric series
    for H, d in _one_minus_et_contexts():
        for m in range(-2 * H.cap, 0):
            assert H.one_minus_et_power(d, m) == one_minus_et_by_powers(H, d, m), (H.name, d, m)


def test_one_minus_et_nonnegative_powers_match_binomial_sum():
    # independent route: the m-th power of 1 - et
    for H, d in _one_minus_et_contexts():
        for m in range(0, 2 * H.cap + 1):
            assert H.one_minus_et_power(d, m) == one_minus_et_by_powers(H, d, m), (H.name, d, m)


# -- closed forms ------------------------------------------------------------------------------


def test_quantized_coproduct_modular_unit_direction_examples():
    H = modular(3, 2, (1, 0))  # k = 1
    U, alg, ring = H.uea, H.uea.alg, H.uea.ring
    h = H.directions[0][1]
    finv = H.one_minus_et_power(0, -1)
    et = H.directions[0][2].scale(ring.t_power(1))
    for i in (1, 2):
        eps_i = tuple(1 if j == i - 1 else 0 for j in range(2))
        bd = alg.basis_symbol(eps_i, i)
        x = U.gen(bd)
        want = TensorElement.of(x, U.one()) + TensorElement.of(U.one(), x)
        if i == 1:  # delta_ik correction
            want = want + TensorElement.of(h, finv * et)
        assert H.delta_basis(bd) == want, i


def test_quantized_antipode_modular_examples():
    H = modular(3, 2, (1, 0))
    U, alg, ring = H.uea, H.uea.alg, H.uea.ring
    e = H.directions[0][2]
    h1 = U.factorial_element(H.directions[0][1], 1, 1)
    for i in (1, 2):
        eps_i = tuple(1 if j == i - 1 else 0 for j in range(2))
        bd = alg.basis_symbol(eps_i, i)
        want = -U.gen(bd)
        if i == 1:
            want = want + (e * h1).scale(ring.t_power(1))
        assert H.antipode_basis(bd) == want, i
    assert not H.counit(U.gen(alg.basis_symbol((1, 0), 1)))


# -- extensions to monomials ------------------------------------------------------------

_EXTENSION_SHAPES = [lambda: modular(3, 1, (1,), 1), lambda: integral_eta((1,), 1)]


def _monomials(H, degree: int) -> list:
    """(monomial, word) for the normal monomials of degree <= degree in x^0 D1, x^1 D1, x^2 D1."""
    U = H.uea
    symbols = sorted(U.alg.basis_symbol((a,), 1) for a in range(3))
    out = []
    for d in range(degree + 1):
        for word in itertools.combinations_with_replacement(symbols, d):
            mono = monomial((bd, len(list(run))) for bd, run in itertools.groupby(word))
            if U.restricted and any(e >= U.alg.p for _, e in mono):
                continue
            assert U.normalize_word(word) == {mono: 1}
            out.append((mono, word))
    return out


@pytest.mark.parametrize("make", _EXTENSION_SHAPES)
def test_monomial_extensions_are_ordered_products_of_closed_forms(make):
    H = make()
    U = H.uea
    cases = _monomials(H, 3)
    assert len(cases) == (17 if U.restricted else 20)
    for mono, word in reversed(cases):
        delta, antipode = TensorElement.unit(U), U.one()
        for bd in word:
            delta = delta * H.delta_basis(bd)
        for bd in reversed(word):
            antipode = antipode * H.antipode_basis(bd)
        assert H.delta_mono(mono) == delta, mono
        assert H.antipode_mono(mono) == antipode, mono


@pytest.mark.parametrize("make", _EXTENSION_SHAPES)
def test_monomial_extensions_do_not_depend_on_fill_order(make):
    H1, H2 = make(), make()
    monos = [mono for mono, _ in _monomials(H1, 3)]
    rising = {m: (H1.delta_mono(m).terms, H1.antipode_mono(m).terms) for m in monos}
    falling = {m: (H2.delta_mono(m).terms, H2.antipode_mono(m).terms) for m in reversed(monos)}
    assert rising == falling


def test_monomial_extensions_of_degree_1000():
    # over U(W(1;1)) with t = 0 the symbol D = x(0)D1 is primitive with S(D) = -D, so
    # Delta(D^1000) = sum_k C(1000, k) D^k (x) D^(1000-k) and S(D^1000) = D^1000;
    # the walk back from D^1000 to the empty monomial is 1000 steps deep
    H = modular_unrestricted(3, 1, (1,), cap=1)
    D = H.uea.alg.basis_symbol((0,), 1)

    def power(k):
        return monomial(((D, k),) if k else ())

    want = {(power(k), power(1000 - k)): (c,) for k in range(1001) if (c := math.comb(1000, k) % 3)}
    assert H.delta_mono(power(1000)).terms == want
    assert H.antipode_mono(power(1000)).terms == {power(1000): (1,)}
    # slot 1 walks the same monomial by its last symbol: m(Id (x) S)(1 (x) D^1000) = S(D^1000)
    one, top = H.uea.one(), H.uea.element({power(1000): H.uea.ring.one})
    assert TensorElement.of(one, top).antipode_out(1, H.antipode_basis) == H.antipode_mono(power(1000))


def test_radford_generator_forms():
    H = modular(3, 1, (1,))
    U, alg = H.uea, H.uea.alg
    hbd = alg.basis_symbol((1,), 1)
    h = U.gen(hbd)
    f = H.one_minus_et_power(0, -1)
    assert H.delta_basis(hbd) == TensorElement.of(h, f) + TensorElement.of(U.one(), h)
    assert H.antipode_basis(hbd) == -(h * H.one_minus_et_power(0, 1))


@pytest.mark.parametrize(
    "make",
    [
        lambda: modular(3, 2, (1, 1), q=1),
        lambda: modular(5, 1, (1,), q=0),
        lambda: integral_eta((1,), 1, cap=4),
    ],
)
def test_t_zero_slice_is_standard_structure(make):
    # constant-in-t parts of the deformed maps equal the undeformed ones
    H = make()
    U = H.uea

    def slice0(terms):
        return {k: (c[0],) for k, c in terms.items() if c and c[0]}

    for bd in (U.alg.basis() if U.restricted else [U.alg.basis_symbol((a,), 1) for a in range(3)]):
        d = H.delta_basis(bd)
        assert slice0(d.terms) == slice0(U.coproduct0(U.gen(bd)).terms)
        s = H.antipode_basis(bd)
        assert slice0(s.terms) == slice0(U.antipode0(U.gen(bd)).terms)
        assert not H.counit(U.gen(bd))


def test_cap_one_degenerates_to_standard_structure():
    H = integral_eta((1,), 1, cap=1)
    U, alg = H.uea, H.uea.alg
    for alpha in ((0,), (1,), (3,)):
        bd = alg.basis_symbol(alpha, 1)
        x = U.gen(bd)
        assert H.delta_basis(bd) == U.coproduct0(x)
        assert H.antipode_basis(bd) == -x


def test_char0_rejects_non_integral_exponent():
    r = RMatrixData((1, 1), (0, 1), (2, 0))
    H = char0_general(r, cap=3)
    with pytest.raises(NonIntegralExponentError):
        H.delta_basis(H.uea.alg.basis_symbol((1, 0), 1))


def test_extensions_reject_an_element_of_another_context():
    H, other = modular(3, 1, (1,)), modular(3, 1, (1,)).uea
    x = other.gen(other.alg.basis_symbol((1,), 1))
    for extension in (H.delta, H.antipode, H.counit):
        with pytest.raises(ValueError, match="not an element of this enveloping algebra"):
            extension(x)


@pytest.mark.parametrize(
    "fields",
    [("jw", (5,), 1), ("witt", (1,), 1), ("jw", (1, 1), 1), ("jw", (1,), 2)],
    ids=["exponent-out-of-range", "witt-flavor", "two-exponents", "index-2"],
)
def test_closed_forms_reject_a_symbol_of_another_algebra(fields):
    H = modular(3, 1, (1,), q=1)
    bd = BasisDeriv(*fields)
    for closed_form in (H.antipode_basis, H.delta_basis):
        for _ in range(2):  # a rejected symbol is not memoized
            with pytest.raises(ValueError):
                closed_form(bd)
    assert not {("antipode_basis", bd), ("delta_basis", bd)} & H._memos.keys()


# -- closed form vs conjugation --------------------------------------------------------------


@pytest.mark.parametrize(
    "make,symbols",
    [
        (
            lambda: char0_general(RMatrixData((1,), (1,), (1,)), cap=4),
            [((a,), 1) for a in range(-2, 3)],
        ),
        (
            # pairing 2: h carries rational coefficients
            lambda: char0_general(RMatrixData((1, 1), (0, 1), (2, 0)), cap=4),
            [(al, i) for al in ((0, 0), (2, 0), (1, 1), (-2, 2), (4, 0)) for i in (1, 2)],
        ),
        (
            lambda: integral_eta((1, 0), 2, cap=4),
            [(al, i) for al in itertools.product(range(3), repeat=2) for i in (1, 2)],
        ),
        (lambda: modular(3, 1, (1,)), None),
        (lambda: modular(3, 1, (1,), q=1), None),
        (lambda: modular(5, 1, (1,)), None),
        (lambda: modular(3, 2, (0, 1)), None),
        (lambda: modular(3, 2, (1, 1), q=1), None),
        (lambda: modular_unrestricted(3, 1, (1,), cap=3), None),
    ],
)
def test_closed_form_equals_conjugation_on_generators(make, symbols):
    H = make()
    alg, U = H.uea.alg, H.uea
    syms = alg.basis() if symbols is None else [alg.basis_symbol(a, i) for a, i in symbols]
    for bd in syms:
        dc, sc = H.conjugation_oracle(U.gen(bd))
        assert dc == H.delta_basis(bd), bd
        assert sc == H.antipode_basis(bd), bd


def test_closed_form_matches_conjugation_on_powers():
    # deformed maps extend multiplicatively / anti-multiplicatively to powers
    H = integral_eta((1,), 1, cap=4)
    U, alg = H.uea, H.uea.alg
    for alpha in ((0,), (1,), (2,)):
        x = U.gen(alg.basis_symbol(alpha, 1))
        for s in (2, 3):
            xs = U.power(x, s)
            dc, sc = H.conjugation_oracle(xs)
            assert dc == H.delta(xs), (alpha, s)
            assert sc == H.antipode(xs), (alpha, s)


def test_twist_coefficients_invariants():
    from wittquant.twist import basic_coefficient

    C = basic_coefficient(2, 1, 3)
    assert C.denominator == 1 and C == 0  # A_3 = B_3 = 1
    assert basic_coefficient(3, 0, 2) == 6  # (3 * 4) / 2!
    assert basic_coefficient(1, 1, 1, p=3) == 1  # the unit-exponent correction: Abar - Bbar = 0 - 2

    # the integer forms against the rational definition
    # C_l = A_l - d A_{l-1}, A_m = (1/m!) prod_{j<m} (a - d + j), Cbar_l = l! binom(a + l, l) C_l mod p
    def A(a, d, m):
        return Fraction(math.prod(range(a - d, a - d + m)), math.factorial(m))

    for a, d, ell in itertools.product(range(-6, 9), (0, 1), range(10)):
        C = A(a, d, ell) - (d * A(a, d, ell - 1) if ell else 0)
        assert basic_coefficient(a, d, ell) == C and type(basic_coefficient(a, d, ell)) is Fraction
        for p in (3, 5, 7):
            lifted = math.prod(range(a + 1, a + ell + 1)) * C  # l! binom(a + l, l) = (a + 1) ... (a + l)
            assert basic_coefficient(a, d, ell, p) == int(lifted) % p, (a, d, ell, p)


def test_divided_ad_power_matches_modular_coefficients():
    # d^(l)(x^(a)D_i) carries the same coefficients the closed form uses
    H = modular(3, 1, (1,))
    U, alg, ring = H.uea, H.uea.alg, H.uea.ring
    e = H.directions[0].e
    for bd in alg.basis():
        for ell in range(3):
            got = U.ad_divided_power(e, ell, U.gen(bd))
            assert got == H.raised(bd, (ell,)), (bd, ell)


@pytest.mark.parametrize("n, eta", [(1, (1,)), (2, (1, 0))])
def test_raising_past_the_characteristic_is_zero_below_the_series_cap(n, eta):
    # the closed forms bound each raising order by the cap alone: over U(W(n;1)) with
    # a series cap 6 > p = 3, an order l >= p leaves W(n;1)'s range, so the term is 0
    H = modular_unrestricted(3, n, eta, 6)
    for bd in H.uea.alg.basis():
        for ell in itertools.product(range(6), repeat=len(H.directions)):
            if max(ell) >= 3:
                assert not H.raised(bd, ell), (bd, ell)


@pytest.mark.parametrize("ell", [(), (1, 1), (0, 0, 0)])
def test_raised_needs_one_entry_per_direction(ell):
    H = modular(3, 1, (1,), 1)
    with pytest.raises(ValueError, match="one entry per direction, 1 in all"):
        H.raised(H.uea.alg.basis_symbol((0,), 1), ell)
    H2 = modular(3, 2, (1, 1), 1)
    with pytest.raises(ValueError, match="one entry per direction, 2 in all"):
        H2.raised(H2.uea.alg.basis_symbol((0, 0), 1), ell[:1])
