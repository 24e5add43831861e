import copy
import itertools
import pickle
import random
import time
from fractions import Fraction

import pytest

from wittquant.liealg import (
    JW,
    WITT,
    WPLUS,
    BasisDeriv,
    JacobsonWitt,
    LieElement,
    RMatrixData,
    WittAlgebra,
    WPlusAlgebra,
    basic_pair,
    pairing,
    witt_deriv,
)
from wittquant.grammar import parse_element
from wittquant.rings import QQ, ReductionError, gf
from wittquant.twist import modular
from wittquant.uea import EnvelopingAlgebra, UEAElement, monomial, reduce_element_mod_p
from wittquant.verify import check_hopf_axioms

from oracles import element_matrix, mat_commutator, mat_pow, op_matrix, wplus_to_witt


def bracket(alg, a: BasisDeriv, b: BasisDeriv, ring=QQ) -> LieElement:
    """[a, b] of two basis symbols through LieElement.bracket."""
    return LieElement.from_basis(alg, ring, a).bracket(LieElement.from_basis(alg, ring, b))


def p_power_element(alg: JacobsonWitt, b: BasisDeriv) -> LieElement:
    """The restricted p-power of a basis symbol (JacobsonWitt.p_power) as a LieElement over GF(p)."""
    target = alg.p_power(b)
    return LieElement(alg, gf(alg.p), {target: 1} if target is not None else {})


def test_pairing_examples():
    assert pairing((2, 1), (3, -1)) == 5
    assert pairing((0, 0, 0), (4, -7, 2)) == 0
    assert pairing((1, 0), (1, 0)) == 1
    assert pairing((Fraction(1, 2),), (3,)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        pairing((1,), (1, 2))


def test_bracket_witt_examples():
    W = WittAlgebra(1)
    a = W.basis_symbol((1,), 1)
    b = W.basis_symbol((2,), 1)
    assert bracket(W, a, b).terms == {BasisDeriv(WITT, (3,), 1): Fraction(1)}
    assert not bracket(W, a, a)

    # [d0, x^gamma d0'] = <d0, gamma> x^gamma d0'
    W2 = WittAlgebra(2)
    d0, d0p, gamma = (2, 1), (1, -1), (1, 1)
    lhs = witt_deriv(W2, QQ, (0, 0), d0).bracket(witt_deriv(W2, QQ, gamma, d0p))
    assert lhs == witt_deriv(W2, QQ, gamma, d0p).scale(pairing(d0, gamma))


def test_bracket_wplus_examples():
    W = WPlusAlgebra(1)
    h = W.basis_symbol((1,), 1)
    e = W.basis_symbol((2,), 1)
    assert bracket(W, h, e).terms == {BasisDeriv(WPLUS, (2,), 1): Fraction(1)}

    W2 = WPlusAlgebra(2)
    assert not bracket(W2, W2.basis_symbol((0, 0), 1), W2.basis_symbol((0, 0), 2))

    got = bracket(W2, W2.basis_symbol((1, 0), 2), W2.basis_symbol((0, 1), 1))
    assert got.terms == {
        BasisDeriv(WPLUS, (1, 0), 1): Fraction(1),
        BasisDeriv(WPLUS, (0, 1), 2): Fraction(-1),
    }


def test_bracket_wplus_matches_witt_identification():
    # oracle: map both sides through x^a D_i -> x^(a - e_i) d_i
    for n in (1, 2):
        WP, W = WPlusAlgebra(n), WittAlgebra(n)
        alphas = [a for a in itertools.product(range(3), repeat=n) if sum(a) <= 3]
        syms = [WP.basis_symbol(a, i) for a in alphas for i in range(1, n + 1)]
        for a in syms:
            for b in syms:
                direct = wplus_to_witt(bracket(WP, a, b), W)
                via = wplus_to_witt(LieElement.from_basis(WP, QQ, a), W).bracket(
                    wplus_to_witt(LieElement.from_basis(WP, QQ, b), W)
                )
                assert direct == via, (a, b)


def test_bracket_jw_examples():
    alg = JacobsonWitt(1, 3)
    h, e = basic_pair(alg, gf(3), 1)
    assert h.bracket(e) == e  # [h, e] = e with e = 2 x^(2) D_1

    assert not bracket(alg, alg.basis_symbol((2,), 1), alg.basis_symbol((2,), 1), gf(3))

    got = bracket(alg, alg.basis_symbol((0,), 1), alg.basis_symbol((2,), 1), gf(3))
    assert got.terms == {BasisDeriv(JW, (1,), 1): 1}


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_bracket_jw_matches_matrix_commutator_exhaustively(p, n):
    alg = JacobsonWitt(n, p)
    mats = {b: op_matrix(alg, b) for b in alg.basis()}
    for a in alg.basis():
        for b in alg.basis():
            want = mat_commutator(mats[a], mats[b], p)
            got = element_matrix(bracket(alg, a, b, gf(p)))
            assert got == want, (a, b)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_p_power_matches_matrix_power_exhaustively(p, n):
    alg = JacobsonWitt(n, p)
    for b in alg.basis():
        want = mat_pow(op_matrix(alg, b), p, p)
        got = element_matrix(p_power_element(alg, b))
        assert got == want, b


def test_p_power_examples():
    alg = JacobsonWitt(1, 3)
    H = alg.basis_symbol((1,), 1)
    assert alg.p_power(H) == H
    assert alg.p_power(alg.basis_symbol((2,), 1)) is None
    assert alg.p_power(alg.basis_symbol((0,), 1)) is None


def test_p_power_rejects_a_foreign_or_out_of_range_symbol_every_time():
    alg, wider = JacobsonWitt(1, 3), JacobsonWitt(1, 5)
    inside = BasisDeriv(JW, (4,), 1)  # in W(1;1) at p = 5, past tau at p = 3
    assert wider.p_power(inside) is None
    foreign = [inside, BasisDeriv(WPLUS, (1,), 1), BasisDeriv(JW, (1, 0), 1), BasisDeriv(JW, (1,), 2)]
    for b in foreign * 2:  # a second ask is not answered from what the first stored
        with pytest.raises(ValueError):
            alg.p_power(b)
    H = alg.basis_symbol((1,), 1)
    assert [alg.p_power(H), alg.p_power(H)] == [H, H]


def _jacobi_sweep(elements):
    for x in elements:
        for y in elements:
            assert not x.bracket(y) + y.bracket(x), (x, y)
    for x in elements:
        for y in elements:
            for z in elements:
                s = x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y))
                assert not s, (x, y, z)


def test_antisymmetry_jacobi_witt():
    W = WittAlgebra(1)
    elems = [LieElement.from_basis(W, QQ, W.basis_symbol((a,), 1)) for a in range(-4, 5)]
    _jacobi_sweep(elems)


def test_antisymmetry_jacobi_wplus_n2():
    W = WPlusAlgebra(2)
    alphas = [a for a in itertools.product(range(5), repeat=2) if sum(a) <= 4]
    elems = [
        LieElement.from_basis(W, QQ, W.basis_symbol(a, i)) for a in alphas for i in (1, 2)
    ]
    _jacobi_sweep(elems)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_antisymmetry_jacobi_jw(p, n):
    alg = JacobsonWitt(n, p)
    ring = gf(p)
    elems = [LieElement.from_basis(alg, ring, b) for b in alg.basis()]
    _jacobi_sweep(elems)


def reduce_lifted(x: LieElement, p: int) -> UEAElement:
    """reduce_element_mod_p of a W+ element lifted into U(W+) over QQ, in U(W(n;1)) over GF(p)."""
    target = EnvelopingAlgebra(JacobsonWitt(x.alg.n, p), gf(p))
    return reduce_element_mod_p(EnvelopingAlgebra(x.alg, QQ).lift(x), target)


def test_reduce_examples():
    W = WPlusAlgebra(1)
    x = LieElement.from_basis(W, QQ, W.basis_symbol((2,), 1)).scale(Fraction(1, 2))
    assert reduce_lifted(x, 3).terms == {monomial(((BasisDeriv(JW, (2,), 1), 1),)): 1}

    y = LieElement.from_basis(W, QQ, W.basis_symbol((3,), 1))
    assert not reduce_lifted(y, 3)

    z = LieElement.from_basis(W, QQ, W.basis_symbol((2,), 1))
    assert reduce_lifted(z, 3).terms == {monomial(((BasisDeriv(JW, (2,), 1), 1),)): 2}


def test_reduce_rejects_p_divisible_denominator():
    W = WPlusAlgebra(1)
    x = LieElement.from_basis(W, QQ, W.basis_symbol((1,), 1)).scale(Fraction(1, 3))
    with pytest.raises(ReductionError):
        reduce_lifted(x, 3)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_reduce_is_lie_homomorphism(p, n):
    # the commuting square fixing the jw structure constants:
    # reduce(XY - YX) == rX rY - rY rX for all alpha, beta <= tau + 1
    WU = EnvelopingAlgebra(WPlusAlgebra(n), QQ)
    MU = EnvelopingAlgebra(JacobsonWitt(n, p), gf(p))
    alphas = list(itertools.product(range(p + 1), repeat=n))
    gens = [WU.gen(WU.alg.basis_symbol(a, i)) for a in alphas for i in range(1, n + 1)]
    images = [reduce_element_mod_p(X, MU) for X in gens]
    for X, rX in zip(gens, images):
        for Y, rY in zip(gens, images):
            assert reduce_element_mod_p(X * Y - Y * X, MU) == rX * rY - rY * rX, (X, Y)


def test_rmatrix_validation():
    r = RMatrixData(d0=(1,), d0p=(1,), gamma=(1,))
    assert r.pairing_value == 1
    r2 = RMatrixData(d0=(1, 1), d0p=(0, 1), gamma=(2, 0))
    assert r2.pairing_value == 2

    # [h, e] = e holds for every datum with <d0, gamma> != 0, so the constructor does not check it
    rng = random.Random(0)
    swept = 0
    while swept < 200:
        n = rng.randint(1, 3)
        d0, d0p, gamma = ([rng.randint(-3, 3) for _ in range(n)] for _ in range(3))
        if not pairing(d0, gamma):
            continue
        rm = RMatrixData(d0, d0p, gamma)
        W = WittAlgebra(n)
        h, e = rm.h_element(W, QQ), rm.e_element(W, QQ)
        assert h.bracket(e) == e, (d0, d0p, gamma)
        swept += 1

    with pytest.raises(ValueError, match="nonzero"):
        RMatrixData(d0=(1,), d0p=(1,), gamma=(0,))  # <d0, gamma> = 0
    for lengths, args in (("2, 3, 2", ((1, 0), (0, 1, 1), (1, 0))), ("2, 1, 2", ((1, 0), (1,), (1, 0)))):
        with pytest.raises(ValueError, match=f"got lengths {lengths}$"):
            RMatrixData(*args)
    with pytest.raises(ValueError, match="got lengths 0, 0, 0$"):
        RMatrixData((), (), ())
    with pytest.raises(ValueError, match="gamma entries must be integers, got 1/2$"):
        RMatrixData(d0=(1,), d0p=(1,), gamma=(Fraction(1, 2),))  # no longer truncated to 0
    assert RMatrixData(d0=(1,), d0p=(1,), gamma=(Fraction(4, 2),)).gamma == (2,)


def test_basic_pairs_satisfy_he_relation_all_flavors():
    for n in (1, 2):
        WP = WPlusAlgebra(n)
        for k in range(1, n + 1):
            h, e = basic_pair(WP, QQ, k)
            assert h.bracket(e) == e
    for p, n in ((3, 1), (5, 1), (3, 2)):
        alg = JacobsonWitt(n, p)
        for k in range(1, n + 1):
            h, e = basic_pair(alg, gf(p), k)
            assert h.bracket(e) == e
    # witt flavor via r-matrix data
    r = RMatrixData(d0=(1, 0), d0p=(0, 1), gamma=(1, 0))
    W = WittAlgebra(2)
    h, e = r.h_element(W, QQ), r.e_element(W, QQ)
    assert h.bracket(e) == e


def test_jacobson_witt_of_huge_n_constructs_quickly():
    # nothing of length n is built at construction
    start = time.perf_counter()
    alg = JacobsonWitt(10**9, 3)
    assert time.perf_counter() - start < 0.1
    assert (alg.n, alg.p) == (10**9, 3)


def test_jw_basis_enumeration_sizes():
    assert len(JacobsonWitt(1, 3).basis()) == 3
    assert len(JacobsonWitt(1, 5).basis()) == 5
    assert len(JacobsonWitt(2, 3).basis()) == 18


def test_scale_prunes_zero_divisor_products():
    from wittquant.rings import t_quotient

    ring = t_quotient(3, 0)
    alg = JacobsonWitt(1, 3)
    x = LieElement.from_basis(alg, ring, alg.basis_symbol((1,), 1)).scale(ring.t_power(2))
    assert not x.scale(ring.t_power(1)).terms  # t^2 * t = q*t^...| q=0 -> 0


def test_jw_range_validation():
    alg = JacobsonWitt(1, 3)
    with pytest.raises(ValueError):
        alg.basis_symbol((3,), 1)
    with pytest.raises(ValueError):
        alg.basis_symbol((1,), 2)


def test_every_way_of_making_a_symbol_returns_the_one_instance():
    alg = JacobsonWitt(2, 3)
    b = BasisDeriv(JW, (1, 0), 2)
    U = EnvelopingAlgebra(alg, gf(3))
    (parsed,) = parse_element("x(1,0)D2", U).terms
    wplus_x = EnvelopingAlgebra(WPlusAlgebra(2), QQ).gen(BasisDeriv(WPLUS, (1, 0), 2))
    made = {
        "constructor": BasisDeriv(JW, tuple([1, 0]), 2),
        "_replace": BasisDeriv(JW, (0, 0), 2)._replace(alpha=(1, 0)),
        "_make": BasisDeriv._make([JW, (1, 0), 2]),
        "copy": copy.copy(b),
        "deepcopy": copy.deepcopy(b),
        **{f"pickle-{k}": pickle.loads(pickle.dumps(b, k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)},
        "basis_symbol": alg.basis_symbol([1, 0], 2),
        "basis": next(s for s in alg.basis() if s == b),
        "bracket": next(iter(alg.bracket_basis(BasisDeriv(JW, (1, 0), 1), b))),
        "reduce_element_mod_p": next(iter(reduce_element_mod_p(wplus_x, U).terms))[0][0],
        "parse_element": parsed[0][0],
    }
    assert {how: sym for how, sym in made.items() if sym is not b} == {}
    assert alg.p_power(BasisDeriv(JW, (0, 1), 2)) is alg.basis_symbol((0, 1), 2)
    # the named tuple's order, equality and repr
    assert b == (JW, (1, 0), 2) and b.alpha == (1, 0) and b.i == 2
    assert repr(b) == "BasisDeriv(flavor='jw', alpha=(1, 0), i=2)"
    assert sorted(alg.basis()) == alg.basis() == sorted(alg.basis(), key=tuple)


def test_engine_caches_hold_only_canonical_symbols():
    hopf = modular(3, 1, (1,), 1)
    assert check_hopf_axioms(hopf).passed
    U = hopf.uea
    monos = []
    for (b, mono), out in U._insert_cache.items():
        monos += [((b, 1),), mono, *out]
    for m2, row in U._mono_mul_rows.items():
        monos.append(m2)
        for m1, out in row.items():
            monos += [m1, *out]
    symbols = [b for mono in monos for b, _ in mono]
    assert symbols and all(type(b) is BasisDeriv and BasisDeriv(*b) is b for b in symbols)
