import collections
import copy
import gc
import itertools
import operator
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from oracles import (
    binary_power,
    binomial_coproduct0,
    keywise_multiply_out,
    mat_mul,
    mono_of_sorted_word,
    op_matrix,
    pairwise_tensor_product,
    reversed_word_antipode,
    reversed_word_antipode0,
    rewrite_normalize,
)

from wittquant.liealg import (
    BasisDeriv,
    JacobsonWitt,
    LieElement,
    RMatrixData,
    WittAlgebra,
    WPlusAlgebra,
    basic_pair,
)
from wittquant.rings import QQ, TQuotientRing, TSeriesRing, accumulate, binom_int, gf, t_quotient, t_series
from wittquant import verify
from wittquant.twist import char0_general, integral_eta, modular
from wittquant.uea import EnvelopingAlgebra, TensorElement, UEAElement, monomial
from wittquant.verify import Char0Config, check_hopf_axioms, check_twist_laws


# -- fixtures ---------------------------------------------------------------------


def u31():
    alg = JacobsonWitt(1, 3)
    return EnvelopingAlgebra(alg, gf(3), restricted=True)


def uw_plus(n=1):
    return EnvelopingAlgebra(WPlusAlgebra(n), QQ)


def uwitt(n=1):
    return EnvelopingAlgebra(WittAlgebra(n), QQ)


# -- normalization ------------------------------------------------------------------


def test_pbw_normalize_examples_char0():
    U = uw_plus()
    h, e = basic_pair(U.alg, QQ, 1)
    hg, eg = next(iter(h.terms)), next(iter(e.terms))
    # e then h rewrites to h*e - e since [e, h] = -e
    got = U.pbw_normalize([eg, hg])
    assert got == U.gen(hg) * U.gen(eg) - U.gen(eg)
    assert U.pbw_normalize([hg]) == U.gen(hg)


def test_pbw_normalize_restricted_cube():
    U = u31()
    H = U.alg.basis_symbol((1,), 1)
    assert U.pbw_normalize([H, H, H]) == U.gen(H)
    D = U.alg.basis_symbol((0,), 1)
    assert not U.pbw_normalize([D, D, D])


def test_uea_mul_examples():
    U = uw_plus()
    h, e = basic_pair(U.alg, QQ, 1)
    H, E = U.lift(h), U.lift(e)
    assert U.mul(H, U.one()) == H
    assert U.mul(E, H) == H * E - E
    assert (H * E).terms  # already ordered, single monomial
    assert len((H * E).terms) == 1


def _random_word(rng, pool, max_len=5):
    return tuple(rng.choice(pool) for _ in range(rng.randint(1, max_len)))


def _random_normalize(uea, word, rng):
    """Normalize by randomly chosen redexes; independent strategy oracle."""
    state = {tuple(word): 1}
    result = {}
    p = uea.alg.p if uea.restricted else None
    while state:
        w = rng.choice(sorted(state))
        c = state.pop(w)
        if not c:
            continue
        redexes = [("swap", i) for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if p is not None:
            run = 1
            for i in range(1, len(w) + 1):
                if i < len(w) and w[i] == w[i - 1]:
                    run += 1
                else:
                    if run >= p:
                        redexes.append(("cap", i - run))
                    run = 1
        if not redexes:
            m = mono_of_sorted_word(uea, w)
            if m is not None:
                result[m] = result.get(m, 0) + c
            continue
        kind, i = rng.choice(redexes)
        if kind == "swap":
            sw = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
            state[sw] = state.get(sw, 0) + c
            for bd, k in uea.alg.bracket_basis(w[i], w[i + 1]).items():
                w2 = w[:i] + (bd,) + w[i + 2 :]
                state[w2] = state.get(w2, 0) + c * k
        else:
            sub = uea.alg.p_power(w[i])
            if sub is not None:
                w2 = w[:i] + (sub,) + w[i + p :]
                state[w2] = state.get(w2, 0) + c
    return result


def _fold(uea, int_terms):
    rint = uea.ring.from_int
    return {m: rint(c) for m, c in int_terms.items() if rint(c)}


@pytest.mark.parametrize(
    "make,pool_kind,seed",
    [
        (u31, "jw", 11),
        (lambda: uw_plus(2), "wplus", 12),
        (uwitt, "witt", 13),
    ],
)
def test_confluence_random_strategies(make, pool_kind, seed):
    U = make()
    rng = random.Random(seed)
    if pool_kind == "jw":
        pool = U.alg.basis()
    elif pool_kind == "wplus":
        alphas = [a for a in itertools.product(range(3), repeat=U.alg.n) if sum(a) <= 2]
        pool = [U.alg.basis_symbol(a, i) for a in alphas for i in range(1, U.alg.n + 1)]
    else:
        pool = [U.alg.basis_symbol((a,), 1) for a in range(-2, 3)]
    for _ in range(200):
        word = _random_word(rng, pool)
        want = _fold(U, U.normalize_word(word))
        got = _fold(U, _random_normalize(U, word, rng))
        assert got == want, word


def _pool_uea(kind):
    """A context and its symbol pool for the normal-form property tests."""
    if kind == "u(W(2;1)) p=3":
        U = EnvelopingAlgebra(JacobsonWitt(2, 3), gf(3), restricted=True)
    elif kind in ("u(W(1;1)) p=5", "u(W(1;1)) p=7"):
        p = int(kind[-1])
        U = EnvelopingAlgebra(JacobsonWitt(1, p), gf(p), restricted=True)
    elif kind == "U(W(2;1)) GF(3)":
        U = EnvelopingAlgebra(JacobsonWitt(2, 3), gf(3))
    elif kind == "U(W(1)) QQ":
        U = uwitt()
        return U, [U.alg.basis_symbol((a,), 1) for a in range(-2, 3)]
    else:
        U = uw_plus(2)
        alphas = [a for a in itertools.product(range(3), repeat=2) if sum(a) <= 2]
        return U, [U.alg.basis_symbol(a, i) for a in alphas for i in (1, 2)]
    return U, U.alg.basis()


def _random_mono(U, rng, pool, degree=5):
    """A random normal monomial of total degree at most ``degree``."""
    top = U.alg.p - 1 if U.restricted else degree
    mono = []
    for g in sorted(rng.sample(pool, rng.randint(0, 3))):
        if degree:
            e = rng.randint(1, min(top, degree))
            mono.append((g, e))
            degree -= e
    return monomial(mono)


def _expand(mono):
    return tuple(b for b, e in mono for _ in range(e))


@pytest.mark.parametrize(
    "kind,seed",
    [
        ("u(W(2;1)) p=3", 61),
        ("u(W(1;1)) p=5", 62),
        ("u(W(1;1)) p=7", 63),
        ("U(W(2;1)) GF(3)", 64),
        ("U(W(1)) QQ", 65),
        ("U(W+(2)) QQ", 66),
    ],
)
def test_left_insertion_matches_rewriting_oracle(kind, seed):
    U, pool = _pool_uea(kind)
    rng = random.Random(seed)
    for _ in range(60):
        word = _random_word(rng, pool, max_len=6)
        assert _fold(U, U.normalize_word(word)) == _fold(U, rewrite_normalize(U, word)), word
        m1, m2 = _random_mono(U, rng, pool), _random_mono(U, rng, pool)
        want = _fold(U, rewrite_normalize(U, _expand(m1) + _expand(m2)))
        assert _fold(U, U.mono_mul(m1, m2)) == want, (m1, m2)


@pytest.mark.parametrize("p", [3, 5])
def test_mono_mul_of_meeting_runs_matches_rewriting_oracle(p):
    # m1 ending at or below the first symbol of m2: runs that meet, fold, die or are already ordered
    u = EnvelopingAlgebra(JacobsonWitt(1, p), gf(p), restricted=True)
    U = EnvelopingAlgebra(JacobsonWitt(1, p), gf(p))
    D, H, X = (u.alg.basis_symbol((a,), 1) for a in range(3))
    assert D < H < X
    cases = [
        (u, ((H, p - 1),), ((H, 1),)),  # H^p = H
        (u, ((D, 1), (H, p - 1)), ((H, p - 1), (X, 1))),
        (u, ((X, p - 1),), ((X, 1),)),  # X^p = 0 off the torus
        (u, ((D, 1), (X, 1)), ((X, p - 1),)),
        (u, ((D, 2), (H, 1)), ((X, 1),)),  # already in normal order
        (U, ((D, 2 * p),), ((D, 1),)),  # D^k D in U(W(1;1)), nothing folds
        (U, ((H, p - 1),), ((H, 2), (X, p))),
        (U, ((D, 1),), ((H, 1), (X, 2))),
    ]
    for uea, m1, m2 in cases:
        m1, m2 = monomial(m1), monomial(m2)
        want = _fold(uea, rewrite_normalize(uea, _expand(m1) + _expand(m2)))
        assert _fold(uea, uea.mono_mul(m1, m2)) == want, (m1, m2)


@pytest.mark.parametrize(
    "kind,seed",
    [
        ("u(W(2;1)) p=3", 71),
        ("u(W(1;1)) p=5", 72),
        ("u(W(1;1)) p=7", 73),
        ("U(W(2;1)) GF(3)", 74),
        ("U(W(1)) QQ", 75),
        ("U(W+(2)) QQ", 76),
    ],
)
def test_mono_mul_rows_do_not_depend_on_fill_order(kind, seed):
    # a product is built from whichever suffix of its left factor is cached in
    # its row; every fill order must give the same product, and cached dicts are
    # shared with callers, so none may change after it is first returned
    U, pool = _pool_uea(kind)
    V, _ = _pool_uea(kind)
    rng = random.Random(seed)
    pairs = [(_random_mono(U, rng, pool), _random_mono(U, rng, pool)) for _ in range(60)]
    returned = []

    def product(uea, m1, m2):
        got = uea.mono_mul(m1, m2)
        returned.append((got, copy.deepcopy(got)))
        return got

    forward = {pair: product(U, *pair) for pair in pairs}
    for _ in range(60):
        product(V, _random_mono(V, rng, pool), rng.choice(pairs)[1])
        product(V, _random_mono(V, rng, pool), _random_mono(V, rng, pool))
    shuffled = list(forward)
    rng.shuffle(shuffled)
    assert {pair: product(V, *pair) for pair in shuffled} == forward
    assert all(got == snapshot for got, snapshot in returned)
    for (m1, m2), got in forward.items():
        word = _expand(m1) + _expand(m2)
        if len(word) <= 5:
            assert _fold(U, got) == _fold(U, rewrite_normalize(U, word)), (m1, m2)


def test_mono_mul_extends_a_cached_suffix_in_one_insertion_step():
    # D^1000 D walks back to the cached D^999 D and inserts one D, where
    # inserting every symbol of D^1000 into D took 1000 insertion steps
    U = EnvelopingAlgebra(JacobsonWitt(1, 3), gf(3))
    D = U.alg.basis_symbol((0,), 1)
    U.mono_mul(monomial(((D, 999),)), monomial(((D, 1),)))
    calls = []
    left_multiply = U._left_multiply

    def counted(symbols, terms):
        calls.append(tuple(symbols))
        return left_multiply(calls[-1], terms)

    U._left_multiply = counted
    assert U.mono_mul(monomial(((D, 1000),)), monomial(((D, 1),))) == {monomial(((D, 1001),)): 1}
    assert calls == [(D,)]


def test_left_insertion_long_reversed_words():
    U, pool = _pool_uea("u(W(1;1)) p=5")
    p = U.alg.p
    word = tuple(reversed(pool)) * 2
    assert _fold(U, U.normalize_word(word)) == _fold(U, rewrite_normalize(U, word))

    # (p-1) copies take the rewriting oracle minutes; the action on O(1;1), a
    # restricted representation, checks the normal form independently
    N = p ** U.alg.n

    def rho(w):
        out = [[int(i == j) for j in range(N)] for i in range(N)]
        for b in w:
            out = mat_mul(out, op_matrix(U.alg, b), p)
        return out

    word = tuple(reversed(pool)) * (p - 1)
    got = [[0] * N for _ in range(N)]
    for m, c in U.normalize_word(word).items():
        got = [[(g + c * x) % p for g, x in zip(rg, rx)] for rg, rx in zip(got, rho(_expand(m)))]
    assert got == rho(word)


# -- standard Hopf structure ----------------------------------------------------------


def test_coproduct0_examples():
    U = uw_plus()
    h, _ = basic_pair(U.alg, QQ, 1)
    H = U.lift(h)
    assert U.coproduct0(H) == TensorElement.of(H, U.one()) + TensorElement.of(U.one(), H)
    assert U.coproduct0(U.one()) == TensorElement.unit(U)

    h2 = U.factorial_element(H, -1, 2)  # h(h-1)
    want = (
        TensorElement.of(h2, U.one())
        + TensorElement.of(H, H).scale_int(2)
        + TensorElement.of(U.one(), h2)
    )
    assert U.coproduct0(h2) == want


def counit(x: UEAElement):
    """eps0(x), the one counit, read off through TensorElement.contract."""
    return TensorElement.of(x).contract(0).terms.get((), x.ring.zero)


def test_antipode0_counit0_examples():
    U = u31()
    g = U.gen(U.alg.basis_symbol((2,), 1))
    s, eps = U.antipode0(g), counit(g)
    assert s == -g and not eps

    UW = uw_plus()
    h, e = basic_pair(UW.alg, QQ, 1)
    H, E = UW.lift(h), UW.lift(e)
    s, eps = UW.antipode0(H * E), counit(H * E)
    assert s == E * H and s == H * E - E and not eps

    s, eps = UW.antipode0(UW.one()), counit(UW.one())
    assert s == UW.one() and eps == Fraction(1)


def _oracle_monomials(kind):
    """A context and the monomials its Delta0 and S0 are checked on."""
    if kind == "u(W(1;1)) p=3":
        U = u31()
        return U, list(U.enumerate_restricted_basis())
    if kind == "U(W+(2)) QQ":
        U, pool = _pool_uea(kind)
    else:
        U = EnvelopingAlgebra(WittAlgebra(2), t_series(QQ, 3))
        pool = [U.alg.basis_symbol(a, i) for a in itertools.product(range(-1, 2), repeat=2) for i in (1, 2)]
    rng = random.Random(len(kind))
    return U, [_random_mono(U, rng, pool) for _ in range(100)]


@pytest.mark.parametrize("kind", ["u(W(1;1)) p=3", "U(W+(2)) QQ", "U(W(2)) t_series(QQ,3)"])
def test_coproduct0_and_antipode0_match_the_closed_rules(kind):
    # the one-factor walk and the Horner kernel against the binomial split and the
    # reversed, straightened word
    U, monos = _oracle_monomials(kind)
    for mono in monos:
        assert U.coproduct0_mono(mono) == binomial_coproduct0(U, mono), mono
        assert U.antipode0(U.element({mono: U.ring.one})) == reversed_word_antipode0(U, mono), mono


def _random_element(uea, rng, pool, nterms=3, max_exp=2):
    terms = {}
    for _ in range(nterms):
        gens = sorted(rng.sample(pool, rng.randint(1, 2)))
        mono = tuple((g, rng.randint(1, max_exp)) for g in gens)
        terms[mono] = uea.ring.from_int(rng.randint(1, 4))
    return uea.element(terms)


@pytest.mark.parametrize("cfg,seed", [("u31", 21), ("u51", 22), ("wplus", 23)])
def test_coassoc_counit_antipode_on_random_elements(cfg, seed):
    if cfg == "u31":
        U = u31()
        pool = U.alg.basis()
    elif cfg == "u51":
        alg = JacobsonWitt(1, 5)
        U = EnvelopingAlgebra(alg, gf(5), restricted=True)
        pool = alg.basis()
    else:
        U = uw_plus(2)
        alphas = [a for a in itertools.product(range(3), repeat=2) if sum(a) <= 2]
        pool = [U.alg.basis_symbol(a, i) for a in alphas for i in (1, 2)]
    rng = random.Random(seed)
    for _ in range(50):
        x = _random_element(U, rng, pool)
        d = U.coproduct0(x)
        lhs = d.expand_slot(0, U.coproduct0_mono)
        rhs = d.expand_slot(1, U.coproduct0_mono)
        assert lhs == rhs
        # counit law
        assert d.contract(0).to_element() == x
        assert d.contract(1).to_element() == x
        # antipode axiom, with the reference S0 on each monomial of the slot
        want = U.one().scale(counit(x))
        s0 = lambda m: reversed_word_antipode0(U, m)
        assert d.map_slot(0, s0).multiply_out() == want
        assert d.map_slot(1, s0).multiply_out() == want


_ANTIPODE_SETTINGS = [("u(W(2;1))", 31), ("U(W(1))", 32), ("U(W+(2))", 33)]


def _antipode_setting(setting):
    """A quantization and a pool of its basis symbols: u(W(2;1)) over GF(3)[t]/(t^3 - t),
    U(W(1)) over QQ[t]/t^4, or the integral form of U(W+(2))."""
    if setting == "u(W(2;1))":
        hopf = modular(3, 2, (1, 1), q=1)
        return hopf, hopf.uea.alg.basis()
    if setting == "U(W(1))":
        hopf = char0_general(RMatrixData((1,), (1,), (1,)), cap=4)
        return hopf, [hopf.uea.alg.basis_symbol((a,), 1) for a in range(-1, 3)]
    hopf = integral_eta((1, 1), 2, cap=4)
    alphas = [a for a in itertools.product(range(3), repeat=2) if sum(a) <= 2]
    return hopf, [hopf.uea.alg.basis_symbol(a, i) for a in alphas for i in (1, 2)]


@pytest.mark.parametrize("setting,seed", _ANTIPODE_SETTINGS)
def test_antipodes_match_the_reversed_word_references(setting, seed):
    # S and S0 of whole elements, through antipode_out, against the reversed words
    hopf, pool = _antipode_setting(setting)
    U, rng = hopf.uea, random.Random(seed)
    elements = [_random_element(U, rng, pool, nterms=3, max_exp=2) for _ in range(6)]
    elements += [U.one(), U.zero(), U.gen(pool[0]) * U.gen(pool[-1]) * U.gen(pool[1])]
    s_word = lambda m: reversed_word_antipode(hopf, m)
    s0_word = lambda m: reversed_word_antipode0(U, m)
    for x in elements:  # the references extended linearly by the one-slot map
        assert hopf.antipode(x) == TensorElement.of(x).map_slot(0, s_word).to_element(), x
        assert U.antipode0(x) == TensorElement.of(x).map_slot(0, s0_word).to_element(), x


@pytest.mark.parametrize("setting,seed", _ANTIPODE_SETTINGS)
def test_antipode_out_matches_the_slot_map_then_multiply_out(setting, seed):
    hopf, pool = _antipode_setting(setting)
    U, rng = hopf.uea, random.Random(seed)
    gens = [U.gen(b) for b in rng.sample(pool, 3)]
    tensors = [hopf.delta(x * y) for x in gens for y in gens]
    for _ in range(4):
        z = TensorElement(U, 2, {})
        for k in range(3):
            pure = TensorElement.of(*(_random_element(U, rng, pool, nterms=2, max_exp=1) for _ in range(2)))
            z = z + pure.scale(U.ring.t_power(k))
        tensors.append(z)
    s0 = lambda b: -U.gen(b)
    s_word = lambda m: reversed_word_antipode(hopf, m)
    s0_word = lambda m: reversed_word_antipode0(U, m)
    for z in tensors:
        for slot in (0, 1):
            assert z.antipode_out(slot, hopf.antipode_basis) == z.map_slot(slot, s_word).multiply_out()
            assert z.antipode_out(slot, s0) == z.map_slot(slot, s0_word).multiply_out()


def test_antipode_out_takes_slot_zero_or_one_of_a_two_tensor():
    U = u31()
    H = U.gen(U.alg.basis_symbol((1,), 1))
    s0 = lambda b: -U.gen(b)
    bad = [(TensorElement.of(H), 0), (TensorElement.of(H, H, H), 1), (TensorElement.of(H, H), 2)]
    for z, slot in bad + [(TensorElement.of(H, H), -1), (TensorElement.unit(U, 0), 0)]:
        with pytest.raises(ValueError, match=f"slot 0 or 1 of a 2-tensor, got slot {slot} of arity {z.arity}"):
            z.antipode_out(slot, s0)
    for slot in (0, 1):
        assert TensorElement(U, 2, {}).antipode_out(slot, s0) == U.zero()
        assert TensorElement.unit(U).antipode_out(slot, s0) == U.one()
        assert TensorElement.of(H * H, U.one()).antipode_out(slot, s0) == H * H


@pytest.mark.parametrize("which", ["wplus", "witt"])
def test_falling_factorial_coproduct_binomial_expansion(which):
    # Delta0 of the falling factorial of a primitive element, with shifts
    if which == "wplus":
        U = uw_plus()
        h, _ = basic_pair(U.alg, QQ, 1)
        H = U.lift(h)
    else:
        U = uwitt()
        H = U.gen(U.alg.basis_symbol((0,), 1))
    for r in range(0, 7):
        for s in (-2, -1, 0, 1, 2):
            lhs = U.coproduct0(U.factorial_element(H, 1 - r, r))
            rhs = TensorElement(U, 2, {})
            for i in range(r + 1):
                a = U.factorial_element(H, 1 - s - i, i)
                b = U.factorial_element(H, 1 + s - r + i, r - i)
                rhs = rhs + TensorElement.of(a, b).scale_int(binom_int(r, i))
            assert lhs == rhs, (r, s)


def test_factorial_element_examples():
    U = uw_plus()
    h, _ = basic_pair(U.alg, QQ, 1)
    H = U.lift(h)
    assert U.factorial_element(H, -1, 2) == H * H - H
    assert U.factorial_element(H, 1, 1) == H + U.one()
    assert U.factorial_element(H, Fraction(7, 2), 0) == U.one()
    assert U.factorial_element(H, Fraction(9, 2), 0) == U.one()


def test_ad_divided_power_basics():
    U = u31()
    h, e = basic_pair(U.alg, gf(3), 1)
    x, e = U.gen(U.alg.basis_symbol((2,), 1)), U.lift(e)
    assert U.ad_divided_power(e, 0, x) == x
    # d^(1)(h) = [e, h] = -e
    assert U.ad_divided_power(e, 1, U.lift(h)) == -e
    with pytest.raises(ValueError):
        U.ad_divided_power(e, 3, x)  # 1/3! missing in char 3


def test_derived_elements_reject_bad_arguments():
    U = uw_plus()
    H = U.lift(basic_pair(U.alg, QQ, 1)[0])
    with pytest.raises(ValueError, match="r must be nonnegative"):
        U.factorial_element(H, 0, -1)
    with pytest.raises(ValueError, match="ell must be nonnegative"):
        U.ad_divided_power(H, -1, H)
    with pytest.raises(ValueError, match="negative powers are not defined here"):
        H ** -1


def test_ad_divided_power_off_direction_vanishes():
    alg = JacobsonWitt(2, 3)
    U = EnvelopingAlgebra(alg, gf(3), restricted=True)
    e1 = U.lift(basic_pair(alg, gf(3), 1)[1])
    h2 = U.gen(alg.basis_symbol((0, 1), 2))
    assert not U.ad_divided_power(e1, 1, h2)  # i != k kills the correction


@pytest.mark.parametrize("p", [3, 5])
def test_leibniz_expansion_of_divided_ad_powers(p):
    alg = JacobsonWitt(1, p)
    U = EnvelopingAlgebra(alg, gf(p), restricted=True)
    e = U.lift(basic_pair(alg, gf(p), 1)[1])
    gens = [U.gen(b) for b in alg.basis()]
    pairs = [(a, b) for a in gens for b in gens][:9]
    for ell in range(p):
        for a, b in pairs:
            lhs = U.ad_divided_power(e, ell, a * b)
            rhs = U.zero()
            for l1 in range(ell + 1):
                rhs = rhs + U.ad_divided_power(e, l1, a) * U.ad_divided_power(e, ell - l1, b)
            assert lhs == rhs, (ell,)
    # triples, smaller sweep
    trip = gens[:3]
    for ell in range(p):
        for a, b, c in itertools.product(trip, repeat=3):
            lhs = U.ad_divided_power(e, ell, a * b * c)
            rhs = U.zero()
            for l1 in range(ell + 1):
                for l2 in range(ell - l1 + 1):
                    l3 = ell - l1 - l2
                    rhs = rhs + (
                        U.ad_divided_power(e, l1, a)
                        * U.ad_divided_power(e, l2, b)
                        * U.ad_divided_power(e, l3, c)
                    )
            assert lhs == rhs


@pytest.mark.parametrize(
    "make,pool_kind,seed",
    [
        (u31, "jw", 31),
        (lambda: EnvelopingAlgebra(JacobsonWitt(1, 5), gf(5), restricted=True), "jw", 32),
        (lambda: uw_plus(2), "wplus", 33),
        (uwitt, "witt", 34),
    ],
)
def test_multiplication_is_associative(make, pool_kind, seed):
    U = make()
    rng = random.Random(seed)
    if pool_kind == "jw":
        pool = U.alg.basis()
    elif pool_kind == "wplus":
        alphas = [a for a in itertools.product(range(3), repeat=U.alg.n) if sum(a) <= 2]
        pool = [U.alg.basis_symbol(a, i) for a in alphas for i in range(1, U.alg.n + 1)]
    else:
        pool = [U.alg.basis_symbol((a,), 1) for a in range(-2, 3)]
    for _ in range(40):
        x, y, z = (_random_element(U, rng, pool, nterms=2) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_confluence_long_words():
    alg = JacobsonWitt(1, 5)
    U = EnvelopingAlgebra(alg, gf(5), restricted=True)
    rng = random.Random(41)
    pool = alg.basis()
    for _ in range(60):
        word = tuple(rng.choice(pool) for _ in range(rng.randint(5, 8)))
        want = _fold(U, U.normalize_word(word))
        got = _fold(U, _random_normalize(U, word, rng))
        assert got == want, word


def test_pbw_normalize_rejects_foreign_symbols():
    U = u31()
    other = JacobsonWitt(2, 3)
    with pytest.raises(ValueError):
        U.pbw_normalize([other.basis_symbol((1, 0), 1)])
    UW = uw_plus(1)
    with pytest.raises(ValueError):
        U.pbw_normalize([UW.alg.basis_symbol((1,), 1)])


def test_cross_context_operations_rejected():
    U1, U2 = u31(), u31()  # distinct contexts over the same data
    x = U1.gen(U1.alg.basis_symbol((1,), 1))
    y = U2.gen(U2.alg.basis_symbol((1,), 1))
    with pytest.raises(ValueError):
        U1.mul(x, y)
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        TensorElement.of(x, x) * TensorElement.of(y, y)
    with pytest.raises(ValueError):
        U1.one() * TensorElement.of(x, x)  # a tensor is no operand of the algebra's product
    for k in (0, 1, 2):  # the operand is checked for every exponent, k = 0 too
        with pytest.raises(ValueError, match="not an element of this enveloping algebra"):
            U1.power(y, k)


def _mixed_pair(cls, change):
    """Two elements of cls whose contexts differ in their ring, algebra or tensor arity."""
    alg = WPlusAlgebra(1)
    b = alg.basis_symbol((1,), 1)
    ring_b = t_series(QQ, 2) if change == "ring" else QQ
    alg_b = WPlusAlgebra(1) if change == "algebra" else alg
    if cls is LieElement:
        return LieElement.from_basis(alg, QQ, b), LieElement.from_basis(alg_b, ring_b, b), LieElement.bracket
    U = EnvelopingAlgebra(alg, QQ)
    Ub = U if change == "arity" else EnvelopingAlgebra(alg_b, ring_b)
    x, y = U.gen(b), Ub.gen(b)
    if cls is UEAElement:
        return x, y, UEAElement.__mul__
    return TensorElement.of(x, x), TensorElement.of(*[y] * (3 if change == "arity" else 2)), TensorElement.__mul__


@pytest.mark.parametrize(
    "cls,change",
    [
        (LieElement, "ring"),
        (LieElement, "algebra"),
        (UEAElement, "ring"),
        (UEAElement, "algebra"),
        (TensorElement, "ring"),
        (TensorElement, "algebra"),
        (TensorElement, "arity"),
    ],
)
def test_context_check_rejects_mixed_operands(cls, change):
    x, y, product = _mixed_pair(cls, change)
    assert x + x == x.scale_int(2) and x == x
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        product(x, y)
    assert (x == y) is False and (y == x) is False


def test_tensor_mul_examples():
    U = uw_plus()
    h, e = basic_pair(U.alg, QQ, 1)
    H, E = U.lift(h), U.lift(e)
    X = TensorElement.of(H, E)
    assert TensorElement.unit(U) * X == X
    assert TensorElement.of(H, U.one()) * TensorElement.of(U.one(), E) == X
    assert TensorElement.of(U.one(), E) * TensorElement.of(H, U.one()) == X


def _tensor_uea(kind):
    """A context over a t-ring and its symbol pool, for the tensor-kernel tests."""
    if kind == "U(W(1)) t_series(QQ,4)":
        U = EnvelopingAlgebra(WittAlgebra(1), t_series(QQ, 4))
        return U, [U.alg.basis_symbol((a,), 1) for a in range(-2, 3)]
    if kind.startswith("U(W(1;1)) t_series(GF("):  # "U(W(1;1)) t_series(GF(<p>),3)", p = 3 or 5
        p = 5 if "GF(5)" in kind else 3
        U = EnvelopingAlgebra(JacobsonWitt(1, p), t_series(gf(p), 3))
        return U, U.alg.basis()
    q = int(kind[-1])  # "u(W(2;1)) p=3 q=<q>"
    U = EnvelopingAlgebra(JacobsonWitt(2, 3), t_quotient(3, q), restricted=True)
    return U, U.alg.basis()[:6]


def _random_tensor(U, rng, pool, arity, nterms=4):
    """Random monomial keys with coefficients a t^d + b t^e, so that coefficient
    products can vanish by truncation (series) or in the zero divisors of the
    quotient ring."""
    ring = U.ring
    terms = {}
    for _ in range(nterms):
        key = tuple(_random_mono(U, rng, pool, degree=3) for _ in range(arity))
        c = ring.zero
        for _ in range(2):
            c = ring.add(c, ring.mul(ring.from_int(rng.randint(1, 4)), ring.t_power(rng.randrange(ring.cap))))
        terms[key] = c
    return TensorElement(U, arity, {k: c for k, c in terms.items() if c})


def _with_first_slots(x, shape, pool):
    """x with the first slots of its keys rewritten: all one monomial ("one group"), one
    symbol each ("distinct"), or alternately b and b^2 for a symbol b whose p-th power
    vanishes in a restricted algebra ("powers"), so that first-slot products die."""
    U = x.uea
    b = next(b for b in pool if not U.restricted or not U.fold_exponent(b, U.alg.p))
    firsts = {
        "one group": itertools.repeat(monomial(((pool[-1], 1),))),
        "distinct": (monomial(((g, 1),)) for g in pool),
        "powers": (monomial(((b, 1 + i % 2),)) for i in itertools.count()),
    }[shape]
    terms = (((f,) + key[1:], c) for f, (key, c) in zip(firsts, x.terms.items()))
    return x._like(accumulate(U.ring.add, {}, terms))


@pytest.mark.parametrize(
    "kind,seed",
    [
        ("u(W(2;1)) p=3 q=0", 81),
        ("u(W(2;1)) p=3 q=1", 82),
        ("U(W(1)) t_series(QQ,4)", 83),
        ("U(W(1;1)) t_series(GF(5),3)", 84),
        ("U(W(1;1)) t_series(GF(3),3)", 85),
    ],
)
def test_tensor_kernels_match_the_pairwise_oracles(kind, seed):
    # the product factors through the first slot and multiply_out merges slots
    # pairwise; the oracles expand every pair and key in full
    U, pool = _tensor_uea(kind)
    rng = random.Random(seed)
    rmul, keep = U.ring.mul, U.ring.keep
    dead_coeffs = dead_firsts = skipped_groups = 0
    for arity in range(4):
        for shape in ("random", "one group", "distinct", "powers"):
            for _ in range(6):
                x, y = (_random_tensor(U, rng, pool, arity) for _ in range(2))
                if arity and shape != "random":
                    x, y = (_with_first_slots(z, shape, pool) for z in (x, y))
                assert x * y == pairwise_tensor_product(x, y), (x, y)
                assert x.multiply_out() == keywise_multiply_out(x), x
                dead_coeffs += sum(not rmul(c1, c2) for c1 in x.terms.values() for c2 in y.terms.values())
                firsts = [{key[0] for key in z.terms} for z in (x, y)] if arity else [(), ()]
                dead_firsts += sum(not U.mono_mul(a1, a2) for a1 in firsts[0] for a2 in firsts[1])
                if keep is not None and arity:
                    lows = [_lowest_orders(z, 0).values() for z in (x, y)]
                    skipped_groups += sum(o1 + o2 >= keep for o1 in lows[0] for o2 in lows[1])
    # the samples reach every way a pair of terms drops out: a coefficient product
    # that vanishes; in the restricted algebra, a first-slot product that does; and
    # in a series ring, a pair of first-slot groups that the truncation kills
    assert dead_coeffs
    assert dead_firsts or not U.restricted
    assert skipped_groups or keep is None


def _lowest_orders(x, slot: int) -> dict:
    """Monomial -> the lowest order over the terms of x holding it in that slot."""
    out: dict = {}
    for key, c in x.terms.items():
        o = x.ring.order(c)
        out[key[slot]] = min(o, out.get(key[slot], o))
    return out


def test_products_skip_the_pairs_that_the_series_truncation_kills(monkeypatch):
    # in t_series(QQ, 3), values whose orders sum to 3 or more multiply to zero: no
    # product multiplies their coefficients, nor the monomials of a pair of slot groups
    # whose lowest orders do
    U = EnvelopingAlgebra(WittAlgebra(1), t_series(QQ, 3))
    ring = U.ring
    rng = random.Random(87)
    # one symbol pool per slot, so that each monomial product names its slot
    pools = [[U.alg.basis_symbol((a,), 1) for a in (2 * s - 1, 2 * s)] for s in range(3)]
    firsts = [monomial(((b, e),)) for b in pools[0] for e in (1, 2)]

    def tensor(arity):
        # the j-th first-slot monomial sets the lowest order of its terms: 0, 1, 2 or 2
        terms = {}
        for j in itertools.islice(itertools.cycle(range(4)), 10):
            rest = (monomial(((rng.choice(pool), rng.randint(1, 2)),)) for pool in pools[1:arity])
            d = rng.choice((min(j, 2), 2))
            c = ring.add(ring.mul(ring.from_int(rng.randint(1, 4)), ring.t_power(d)), ring.t_power(d + 1))
            terms[(firsts[j], *rest)] = c
        return TensorElement(U, arity, terms)

    cases = [(tensor(arity), tensor(arity)) for arity in (1, 2, 3)]
    expected = [pairwise_tensor_product(x, y) for x, y in cases]
    order, series_mul, mono_mul = ring.order, TSeriesRing.mul, U.mono_mul
    muls, monos = [], []
    monkeypatch.setattr(TSeriesRing, "mul", lambda R, a, b: muls.append((a, b)) or series_mul(R, a, b))
    monkeypatch.setattr(U, "mono_mul", lambda m1, m2: monos.append((m1, m2)) or mono_mul(m1, m2))
    for (x, y), xy in zip(cases, expected):
        muls.clear()
        monos.clear()
        if x.arity == 1:  # the element product
            assert x.to_element() * y.to_element() == xy.to_element()
        else:
            assert x * y == xy
        pairs = [(order(c1), order(c2)) for c1 in x.terms.values() for c2 in y.terms.values()]
        assert any(o1 + o2 >= 3 for o1, o2 in pairs)
        assert muls and all(order(a) + order(b) < 3 for a, b in muls)
        lows = [[_lowest_orders(z, slot) for slot in range(x.arity)] for z in (x, y)]
        assert any(o1 + o2 >= 3 for o1 in lows[0][0].values() for o2 in lows[1][0].values())
        assert monos
        for m1, m2 in monos:
            slot = next(s for s, pool in enumerate(pools) if m1[0][0] in pool)
            assert lows[0][slot][m1] + lows[1][slot][m2] < 3, (slot, m1, m2)


def test_tensor_product_forms_each_first_slot_product_once():
    U = EnvelopingAlgebra(JacobsonWitt(2, 3), t_quotient(3, 1), restricted=True)
    pool = U.alg.basis()
    rng = random.Random(86)
    # first slots from three symbols, last slots from the others, so that the two
    # slots' monomial products are told apart by their factors
    firsts, lasts = pool[:3], pool[3:]
    calls = collections.Counter()
    mono_mul = U.mono_mul

    def counting(m1, m2):
        calls[m1, m2] += 1
        return mono_mul(m1, m2)

    def tensor():
        # no empty monomials, which both slots could hold
        first = lambda: monomial(((rng.choice(firsts), rng.randint(1, 2)),))
        last = lambda: _random_mono(U, rng, lasts, 3) or monomial(((lasts[0], 1),))
        keys = ((first(), last()) for _ in range(12))
        return TensorElement(U, 2, {key: U.ring.t_power(rng.randrange(2)) for key in keys})

    x, y = tensor(), tensor()
    groups = [{key[0] for key in z.terms} for z in (x, y)]
    assert len(groups[0]) < len(x.terms) and len(groups[1]) < len(y.terms)  # some groups hold several terms
    expected = pairwise_tensor_product(x, y)
    U.mono_mul = counting
    assert x * y == expected
    first_slot_calls = {pair: k for pair, k in calls.items() if pair[0] in groups[0] and pair[1] in groups[1]}
    assert first_slot_calls == {(a1, a2): 1 for a1 in groups[0] for a2 in groups[1]}


def test_pure_tensor_needs_factors_of_one_algebra():
    U3, U5 = (EnvelopingAlgebra(JacobsonWitt(1, p), gf(p), restricted=True) for p in (3, 5))
    x3, x5 = (U.gen(U.alg.basis_symbol((1,), 1)) for U in (U3, U5))
    assert TensorElement.of(x3, x3).uea is U3
    with pytest.raises(ValueError, match="not an element of this enveloping algebra"):
        TensorElement.of(x3, x5)
    with pytest.raises(ValueError, match="at least one factor"):
        TensorElement.of()


def test_tensor_slot_maps_reject_slots_outside_the_tensor():
    U = EnvelopingAlgebra(JacobsonWitt(1, 3), gf(3), restricted=True)
    H, X = U.gen(U.alg.basis_symbol((1,), 1)), U.gen(U.alg.basis_symbol((2,), 1))
    z, s0 = TensorElement.of(H, X), lambda m: reversed_word_antipode0(U, m)
    for slot in (-1, 2):
        with pytest.raises(ValueError, match=f"slot {slot} is outside a tensor of arity 2"):
            z.map_slot(slot, s0)
        with pytest.raises(ValueError, match=f"slot {slot} is outside a tensor of arity 2"):
            z.expand_slot(slot, U.coproduct0_mono)
        with pytest.raises(ValueError, match=f"slot {slot} is outside a tensor of arity 2"):
            z.contract(slot)
    with pytest.raises(ValueError, match="outside a tensor of arity 0"):
        TensorElement.unit(U, 0).contract(0)
    for left, right in ((-1, 0), (0, -1), (2, -1)):
        with pytest.raises(ValueError, match="nonnegative number of slots"):
            z.pad(left, right)
    with pytest.raises(ValueError, match="nonnegative number of slots"):
        TensorElement.unit(U, -1)
    assert z.map_slot(1, s0) == TensorElement.of(H, -X)
    assert z.contract(1) == TensorElement(U, 1, {}) and z.pad(1, 1).arity == 4


def test_expand_slot_rejects_an_image_not_of_arity_two():
    U = EnvelopingAlgebra(JacobsonWitt(1, 3), t_quotient(3, 1), restricted=True)
    H = U.gen(U.alg.basis_symbol((1,), 1))
    maps = {
        1: lambda m: TensorElement.of(U.element({m: U.ring.one})),
        3: lambda m: TensorElement.of(U.element({m: U.ring.one}), U.one(), U.one()),
    }
    for arity, f in maps.items():
        with pytest.raises(ValueError, match=f"images of arity 2, got arity {arity}"):
            TensorElement.of(H).expand_slot(0, f)


def test_slot_maps_reject_an_image_from_another_context():
    # basis symbols are interned across p, so an image over GF(5)[t] has the monomial
    # keys of one over GF(3)[t]/(t^3 - t); only the image's context tells them apart
    H, G = modular(3, 1, (1,), 1), modular(5, 1, (1,), 0)
    T = H.delta(H.uea.gen(H.uea.alg.basis()[0]))
    foreign = G.uea.gen(G.uea.alg.basis()[0])
    for slot in (0, 1):
        for image in (lambda b: foreign, lambda b: TensorElement.of(H.uea.gen(b))):
            with pytest.raises(ValueError, match="not an element of this enveloping algebra"):
                T.antipode_out(slot, image)
            with pytest.raises(ValueError, match="not an element of this enveloping algebra"):
                T.map_slot(slot, lambda m: image(m[0][0]) if m else H.uea.one())
        for image in (lambda m: G.uea.coproduct0(foreign), lambda m: H.uea.one()):
            with pytest.raises(ValueError, match="images over the tensor's own enveloping algebra"):
                T.expand_slot(slot, image)
    assert T.antipode_out(0, H.antipode_basis) == T.map_slot(0, H.antipode_mono).multiply_out()


def test_tensor_kernels_at_arity_zero_and_one(monkeypatch):
    U = EnvelopingAlgebra(JacobsonWitt(1, 3), t_quotient(3, 1), restricted=True)
    one = TensorElement.unit(U, 0)
    assert one * one == one and one.terms == {(): U.ring.one}
    assert one.multiply_out() == U.one()
    t = U.ring.t_power(1)
    assert one.scale(t) * one.scale(t) == one.scale(U.ring.t_power(2))
    assert one.scale(t).multiply_out() == U.scalar(t)
    assert not TensorElement(U, 0, {}) * one and not TensorElement(U, 0, {}).multiply_out()
    H, X = U.gen(U.alg.basis_symbol((1,), 1)), U.gen(U.alg.basis_symbol((2,), 1))
    x, y = H * H + X.scale(t), X * X + H
    assert (TensorElement.of(x) * TensorElement.of(y)).to_element() == x * y
    assert TensorElement.of(x).multiply_out() == x
    assert TensorElement.of(X * X) * TensorElement.of(X) == TensorElement(U, 1, {})  # X^3 = 0
    # the monomial product comes first: a pair whose monomials vanish forms no ring product
    XX, rmul, muls = X * X, TQuotientRing.mul, []
    of = TensorElement.of
    pairs = [(XX, X), (of(XX), of(X)), (of(XX, H), of(X, H)), (of(H, XX), of(H, X))]

    def counting(ring, a, b):
        muls.append((a, b))
        return rmul(ring, a, b)

    monkeypatch.setattr(TQuotientRing, "mul", counting)
    assert not any(left * right for left, right in pairs)
    assert muls == []


def _power_uea(kind):
    """A context and a symbol pool for the power tests: the pools are small, since
    a seventh power of a sum of symbols in U(W(1)) has many terms."""
    if kind == "u(W(2;1)) p=3 q=1":
        return _tensor_uea(kind)
    if kind == "U(W(1)) t_series(QQ,4)":
        U = EnvelopingAlgebra(WittAlgebra(1), t_series(QQ, 4))
        return U, [U.alg.basis_symbol((a,), 1) for a in range(-1, 2)]
    U = EnvelopingAlgebra(JacobsonWitt(1, 7), t_quotient(7, 1), restricted=True)  # "u(W(1;1)) p=7 q=1"
    return U, U.alg.basis()


@pytest.mark.parametrize("kind", ["u(W(2;1)) p=3 q=1", "U(W(1)) t_series(QQ,4)", "u(W(1;1)) p=7 q=1"])
def test_powers_match_repeated_squaring(kind):
    # both powers grow one factor at a time on the left; squaring groups the factors differently
    U, pool = _power_uea(kind)
    rng = random.Random(91)
    ring = U.ring
    t = ring.t_power(1)
    g = U.gen(pool[len(pool) // 2])
    elements = [g, g + U.gen(pool[0], t), _random_element(U, rng, pool, nterms=2, max_exp=1)]
    for x in elements:
        tensors = [U.coproduct0(x), TensorElement.of(x, U.gen(pool[-1])) + TensorElement.of(U.one(), x).scale(t)]
        for k in range(8):
            assert U.power(x, k) == binary_power(x, k, U.one(), U.mul), (x, k)
            for X in tensors:
                assert X**k == binary_power(X, k, TensorElement.unit(U), operator.mul), (X, k)
    with pytest.raises(ValueError, match="negative powers are not defined here"):
        U.power(g, -1)
    with pytest.raises(ValueError, match="negative powers are not defined here"):
        U.coproduct0(g) ** -1


def test_a_power_puts_each_factor_on_the_left(monkeypatch):
    # every step is x * (running power): Horner's rule runs over x's monomials with
    # the running power on the right, and an element power builds no mono_mul row
    U = u31()
    x = U.gen(U.alg.basis_symbol((0,), 1)) + U.gen(U.alg.basis_symbol((2,), 1))
    x2 = x * x
    rows = {m2: dict(row) for m2, row in U._mono_mul_rows.items()}
    calls = []
    left_power = U._left_power
    monkeypatch.setattr(U, "_left_power", lambda a, b, ints: calls.append((a, b)) or left_power(a, b, ints))
    x3 = U.power(x, 3)
    assert calls == [(x.terms, U.one().terms), (x.terms, x.terms), (x.terms, x2.terms)]
    assert {m2: dict(row) for m2, row in U._mono_mul_rows.items()} == rows
    assert x3 == x * x2

    # a tensor power multiplies first slots in the product kernel, with X's nested terms on
    # the left at every step, and the rests by Horner's rule with one of X's rests on the left
    X = U.coproduct0(x)
    X2 = X * X
    calls.clear()
    steps = []
    product = U._product
    monkeypatch.setattr(
        U, "_product", lambda a, b, depth, *rest: (depth and steps.append((a, b))) or product(a, b, depth, *rest)
    )
    X3 = X**3
    nest = _nest_terms
    assert steps == [(nest(X), nest(TensorElement.unit(U))), (nest(X), nest(X)), (nest(X), nest(X2))]
    assert calls and all(a in list(nest(X).values()) for a, _ in calls)
    monkeypatch.undo()
    assert X3 == X * X2


def _nest_terms(X):
    """A 2-tensor's terms nested by slot: first monomial -> second monomial -> value."""
    out: dict = {}
    for (m1, m2), c in X.terms.items():
        out.setdefault(m1, {})[m2] = c
    return out


def _oracle_power(x, k: int) -> UEAElement:
    """x^k with each product of monomials straightened by ``rewrite_normalize``: no
    ``mono_mul`` row and no insertion of the context."""
    U, ring = x.uea, x.uea.ring
    out = {(): ring.one}
    for _ in range(k):
        pairs = []
        for m1, c1 in x.terms.items():
            for m2, c2 in out.items():
                c = ring.mul(c1, c2)
                if c:
                    for m, n in rewrite_normalize(U, _expand(m1) + _expand(m2)).items():
                        pairs.append((m, ring.mul(c, ring.from_int(n))))
        out = accumulate(ring.add, {}, pairs)
    return UEAElement(U, out)


def test_powers_of_antipodes_match_the_rewriting_oracle(monkeypatch):
    # S(g)^k for k <= p over u_{t,1}(W(n;1)) at (3,1) and (3,2), and k <= 3 over a QQ
    # series ring, against words straightened one swap at a time; the restricted words
    # meet both folds, b^p = 0 off the torus and H^p = H on it
    import oracles

    folds = collections.Counter()
    sorted_word = oracles.mono_of_sorted_word

    def counting(uea, word):
        m = sorted_word(uea, word)
        if uea.restricted and any(len(tuple(run)) >= uea.alg.p for _, run in itertools.groupby(word)):
            folds["dies" if m is None else "folds"] += 1
        return m

    monkeypatch.setattr(oracles, "mono_of_sorted_word", counting)
    cases = []
    for p, n in ((3, 1), (3, 2)):
        hopf = modular(p, n, (1,) * n, 1)
        images = [hopf.antipode(hopf.uea.gen(g)) for g in hopf.uea.alg.basis()]
        cases += [(s, range(2, p + 1)) for s in images if len(s.terms) <= 24]
    hopf = char0_general(RMatrixData((1, 0), (0, 1), (1, 0)), cap=4)
    U = hopf.uea
    for alpha, i in (((1, 0), 1), ((0, 1), 2), ((2, 0), 1), ((1, 1), 2), ((0, 2), 1)):
        cases.append((hopf.antipode(U.gen(U.alg.basis_symbol(alpha, i))), (2, 3)))
    assert max(len(s.terms) for s, _ in cases) >= 20
    assert max(sum(e for _, e in m) for s, _ in cases for m in s.terms) >= 6
    for s, powers in cases:
        for k in powers:
            assert s.uea.power(s, k) == _oracle_power(s, k), (s, k)
    assert folds["dies"] and folds["folds"]


def test_a_power_walks_a_degree_1000_monomial_without_recursion():
    # the Horner walk drops one symbol per level; a recursive walk would pass the recursion limit
    from wittquant.grammar import MAX_DEGREE

    U = uw_plus(1)
    b = U.alg.basis_symbol((1,), 1)
    y = U.element({((b, MAX_DEGREE),): 1, ((b, 1),): 2, (): 3})
    assert U.power(y, 2) == U.mul(y, y)
    Y = TensorElement.of(y, y)
    assert Y**2 == Y * Y


@pytest.mark.parametrize(
    "p,n,seed,restricted",
    [
        pytest.param(3, 1, 51, False, id="3-1-51"),
        pytest.param(3, 2, 52, False, id="3-2-52"),
        pytest.param(5, 1, 53, False, id="5-1-53"),
        pytest.param(3, 1, 54, True, id="3-1-54-restricted"),
        pytest.param(3, 2, 55, True, id="3-2-55-restricted"),
        pytest.param(5, 1, 56, True, id="5-1-56-restricted"),
    ],
)
def test_uea_reduction_is_a_hopf_algebra_map(p, n, seed, restricted):
    # x^a D_i -> a! x^(a) D_i respects products, coproducts, and antipodes; into
    # u(W(n;1)), exponents up to p + 1 also meet the folds H^p = H and b^p = 0
    from wittquant.uea import reduce_element_mod_p, reduce_tensor_mod_p

    rng = random.Random(seed)
    WU = uw_plus(n)
    alg = JacobsonWitt(n, p)
    MU = EnvelopingAlgebra(alg, gf(p), restricted=restricted)
    alphas = [a for a in itertools.product(range(p + 1), repeat=n)]
    pool = [WU.alg.basis_symbol(a, i) for a in alphas for i in range(1, n + 1)]
    max_exp = p + 1 if restricted else 2
    for _ in range(25):
        x = _random_element(WU, rng, pool, nterms=2, max_exp=max_exp)
        y = _random_element(WU, rng, pool, nterms=2, max_exp=max_exp)
        rx, ry = reduce_element_mod_p(x, MU), reduce_element_mod_p(y, MU)
        assert reduce_element_mod_p(x * y, MU) == rx * ry
        assert reduce_tensor_mod_p(WU.coproduct0(x), MU) == MU.coproduct0(rx)
        assert reduce_element_mod_p(WU.antipode0(x), MU) == MU.antipode0(rx)


def test_contexts_are_freed_without_the_cycle_collector():
    # the coalgebra caches hold plain ring-valued dicts, never elements, which
    # would point back at their context and keep it alive until a full collection
    from wittquant.uea import reduce_element_mod_p

    def use_and_drop():
        WU = uw_plus(1)
        MU = u31()
        x = WU.gen(WU.alg.basis_symbol((1,), 1)) ** 4 + WU.gen(WU.alg.basis_symbol((2,), 1))
        rx = reduce_element_mod_p(x, MU)
        assert MU.coproduct0(rx) and MU.antipode0(rx) and WU.coproduct0(x) and WU.antipode0(x)
        assert MU.power(rx, 3) == rx * rx * rx and WU.power(x, 2) == x * x
        X = MU.coproduct0(rx)
        assert X**3 == X * X * X
        return weakref.ref(WU), weakref.ref(MU)

    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = use_and_drop()
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_reduce_tensor_of_arity_zero():
    from wittquant.uea import reduce_tensor_mod_p

    WU = uw_plus(1)
    MU = EnvelopingAlgebra(JacobsonWitt(1, 3), gf(3))
    scalar = TensorElement(WU, 0, {(): Fraction(5, 2)})
    assert reduce_tensor_mod_p(scalar, MU) == TensorElement(MU, 0, {(): gf(3).from_int(1)})
    assert not reduce_tensor_mod_p(TensorElement(WU, 0, {}), MU)


def test_reduction_rejects_a_target_of_another_shape():
    from wittquant.uea import reduce_element_mod_p

    WU = uw_plus(2)
    x = WU.gen(WU.alg.basis_symbol((1, 0), 1))
    with pytest.raises(ValueError, match="does not belong to"):
        reduce_element_mod_p(x, EnvelopingAlgebra(JacobsonWitt(1, 3), gf(3)))


@pytest.mark.parametrize("alg", [WittAlgebra(1), WPlusAlgebra(1)], ids=repr)
def test_reduction_rejects_a_target_outside_jacobson_witt(alg):
    # the range test of the reduction is the target's own in_range, so a target without
    # W(n;1)'s range is refused before any term is reduced
    from wittquant.uea import reduce_element_mod_p, reduce_tensor_mod_p

    WU = integral_eta((1,), 1).uea
    x = WU.gen(WU.alg.basis_symbol((1,), 1))
    target = EnvelopingAlgebra(alg, QQ)
    with pytest.raises(ValueError, match=r"into U\(W\(n;1\)\)"):
        reduce_element_mod_p(x, target)
    with pytest.raises(ValueError, match=r"into U\(W\(n;1\)\)"):
        reduce_tensor_mod_p(WU.coproduct0(x), target)


def test_reduction_rejects_a_source_outside_w_plus():
    from wittquant.uea import reduce_element_mod_p, reduce_tensor_mod_p

    MU = EnvelopingAlgebra(JacobsonWitt(1, 3), gf(3))
    x = MU.gen(MU.alg.basis_symbol((2,), 1))  # x^(2) D_1, which once "reduced" to 2 x^(2) D_1
    with pytest.raises(ValueError, match=r"U\(W\+\)"):
        reduce_element_mod_p(x, MU)
    with pytest.raises(ValueError, match=r"U\(W\+\)"):
        reduce_tensor_mod_p(MU.coproduct0(x), MU)
    WU = uwitt(1)
    with pytest.raises(ValueError, match=r"U\(W\+\)"):
        reduce_element_mod_p(WU.gen(WU.alg.basis_symbol((2,), 1)), MU)


def test_lift_rejects_foreign_algebra_or_ring():
    U = EnvelopingAlgebra(JacobsonWitt(2, 5), gf(5))
    small = JacobsonWitt(1, 3)
    h, _ = basic_pair(small, gf(3), 1)
    with pytest.raises(ValueError):
        U.lift(h)
    for alg, ring in ((JacobsonWitt(1, 5), gf(5)), (JacobsonWitt(2, 3), gf(3)), (U.alg, gf(3))):
        with pytest.raises(ValueError):
            U.lift(basic_pair(alg, ring, 1)[0])
    same = JacobsonWitt(2, 5)  # an equal algebra built separately
    h, _ = basic_pair(same, gf(5), 1)
    assert U.lift(h) == U.gen(next(iter(h.terms)))
    # q = 4 and q = 1 name one quotient ring mod 3
    Uq = EnvelopingAlgebra(JacobsonWitt(1, 3), t_quotient(3, 1), restricted=True)
    h, _ = basic_pair(JacobsonWitt(1, 3), t_quotient(3, 4), 1)
    assert Uq.lift(h) == Uq.gen(next(iter(h.terms)))


def test_restricted_dimension_counts():
    assert sum(1 for _ in u31().enumerate_restricted_basis()) == 27
    alg = JacobsonWitt(1, 5)
    U = EnvelopingAlgebra(alg, gf(5), restricted=True)
    assert sum(1 for _ in U.enumerate_restricted_basis()) == 3125


def test_basis_enumeration_needs_restricted_mode():
    with pytest.raises(ValueError, match="basis enumeration is defined for restricted mode"):
        next(uw_plus().enumerate_restricted_basis())


def test_only_arity_one_tensors_collapse_to_elements():
    with pytest.raises(ValueError, match="only arity-1 tensors collapse to elements"):
        TensorElement.unit(u31()).to_element()


def test_restricted_mode_validation():
    with pytest.raises(ValueError):
        EnvelopingAlgebra(WPlusAlgebra(1), QQ, restricted=True)
    with pytest.raises(ValueError):
        EnvelopingAlgebra(JacobsonWitt(1, 3), gf(5), restricted=True)


# -- canonical monomials ------------------------------------------------------------------


def _canonical(mono) -> bool:
    """Whether mono is the one object ``monomial`` gives for its pairs (the unit: ``()``)."""
    return monomial(tuple(mono)) is mono


def _held_monomials(U, values=(), keys=()) -> list:
    """The monomials U's caches hold, as keys and in their values, plus keys and the
    monomials in the terms of values: elements, tensors, or named tuples of them."""
    monos = list(keys)
    for (_, mono), out in U._insert_cache.items():
        monos += [mono, *out]
    for m2, row in U._mono_mul_rows.items():
        monos.append(m2)
        for m1, out in row.items():
            monos += [m1, *out]
    for mono, out in U._delta0_cache.items():
        monos += [mono, *itertools.chain.from_iterable(out)]
    values = [w for v in values for w in (v if isinstance(v, tuple) else (v,))]
    for v in values:
        if isinstance(v, TensorElement):
            assert all(type(key) is tuple and len(key) == v.arity for key in v.terms)
            monos += itertools.chain.from_iterable(v.terms)
        else:
            monos += v.terms
    return monos


def _hopf_monomials(hopf) -> list:
    """The monomials held by a quantization's caches and memos and by its algebra's caches."""
    cache = hopf._delta_mono_cache
    return _held_monomials(hopf.uea, [*cache.values(), *hopf._memos.values()], keys=cache)


@pytest.fixture(scope="module")
def hopf_runs():
    """n -> the quantization at (3,n), eta all 1, q = 1, after its Hopf suite passed."""
    runs = {}
    for n in (1, 2):
        runs[n] = modular(3, n, (1,) * n, 1)
        assert check_hopf_axioms(runs[n]).passed
    return runs


def test_a_hopf_run_leaves_only_canonical_monomials(hopf_runs):
    # an equal monomial that was not interned hashes differently and misses
    # every cache silently; after the heaviest Hopf shape none may be held
    hopf = hopf_runs[2]
    monos = _hopf_monomials(hopf)
    assert len({id(m) for m in monos if m}) > 100
    assert all(map(_canonical, monos))


# -- shared straightening results --------------------------------------------------


def _straightening_results(U) -> list:
    """The dicts U's straightening caches hold: the insertions and the mono_mul row entries."""
    return [*U._insert_cache.values(), *(out for row in U._mono_mul_rows.values() for out in row.values())]


def test_straightening_coefficients_are_residues_mod_p(hopf_runs):
    for hopf in hopf_runs.values():
        p = hopf.uea.ring.char
        coeffs = [c for out in _straightening_results(hopf.uea) for c in out.values()]
        assert all(type(c) is int for c in coeffs) and set(coeffs) == set(range(1, p))


def test_char0_straightening_keeps_exact_integers():
    # (x1^3 D1) D1 D1 = D1^2 (x1^3 D1) - 6 D1 (x1^2 D1) + 6 x1 D1, and 6 is 0 mod 2 and mod 3
    U = uw_plus(2)
    d1, x1d1, x3d1 = (U.alg.basis_symbol((a, 0), 1) for a in (0, 1, 3))
    word = (x3d1, d1, d1)
    got = U.normalize_word(word)
    assert got == rewrite_normalize(U, word)
    assert got[monomial(((x1d1, 1),))] == 6 and sorted(got.values()) == [-6, 1, 6]
    assert U.mono_mul(monomial(((x3d1, 1),)), monomial(((d1, 2),))) == got
    coeffs = [c for out in _straightening_results(U) for c in out.values()]
    assert 6 in coeffs and all(type(c) is int for c in coeffs)


def test_straightening_results_are_shared(hopf_runs):
    # every product that vanishes is one dict, and so is every unit term of one monomial
    for hopf in hopf_runs.values():
        results = _straightening_results(hopf.uea)
        assert len({id(out) for out in results if not out}) == 1
        units = collections.defaultdict(set)
        for out in results:
            if len(out) == 1 and 1 in out.values():
                units[next(iter(out))].add(id(out))
        assert units and all(len(ids) == 1 for ids in units.values())


def test_a_hopf_run_mutates_no_shared_straightening_result(hopf_runs):
    U = hopf_runs[1].uea
    fresh = EnvelopingAlgebra(U.alg, U.ring, restricted=U.restricted)
    rows = U._mono_mul_rows
    assert sum(map(len, rows.values())) > 100
    for m2, row in rows.items():
        for m1, out in row.items():
            assert out == fresh.mono_mul(m1, m2), (m1, m2)
    for (b, mono), out in U._insert_cache.items():
        assert out == fresh._insert(b, mono), (b, mono)


def test_char0_twist_laws_leave_only_canonical_monomials(monkeypatch):
    built = []

    def keep(factory):
        def make(*args, **kwargs):
            built.append(factory(*args, **kwargs))
            return built[-1]

        return make

    monkeypatch.setattr(verify, "char0_general", keep(verify.char0_general))
    monkeypatch.setattr(verify, "integral_eta", keep(verify.integral_eta))
    assert check_twist_laws(Char0Config(d0=(1, 0), d0p=(0, 1), gamma=(1, 0), seed=1)).passed
    assert len(built) == 4
    for hopf in built:
        monos = _hopf_monomials(hopf)
        assert any(monos) and all(map(_canonical, monos)), hopf.name


def test_reduction_from_w_plus_gives_canonical_monomials():
    from wittquant.uea import reduce_tensor_mod_p

    rng = random.Random(57)
    WU = uw_plus(2)
    MU = EnvelopingAlgebra(JacobsonWitt(2, 3), gf(3), restricted=True)
    pool = [WU.alg.basis_symbol(a, i) for a in itertools.product(range(3), repeat=2) for i in (1, 2)]
    images = []
    for _ in range(20):
        x = _random_element(WU, rng, pool, nterms=2, max_exp=4)
        dx = reduce_tensor_mod_p(WU.coproduct0(x), MU)
        images += [dx, dx * dx]  # the product fills MU's mono_mul rows from reduced keys
    monos = _held_monomials(MU, images) + _held_monomials(WU)
    assert any(monos) and all(map(_canonical, monos))


def test_a_monomial_survives_copy_and_pickle():
    U = EnvelopingAlgebra(JacobsonWitt(2, 3), t_quotient(3, 1), restricted=True)
    g = U.alg.basis()
    x = U.pbw_normalize([g[5], g[2], g[2], g[0], g[7]])
    m = max(x.terms)
    assert len(m) > 1 and _canonical(m)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [copy.copy(m), copy.deepcopy(m), *(pickle.loads(pickle.dumps(m, k)) for k in protocols)]
    assert all(c is m for c in copies)
    # an element pickles from protocol 2 on (its class has __slots__)
    for y in [copy.deepcopy(x), *(pickle.loads(pickle.dumps(x, k)) for k in protocols if k >= 2)]:
        assert y.terms == x.terms and all(map(_canonical, y.terms))
    # the tuple's order, equality and repr; the unit monomial is the empty tuple
    plain = tuple(m)
    assert m == plain and repr(m) == repr(plain) and not m < plain and hash(m) != hash(plain)
    assert monomial(()) == () and type(monomial([])) is tuple


def test_a_plain_key_names_the_engine_monomial():
    U = EnvelopingAlgebra(JacobsonWitt(2, 3), t_quotient(3, 1), restricted=True)
    g = U.alg.basis()
    built = U.pbw_normalize([g[0], g[2], g[2], g[7]])
    (m,) = built.terms
    given = U.element({tuple(m): U.ring.one})
    assert given == built and next(iter(given.terms)) is m
    assert U.element({tuple(m): U.ring.one, (): U.ring.one}) == built + U.one()


def _w11_element(key):
    return modular(3, 1, (1,), 1).uea.element({key: t_quotient(3, 1).one})


def test_an_element_key_out_of_normal_order_is_refused():
    H = modular(3, 1, (1,), 1)
    d, x = (H.uea.alg.basis_symbol(a, 1) for a in ((0,), (1,)))
    for key in [((x, 1), (d, 1)), ((d, 1), (d, 1))]:
        with pytest.raises(ValueError, match=r"monomial key .* symbols not strictly increasing"):
            _w11_element(key)
    # the word x.d normalizes to 2 d + d.x
    R = H.uea.ring
    assert H.uea.pbw_normalize([x, d]) == H.uea.element({((d, 1),): R.from_int(2), ((d, 1), (x, 1)): R.one})


def test_an_element_key_with_a_folded_exponent_is_refused():
    # in u(W(1;1)) at p = 3, d^3 = 0 and x^3 = x, so neither exponent 3 nor 5 is normal
    d, x = (modular(3, 1, (1,), 1).uea.alg.basis_symbol(a, 1) for a in ((0,), (1,)))
    for key in [((d, 5),), ((d, 3),), ((x, 3),), ((d, 1), (x, 4))]:
        with pytest.raises(ValueError, match=r"monomial key .* not that of a normal monomial"):
            _w11_element(key)
    assert _w11_element(((d, 2), (x, 2))).terms == {monomial(((d, 2), (x, 2))): (1,)}


def test_an_element_key_with_a_foreign_symbol_is_refused():
    for b in [BasisDeriv("wplus", (0,), 1), BasisDeriv("jw", (3,), 1), BasisDeriv("jw", (0, 0), 1)]:
        with pytest.raises(ValueError, match=r"monomial key .*"):
            _w11_element(((b, 1),))


def test_an_element_key_with_exponent_below_one_is_refused():
    d = modular(3, 1, (1,), 1).uea.alg.basis_symbol((0,), 1)
    for e in (0, -1):
        with pytest.raises(ValueError, match=rf"monomial key .* exponent {e}, not that of a normal monomial"):
            _w11_element(((d, e),))
    assert _w11_element(()).terms == {(): (1,)}  # the unit key stays valid
