"""Acceptance criteria for the whole build, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every comparison is exact (integers, rationals, residues); there
are no tolerances anywhere.
"""
import itertools

from wittquant.liealg import JacobsonWitt, LieElement, RMatrixData
from wittquant.rings import gf
from wittquant.twist import char0_general, integral_eta, modular
from wittquant.uea import EnvelopingAlgebra
from wittquant.verify import (
    Char0Config,
    ModularConfig,
    check_commutation_suite,
    check_dimensions_radford,
    check_factorial_identities,
    check_hopf_axioms,
    check_modular_reduction,
    check_restricted_structure,
    check_twist_laws,
)

from oracles import element_matrix, mat_commutator, mat_pow, op_matrix

MODULAR_SHAPES = ((3, 1), (5, 1), (3, 2))


def _etas(n):
    return [e for e in itertools.product((0, 1), repeat=n) if any(e)]


def _report(num: int, desc: str, ok: bool):
    print(f"[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def _failures(report):
    return [c for c in report.checks if c.status == "fail"]


def test_criterion_1_dimension_anchors():
    ok = True
    for p, want in ((3, 27), (5, 3125)):
        alg = JacobsonWitt(1, p)
        U = EnvelopingAlgebra(alg, gf(p), restricted=True)
        count = sum(1 for _ in U.enumerate_restricted_basis())
        ok = ok and count == want == p ** (1 * p**1)
        ok = ok and count * p == p ** (1 + 1 * p**1)
    _report(1, "restricted PBW dimension anchors 27/81 and 3125/15625", ok)


def test_criterion_2_operator_oracle_equivalence():
    ok = True
    for p, n in MODULAR_SHAPES:
        alg = JacobsonWitt(n, p)
        basis = alg.basis()
        mats = {b: op_matrix(alg, b) for b in basis}
        elems = {b: LieElement.from_basis(alg, gf(p), b) for b in basis}
        for a in basis:
            for b in basis:
                got = element_matrix(elems[a].bracket(elems[b]))
                if got != mat_commutator(mats[a], mats[b], p):
                    ok = False
        for b in basis:
            target = alg.p_power(b)
            power = elems[target] if target is not None else LieElement(alg, gf(p), {})
            if element_matrix(power) != mat_pow(mats[b], p, p):
                ok = False
    _report(2, "brackets and p-powers match the operator representation, exhaustively", ok)


def test_criterion_3_identity_suite():
    bad = _failures(check_factorial_identities())
    configs = (
        Char0Config(),
        Char0Config(d0=(1, 0), d0p=(0, 1), gamma=(1, 0), seed=1),
        Char0Config(d0=(1, 1), d0p=(0, 1), gamma=(2, 0), seed=3),  # pairing 2
    )
    for cfg in configs:
        bad += _failures(check_commutation_suite(cfg))
        bad += _failures(check_twist_laws(cfg))
    _report(3, "shifted-factorial and char-0 commutation/twistor identity suite", not bad)


def test_criterion_4_twist_laws():
    bad = []
    for cfg in (Char0Config(), Char0Config(d0=(1, 0), d0p=(0, 1), gamma=(1, 0))):
        bad += _failures(check_twist_laws(cfg))
    for p, n in MODULAR_SHAPES:
        for q in (0, 1):
            bad += _failures(check_twist_laws(ModularConfig(p, n, (1,) * n, q)))
    _report(4, "cocycle/counit/inverse/commutation laws for all basic and product twists", not bad)


def test_criterion_5_hopf_axioms():
    bad = []
    for p, n in MODULAR_SHAPES:
        for eta in _etas(n):
            for q in (0, 1):
                bad += _failures(check_hopf_axioms(modular(p, n, eta, q)))
    _report(5, "Hopf axioms on all generators and pairwise products, every twist", not bad)


def test_criterion_6_closed_form_vs_conjugation():
    ok = True

    def sweep(hopf, symbols):
        nonlocal ok
        for bd in symbols:
            dc, sc = hopf.conjugation_oracle(hopf.uea.gen(bd))
            if dc != hopf.delta_basis(bd) or sc != hopf.antipode_basis(bd):
                ok = False

    for rm in (RMatrixData((1,), (1,), (1,)), RMatrixData((1, 0), (0, 1), (1, 0))):
        hopf = char0_general(rm, cap=4)
        alg = hopf.uea.alg
        alphas = itertools.product(range(-2, 3), repeat=rm.n)
        syms = [alg.basis_symbol(a, i) for a in alphas for i in range(1, rm.n + 1)]
        sweep(hopf, syms)
    # nontrivial pairing: exponents must stay integral, h is rational
    hopf = char0_general(RMatrixData((1, 1), (0, 1), (2, 0)), cap=4)
    alg = hopf.uea.alg
    syms = [alg.basis_symbol(a, i) for a in ((0, 0), (2, 0), (1, 1), (-2, 2)) for i in (1, 2)]
    sweep(hopf, syms)
    for n in (1, 2):
        for eta in _etas(n):
            hopf = integral_eta(eta, n, cap=4)
            alg = hopf.uea.alg
            alphas = itertools.product(range(3), repeat=n)
            sweep(hopf, [alg.basis_symbol(a, i) for a in alphas for i in range(1, n + 1)])
    for p, n in MODULAR_SHAPES:
        for eta in _etas(n):
            for q in (0, 1):
                hopf = modular(p, n, eta, q)
                sweep(hopf, hopf.uea.alg.basis())
    _report(6, "closed-form deformed maps equal twist conjugation on every generator", ok)


def test_criterion_7_reduction_chain():
    bad = []
    for p, n in MODULAR_SHAPES:
        for k in range(1, n + 1):
            bad += _failures(check_modular_reduction(p, n, k))
    _report(7, "coefficient integrality and slotwise mod-p reduction of the closed forms", not bad)


def test_criterion_8_restricted_descent():
    bad = []
    for p, n in MODULAR_SHAPES:
        for eta in _etas(n):
            for q in (0, 1):
                bad += _failures(check_restricted_structure(ModularConfig(p, n, eta, q)))
                bad += _failures(check_dimensions_radford(ModularConfig(p, n, eta, q)))
    _report(8, "p-power descent congruences and the group-like/primitive pair relations", not bad)
