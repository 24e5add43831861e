"""The benchmark's verification workloads.

A workload has a set-up, which builds contexts and configs from the workload
seed, and a verdict, which runs a fixed list of calls through ``wittquant``'s
public API and returns the reports and comparisons they produced.  Both take
the imported ``wittquant`` package, so that the benchmark alone decides when
it is imported and whether its layers are traced first.

Every workload fixes the check names it expects.  A missing name is a check
that ran no case and vanished from its report; it counts as a failed op.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

HOPF_CHECKS = frozenset(
    {
        "counit-law-generators",
        "coassociativity-generators",
        "antipode-law-generators",
        "counit-law-products",
        "coassociativity-products",
        "antipode-law-products",
        "coproduct-multiplicative",
        "antipode-anti-multiplicative",
    }
)
RESTRICTED_CHECKS = frozenset(
    {
        "line-p-th-power-is-one",
        "truncated-geometric-inverse",
        "rising-factorial-vanishes-at-p",
        "composed-divided-ad-powers",
        "divided-power-on-unit-exponent",
        "divided-power-on-p-th-power",
        "p-th-power-vanishes-off-torus",
        "power-formula-coproduct",
        "power-formula-antipode",
        "coproduct-p-power-descent",
        "antipode-p-power-descent",
    }
)
DIMS_CHECKS = frozenset(
    {
        "restricted-basis-count",
        "group-like-commutator",
        "torus-p-th-power",
        "group-like-p-th-power",
        "coproduct-of-torus-generator",
        "group-like-coproduct",
        "antipode-of-torus-generator",
        "counit-of-torus-generator",
        "counit-of-group-like",
    }
)
# check_dimensions_radford enumerates the restricted PBW basis up to this size
# and samples random words above it.
DIMS_ENUMERATION_LIMIT = 5000
COMMUTATION_CHECKS = frozenset(
    {
        "generator-past-falling-factorial",
        "generator-past-rising-factorial",
        "e-power-past-falling-factorial",
        "e-power-past-rising-factorial",
        "generator-past-power-expansion",
        "iterated-ad-closed-form",
        "falling-factorial-coproduct",
        "coproduct-of-powers",
        "antipode-of-powers",
        "generator-past-antipode-twistor",
        "power-past-antipode-twistor",
        "right-slot-past-inverse-twist",
        "power-slot-past-inverse-twist",
        "power-slot-past-inverse-twist-expansion",
    }
)
TWIST_SINGLE_CHECKS = frozenset(
    {
        "cocycle-single-twist",
        "counit-single-twist",
        "twist-inverse-law",
        "twistor-inverse-law",
        "shifted-product-law",
        "twistor-product-law",
    }
)
# With n >= 2 the suite also builds the product twist over all directions.
TWIST_PRODUCT_CHECKS = TWIST_SINGLE_CHECKS | {
    "cocycle-product-twist",
    "counit-product-twist",
    "cross-direction-commutation-left",
    "cross-direction-commutation-right",
}


def twist_checks(n: int) -> frozenset:
    return TWIST_PRODUCT_CHECKS if n >= 2 else TWIST_SINGLE_CHECKS


@dataclass(frozen=True)
class Workload:
    """``setup(wittquant, seed) -> state``; ``verdict(wittquant, state) -> (reports, comparisons)``.

    ``reports`` is a list of ``(label, CheckReport)``, ``comparisons`` a list
    of ``(op name, bool)``; ``expected`` maps each report label to the check
    names that report must contain.
    """

    name: str
    setup: Callable
    verdict: Callable
    expected: dict


def score(workload: Workload, reports, comparisons) -> dict:
    """Every op of one verdict and its status: pass, fail, skipped, structural or missing."""
    ops = {}
    for label, report in reports:
        for check in report.checks:
            ops[f"{label}/{check.name}"] = check.status
    for label, names in workload.expected.items():
        for name in sorted(names):
            ops.setdefault(f"{label}/{name}", "missing")
    for name, ok in comparisons:
        ops[name] = "pass" if ok else "fail"
    return ops


def hopf_workload(name: str, p: int, n: int, q: int) -> Workload:
    """check_hopf_axioms on the restricted quantization with every direction twisted.

    The generators keep the canonical basis order that the CLI and the
    acceptance criteria use.  The order decides which pair products are
    normal-ordered and how much the memo caches share: seeded shuffles took
    17.9 to 24.5 s CPU at (3,2), q=1, over six seeds.  So the seed is not used.
    """

    def setup(wq, seed):
        return wq.modular(p, n, (1,) * n, q)

    def verdict(wq, hopf):
        return [("hopf", wq.verify.check_hopf_axioms(hopf))], []

    return Workload(name, setup, verdict, {"hopf": HOPF_CHECKS})


def restricted_workload(name: str, p: int, n: int, q: int) -> Workload:
    """check_restricted_structure and check_dimensions_radford on one seeded config."""
    enumerated = p ** (n * p**n) <= DIMS_ENUMERATION_LIMIT
    dims = DIMS_CHECKS | ({"t-extended-dimension"} if enumerated else {"pbw-exponent-bound"})

    def setup(wq, seed):
        return wq.ModularConfig(p, n, (1,) * n, q, seed)

    def verdict(wq, cfg):
        return [
            ("restricted", wq.verify.check_restricted_structure(cfg)),
            ("dims", wq.verify.check_dimensions_radford(cfg)),
        ], []

    return Workload(name, setup, verdict, {"restricted": RESTRICTED_CHECKS, "dims": dims})


def twist_workload(name: str, p: int, n: int, q: int) -> Workload:
    """check_twist_laws on one modular config."""

    def setup(wq, seed):
        return wq.ModularConfig(p, n, (1,) * n, q, seed)

    def verdict(wq, cfg):
        return [("twist", wq.verify.check_twist_laws(cfg))], []

    return Workload(name, setup, verdict, {"twist": twist_checks(n)})


# Acceptance criterion 3: the char-0 configs ((d0, d0', gamma), seed), the last with pairing 2.
CRITERION3_CONFIGS = (
    (((1,), (1,), (1,)), 0),
    (((1, 0), (0, 1), (1, 0)), 1),
    (((1, 1), (0, 1), (2, 0)), 3),
)
# Acceptance criterion 6, char-0 and integral part.  Char-0 contexts:
# (r-matrix data, exponents or None for all of [-2, 2]^n).  Integral contexts:
# every nonzero eta for each n, exponents [0, 2]^n.
CRITERION6_CHAR0 = (
    (((1,), (1,), (1,)), None),
    (((1, 0), (0, 1), (1, 0)), None),
    (((1, 1), (0, 1), (2, 0)), ((0, 0), (2, 0), (1, 1), (-2, 2))),
)
CRITERION6_INTEGRAL_N = (1, 2)
CAP = 4


def char0_workload(name: str, configs, sweep_char0, sweep_integral_n) -> Workload:
    """Commutation and twist suites on char-0 configs plus the closed form vs conjugation sweep.

    The configs keep the seeds of acceptance criterion 3: a config's seed
    picks the exponents its commutation suite samples, and drawing them from
    the workload seed moved the verdict time from 6.3 to 10.5 s over five
    seeds.  The workload seed shuffles the order of the sweep instead, which
    compares ``conjugation_oracle`` with ``delta_basis``/``antipode_basis``
    on every listed basis symbol of the char-0 and integral contexts.  Every
    symbol is swept whatever the order, and the memo caches compute each
    product once, so the order leaves the work unchanged.
    """

    def setup(wq, seed):
        rng = random.Random(seed)
        cfgs = [
            wq.Char0Config(d0=d0, d0p=d0p, gamma=gamma, cap=CAP, seed=cfg_seed)
            for (d0, d0p, gamma), cfg_seed in configs
        ]
        contexts = []
        for (d0, d0p, gamma), alphas in sweep_char0:
            rm = wq.RMatrixData(d0, d0p, gamma)
            hopf = wq.char0_general(rm, cap=CAP)
            if alphas is None:
                alphas = itertools.product(range(-2, 3), repeat=rm.n)
            syms = [hopf.uea.alg.basis_symbol(a, i) for a in alphas for i in range(1, rm.n + 1)]
            rng.shuffle(syms)
            contexts.append((f"char0-{''.join(map(str, d0 + d0p + gamma))}", hopf, syms))
        for n in sweep_integral_n:
            for eta in itertools.product((0, 1), repeat=n):
                if not any(eta):
                    continue
                hopf = wq.integral_eta(eta, n, cap=CAP)
                alphas = itertools.product(range(3), repeat=n)
                syms = [hopf.uea.alg.basis_symbol(a, i) for a in alphas for i in range(1, n + 1)]
                rng.shuffle(syms)
                contexts.append((f"integral-{''.join(map(str, eta))}", hopf, syms))
        return cfgs, contexts

    def verdict(wq, state):
        cfgs, contexts = state
        reports = []
        for k, cfg in enumerate(cfgs):
            reports.append((f"commutation-{k}", wq.verify.check_commutation_suite(cfg)))
            reports.append((f"twist-{k}", wq.verify.check_twist_laws(cfg)))
        comparisons = []
        for label, hopf, syms in contexts:
            for bd in syms:
                dc, sc = hopf.conjugation_oracle(hopf.uea.gen(bd))
                ok = dc == hopf.delta_basis(bd) and sc == hopf.antipode_basis(bd)
                comparisons.append((f"conjugation/{label}/{bd.alpha}/{bd.i}", ok))
        return reports, comparisons

    expected = {}
    for k, ((_, _, gamma), _) in enumerate(configs):
        expected[f"commutation-{k}"] = COMMUTATION_CHECKS
        expected[f"twist-{k}"] = twist_checks(len(gamma))
    return Workload(name, setup, verdict, expected)


# The reason for each workload is its "why" in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        hopf_workload("hopf-3x2-q1", 3, 2, 1),
        restricted_workload("restricted-3x2-q1", 3, 2, 1),
        char0_workload("char0-identities", CRITERION3_CONFIGS, CRITERION6_CHAR0, CRITERION6_INTEGRAL_N),
        twist_workload("twist-7x1-q1", 7, 1, 1),
    )
}

# Small shapes for the self-test, (3,1) and (5,1): each verdict takes under two seconds.
SMALL_WORKLOADS = {
    w.name: w
    for w in (
        hopf_workload("hopf-3x1-q1", 3, 1, 1),
        restricted_workload("restricted-3x1-q1", 3, 1, 1),
        restricted_workload("restricted-5x1-q1", 5, 1, 1),
        twist_workload("twist-5x1-q1", 5, 1, 1),
        char0_workload("char0-small", CRITERION3_CONFIGS[:1], CRITERION6_CHAR0[:1], (1,)),
    )
}


def lookup(name: str) -> Workload:
    workload = WORKLOADS.get(name) or SMALL_WORKLOADS.get(name)
    if workload is None:
        known = ", ".join([*WORKLOADS, *SMALL_WORKLOADS])
        raise KeyError(f"unknown workload {name!r} (choose from {known})")
    return workload
