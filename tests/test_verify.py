import json

import pytest

from wittquant.grammar import parse_element
from wittquant.twist import QuantizedHopf, modular
from wittquant.uea import TensorElement
from wittquant.verify import (
    Char0Config,
    CheckReport,
    CheckResult,
    ModularConfig,
    _Collector,
    _render,
    check_dimensions_radford,
    check_factorial_identities,
    check_hopf_axioms,
    check_commutation_suite,
    check_modular_reduction,
    check_restricted_structure,
    check_twist_laws,
    run_suites,
)


def test_factorial_suite_passes():
    rep = check_factorial_identities()
    assert rep.passed and len(rep.checks) == 5


def test_twist_laws_pass_modular_and_char0():
    assert check_twist_laws(ModularConfig(3, 1, (1,))).passed
    assert check_twist_laws(Char0Config()).passed


def test_hopf_axioms_pass_small():
    rep = check_hopf_axioms(modular(3, 1, (1,)))
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert "coassociativity-products" in names
    assert "coproduct-multiplicative" in names


def test_reduction_chain_passes():
    rep = check_modular_reduction(3, 1, 1)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert "distinguished-e-reduces-with-factor-2" in names


def test_restricted_structure_passes():
    assert check_restricted_structure(ModularConfig(3, 1, (1,), q=1)).passed


RESTRICTED_CHECK_NAMES = {
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


def test_restricted_structure_p5_runs_every_check():
    rep = check_restricted_structure(ModularConfig(5, 1, (1,), q=1))
    assert rep.passed
    assert {c.name for c in rep.checks} == RESTRICTED_CHECK_NAMES


# Exact name sets per suite: a refactored loop that records no case drops its
# check from the report, and these sets catch that instead of passing vacuously.
COMMUTATION_CHECK_NAMES = {
    "generator-past-falling-factorial",
    "generator-past-rising-factorial",
    "e-power-past-falling-factorial",
    "e-power-past-rising-factorial",
    "generator-past-power-expansion",
    "iterated-ad-closed-form",
    "falling-factorial-coproduct",
    "power-slot-past-inverse-twist",
    "right-slot-past-inverse-twist",
    "generator-past-antipode-twistor",
    "power-past-antipode-twistor",
    "power-slot-past-inverse-twist-expansion",
    "coproduct-of-powers",
    "antipode-of-powers",
}

SINGLE_TWIST_CHECK_NAMES = {
    "cocycle-single-twist",
    "counit-single-twist",
    "twist-inverse-law",
    "twistor-inverse-law",
    "shifted-product-law",
    "twistor-product-law",
}

PRODUCT_TWIST_CHECK_NAMES = {
    "cocycle-product-twist",
    "counit-product-twist",
    "cross-direction-commutation-left",
    "cross-direction-commutation-right",
}

HOPF_CHECK_NAMES = {
    f"{law}-{tag}" for law in ("counit-law", "coassociativity", "antipode-law") for tag in ("generators", "products")
} | {"coproduct-multiplicative", "antipode-anti-multiplicative"}

REDUCTION_CHECK_NAMES = {
    "scaled-product-integrality",
    "twist-coefficient-integrality",
    "coefficient-reduction-match",
    "coproduct-slotwise-reduction",
    "antipode-slotwise-reduction",
    "ideal-terms-die-under-reduction",
    "distinguished-h-reduces",
    "distinguished-e-reduces-with-factor-2",
}

DIMS_PAIR_CHECK_NAMES = {
    "group-like-commutator",
    "torus-p-th-power",
    "group-like-p-th-power",
    "coproduct-of-torus-generator",
    "group-like-coproduct",
    "antipode-of-torus-generator",
    "counit-of-torus-generator",
    "counit-of-group-like",
}


def names(rep) -> set:
    return {c.name for c in rep.checks}


@pytest.mark.parametrize(
    "cfg", [Char0Config(), Char0Config(d0=(1, 0), d0p=(0, 1), gamma=(1, 0), cap=2)], ids=["n1", "n2"]
)
def test_commutation_suite_runs_every_check(cfg):
    rep = check_commutation_suite(cfg)
    assert rep.passed
    assert names(rep) == COMMUTATION_CHECK_NAMES


def test_twist_laws_run_every_check():
    assert names(check_twist_laws(ModularConfig(3, 1, (1,)))) == SINGLE_TWIST_CHECK_NAMES
    assert names(check_twist_laws(Char0Config())) == SINGLE_TWIST_CHECK_NAMES
    rep = check_twist_laws(ModularConfig(3, 2, (1, 1)))
    assert rep.passed
    assert names(rep) == SINGLE_TWIST_CHECK_NAMES | PRODUCT_TWIST_CHECK_NAMES


def test_twist_suite_checks_inverse_and_right_counit_at_every_shift(monkeypatch):
    # F_1 with h (x) 1 added breaks (Id (x) eps0) F_1 = 1 and F_1 F_1^-1 = 1, but not the unshifted twist
    build_twist = QuantizedHopf.build_twist

    def broken(self, a=0):
        tw = build_twist(self, a)
        if a != 1:
            return tw
        return tw._replace(forward=tw.forward + TensorElement.of(self.directions[0].h, self.uea.one()))

    monkeypatch.setattr(QuantizedHopf, "build_twist", broken)
    rows = {c.name: c for c in check_twist_laws(ModularConfig(3, 1, (1,))).checks}
    assert (rows["counit-single-twist"].status, rows["counit-single-twist"].counterexample) == ("fail", "eta=1 a=1")
    assert (rows["twist-inverse-law"].status, rows["twist-inverse-law"].counterexample) == ("fail", "eta=1 a=1")
    assert rows["cocycle-single-twist"].status == "pass"


def test_cross_direction_rows_name_the_direction_pair(monkeypatch):
    # e_1 (x) 1 added to the basic factor of direction 2 does not commute with direction 1's
    factor = QuantizedHopf.basic_twist_factor

    def broken(self, d, a=0, forward=True):
        F = factor(self, d, a, forward)
        return F + TensorElement.of(self.directions[0].e, self.uea.one()) if d == 1 else F

    monkeypatch.setattr(QuantizedHopf, "basic_twist_factor", broken)
    rows = {c.name: c for c in check_twist_laws(ModularConfig(3, 2, (1, 1))).checks}
    row = rows["cross-direction-commutation-left"]
    assert (row.status, row.counterexample) == ("fail", "eta=11 di=1 dj=2")


def test_hopf_reduction_and_dims_run_every_check():
    assert names(check_hopf_axioms(modular(3, 1, (1,)))) == HOPF_CHECK_NAMES
    assert names(check_modular_reduction(3, 1, 1)) == REDUCTION_CHECK_NAMES
    enumerated = check_dimensions_radford(ModularConfig(3, 1, (1,)))
    assert names(enumerated) == DIMS_PAIR_CHECK_NAMES | {"restricted-basis-count", "t-extended-dimension"}
    structural = check_dimensions_radford(ModularConfig(3, 2, (1, 1)))
    assert names(structural) == DIMS_PAIR_CHECK_NAMES | {"restricted-basis-count", "pbw-exponent-bound"}


@pytest.mark.parametrize(
    "p,n,note",
    [
        (3, 2, "enumeration skipped (p^(np^n) = 387420489)"),
        # 13^6591 is past Python's 4300-digit int-to-str limit
        (13, 3, "enumeration skipped (p^(np^n) = 13^6591 (7343 digits))"),
    ],
)
def test_dims_suite_notes_a_shape_it_does_not_enumerate(p, n, note):
    rep = check_dimensions_radford(ModularConfig(p, n, (1,) + (0,) * (n - 1)))
    assert rep.passed
    row = {c.name: c for c in rep.checks}["restricted-basis-count"]
    assert (row.status, row.counterexample) == ("structural", note)


def test_hopf_multiplicativity_checks_see_a_broken_closed_form(monkeypatch):
    # g (x) g added to every closed-form coproduct and g * g to every closed-form antipode
    delta_form, antipode_form = QuantizedHopf._delta_closed_form, QuantizedHopf._antipode_closed_form

    def delta_broken(self, bd):
        g = self.uea.gen(bd)
        return delta_form(self, bd) + TensorElement.of(g, g)

    def antipode_broken(self, bd):
        g = self.uea.gen(bd)
        return antipode_form(self, bd) + g * g

    monkeypatch.setattr(QuantizedHopf, "_delta_closed_form", delta_broken)
    monkeypatch.setattr(QuantizedHopf, "_antipode_closed_form", antipode_broken)
    rows = {c.name: c.status for c in check_hopf_axioms(modular(3, 1, (1,), q=1)).checks}
    assert rows["coproduct-multiplicative"] == "fail"
    assert rows["antipode-anti-multiplicative"] == "fail"


@pytest.mark.parametrize("n", [1, 2])
def test_an_antipode_missing_one_term_fails_the_antipode_laws(monkeypatch, n):
    # the laws go through antipode_out, never through the slot map and multiply_out
    hopf = modular(3, n, (1,) + (0,) * (n - 1), q=1)
    target = hopf.uea.alg.basis()[0]
    image = hopf.antipode_basis(target)
    dropped = max(image.terms)
    perturbed = hopf.uea.element({m: c for m, c in image.terms.items() if m != dropped})
    original = hopf.antipode_basis
    monkeypatch.setattr(hopf, "antipode_basis", lambda bd: perturbed if bd == target else original(bd))

    def no_multiply_out(self):
        raise AssertionError("an antipode law multiplied a mapped tensor out")

    monkeypatch.setattr(TensorElement, "multiply_out", no_multiply_out)
    rows = {c.name: c.status for c in check_hopf_axioms(hopf).checks}
    assert rows["antipode-law-generators"] == "fail" and rows["antipode-law-products"] == "fail"
    assert rows["counit-law-generators"] == rows["coassociativity-generators"] == "pass"


def test_dimensions_small_and_structural():
    rep = check_dimensions_radford(ModularConfig(3, 1, (1,)))
    assert rep.passed
    assert any(c.name == "restricted-basis-count" and c.status == "pass" for c in rep.checks)
    rep = check_dimensions_radford(ModularConfig(3, 2, (1, 1)))
    assert rep.passed
    assert any(c.name == "restricted-basis-count" and c.status == "structural" for c in rep.checks)
    assert any(c.name == "pbw-exponent-bound" for c in rep.checks)


def test_reports_are_deterministic():
    a = check_twist_laws(ModularConfig(3, 1, (1,), seed=5))
    b = check_twist_laws(ModularConfig(3, 1, (1,), seed=5))
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("elapsed_ms")
    db.pop("elapsed_ms")
    assert da == db


def test_json_schema_shape():
    rep = check_dimensions_radford(ModularConfig(3, 1, (1,)))
    d = rep.to_json_dict()
    assert list(d.keys()) == ["suite", "params", "checks", "elapsed_ms"]
    assert list(d["params"].keys()) == ["p", "n", "eta", "q", "cap", "seed"]
    assert d["params"]["eta"] == [1]
    for c in d["checks"]:
        assert set(c).issubset({"name", "status", "counterexample"})
    json.dumps(d)  # serializable


def test_collector_counterexample_renders_and_replays():
    # a failing check records the first witness, rendered in the element grammar
    H = modular(3, 1, (1,))
    U = H.uea
    x = U.gen(U.alg.basis_symbol((2,), 1)).scale_int(2)
    col = _Collector()
    col.record("demo", True, x)
    col.record("demo", False, x)
    col.record("demo", False, U.one())  # only the first failure is kept
    (res,) = col.report("demo", {}).checks
    assert res.status == "fail"
    assert res.counterexample == "2*x(2)D1"
    assert parse_element(res.counterexample, U) == x


def test_render_falls_back_to_strings():
    assert _render("plain note") == "plain note"
    assert _render(None) is None


def test_report_passed_logic():
    rep = CheckReport("s", {}, [CheckResult("a", "pass"), CheckResult("b", "structural")])
    assert rep.passed
    rep.checks.append(CheckResult("c", "fail", "x"))
    assert not rep.passed


def test_run_suites_twist_with_no_config_runs_the_char0_twist_laws():
    reports = run_suites("twist")
    assert [(rep.suite, rep.config) for rep in reports] == [("twist", Char0Config().as_dict())]
    assert reports[0].passed


def test_run_suites_selection_and_unknown():
    reports = run_suites("dims", modular_cfg=ModularConfig(3, 1, (1,)))
    assert [r.suite for r in reports] == ["dims"]
    # reports come back in selection order, not sorted by suite name
    reports = run_suites("dims,factorial", modular_cfg=ModularConfig(3, 1, (1,)))
    assert [r.suite for r in reports] == ["dims", "factorial"]
    with pytest.raises(ValueError, match="'dims' selected twice"):
        run_suites(["dims", "factorial", "dims"], modular_cfg=ModularConfig(3, 1, (1,)))
    with pytest.raises(ValueError):
        run_suites("nonsense", modular_cfg=ModularConfig(3, 1, (1,)))
