"""Executable verification suites: identities, twist laws, Hopf axioms.

Every check computes both sides of an identity along independent routes and
requires exact equality, producing a structured :class:`CheckReport` whose
failures carry a replayable counterexample in the plain-text element grammar.
The twist laws take no element argument, so their counterexample names the
context and where the law failed: the shift a (``eta=1 a=2``), the shifts a, b
(``eta=1 a=0 b=2``), or the direction numbers di, dj of a cross-direction law
(``eta=11 di=1 dj=2``).
All randomized sampling is driven by an explicit seed recorded in the report.

The double sums for Delta(x^s) and S(x^s) over divided ad-powers live in
``_power_formulas``; the commutation suite compares them with the conjugation
oracle, the restricted suite with the extended closed forms.
"""
from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .liealg import RMatrixData, pairing
from .rings import QQ, binom_int, multi_factorial, t_series
from .twist import (
    QuantizedHopf,
    basic_coefficient,
    char0_general,
    integral_eta,
    modular,
    modular_unrestricted,
)
from .uea import TensorElement, reduce_element_mod_p, reduce_tensor_mod_p

ENUMERATION_LIMIT = 5000  # largest dim u(W(n;1)) whose restricted PBW basis is enumerated
FACTORIAL_ORDER = 8  # highest order of the shifted-factorial laws, the factorial report's cap


def is_enumerable(p: int, e: int) -> bool:
    """Whether dim u(W(n;1)) = p^e, with e = n*p^n, is at most ENUMERATION_LIMIT."""
    # p >= 3 > 2, so p**e exceeds the limit once e reaches its bit length; no large power is built
    return e < ENUMERATION_LIMIT.bit_length() and p**e <= ENUMERATION_LIMIT


def power_text(p: int, e: int) -> str:
    """p**e in decimal; past Python's int-to-str digit limit, p^e and its digit count."""
    with decimal.localcontext() as ctx:
        ctx.prec = e.bit_length() // 3 + 20  # e * log10(p) to well below one unit
        digits = int(decimal.Decimal(p).log10() * e) + 1  # p**e is never a power of 10
    if digits > (sys.get_int_max_str_digits() or digits):
        return f"{p}^{e} ({digits} digits)"
    return str(p**e)


def _report_params(p=None, n=None, eta=None, q=None, cap=None, seed=None) -> dict:
    """The six params every report carries, in report order; a param not given is None."""
    return {"p": p, "n": n, "eta": eta, "q": q, "cap": cap, "seed": seed}


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | structural
    counterexample: str | None = None


@dataclass
class CheckReport:
    suite: str
    config: dict
    checks: list = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        checks = []
        for c in sorted(self.checks, key=lambda c: c.name):
            row = {"name": c.name, "status": c.status}
            if c.counterexample is not None:
                row["counterexample"] = c.counterexample
            checks.append(row)
        params = _report_params(**self.config)
        if isinstance(params["eta"], tuple):
            params["eta"] = list(params["eta"])
        return {
            "suite": self.suite,
            "params": params,
            "checks": checks,
            "elapsed_ms": self.elapsed_ms,
        }


class _Collector:
    """Aggregates per-case outcomes into one named check with a counterexample."""

    def __init__(self):
        self.rows: dict = {}  # name -> CheckResult, in the order of first record
        self.t0 = time.monotonic()

    def record(self, name: str, ok: bool, witness=None):
        if name not in self.rows:
            self.rows[name] = CheckResult(name, "pass")
        row = self.rows[name]
        if not ok and row.status != "fail":
            row.status = "fail"
            row.counterexample = _render(witness)

    def mark(self, name: str, status: str, note: str | None = None):
        if name not in self.rows:
            self.rows[name] = CheckResult(name, status, note)

    def report(self, suite: str, config: dict) -> CheckReport:
        elapsed_ms = int((time.monotonic() - self.t0) * 1000)
        return CheckReport(suite, config, list(self.rows.values()), elapsed_ms)


def _render(witness) -> str | None:
    if witness is None:
        return None
    if isinstance(witness, str):
        return witness
    from .grammar import format_element

    return format_element(witness)


@dataclass(frozen=True)
class ModularConfig:
    p: int
    n: int
    eta: tuple
    q: int = 0
    seed: int = 0

    def as_dict(self) -> dict:
        return _report_params(p=self.p, n=self.n, eta=tuple(self.eta), q=self.q, cap=self.p, seed=self.seed)


@dataclass(frozen=True)
class Char0Config:
    d0: tuple = (1,)
    d0p: tuple = (1,)
    gamma: tuple = (1,)
    cap: int = 4
    seed: int = 0

    @property
    def n(self) -> int:
        return len(self.gamma)

    def rmatrix(self) -> RMatrixData:
        return RMatrixData(self.d0, self.d0p, self.gamma)

    def as_dict(self) -> dict:
        return _report_params(n=self.n, cap=self.cap, seed=self.seed)


# -- shifted factorial identities over a polynomial ring -----------------------------------------


def check_factorial_identities() -> CheckReport:
    """Splitting/conversion/collapse laws of the shifted factorials up to order
    FACTORIAL_ORDER, as polynomial identities."""
    col = _Collector()
    A = [Fraction(v) for v in (-2, -1, 0, 1, 2)] + [Fraction(1, 2)]
    # polynomials in the indeterminate t; no degree here exceeds FACTORIAL_ORDER
    R = t_series(QQ, FACTORIAL_ORDER + 1)

    def fact(a: Fraction, r: int, kind: str):
        """Shifted factorial of t: prod_j (t + a +/- j)."""
        step = 1 if kind == "rising" else -1
        out = R.one
        for j in range(r):
            out = R.mul(out, R.add(R.from_fraction(a + step * j), R.t_power(1)))
        return out

    for a in A:
        for s in range(FACTORIAL_ORDER + 1):
            for t in range(FACTORIAL_ORDER + 1 - s):
                lhs = fact(a, s + t, "rising")
                rhs = R.mul(fact(a, s, "rising"), fact(a + s, t, "rising"))
                col.record("rising-split", lhs == rhs, f"a={a} s={s} t={t}")
                lhs = fact(a, s + t, "falling")
                rhs = R.mul(fact(a, s, "falling"), fact(a - s, t, "falling"))
                col.record("falling-split", lhs == rhs, f"a={a} s={s} t={t}")
        for s in range(FACTORIAL_ORDER + 1):
            col.record(
                "falling-to-rising",
                fact(a, s, "falling") == fact(a - s + 1, s, "rising"),
                f"a={a} s={s}",
            )
    for a in A:
        for b in A:
            for r in range(FACTORIAL_ORDER + 1):
                acc = R.zero
                for s in range(r + 1):
                    t = r - s
                    c = R.from_fraction(Fraction((-1) ** t, math.factorial(s) * math.factorial(t)))
                    acc = R.add(acc, R.mul(c, R.mul(fact(a, s, "falling"), fact(b, t, "rising"))))
                ok = acc == R.from_fraction(binom_int(a - b, r))
                col.record("mixed-collapse-to-binomial", ok, f"a={a} b={b} r={r}")

                acc = R.zero
                for s in range(r + 1):
                    t = r - s
                    c = R.from_fraction(Fraction((-1) ** t, math.factorial(s) * math.factorial(t)))
                    acc = R.add(acc, R.mul(c, R.mul(fact(a, s, "falling"), fact(b - s, t, "falling"))))
                ok = acc == R.from_fraction(binom_int(a - b + r - 1, r))
                col.record("falling-collapse-to-binomial", ok, f"a={a} b={b} r={r}")
    return col.report("factorial", {"cap": FACTORIAL_ORDER})


# -- commutation laws in the char-0 enveloping algebra -------------------------------------------


def _sample_alphas(rng, n, count):
    seen = []
    while len(seen) < count:
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        if a not in seen:
            seen.append(a)
    return seen


def _ad_along(hopf, ell, y):
    """The divided ad-powers (ad e_d)^l_d / l_d! of y, applied in ascending direction order."""
    for direction, l in zip(hopf.directions, ell):
        y = hopf.uea.ad_divided_power(direction.e, l, y)
    return y


def _shift_sums(hopf, a, X):
    """sum_l (-1)^l F_{a+l}^{-1} (h^<l>_a (x) X_l t^l) and sum_l X_l h^<l>_{1-a} t^l
    over the nonzero X_l, for a single-direction twist (h^<l>_a is the rising factorial)."""
    U, ring, h = hopf.uea, hopf.uea.ring, hopf.directions[0].h
    tensor, element = TensorElement(U, 2, {}), U.zero()
    for ell, xl in enumerate(X):
        if not xl:
            continue
        piece = TensorElement.of(U.factorial_element(h, a, ell), xl.scale(ring.t_power(ell)))
        tensor = tensor + (hopf.build_twist(a + ell).inverse * piece).scale_int((-1) ** ell)
        element = element + (xl * U.factorial_element(h, 1 - Fraction(a), ell)).scale(ring.t_power(ell))
    return tensor, element


def _power_formulas(hopf, bd, s):
    """Delta(x^s) and S(x^s) for x = bd by the double sums over the divided ad-powers
    D_l = prod_d (ad e_d)^l_d / l_d!, with N_d the exponent rule of direction d:

        Delta(x^s) = sum_{j,l} C(s,j) (-1)^|l| x^j prod_d h_d^<l_d>
                                (x) prod_d (1 - e_d t)^(j N_d - l_d) D_l(x^(s-j)) t^|l|,
        S(x^s)     = (-1)^s prod_d (1 - e_d t)^(-s N_d) sum_l D_l(x^s) prod_d h_d^<l_d>_1 t^|l|.

    Each l_d runs below the truncation cap (below p in the restricted setting).
    """
    U, ring, dirs = hopf.uea, hopf.uea.ring, hopf.directions
    x = U.gen(bd)
    powers = [U.power(x, j) for j in range(s + 1)]
    ells = list(itertools.product(range(hopf.cap), repeat=len(dirs)))
    coproduct = TensorElement(U, 2, {})
    for j, ell in itertools.product(range(s + 1), ells):
        dl = _ad_along(hopf, ell, powers[s - j])
        if not dl:
            continue
        left, right = powers[j], dl
        for d, (direction, l) in enumerate(zip(dirs, ell)):
            left = left * U.factorial_element(direction.h, 0, l)
            right = hopf.one_minus_et_power(d, j * direction.exponent(bd) - l) * right
        piece = TensorElement.of(left, right.scale(ring.t_power(sum(ell))))
        coproduct = coproduct + piece.scale_int(binom_int(s, j) * (-1) ** sum(ell))
    acc = U.zero()
    for ell in ells:
        piece = _ad_along(hopf, ell, powers[s])
        if not piece:
            continue
        for direction, l in zip(dirs, ell):
            piece = piece * U.factorial_element(direction.h, 1, l)
        acc = acc + piece.scale(ring.t_power(sum(ell)))
    factors = (hopf.one_minus_et_power(d, -s * direction.exponent(bd)) for d, direction in enumerate(dirs))
    return coproduct, (functools.reduce(operator.mul, factors) * acc).scale_int((-1) ** s)


def check_commutation_suite(cfg: Char0Config) -> CheckReport:
    """Shift/straightening laws of the distinguished pair, all checked in the enveloping
    algebra U(W)[t]/t^cap of the one quantization ``char0_general`` builds; the laws
    without t run at t-degree 0."""
    col = _Collector()
    rng = random.Random(cfg.seed)
    rm = cfg.rmatrix()
    n = cfg.n
    hopf = char0_general(rm, cap=cfg.cap)
    U, W = hopf.uea, hopf.uea.alg
    h, e = hopf.directions[0].h, hopf.directions[0].e
    r = rm.pairing_value
    shifts = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
    alphas = _sample_alphas(rng, n, 5 if n == 1 else 8)

    @functools.cache  # one memo per suite call: the laws below ask for the same few factorials many times
    def hfact(a, m):  # the rising factorial h_a^<m>; the falling h_a^[m] is hfact(a - m + 1, m)
        return U.factorial_element(h, a, m)

    for alpha in alphas:
        for i in range(1, n + 1):
            x = U.gen(W.basis_symbol(alpha, i))
            N = pairing(rm.d0, alpha) / r
            for a in shifts:
                for m in range(4):
                    ok = x * hfact(a - m + 1, m) == hfact(a - N - m + 1, m) * x
                    col.record("generator-past-falling-factorial", ok, x)
                    ok = x * hfact(a, m) == hfact(a - N, m) * x
                    col.record("generator-past-rising-factorial", ok, x)
    for a in shifts:
        for k in range(4):
            ek = U.power(e, k)
            for m in range(4):
                ok = ek * hfact(a - m + 1, m) == hfact(a - k - m + 1, m) * ek
                col.record("e-power-past-falling-factorial", ok, f"a={a} k={k} m={m}")
                ok = ek * hfact(a, m) == hfact(a - k, m) * ek
                col.record("e-power-past-rising-factorial", ok, f"a={a} k={k} m={m}")

    # straightening a generator past powers of another, and the iterated-ad form
    def shifted(alpha, beta, j, k):  # prod_{jj<k} (alpha + jj beta)_j
        return math.prod((alpha[j - 1] + jj * beta[j - 1] for jj in range(k)), start=Fraction(1))

    pairs = [(al, be) for al in alphas[:3] for be in alphas[:3]]
    for alpha, beta in pairs:
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            x = U.gen(W.basis_symbol(alpha, i))
            y = U.gen(W.basis_symbol(beta, j))
            for m in range(4):
                lhs = x * U.power(y, m)
                rhs = U.zero()
                for ell in range(m + 1):
                    a_ell = shifted(alpha, beta, j, ell)
                    b_ell = ell * Fraction(beta[i - 1]) * shifted(alpha, beta, j, ell - 1) if ell else Fraction(0)
                    target = tuple(av + ell * bv for av, bv in zip(alpha, beta))
                    piece = U.gen(W.basis_symbol(target, i), U.ring.from_fraction(a_ell))
                    piece = piece - U.gen(W.basis_symbol(target, j), U.ring.from_fraction(b_ell))
                    coef = (-1) ** ell * binom_int(m, ell)
                    rhs = rhs + (U.power(y, m - ell) * piece).scale_int(coef)
                    if ell == m:
                        ad_piece = piece  # reuse for the iterated-ad law below
                col.record("generator-past-power-expansion", lhs == rhs, lhs)
                # iterated ad closed form
                cur = x
                for _ in range(m):
                    cur = y * cur - cur * y
                col.record("iterated-ad-closed-form", cur == ad_piece, cur)

    # primitive falling-factorial coproduct with shifts
    for rr in range(7):
        for s in (-2, -1, 0, 1, 2):
            lhs = U.coproduct0(hfact(1 - rr, rr))
            rhs = TensorElement(U, 2, {})
            for i in range(rr + 1):
                rhs = rhs + TensorElement.of(
                    hfact(1 - s - i, i), hfact(1 + s - rr + i, rr - i)
                ).scale_int(binom_int(rr, i))
            col.record("falling-factorial-coproduct", lhs == rhs, f"r={rr} s={s}")

    # interaction with the twist series (shift-past-twist and twistor laws)
    tshifts = [0, 1, -1]
    for alpha in alphas[:4]:
        for i in range(1, n + 1):
            bd = W.basis_symbol(alpha, i)
            x = U.gen(bd)
            N = pairing(rm.d0, alpha) / r
            for a in tshifts:
                Fa = hopf.build_twist(a).inverse
                for s in (1, 2):
                    xs = U.power(x, s)
                    lhs = TensorElement.of(xs, U.one()) * Fa
                    rhs = hopf.build_twist(Fraction(a) - s * N).inverse * TensorElement.of(xs, U.one())
                    col.record("power-slot-past-inverse-twist", lhs == rhs, xs)

                tensor, element = _shift_sums(hopf, a, [hopf.raised(bd, (ell,)) for ell in range(hopf.cap)])
                col.record("right-slot-past-inverse-twist", TensorElement.of(U.one(), x) * Fa == tensor, x)
                lhs = x * hopf.antipode_twistors(a).u_elem
                rhs = hopf.antipode_twistors(Fraction(a) + N).u_elem * element
                col.record("generator-past-antipode-twistor", lhs == rhs, x)

                for s in (1, 2):
                    xs = U.power(x, s)
                    tensor, element = _shift_sums(hopf, a, [U.ad_divided_power(e, ell, xs) for ell in range(hopf.cap)])
                    lhs = xs * hopf.antipode_twistors(a).u_elem
                    rhs = hopf.antipode_twistors(Fraction(a) + s * N).u_elem * element
                    col.record("power-past-antipode-twistor", lhs == rhs, xs)
                    lhs = TensorElement.of(U.one(), xs) * Fa
                    col.record("power-slot-past-inverse-twist-expansion", lhs == tensor, xs)

    # coproduct/antipode of powers against the conjugation oracle
    int_alphas = [al for al in alphas if (pairing(rm.d0, al) / r).denominator == 1]
    for alpha in int_alphas[:3]:
        for i in range(1, n + 1):
            bd = W.basis_symbol(alpha, i)
            for s in (1, 2, 3):
                xs = U.power(U.gen(bd), s)
                dc, sc = hopf.conjugation_oracle(xs)
                coproduct, antipode = _power_formulas(hopf, bd, s)
                col.record("coproduct-of-powers", dc == coproduct, xs)
                col.record("antipode-of-powers", sc == antipode, xs)
    return col.report("commutation", cfg.as_dict())


# -- twist laws ----------------------------------------------------------------------------------


def _cocycle_ok(hopf, F) -> bool:
    d0 = hopf.uea.coproduct0_mono
    return F.pad(right=1) * F.expand_slot(0, d0) == F.pad(left=1) * F.expand_slot(1, d0)


def check_twist_laws(cfg) -> CheckReport:
    """Cocycle/counit conditions, inverse laws, and cross-direction commutation."""
    col = _Collector()
    n = cfg.n
    etas = [eta for eta in itertools.product((0, 1), repeat=n) if any(eta)]
    if isinstance(cfg, ModularConfig):
        hopfs = [modular(cfg.p, n, eta, cfg.q) for eta in etas]
        shifts = list(range(cfg.p))
    else:
        hopfs = [char0_general(cfg.rmatrix(), cfg.cap)] + [integral_eta(eta, n, cfg.cap) for eta in etas]
        shifts = list(range(-2, 3))

    for hopf in hopfs:
        label = "single" if len(hopf.directions) == 1 else "product"
        tw = hopf.build_twist(0)
        col.record(f"cocycle-{label}-twist", _cocycle_ok(hopf, tw.forward), hopf.name)
        unit, one = TensorElement.unit(hopf.uea), hopf.uea.one()
        for a in shifts:
            twa = hopf.build_twist(a)
            ok = twa.forward * twa.inverse == unit and twa.inverse * twa.forward == unit
            col.record("twist-inverse-law", ok, f"{hopf.name} a={a}")
            # (Id (x) eps0) F_a = 1 at every shift; (eps0 (x) Id) F_a = (1 - et)^a, which is 1 only at a = 0
            slots = (0, 1) if a == 0 else (1,)
            ok = all(twa.forward.contract(slot).to_element() == one for slot in slots)
            col.record(f"counit-{label}-twist", ok, f"{hopf.name} a={a}")
            pair = hopf.antipode_twistors(a)
            pair_m = hopf.antipode_twistors(-a)
            col.record(
                "twistor-inverse-law",
                pair.u_elem * pair_m.v_elem == hopf.uea.one()
                and pair_m.v_elem * pair.u_elem == hopf.uea.one(),
                f"{hopf.name} a={a}",
            )
        if len(hopf.directions) == 1:
            for a in shifts:
                for b in shifts:
                    fa = hopf.build_twist(a).forward
                    ib = hopf.build_twist(b).inverse
                    want = TensorElement.of(hopf.uea.one(), hopf.one_minus_et_power(0, a - b))
                    col.record("shifted-product-law", fa * ib == want, f"{hopf.name} a={a} b={b}")
                    va = hopf.antipode_twistors(a).v_elem
                    ub = hopf.antipode_twistors(b).u_elem
                    col.record(
                        "twistor-product-law",
                        va * ub == hopf.one_minus_et_power(0, -(a + b)),
                        f"{hopf.name} a={a} b={b}",
                    )

    multi = [h for h in hopfs if len(h.directions) >= 2]
    for hopf in multi:
        d0 = hopf.uea.coproduct0_mono
        for di, dj in itertools.permutations(range(len(hopf.directions)), 2):
            Fi = hopf.basic_twist_factor(di)
            Fj = hopf.basic_twist_factor(dj)
            where = f"{hopf.name} di={hopf.directions[di].k} dj={hopf.directions[dj].k}"
            lhs = Fj.pad(right=1) * Fi.expand_slot(0, d0)
            rhs = Fi.expand_slot(0, d0) * Fj.pad(right=1)
            col.record("cross-direction-commutation-left", lhs == rhs, where)
            lhs = Fj.pad(left=1) * Fi.expand_slot(1, d0)
            rhs = Fi.expand_slot(1, d0) * Fj.pad(left=1)
            col.record("cross-direction-commutation-right", lhs == rhs, where)
    return col.report("twist", cfg.as_dict())


# -- Hopf axioms ---------------------------------------------------------------------------------


def check_hopf_axioms(hopf: QuantizedHopf) -> CheckReport:
    """Coassociativity, counit and antipode laws on generators and pair products, and the
    (anti-)multiplicativity of Delta and S on g_j g_i for j > i, which straightens."""
    col = _Collector()
    U = hopf.uea
    gens = U.alg.basis()

    def laws(x, tag):
        dx = hopf.delta(x)
        ok = dx.contract(0).to_element() == x and dx.contract(1).to_element() == x
        col.record(f"counit-law-{tag}", ok, x)
        lhs = dx.expand_slot(0, hopf.delta_mono)
        rhs = dx.expand_slot(1, hopf.delta_mono)
        col.record(f"coassociativity-{tag}", lhs == rhs, x)
        want = U.one().scale(hopf.counit(x))
        left = dx.antipode_out(0, hopf.antipode_basis)
        right = dx.antipode_out(1, hopf.antipode_basis)
        col.record(f"antipode-law-{tag}", left == want and right == want, x)
        return dx

    gen_elems = [U.gen(b) for b in gens]
    deltas = {b: laws(x, "generators") for b, x in zip(gens, gen_elems)}
    antipodes = {b: hopf.antipode(x) for b, x in zip(gens, gen_elems)}
    for ii in range(len(gens)):
        for jj in range(ii, len(gens)):
            laws(gen_elems[ii] * gen_elems[jj], "products")
            y = gen_elems[jj] * gen_elems[ii]
            col.record("coproduct-multiplicative", hopf.delta(y) == deltas[gens[jj]] * deltas[gens[ii]], y)
            sy = U.mul(antipodes[gens[ii]], antipodes[gens[jj]])
            col.record("antipode-anti-multiplicative", hopf.antipode(y) == sy, y)
    params = _report_params(
        p=getattr(U.alg, "p", None), n=U.alg.n, eta=hopf.eta, q=getattr(U.ring, "q", None), cap=hopf.cap, seed=0
    )
    return col.report("hopf", params)


# -- the modular reduction chain -----------------------------------------------------------------


def check_modular_reduction(p: int, n: int, k: int, seed: int = 0) -> CheckReport:
    """Integrality of the twist coefficients and slotwise mod-p reduction of the closed forms."""
    col = _Collector()
    rng = random.Random(seed)

    for a in range(-10, 11):
        for kk in range(-10, 11):
            for ell in range(11):
                num = a**ell
                for j in range(ell):
                    num *= kk + j * a
                col.record(
                    "scaled-product-integrality",
                    num % math.factorial(ell) == 0,
                    f"a={a} k={kk} l={ell}",
                )

    eta = tuple(1 if j == k - 1 else 0 for j in range(n))
    int_hopf = integral_eta(eta, n, cap=p)
    mod_hopf = modular_unrestricted(p, n, eta, cap=p)

    alphas_in = list(itertools.product(range(p), repeat=n))
    alphas_out = [tuple(a + (p if j == k - 1 else 0) for j, a in enumerate(al)) for al in alphas_in[:4]]
    samples = rng.sample(alphas_in, min(8, len(alphas_in))) + alphas_out[:2]
    WU, MU = int_hopf.uea, mod_hopf.uea
    e_mod = mod_hopf.directions[0].e
    for alpha in samples:
        ak = alpha[k - 1]
        for i in range(1, n + 1):
            dik = 1 if i == k else 0
            for ell in range(2 * p + 1):
                C = basic_coefficient(ak, dik, ell)
                col.record("twist-coefficient-integrality", C.denominator == 1, f"alpha={alpha} i={i} l={ell}")
                if ell < p and ak < p:
                    # Cbar_l read off U(W(n;1)): (ad e)^l / l! (x^(alpha) D_i) = Cbar_l x^(alpha + l e_k) D_i,
                    # where Cbar_l vanishes once alpha_k + l leaves the range
                    Cbar = basic_coefficient(ak, dik, ell, p)
                    raised = alpha[: k - 1] + (ak + ell,) + alpha[k:]
                    want = MU.zero()
                    if MU.alg.in_range(raised):
                        want = MU.gen(MU.alg.basis_symbol(raised, i), MU.ring.from_int(Cbar))
                    got = MU.ad_divided_power(e_mod, ell, MU.gen(MU.alg.basis_symbol(alpha, i)))
                    ok = got == want and (MU.alg.in_range(raised) or Cbar == 0)
                    col.record("coefficient-reduction-match", ok, f"alpha={alpha} i={i} l={ell}")

    # slotwise structural reduction of the deformed maps
    for alpha in rng.sample(alphas_in, min(6, len(alphas_in))):
        for i in range(1, n + 1):
            bd = WU.alg.basis_symbol(alpha, i)
            scale = Fraction(1, multi_factorial(alpha))
            dx = int_hopf.delta_basis(bd).scale(WU.ring.from_fraction(scale))
            sx = int_hopf.antipode_basis(bd).scale(WU.ring.from_fraction(scale))
            target_bd = MU.alg.basis_symbol(alpha, i)
            ok = reduce_tensor_mod_p(dx, MU) == mod_hopf.delta_basis(target_bd)
            col.record("coproduct-slotwise-reduction", ok, f"alpha={alpha} i={i}")
            ok = reduce_element_mod_p(sx, MU) == mod_hopf.antipode_basis(target_bd)
            col.record("antipode-slotwise-reduction", ok, f"alpha={alpha} i={i}")
    for alpha in alphas_out[:2]:
        for i in (1,):
            bd = WU.alg.basis_symbol(alpha, i)
            dx = int_hopf.delta_basis(bd)
            sx = int_hopf.antipode_basis(bd)
            ok = not reduce_tensor_mod_p(dx, MU) and not reduce_element_mod_p(sx, MU)
            col.record("ideal-terms-die-under-reduction", ok, f"alpha={alpha} i={i}")

    # the distinguished pair maps onto its modular counterpart (factor 2 on e)
    h_int, e_int = int_hopf.directions[0].h, int_hopf.directions[0].e
    h_mod, e_mod = mod_hopf.directions[0].h, mod_hopf.directions[0].e
    col.record("distinguished-h-reduces", reduce_element_mod_p(h_int, MU) == h_mod, h_int)
    col.record("distinguished-e-reduces-with-factor-2", reduce_element_mod_p(e_int, MU) == e_mod, e_int)

    return col.report("reduction", _report_params(p=p, n=n, eta=eta, cap=p, seed=seed))


# -- restricted structure ------------------------------------------------------------------------


def check_restricted_structure(cfg: ModularConfig) -> CheckReport:
    """Truncation identities, divided ad-powers, and descent of the p-power relations."""
    col = _Collector()
    p = cfg.p
    hopf = modular(cfg.p, cfg.n, cfg.eta, cfg.q)
    U = hopf.uea
    alg = U.alg
    one = U.one()

    for d, direction in enumerate(hopf.directions):
        col.record("line-p-th-power-is-one", U.power(hopf.one_minus_et_power(d, 1), p) == one, f"dir={d}")
        # (1 - et) sum_{j<p} (et)^j = 1 - e^p t^p = 1, since e^p = 0 in u(W(n;1))
        inverse = hopf.one_minus_et_power(d, -1) * hopf.one_minus_et_power(d, 1)
        col.record("truncated-geometric-inverse", inverse == one, f"dir={d}")
        for a in (0, 1, 2):
            for ell in (p, p + 1):
                vanished = U.factorial_element(direction.h, a, ell)
                col.record("rising-factorial-vanishes-at-p", not vanished, f"dir={d} a={a} l={ell}")

    gens = alg.basis()
    for bd in gens:
        x = U.gen(bd)
        for ell_vec in itertools.product(range(p), repeat=len(hopf.directions)):
            col.record("composed-divided-ad-powers", _ad_along(hopf, ell_vec, x) == hopf.raised(bd, ell_vec), x)

    # divided powers on unit-exponent generators and on p-th powers
    for i in range(1, alg.n + 1):
        eps_i = tuple(1 if j == i - 1 else 0 for j in range(alg.n))
        x = U.gen(alg.basis_symbol(eps_i, i))
        e_i = U.gen(alg.basis_symbol(tuple(2 * v for v in eps_i), i)).scale_int(2)
        for name, y in (("divided-power-on-unit-exponent", x), ("divided-power-on-p-th-power", U.power(x, p))):
            for direction in hopf.directions:
                for ell in range(p):
                    got = U.ad_divided_power(direction.e, ell, y)
                    want = y if ell == 0 else (-e_i if (ell == 1 and i == direction.k) else U.zero())
                    col.record(name, got == want, y)
    for bd in gens:
        eps_i = tuple(1 if j == bd.i - 1 else 0 for j in range(alg.n))
        if bd.alpha == eps_i:
            continue
        xp = U.power(U.gen(bd), p)
        col.record("p-th-power-vanishes-off-torus", not xp, U.gen(bd))

    # power formulas for the deformed maps (independent double-sum route)
    for bd in gens[:: max(1, len(gens) // 6)]:
        for s in (2, 3):
            xs = U.power(U.gen(bd), s)
            coproduct, antipode = _power_formulas(hopf, bd, s)
            col.record("power-formula-coproduct", hopf.delta(xs) == coproduct, xs)
            col.record("power-formula-antipode", hopf.antipode(xs) == antipode, xs)

    # descent: the deformed maps respect the restricted p-power relations
    for bd in gens:
        x = U.gen(bd)
        dx = hopf.delta(x)
        col.record("coproduct-p-power-descent", dx**p == hopf.delta(U.power(x, p)), x)
        sx = hopf.antipode(x)
        col.record("antipode-p-power-descent", U.power(sx, p) == hopf.antipode(U.power(x, p)), x)
    return col.report("restricted", cfg.as_dict())


# -- dimensions and the distinguished Hopf subalgebra ---------------------------------------------


def check_dimensions_radford(cfg: ModularConfig) -> CheckReport:
    """Restricted PBW dimension anchors and the group-like/primitive pair relations."""
    col = _Collector()
    p, n = cfg.p, cfg.n
    hopf = modular(p, n, cfg.eta, cfg.q)
    U = hopf.uea
    ring = U.ring
    e = n * p**n
    if is_enumerable(p, e):
        dim = p**e
        count = sum(1 for _ in U.enumerate_restricted_basis())
        col.record("restricted-basis-count", count == dim, f"count={count} want={dim}")
        col.record("t-extended-dimension", count * p == p ** (1 + e), f"{count * p}")
    else:
        col.mark("restricted-basis-count", "structural", f"enumeration skipped (p^(np^n) = {power_text(p, e)})")
        rng = random.Random(cfg.seed)
        gens = U.alg.basis()
        ok = True
        for _ in range(100):
            word = [rng.choice(gens) for _ in range(rng.randint(2, 6))]
            nf = U.pbw_normalize(word)
            for mono in nf.terms:
                if any(e >= p for _, e in mono):
                    ok = False
        col.record("pbw-exponent-bound", ok, "random products keep exponents < p")

    for d, direction in enumerate(hopf.directions):
        h = direction.h
        f = hopf.one_minus_et_power(d, -1)
        finv = hopf.one_minus_et_power(d, 1)
        tag = f"dir={direction.k}"
        col.record("group-like-commutator", h * f - f * h == f * f - f, tag)
        col.record("torus-p-th-power", U.power(h, p) == h, tag)
        col.record("group-like-p-th-power", U.power(f, p) == U.one(), tag)
        col.record(
            "coproduct-of-torus-generator",
            hopf.delta(h) == TensorElement.of(h, f) + TensorElement.of(U.one(), h),
            tag,
        )
        col.record("group-like-coproduct", hopf.delta(f) == TensorElement.of(f, f), tag)
        col.record("antipode-of-torus-generator", hopf.antipode(h) == -(h * finv), tag)
        col.record("counit-of-torus-generator", not hopf.counit(h), tag)
        col.record("counit-of-group-like", hopf.counit(f) == ring.one, tag)
    return col.report("dims", cfg.as_dict())


# -- suite runner --------------------------------------------------------------------------------

SUITES = ("factorial", "commutation", "twist", "hopf", "reduction", "restricted", "dims")


def suite_names(names) -> tuple:
    """The suites that 'all', a comma list or a sequence of names selects; rejects
    unknown and repeated names."""
    if isinstance(names, str):
        names = SUITES if names == "all" else names.split(",")
    names = tuple(names)
    for k, name in enumerate(names):
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r} (choose from {', '.join(SUITES)} or 'all')")
        if name in names[:k]:
            raise ValueError(f"suite {name!r} selected twice")
    return names


def run_suites(names, modular_cfg: ModularConfig | None = None, char0_cfg: Char0Config | None = None):
    """Run the selected named suites; returns their reports in selection order
    (``SUITES`` order for 'all'), a suite that yields several reports adding them
    in a row."""
    names = suite_names(names)
    mod_cfg = modular_cfg or ModularConfig(3, 1, (1,))
    reports = []
    for name in names:
        if name == "factorial":
            reports.append(check_factorial_identities())
        elif name == "commutation":
            reports.append(check_commutation_suite(char0_cfg or Char0Config()))
        elif name == "twist":
            if char0_cfg is not None:
                reports.append(check_twist_laws(char0_cfg))
            if modular_cfg is not None:
                reports.append(check_twist_laws(modular_cfg))
            if char0_cfg is None and modular_cfg is None:
                reports.append(check_twist_laws(Char0Config()))
        elif name == "hopf":
            reports.append(check_hopf_axioms(modular(mod_cfg.p, mod_cfg.n, mod_cfg.eta, mod_cfg.q)))
        elif name == "reduction":
            for k in range(1, mod_cfg.n + 1):
                if mod_cfg.eta[k - 1]:
                    reports.append(check_modular_reduction(mod_cfg.p, mod_cfg.n, k, seed=mod_cfg.seed))
        elif name == "restricted":
            reports.append(check_restricted_structure(mod_cfg))
        elif name == "dims":
            reports.append(check_dimensions_radford(mod_cfg))
    return reports
