"""Drinfeld twists and the deformed coproduct/antipode/counit they induce.

A quantization is an ambient enveloping algebra plus a list of twist
directions.  Each direction is one Jordanian twist on a pair [h, e] = e
(Giaquinto-Zhang, JPAA 128, 1998) and carries the two rules the closed forms
need: its exponent rule, the power of (1 - e t) that a basis symbol picks up
in the right tensor slot, and its l-fold raising, the image of a basis symbol
under the divided power (ad e)^l / l!, with its coefficient family.

* ``RMatrixDirection`` -- triangular r-matrix data (d0, d0p, gamma) on U(W):
  x^alpha d_i has exponent <d0,alpha>/<d0,gamma> and is raised to
  x^{alpha + l gamma} (A_l d_i - B_l d0p) with the rational (A_l, B_l).
* ``BasicDirection`` -- the basic direction k, h(k) = x^{e_k} D_k with
  e(k) = x^{2e_k} D_k on W+ and e(k) = 2 x^(2e_k) D_k on W(n;1):
  x^alpha D_i has exponent alpha_k - delta_ik and is raised to
  x^{alpha + l e_k} D_i with the integer C_l over a ring of characteristic 0
  and with Cbar_l mod p over one of characteristic p; ``basic_coefficient``
  computes both.

The factories choose the ambient algebra, the ring and the directions:
``char0_general`` (U(W)[[t]] over the rationals, one r-matrix direction),
``integral_eta`` (the integral form U(W+)[[t]]), ``modular`` (the restricted
u(W(n;1)) over GF(p)[t]/(t^p - q t)) and ``modular_unrestricted`` (U(W(n;1))
with a truncated series ring, for the reduction chain); the last three take
the basic directions selected by eta in {0,1}^n.  A context is its enveloping
algebra and its directions: ``QuantizedHopf`` reads its truncation ``cap`` off
the ring (the series cap, or p for the quotient ring), and its ``eta`` and
report ``name`` off the directions.

Every twist is a product of basic one-direction twists

    forward_a = sum_r (-1)^r/r! h_a^[r] (x) e^r t^r,
    inverse_a = sum_r  1/r!    h_a^<r> (x) e^r t^r,

taken in ascending direction order (basic twists in distinct directions
commute); ``QuantizedHopf.basic_twist_factor`` builds both series from the one
shifted factorial, the rising h_a^<r> = (h+a)...(h+a+r-1), reading the falling
h_a^[r] as h_{a-r+1}^<r>.  Each power (1 - e t)^m, for m of either sign, is the
one binomial sum sum_{j<cap} C(m, j) (-e t)^j.

The antipode twistors follow their definitions, u_a = m(S0 (x) Id)(inverse_a)
and v_a = m(Id (x) S0)(forward_a), read off the whole twist by the slot-antipode
kernel ``TensorElement.antipode_out`` of :mod:`wittquant.uea`, with the
undeformed S0(b) = -b on basis symbols.  The deformed antipode goes through the
same kernel, S(x) = m(S (x) Id)(x (x) 1) with the closed forms on basis
symbols, and caches no monomial image.  The deformed coproduct reaches a
monomial by the same cached walk as the undeformed one, from the closed forms
of its basis symbols.  The closed-form coproduct and antipode of a basis symbol
are sums over vectors ell of raising orders, one entry per direction;
``QuantizedHopf._raised_terms`` iterates the surviving terms for both.  The
closed forms are checked against conjugation by the twist itself via
:meth:`QuantizedHopf.conjugation_oracle`.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .liealg import (
    BasisDeriv,
    JacobsonWitt,
    RMatrixData,
    WittAlgebra,
    WPlusAlgebra,
    basic_pair,
    pairing,
)
from .rings import QQ, accumulate, binom_int, gf, inverse_factorial, t_quotient, t_series
from .uea import UNIT, EnvelopingAlgebra, TensorElement, UEAElement, cached_walk, drop_last


class NonIntegralExponentError(ValueError):
    """The (1-et)-exponent <d0,alpha>/<d0,gamma> is not an integer."""


def basic_coefficient(ak: int, dik: int, ell: int, p: int | None = None):
    """C_l of the basic direction k on x^alpha D_i at order ell, or Cbar_l when p is given:

        C_l = A_l - d A_{l-1},   A_m = P(m) / m!,   P(m) = prod_{j<m} (a - d + j),
        l! C_l = P(l) - d l P(l-1),
        Cbar_l = binom(a + l, l) l! C_l mod p   (the divided-power lift),

    with a = alpha_k and d = delta_ik.  C_l is returned as a Fraction, so that the
    reduction suite's ``twist-coefficient-integrality`` can check that it is an
    integer; Cbar_l is formed from the integer l! C_l and needs no division.
    """

    def P(m):
        return math.prod(range(ak - dik, ak - dik + m))

    lC = P(ell) - dik * ell * P(ell - 1)
    if p is None:
        return Fraction(lC, math.factorial(ell))
    return binom_int(ak + ell, ell) * lC % p


class RMatrixDirection(NamedTuple):
    """The twist direction of triangular r-matrix data on U(W) over the rationals."""

    k: None
    h: UEAElement
    e: UEAElement
    rmatrix: RMatrixData

    def exponent(self, bd: BasisDeriv) -> int:
        """<d0, alpha>/<d0, gamma>, which must be an integer."""
        val = pairing(self.rmatrix.d0, bd.alpha) / self.rmatrix.pairing_value
        if val.denominator != 1:
            raise NonIntegralExponentError(f"<d0,{bd.alpha}>/<d0,gamma> = {val} is not an integer")
        return int(val)

    def _A(self, alpha, ell: int) -> Fraction:
        """A_l = <d0,gamma>^l / l! * prod_{j<l} <d0p, alpha + j gamma>."""
        rm = self.rmatrix
        prod = Fraction(1)
        for j in range(ell):
            prod *= pairing(rm.d0p, tuple(a + j * g for a, g in zip(alpha, rm.gamma)))
        return rm.pairing_value**ell / math.factorial(ell) * prod

    def raised(self, bd: BasisDeriv, ell: int) -> dict:
        """x^{alpha + l gamma} (A_l d_i - B_l d0p) as a dict BasisDeriv -> Fraction."""
        rm = self.rmatrix
        alpha = tuple(a + ell * g for a, g in zip(bd.alpha, rm.gamma))
        B = rm.pairing_value * rm.gamma[bd.i - 1] * self._A(bd.alpha, ell - 1) if ell else 0
        pairs = [(bd._replace(alpha=alpha), self._A(bd.alpha, ell))]
        pairs += [(BasisDeriv(bd.flavor, alpha, j), -B * c) for j, c in enumerate(rm.d0p, start=1)]
        return accumulate(operator.add, {}, pairs)


class BasicDirection(NamedTuple):
    """The basic twist direction k; its coefficients are C_l, or Cbar_l in characteristic p."""

    k: int
    h: UEAElement
    e: UEAElement

    def exponent(self, bd: BasisDeriv) -> int:
        """alpha_k - delta_ik."""
        return bd.alpha[self.k - 1] - (bd.i == self.k)

    def raised(self, bd: BasisDeriv, ell: int) -> dict:
        """x^{alpha + l e_k} D_i with its coefficient; empty when the exponent leaves the algebra."""
        k, uea = self.k, self.h.uea
        alpha = bd.alpha[: k - 1] + (bd.alpha[k - 1] + ell,) + bd.alpha[k:]
        if not uea.alg.in_range(alpha):
            return {}
        coefficient = basic_coefficient(bd.alpha[k - 1], int(bd.i == k), ell, uea.ring.char or None)
        return {bd._replace(alpha=alpha): coefficient}


class TwistElement(NamedTuple):
    """A Drinfeld twist with its inverse, both truncated tensor elements; the twist suite
    of :mod:`wittquant.verify`, not this class, checks that they are inverse and counital."""

    forward: TensorElement
    inverse: TensorElement


class TwistorPair(NamedTuple):
    """The antipode twistors u_a = m(S0 (x) Id)(inverse), v_a = m(Id (x) S0)(forward)."""

    u_elem: UEAElement
    v_elem: UEAElement


class QuantizedHopf:
    """A quantization context: ambient enveloping algebra + twist directions.

    Provides the closed-form deformed coproduct and antipode on basis symbols,
    their multiplicative/anti-multiplicative extensions, the counit eps0 (the
    one counit rule; a twist leaves it alone), the twist and twistor
    constructions, and the brute-force conjugation oracle the closed forms are
    tested against.
    """

    def __init__(self, uea: EnvelopingAlgebra, directions):
        self.uea = uea
        self.directions = list(directions)  # RMatrixDirection / BasicDirection entries
        if not self.directions:
            raise ValueError("at least one twist direction is required (eta != 0)")
        self.cap = uea.ring.cap  # the series cap, or p for the quotient ring
        ks = {direction.k for direction in self.directions}
        # the 0/1 selector of the basic directions; None for an r-matrix direction
        self.eta = None if None in ks else tuple(int(k in ks) for k in range(1, uea.alg.n + 1))
        self.name = "r-matrix twist" if self.eta is None else "eta=" + "".join(map(str, self.eta))
        self._memos: dict = {}  # (method name, *arguments) -> value
        self._delta_mono_cache: dict = {UNIT: TensorElement.unit(uea)}

    # -- direction data -------------------------------------------------------------

    def _memo(self, key: tuple, compute):
        """The memo entry for key, filled by compute() on a miss.  A key holds a shift
        by its ring value, so shifts equal mod p share one entry."""
        hit = self._memos.get(key)
        if hit is None:
            hit = self._memos[key] = compute()
        return hit

    def _h_factorial(self, d: int, a, ell: int) -> UEAElement:
        compute = lambda: self.uea.factorial_element(self.directions[d].h, a, ell)
        return self._memo(("h_factorial", d, self.uea.ring.from_fraction(a), ell), compute)

    def _e_power(self, d: int, j: int) -> UEAElement:
        return self._memo(("e_power", d, j), lambda: self.uea.power(self.directions[d].e, j))

    def one_minus_et_power(self, d: int, m: int) -> UEAElement:
        """(1 - e_d t)^m for any integer m, as the binomial series sum_{j<cap} C(m, j) (-e_d t)^j,
        which needs no later term since t^cap = 0 in a series ring and e_d^p = 0 in u(W(n;1))."""

        def compute():
            ring, out = self.uea.ring, self.uea.zero()
            for j in range(self.cap):
                c = ring.mul(ring.from_int((-1) ** j * binom_int(m, j)), ring.t_power(j))
                if c:
                    out = out + self._e_power(d, j).scale(c)
            return out

        return self._memo(("one_minus_et_power", d, m), compute)

    def raised(self, bd: BasisDeriv, ell) -> UEAElement:
        """bd raised ell[d] times along each direction d, with the directions' coefficients;
        ValueError unless ell has one entry per direction."""
        if len(ell) != len(self.directions):
            raise ValueError(f"ell {ell!r} needs one entry per direction, {len(self.directions)} in all")
        terms = {bd: Fraction(1)}
        for direction, l in zip(self.directions, ell):
            pairs = ((b2, c * c2) for b, c in terms.items() for b2, c2 in direction.raised(b, l).items())
            terms = accumulate(operator.add, {}, pairs)
        ring = self.uea.ring
        return self.uea.element({((b, 1),): ring.from_fraction(c) for b, c in terms.items()})

    # -- closed-form deformed structure maps ---------------------------------------------

    def _raised_terms(self, bd: BasisDeriv):
        """(ell, t^|ell|, raised) for each ell vector below the cap whose term survives:
        t^|ell| is not truncated away and bd raised along ell is nonzero, which W(n;1)'s
        range rules out for an entry at or past p."""
        for ell in itertools.product(range(self.cap), repeat=len(self.directions)):
            tpow = self.uea.ring.t_power(sum(ell))
            if tpow:
                raised = self.raised(bd, ell)
                if raised:
                    yield ell, tpow, raised

    def delta_basis(self, bd: BasisDeriv) -> TensorElement:
        """The deformed coproduct of a basis symbol, in closed form."""
        return self._memo(("delta_basis", bd), lambda: self._delta_closed_form(bd))

    def _delta_closed_form(self, bd: BasisDeriv) -> TensorElement:
        uea = self.uea
        right = uea.one()
        for d, direction in enumerate(self.directions):
            right = right * self.one_minus_et_power(d, direction.exponent(bd))
        out = TensorElement.of(uea.gen(bd), right)
        for ell, tpow, raised in self._raised_terms(bd):
            left = uea.one()
            invpow = uea.one()
            for d, l in enumerate(ell):
                if l:
                    left = left * self._h_factorial(d, 0, l)
                    invpow = invpow * self.one_minus_et_power(d, -l)
            piece = (invpow * raised).scale(tpow)
            sign = -1 if sum(ell) % 2 else 1
            out = out + TensorElement.of(left, piece).scale_int(sign)
        return out

    def antipode_basis(self, bd: BasisDeriv) -> UEAElement:
        """The deformed antipode of a basis symbol, in closed form; a symbol the algebra
        rejects raises ValueError and leaves no memo entry."""
        return self._memo(("antipode_basis", bd), lambda: self._antipode_closed_form(bd))

    def _antipode_closed_form(self, bd: BasisDeriv) -> UEAElement:
        uea = self.uea
        uea.alg.validate(bd)
        pre = uea.one()
        for d, direction in enumerate(self.directions):
            pre = pre * self.one_minus_et_power(d, -direction.exponent(bd))
        acc = uea.zero()
        for ell, tpow, piece in self._raised_terms(bd):
            for d, l in enumerate(ell):
                if l:
                    piece = piece * self._h_factorial(d, 1, l)
            acc = acc + piece.scale(tpow)
        return (pre * acc).scale_int(-1)

    # -- extensions to arbitrary elements ---------------------------------------------

    def delta_mono(self, mono) -> TensorElement:
        """Delta(m) = Delta(prefix) * delta_basis(last symbol), the prefix being m
        without one factor of its last symbol; Delta(1) = 1 (x) 1."""
        step = lambda d, m: d * self.delta_basis(m[-1][0])
        return cached_walk(self._delta_mono_cache, mono, drop_last, step)

    def delta(self, x: UEAElement) -> TensorElement:
        """Multiplicative extension of the deformed coproduct."""
        self.uea.check(x)
        return TensorElement.of(x).expand_slot(0, self.delta_mono)

    def antipode_mono(self, mono) -> UEAElement:
        """S of the one monomial mono."""
        return self.antipode(self.uea.element({mono: self.uea.ring.one}))

    def antipode(self, x: UEAElement) -> UEAElement:
        """Anti-multiplicative extension of the deformed antipode: m(S (x) Id)(x (x) 1)."""
        self.uea.check(x)
        return TensorElement.of(x, self.uea.one()).antipode_out(0, self.antipode_basis)

    def counit(self, x: UEAElement):
        """The deformed counit, which is eps0: the coefficient of the empty monomial."""
        self.uea.check(x)
        return x.terms.get(UNIT, self.uea.ring.zero)

    # -- twists and twistors --------------------------------------------------------------

    def basic_twist_factor(self, d: int, a=0, forward: bool = True) -> TensorElement:
        """The twist factor of direction index d at the exact shift a, or its inverse:
        sum_{r<cap} (-1)^r/r! h_{a-r+1}^<r> (x) e_d^r t^r forward, the falling h_a^[r] as a rising
        factorial, and sum_{r<cap} 1/r! h_a^<r> (x) e_d^r t^r for the inverse."""
        ring = self.uea.ring
        sign = -1 if forward else 1
        out = TensorElement(self.uea, 2, {})
        for r in range(self.cap):
            c = ring.mul(ring.mul(inverse_factorial(ring, r), ring.from_int(sign**r)), ring.t_power(r))
            if c:
                shift = a - r + 1 if forward else a
                out = out + TensorElement.of(self._h_factorial(d, shift, r), self._e_power(d, r)).scale(c)
        return out

    def build_twist(self, a=0) -> TwistElement:
        """The twist (product of basic twists, ascending direction) and its inverse."""

        def compute():
            fwd = TensorElement.unit(self.uea)
            inv = TensorElement.unit(self.uea)
            for d in range(len(self.directions)):
                fwd = fwd * self.basic_twist_factor(d, a, forward=True)
                inv = inv * self.basic_twist_factor(d, a, forward=False)
            return TwistElement(fwd, inv)

        return self._memo(("build_twist", self.uea.ring.from_fraction(a)), compute)

    def antipode_twistors(self, a=0) -> TwistorPair:
        """u_a = m(S0 (x) Id)(inverse) and v_a = m(Id (x) S0)(forward), from the twist with shift a."""

        def compute():
            tw, s0 = self.build_twist(a), lambda b: -self.uea.gen(b)
            return TwistorPair(tw.inverse.antipode_out(0, s0), tw.forward.antipode_out(1, s0))

        return self._memo(("antipode_twistors", self.uea.ring.from_fraction(a)), compute)

    # -- conjugation oracle ------------------------------------------------------------------

    def conjugation_oracle(self, x: UEAElement):
        """(F Delta0(x) F^{-1}, w S0(x) w^{-1}) by brute multiplication, w = v_0."""
        tw = self.build_twist(0)
        pair = self.antipode_twistors(0)
        d0 = self.uea.coproduct0(x)
        delta = tw.forward * d0 * tw.inverse
        s = pair.v_elem * self.uea.antipode0(x) * pair.u_elem
        return delta, s


# -- setting factories ---------------------------------------------------------------------


def char0_general(rmatrix: RMatrixData, cap: int = 5) -> QuantizedHopf:
    """Quantized U(W)[[t]] (truncated at t^cap) from triangular r-matrix data."""
    uea = EnvelopingAlgebra(WittAlgebra(rmatrix.n), t_series(QQ, cap))
    h = uea.lift(rmatrix.h_element(uea.alg, uea.ring))
    e = uea.lift(rmatrix.e_element(uea.alg, uea.ring))
    return QuantizedHopf(uea, [RMatrixDirection(None, h, e, rmatrix)])


def _eta_hopf(eta, uea: EnvelopingAlgebra) -> QuantizedHopf:
    """The quantization of uea along the basic directions k with eta_k = 1."""
    eta = tuple(eta)
    if len(eta) != uea.alg.n or not set(eta) <= {0, 1} or not any(eta):
        raise ValueError("eta must be a nonzero 0/1 vector of length n")
    dirs = []
    for k, on in enumerate(eta, start=1):
        if on:
            h, e = basic_pair(uea.alg, uea.ring, k)
            dirs.append(BasicDirection(k, uea.lift(h), uea.lift(e)))
    return QuantizedHopf(uea, dirs)


def integral_eta(eta, n: int, cap: int = 5) -> QuantizedHopf:
    """The integral form of U(W+)[[t]] deformed along the directions selected by eta."""
    return _eta_hopf(eta, EnvelopingAlgebra(WPlusAlgebra(n), t_series(QQ, cap)))


def modular(p: int, n: int, eta, q: int = 0) -> QuantizedHopf:
    """The restricted quantization u_{t,q}(W(n;1)) for a direction selector eta."""
    return _eta_hopf(eta, EnvelopingAlgebra(JacobsonWitt(n, p), t_quotient(p, q), restricted=True))


def modular_unrestricted(p: int, n: int, eta, cap: int) -> QuantizedHopf:
    """Same coefficients over the unrestricted U(W(n;1)) with a series ring."""
    return _eta_hopf(eta, EnvelopingAlgebra(JacobsonWitt(n, p), t_series(gf(p), cap)))
