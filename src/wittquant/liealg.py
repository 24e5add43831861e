"""The three Lie algebras of derivations and the maps between them.

* ``witt``  -- the generalized-Witt algebra W over the rationals, spanned by
  x^alpha * d_j with alpha in Z^n (d_j the degree operator x_j d/dx_j);
* ``wplus`` -- its positive part W+, spanned by x^alpha * D_i with alpha >= 0
  (D_i = d/dx_i on the polynomial ring);
* ``jw``    -- the Jacobson-Witt algebra W(n;1) over GF(p), spanned by divided
  power symbols x^(alpha) * D_i with 0 <= alpha <= tau = (p-1,...,p-1).

Basis symbols are ``BasisDeriv`` canonical named tuples, hashed by identity,
ordered by (alpha lex, then derivation index); sparse linear combinations are
``LieElement`` values over a pluggable coefficient ring from
:mod:`wittquant.rings`.  Structure constants are computed as plain integers
and scaled into the ring at the element level.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .rings import Canonical, SparseElement, accumulate, binom_int, gf

WITT = "witt"
WPLUS = "wplus"
JW = "jw"


class _BasisFields(NamedTuple):
    flavor: str
    alpha: tuple
    i: int  # 1-based derivation index


class BasisDeriv(_BasisFields, Canonical):
    """A basis derivation x^alpha d_j / x^alpha D_i / x^(alpha) D_i.

    A :class:`~wittquant.rings.Canonical` named tuple: the constructor, ``_make``,
    ``_replace``, copying and unpickling all return the one instance with the given
    fields, so a monomial or tensor key hashes its symbols without rehashing their
    exponent tuples.
    """

    __slots__ = ()

    def __new__(cls, flavor, alpha, i):
        return cls.of((flavor, alpha, i))

    # the named tuple's _make, which _replace calls, builds a tuple without __new__
    _make = classmethod(lambda cls, fields: cls(*fields))


def pairing(d, alpha) -> Fraction:
    """<d, alpha> = sum_i d_i * alpha_i for a derivation vector and an exponent."""
    if len(d) != len(alpha):
        raise ValueError("length mismatch in pairing")
    return sum((Fraction(a) * b for a, b in zip(d, alpha)), Fraction(0))


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_sub_unit(a, i):
    # a - epsilon_i (i is 1-based)
    return a[: i - 1] + (a[i - 1] - 1,) + a[i:]


def _choose_multi(top, bot) -> int:
    # componentwise binom(top_m, bot_m); zero when any bot_m > top_m >= 0
    out = 1
    for t, b in zip(top, bot):
        out *= binom_int(t, b)
        if out == 0:
            return 0
    return out


class LieAlgebra:
    """Common interface: flavor tag, dimension n, bracket structure constants."""

    flavor = None
    symbol = None  # how messages name the algebra: W(n), W+(n)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self._bracket_cache = {}

    def __repr__(self):
        return f"{self.symbol}({self.n})"

    def basis_symbol(self, alpha, i: int) -> BasisDeriv:
        b = BasisDeriv(self.flavor, tuple(alpha), i)
        self.validate(b)
        return b

    def validate(self, b: BasisDeriv) -> None:
        if b.flavor != self.flavor or len(b.alpha) != self.n:
            raise ValueError(f"symbol {b} does not belong to {self!r}")
        if not 1 <= b.i <= self.n:
            raise ValueError(f"derivation index out of range in {b}")

    def in_range(self, alpha) -> bool:
        """Whether x^alpha exists in this algebra (dropped-term convention)."""
        raise NotImplementedError

    def bracket_basis(self, a: BasisDeriv, b: BasisDeriv) -> dict:
        """[a, b] as a dict BasisDeriv -> integer structure constant."""
        key = (a, b)
        hit = self._bracket_cache.get(key)
        if hit is None:
            hit = self._bracket_impl(a, b)
            self._bracket_cache[key] = hit
        return hit

    def _bracket_impl(self, a, b):
        raise NotImplementedError


class WittAlgebra(LieAlgebra):
    """W = Der of the Laurent polynomial ring; exponents range over Z^n."""

    flavor = WITT
    symbol = "W"

    def in_range(self, alpha) -> bool:
        return True

    def _bracket_impl(self, a, b):
        # [x^a d_i, x^b d_j] = b_i x^(a+b) d_j - a_j x^(a+b) d_i
        s = _vec_add(a.alpha, b.alpha)
        pairs = ((BasisDeriv(WITT, s, b.i), b.alpha[a.i - 1]), (BasisDeriv(WITT, s, a.i), -a.alpha[b.i - 1]))
        return accumulate(operator.add, {}, pairs)


class WPlusAlgebra(LieAlgebra):
    """W+ = Der of the polynomial ring; exponents are nonnegative."""

    flavor = WPLUS
    symbol = "W+"

    def validate(self, b):
        super().validate(b)
        if any(x < 0 for x in b.alpha):
            raise ValueError(f"negative exponent component in {b}")

    def in_range(self, alpha) -> bool:
        return all(x >= 0 for x in alpha)

    def _bracket_impl(self, a, b):
        # [x^a D_i, x^b D_j] = b_i x^(a+b-e_i) D_j - a_j x^(a+b-e_j) D_i
        s = _vec_add(a.alpha, b.alpha)
        terms = (
            (_vec_sub_unit(s, a.i), b.i, b.alpha[a.i - 1]),
            (_vec_sub_unit(s, b.i), a.i, -a.alpha[b.i - 1]),
        )
        pairs = ((BasisDeriv(WPLUS, e, j), c) for e, j, c in terms if self.in_range(e))
        return accumulate(operator.add, {}, pairs)


class JacobsonWitt(LieAlgebra):
    """W(n;1) over GF(p): divided power symbols x^(alpha) D_i, 0 <= alpha <= tau."""

    flavor = JW

    def __init__(self, n: int, p: int):
        gf(p)  # validates the prime
        super().__init__(n)
        self.p = p

    def __repr__(self):
        return f"W({self.n};1) over GF({self.p})"

    def validate(self, b):
        super().validate(b)
        if not self.in_range(b.alpha):
            raise ValueError(f"exponent of {b} outside [0, {self.p - 1}]^{self.n}")

    def in_range(self, alpha) -> bool:
        return all(0 <= x <= self.p - 1 for x in alpha)

    def basis(self) -> list:
        """All n*p^n basis symbols in canonical order."""
        alphas = itertools.product(range(self.p), repeat=self.n)
        syms = [BasisDeriv(JW, a, i) for a in alphas for i in range(1, self.n + 1)]
        syms.sort()
        return syms

    def _bracket_impl(self, a, b):
        # [x^(a) D_i, x^(b) D_j]
        #   = C(a+b-e_i, a) x^(a+b-e_i) D_j - C(a+b-e_j, b) x^(a+b-e_j) D_i
        # with C the componentwise binomial; out-of-range targets are dropped.
        s = _vec_add(a.alpha, b.alpha)
        terms = (
            (_vec_sub_unit(s, a.i), b.i, a.alpha, 1),
            (_vec_sub_unit(s, b.i), a.i, b.alpha, -1),
        )
        pairs = (
            (BasisDeriv(JW, e, j), sign * _choose_multi(e, bottom) % self.p)
            for e, j, bottom, sign in terms
            if self.in_range(e)
        )
        return accumulate(gf(self.p).add, {}, pairs)

    def p_power(self, b: BasisDeriv) -> Optional[BasisDeriv]:
        """The restricted p-th power of a basis symbol: H_i for H_i, else 0 (None).

        Every call validates b and applies the rule, so a foreign or out-of-range
        symbol raises ValueError each time it is asked about."""
        self.validate(b)
        return b if b.alpha == tuple(int(j == b.i - 1) for j in range(self.n)) else None


class LieElement(SparseElement):
    """A sparse linear combination of one flavor's basis derivations."""

    __slots__ = ("alg", "ring")

    def __init__(self, alg: LieAlgebra, ring, terms: dict):
        self.alg = alg
        self.ring = ring
        self.terms = terms

    def _context(self) -> tuple:
        return (self.alg, self.ring)

    @classmethod
    def from_basis(cls, alg, ring, b: BasisDeriv):
        alg.validate(b)
        return cls(alg, ring, {b: ring.one})

    def bracket(self, other) -> "LieElement":
        self._same(other)
        rmul, rint = self.ring.mul, self.ring.from_int
        pairs = (
            (k, rmul(cab, rint(m)))
            for a, ca in self.terms.items()
            for b, cb in other.terms.items()
            if (cab := rmul(ca, cb))
            for k, m in self.alg.bracket_basis(a, b).items()
        )
        return self._like(accumulate(self.ring.add, {}, pairs))

    def __repr__(self):
        if not self.terms:
            return "LieElement(0)"
        bits = [f"{c}*{b.flavor}:x{b.alpha}D{b.i}" for b, c in sorted(self.terms.items(), key=lambda t: t[0])]
        return "LieElement(" + " + ".join(bits) + ")"


def witt_deriv(alg: WittAlgebra, ring, alpha, dvec) -> LieElement:
    """The general derivation x^alpha * sum_j dvec_j d_j, expanded over the basis."""
    alpha = tuple(alpha)
    terms = {BasisDeriv(WITT, alpha, j): ring.from_fraction(c) for j, c in enumerate(dvec, start=1) if c}
    return LieElement(alg, ring, {k: v for k, v in terms.items() if v})


@dataclass(frozen=True)
class RMatrixData:
    """Triangular r-matrix data (d0, d0p, gamma) of one length n >= 1, with an
    integer exponent gamma and <d0, gamma> != 0.

    The derived pair h = <d0,gamma>^(-1) d0 and e = <d0,gamma> x^gamma d0p
    satisfies [h, e] = e for every such datum, since the degree derivations d_j
    commute; the constructor checks only the shape of the data.
    """

    d0: tuple
    d0p: tuple
    gamma: tuple
    pairing_value: Fraction = field(init=False)

    def __post_init__(self):
        lengths = (len(self.d0), len(self.d0p), len(self.gamma))
        if len(set(lengths)) != 1 or not lengths[0]:
            raise ValueError(f"d0, d0p and gamma need one length n >= 1, got lengths {', '.join(map(str, lengths))}")
        gamma = tuple(Fraction(g) for g in self.gamma)
        if any(g.denominator != 1 for g in gamma):
            raise ValueError(f"gamma entries must be integers, got {', '.join(map(str, gamma))}")
        object.__setattr__(self, "d0", tuple(Fraction(c) for c in self.d0))
        object.__setattr__(self, "d0p", tuple(Fraction(c) for c in self.d0p))
        object.__setattr__(self, "gamma", tuple(int(g) for g in gamma))
        pv = pairing(self.d0, self.gamma)
        object.__setattr__(self, "pairing_value", pv)
        if not pv:
            raise ValueError("<d0, gamma> must be nonzero")

    @property
    def n(self) -> int:
        return len(self.gamma)

    def h_element(self, alg: WittAlgebra, ring) -> LieElement:
        inv = 1 / self.pairing_value
        return witt_deriv(alg, ring, (0,) * self.n, tuple(inv * c for c in self.d0))

    def e_element(self, alg: WittAlgebra, ring) -> LieElement:
        return witt_deriv(alg, ring, self.gamma, tuple(self.pairing_value * c for c in self.d0p))


def basic_pair(alg: LieAlgebra, ring, k: int):
    """The distinguished pair h(k) = x_k D_k, e(k) = x_k^2 D_k in W+ or W(n;1).

    In the divided-power basis of W(n;1) these are x^(e_k) D_k and 2 x^(2e_k) D_k.
    """
    if alg.flavor not in (WPLUS, JW):
        raise ValueError("the basic pair lives in W+ or W(n;1)")
    eps = tuple(1 if j == k - 1 else 0 for j in range(alg.n))
    h = LieElement.from_basis(alg, ring, BasisDeriv(alg.flavor, eps, k))
    e = LieElement.from_basis(alg, ring, BasisDeriv(alg.flavor, tuple(2 * v for v in eps), k))
    return h, e.scale_int(2) if alg.flavor == JW else e
