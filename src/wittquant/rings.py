"""Exact coefficient arithmetic for the quantization machinery.

Three kinds of coefficient rings are supported, all exact:

* the rationals (an ``int`` when integral, else a stdlib ``Fraction``),
* prime fields GF(p) for odd primes p >= 3 (residues as plain ints),
* truncated t-polynomial rings over either, in two modes:
  ``series`` (degrees >= N are discarded; a product never forms them) and
  ``quotient`` (t^p is rewritten to q*t, so every value has t-degree < p).

Each ring is a descriptor object with a uniform method API
(``add``, ``mul``, ``from_int``, ``from_fraction``, ...) and the
element values themselves are plain data: for the rationals an ``int`` when
integral, else a ``Fraction``; an int in ``[0, p)`` for GF(p); and a
zero-trimmed tuple of base scalars (index = t-degree) for the t-rings, which
they make canonical (below).
Structural equality of values is mathematical equality, and the zero of every
ring is falsy.  Descriptors are cached so identity comparison detects ring
mismatches.

``from_fraction`` is the one rule that turns rationals into ring values, and
so carries the reduction of the integral form mod p: an int or ``Fraction``
has a value in GF(p) exactly when p does not divide its denominator (else
``ReductionError``; a float or any other type raises ``ValueError``), and a
t-ring maps a value of a rational t-ring coefficient by coefficient and hands
the list to its own ``_reduce``: the series ring cuts it at the cap, the
quotient ring folds t^p = q t from the top degree down.
``inverse_factorial`` is the one place 1/r! is formed.

Every t-ring hands out one :class:`Canonical` object per value, made only by
``_t_value``; basis symbols and PBW monomials follow the same rule.  ``zero``,
``one``, ``from_int``, ``from_fraction``, ``t_power`` and ``mul`` all return it,
and so does the quotient ring's ``add``.  Each descriptor memoizes ``mul`` by
operand, ``memo[a][b]``, so a hit on canonical operands is two identity-hashed
dict lookups: no pair is built and no coefficient hashed.  A miss (``_fill``)
makes both operands canonical, computes through the shared t-ring arithmetic
and keeps the canonical result.  An equal plain tuple is still a valid operand:
it hashes by content, so its lookup misses (or meets an entry of equal content)
and the miss path answers it, without keying a memo by it.  A plain operand goes
through ``from_fraction`` before it is interned (``_fill`` says why).  Values
are immutable, so sharing a cached result is safe and fill order changes
nothing.

The quotient ring GF(p)[t]/(t^p - q t) is finite, with p^p values, so it
memoizes ``add`` the same way.  A series ring's ``add`` is not memoized and
returns a plain tuple.  In a char-0 verdict (``char0-identities``, seed 1) the
series rings take 375,995 products on 15,405 distinct operand pairs and 157,255
sums on 17,246 pairs, and meet 4,073 distinct values: the product memo answers
96% of products, and raises that verdict's peak RSS by about 3% (26.3 to 27.1
MiB).  A sum memo as well would answer 89% of sums, but raised peak RSS by
about 9% in all.

A t-ring product with a constant (length-1) operand is the other operand
scaled by that constant, one base ``mul`` per nonzero coefficient.  Both bases
(QQ, GF(p)) are fields and operands are reduced, so the scaled value is
trimmed and no longer than the cap already, exactly what the convolution
would give.  In a char-0 verdict 322,912 of 375,995 series products have a
constant operand.

Every descriptor states its truncation as ``keep``: the series cap, below
which a product forms every degree and at or above which it forms none, and
None for QQ, GF(p) and the quotient ring, which drop no degree (the quotient
folds t^p = q t down).  The t-rings also give ``order(v)``, the lowest degree
with a nonzero coefficient of a nonzero value.  In a series ring order(ab) >=
order(a) + order(b), so a product of two values whose orders sum to ``keep``
or more is zero, and the kernels of :mod:`wittquant.uea` skip such a pair
before any product is formed.  That reads the order of each operand once per
kernel call instead of remembering products, so it holds no memory and needs
no lookup; over an integral domain (QQ, GF(p)) the skipped pairs are exactly
the products that vanish.

``SparseElement`` is the one sparse-combination core (dict key -> nonzero ring
value) under Lie, enveloping-algebra and tensor elements, and ``accumulate``
the one place such a dict is summed into.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def binom_int(a, r: int):
    """Generalized binomial a(a-1)...(a-r+1)/r!, exact for any int or Fraction a;
    an int for an int a."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    num = 1
    for j in range(r):
        num *= a - j
    return num // math.factorial(r) if type(num) is int else num / math.factorial(r)


def multi_factorial(alpha) -> int:
    """alpha! = prod_i alpha_i! for a nonnegative multi-index."""
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


class ReductionError(ValueError):
    """A coefficient cannot be reduced mod p (p divides a cleared denominator)."""


def inverse_factorial(ring, r: int):
    """The ring value 1/r!, which exists in characteristic p only for r < p."""
    if ring.char and r >= ring.char:
        raise ValueError(f"1/{r}! does not exist in characteristic {ring.char}")
    return ring.from_fraction(Fraction(1, math.factorial(r)))


def _check_odd_prime(p: int) -> None:
    if p == 2:
        raise ValueError(
            "p = 2 is not supported: the distinguished element 2*x^(2e_k)D_k "
            "vanishes and x^(2e_k) does not exist when tau = (1,...,1); use p >= 3"
        )
    if p >= 2**64:
        raise ValueError(f"p must be below 2^64, got {p}")
    if p < 3 or not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p}")


def _is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for p >= 3.  The prime bases up to 37 decide every p
    below 318665857834031151167461 (about 3.2 * 10^23), the least strong pseudoprime to all."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p in bases:
        return True
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, p)  # a base dividing p never reaches 1 or p - 1
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _rational(x):
    """An int or Fraction as a QQ value: its numerator when integral, else itself."""
    return x.numerator if x.denominator == 1 else x


def _check_exact(x) -> None:
    """Refuse what ``from_fraction`` cannot take exactly, such as a float."""
    if not isinstance(x, int | Fraction):
        raise ValueError(f"from_fraction takes an int or Fraction, got {x!r}")


class RationalField:
    """The field of arbitrary-precision rationals.

    A value is an ``int`` when it is integral and a ``Fraction`` otherwise, so
    most products of a char-0 computation stay in int arithmetic.  Since
    ``Fraction(n) == n`` and both hash alike, equality and dict keys treat the
    two forms of an integer as one.
    """

    char = 0
    keep = None
    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return n

    def from_fraction(self, x):
        _check_exact(x)
        return _rational(x)

    @staticmethod
    def add(a, b):
        return _rational(a + b)

    @staticmethod
    def mul(a, b):
        return _rational(a * b)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField:
    """GF(p) for an odd prime p; values are ints in [0, p)."""

    keep = None

    def __init__(self, p: int):
        _check_odd_prime(p)
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def from_fraction(self, x) -> int:
        """The residue of an int or Fraction whose denominator p does not divide."""
        _check_exact(x)
        if x.denominator % self.p == 0:
            raise ReductionError(f"denominator of {x} not invertible mod {self.p}")
        return x.numerator * self.inv(x.denominator) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"GF({self.p})"


@lru_cache(maxsize=None)
def gf(p: int) -> PrimeField:
    return PrimeField(p)


def _trim(coeffs: list) -> tuple:
    k = len(coeffs)
    while k and not coeffs[k - 1]:
        k -= 1
    return tuple(coeffs[:k])


def _check_t_exponent(r: int) -> None:
    if r < 0:
        raise ValueError(f"t^{r}: the exponent of t must be nonnegative")


class Canonical(tuple):
    """A tuple with one object per content: equal objects are identical and hash by
    identity, so a dict keyed by them never rehashes their content.  ``==``, ordering and
    ``repr`` are the tuple's.

    Each subclass has its own table, set when the class is made, and ``of`` is its one
    maker.  The table lives for the process, since an object handed out must stay the
    one of its content.  Copying and unpickling return the canonical object, and a
    subclass declares ``__slots__ = ()`` too, or every object would carry a ``__dict__``.
    """

    __slots__ = ()
    __hash__ = object.__hash__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._table = {}

    @classmethod
    def of(cls, content):
        """The one object of this class with this content; a canonical input is returned
        as it is, without a lookup.  The content is taken as given: a subclass's own
        makers check it."""
        if type(content) is cls:
            return content
        key = tuple(content)
        out = cls._table.get(key)
        if out is None:
            out = cls._table[key] = tuple.__new__(cls, key)
        return out

    def __reduce__(self):
        return type(self).of, (tuple(self),)


class _TValue(Canonical):
    """A canonical t-ring value: a reduced value whose coefficients went through the
    base ring."""

    __slots__ = ()


_t_value = _TValue.of


class _TRingBase:
    """Shared arithmetic for truncated t-polynomial rings.

    Values are zero-trimmed tuples of base-ring scalars indexed by t-degree, and
    every value a t-ring returns, but a series sum, is the canonical object of its
    content, a tuple hashed by identity.  ``mul`` is memoized as ``memo[a][b]``, keyed by
    canonical values only, so a hit hashes no tuple; an equal plain tuple operand
    misses and is answered by content through ``_fill``.  Subclasses fix
    ``keep``, the number of low degrees a product forms (None: every degree),
    and ``_reduce``, which maps the coefficients of those degrees to a value.
    The series ring keeps only degrees below its cap, so a product never forms a
    term its truncation would drop; the quotient ring keeps every degree, since
    its fold t^p = q t moves high degrees down.
    """

    base = None
    cap = 0  # all stored degrees are < cap
    keep = None

    def __init__(self, base):
        self.base = base
        self.char = base.char
        self.zero = _t_value(())
        self.one = _t_value((base.one,))
        self._mul_memo: dict = {}

    def from_int(self, n: int):
        c = self.base.from_int(n)
        return _t_value((c,) if c else ())

    def from_fraction(self, x):
        """Embed an int or Fraction, or map a value of a rational t-ring degree by degree:
        every coefficient goes to the base ring, and ``_reduce`` folds or drops the degrees
        past ``keep``."""
        if not isinstance(x, tuple):
            c = self.base.from_fraction(x)
            return _t_value((c,) if c else ())
        return _t_value(self._reduce([self.base.from_fraction(c) for c in x][: self.keep]))

    def t_power(self, r: int):
        """The value t^r, reduced; a negative r raises ValueError."""
        raise NotImplementedError

    def order(self, v) -> int:
        """The lowest t-degree with a nonzero coefficient in a nonzero value."""
        for d, c in enumerate(v):
            if c:
                return d
        raise ValueError("the zero value has no order")

    def t_terms(self, v) -> list:
        """Sparse view [(degree, base scalar), ...] of a value."""
        return [(d, c) for d, c in enumerate(v) if c]

    def mul(self, a, b):
        try:
            return self._mul_memo[a][b]
        except KeyError:
            return self._fill(self._mul_memo, _TRingBase._product, a, b)

    def _fill(self, memo: dict, op, a, b):
        """op(a, b) through memo, keyed and answered by canonical values.

        A plain operand goes through ``from_fraction`` first, so the value table
        only ever holds coefficients the base ring made: ``(Fraction(2),)`` equals
        ``(2,)`` and hashes alike, and interned as given it would stand for the
        integral value everywhere after.
        """
        if type(a) is not _TValue:
            a = self.from_fraction(a)
        if type(b) is not _TValue:
            b = self.from_fraction(b)
        row = memo.get(a)
        if row is None:
            row = memo[a] = {}
        out = row.get(b)
        if out is None:
            out = row[b] = _t_value(op(self, a, b))
        return out

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return a
        badd = self.base.add
        out = list(a)
        for d, c in enumerate(b):
            out[d] = badd(out[d], c)
        return _trim(out)

    def _product(self, a, b):
        """The product a * b of two reduced values.

        A constant operand (length 1) scales the other one coefficient at a time:
        the base is a field, so a nonzero constant keeps every nonzero coefficient
        nonzero, and the other operand, being reduced, is already trimmed and no
        longer than the cap.  That is exactly the convolution's result, with one
        base ``mul`` per nonzero coefficient and no ``add`` or ``_reduce``.  Every
        other product runs the convolution below.
        """
        if not a or not b:
            return ()
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            c, bmul, zero = a[0], self.base.mul, self.base.zero
            return tuple([bmul(c, x) if x else zero for x in b])
        badd, bmul = self.base.add, self.base.mul
        n = len(a) + len(b) - 1
        if self.keep is not None and self.keep < n:
            n = self.keep
        out = [self.base.zero] * n
        for i, ca in enumerate(a[:n]):
            if ca:
                for k, cb in enumerate(b[: n - i], i):
                    if cb:
                        out[k] = badd(out[k], bmul(ca, cb))
        return self._reduce(out)

    def _reduce(self, coeffs: list) -> tuple:
        raise NotImplementedError


def _check_cap(cap) -> None:
    if not isinstance(cap, int):
        raise ValueError(f"series cap must be an int, got {cap!r}")
    if cap < 1:
        raise ValueError(f"series cap must be >= 1, got {cap}")


class TSeriesRing(_TRingBase):
    """Truncated power series: t^N = 0 for a cap N >= 1."""

    def __init__(self, base, cap: int):
        _check_cap(cap)
        super().__init__(base)
        self.cap = self.keep = cap

    def t_power(self, r: int):
        _check_t_exponent(r)
        if r >= self.cap:
            return self.zero
        return _t_value((self.base.zero,) * r + (self.base.one,))

    def _reduce(self, coeffs: list) -> tuple:
        return _trim(coeffs)  # mul formed no degree >= cap

    def __repr__(self):
        return f"{self.base}[t]/t^{self.cap}"


def _check_q(q) -> None:
    if not isinstance(q, int):
        raise ValueError(f"q must be an int, got {q!r}")


class TQuotientRing(_TRingBase):
    """GF(p)[t] modulo t^p - q*t; every value has t-degree < p.

    The ring is finite, with p^p values, so ``add`` is memoized as well, the
    way ``mul`` is: ``memo[a][b]`` keyed by canonical values only.
    """

    def __init__(self, p: int, q: int):
        base = gf(p)
        _check_q(q)
        super().__init__(base)
        self.p = p
        self.q = q % p
        self.cap = p
        self._add_memo: dict = {}

    def add(self, a, b):
        try:
            return self._add_memo[a][b]
        except KeyError:
            return self._fill(self._add_memo, _TRingBase.add, a, b)

    def t_power(self, r: int):
        _check_t_exponent(r)
        # t^r = q^k t^(r - k(p-1)) with k = (r-1)//(p-1) for r >= 1, by t^p = q t
        k = max(r - 1, 0) // (self.p - 1)
        c = pow(self.q, k, self.p)
        return _t_value((0,) * (r - k * (self.p - 1)) + (c,) if c else ())

    def _reduce(self, coeffs: list) -> tuple:
        # fold t^(p+k) -> q * t^(1+k), highest degree first
        p, q = self.p, self.q
        for d in range(len(coeffs) - 1, p - 1, -1):
            c = coeffs[d]
            if c:
                coeffs[d - p + 1] = (coeffs[d - p + 1] + q * c) % p
            coeffs[d] = 0
        return _trim(coeffs[:p])

    def __repr__(self):
        return f"GF({self.p})[t]_(t^{self.p}-{self.q}t)"


def t_series(base, cap: int) -> TSeriesRing:
    """The one descriptor of base[t]/t^cap; a cap that is not an int >= 1 raises ValueError."""
    _check_cap(cap)
    return _t_series(base, int(cap))


@lru_cache(maxsize=None)
def _t_series(base, cap: int) -> TSeriesRing:
    return TSeriesRing(base, cap)


def t_quotient(p: int, q: int) -> TQuotientRing:
    """The one descriptor of GF(p)[t]/(t^p - q t); every q of one residue mod p names it."""
    gf(p)  # validates the prime before q is reduced mod it
    _check_q(q)
    return _t_quotient(p, q % p)


@lru_cache(maxsize=None)
def _t_quotient(p: int, q: int) -> TQuotientRing:
    return TQuotientRing(p, q)


# -- sparse combinations over a ring ----------------------------------------------------


def accumulate(radd, out: dict, pairs) -> dict:
    """Add each (key, value) pair into out with radd, keeping only nonzero sums."""
    get = out.get
    for k, v in pairs:
        c = get(k)
        if c is not None:
            v = radd(c, v)
        if v:
            out[k] = v
        elif c is not None:
            del out[k]
    return out


class SparseElement:
    """A sparse linear combination: ``terms`` maps keys to nonzero ring values.

    Subclasses name their context (``_context``: the objects two operands must
    share, compared by identity) and a constructor taking the context followed
    by the terms; everything linear lives here.
    """

    __slots__ = ("terms",)

    def _context(self) -> tuple:
        raise NotImplementedError

    def _like(self, terms: dict):
        return type(self)(*self._context(), terms)

    def _same(self, other) -> None:
        if type(other) is not type(self) or other._context() != self._context():
            raise ValueError(f"{type(self).__name__} operands from different contexts")

    def __add__(self, other):
        self._same(other)
        return self._like(accumulate(self.ring.add, dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale_int(-1)

    def scale(self, c):
        if not c:
            return self._like({})
        rmul = self.ring.mul
        # the quotient t-ring has zero divisors
        return self._like({k: v for k, w in self.terms.items() if (v := rmul(w, c))})

    def scale_int(self, n: int):
        return self.scale(self.ring.from_int(n))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and other._context() == self._context() and other.terms == self.terms
