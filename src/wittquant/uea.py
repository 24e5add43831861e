"""Enveloping-algebra arithmetic over the Witt-type Lie algebras.

Elements are sparse combinations of PBW monomials: ordered products of basis
derivations with positive exponents, strictly increasing in the canonical
order (exponent vector lexicographically, then derivation index).

A normal monomial is a tuple of (symbol, exponent) pairs, a
:class:`~wittquant.rings.Canonical` like the basis symbols, so a dict keyed by
monomials (or by tensor keys, plain tuples of them) never rehashes the pairs.
:func:`monomial` is its one constructor; the unit monomial is the plain empty
tuple ``()``.  An equal plain tuple is not interchangeable with the monomial: it
hashes differently and misses every dict keyed by monomials.

Straightening is memoized left insertion.  The context caches b * mono for a
basis symbol b and a normal monomial mono = b1^e1 ... (first symbol b1):

    b < b1 (or mono = 1)   prepend b;
    b = b1                 raise e1 by one and apply the fold rule;
    b > b1                 b b1 rest = b1 (b rest) + [b, b1] rest.

The fold rule is the one place the restricted relations act: b^p = b^[p],
which is H_i for the torus symbols H_i = x^(eps_i) D_i and 0 for every other
basis symbol.  A word is normalized by inserting its symbols from right to
left into the unit, so words never need to be rebuilt.  A product of monomials
m1 * m2 is b1 * (s * m2), where the suffix s drops one factor of the first
symbol b1 of m1.  The products with one right factor m2 share a row of cached
entries s * m2, so a product whose suffix is cached costs one insertion step,
and tails that several left factors share are multiplied once.

Straightening coefficients are integers.  In a context whose ring has
characteristic p > 0 they are residues in 1..p-1: each sum is reduced mod p and
a term that is 0 mod p is dropped where it arises, as the ring would drop it
later (the diamond lemma below fixes the normal form, not the integer that
stands for a coefficient).  A characteristic-0 context keeps exact integers.
The caches hold each small result once: every insertion or row entry that is 0
is the context's one empty dict, and every one that is a single term with
coefficient 1 is the context's one dict {m: 1} of its monomial.  A row step on
one unit term returns the cached insertion itself.  Cached results are shared
and never mutated; an insertion sums its parts into a dict of its own.

The recursion terminates by induction on filtration degree.  For mono of
degree d it recurses into b rest and [b, b1] rest, of degree d, one less than
b mono; a fold lowers the degree by p - 1; and the top-degree terms of b rest
start with b1 or a larger symbol, so b1 goes into them without recursing.

By Bergman's diamond lemma (Adv. Math. 29, 1978) the overlaps of these
rewriting rules resolve, so every rewriting order yields the same normal form
and left insertion agrees with any other strategy.  ``tests/oracles.py`` keeps
the word-rewriting straightener (one adjacent swap at a time) as the
reference the test suite compares against.

Tensor powers of the algebra (used for coproducts and twists) share the same
monomial keys, one per slot.  Elements and tensors of every arity multiply in
one kernel, ``_product``, which factors through the first monomial by
bilinearity over the commutative ring: (a1 (x) r1)(a2 (x) r2) = a1 a2 (x) r1 r2,
r the rest of a tensor's slots or an element's coefficient.  Each pair of first
monomials is multiplied first, once, and a pair whose product vanishes (b^p = 0
off the torus in u(W(n;1))) is dropped before its rests multiply, by the ring
or by the kernel one slot down.  In a series ring the kernel first drops the
pairs that the truncation kills (``_blocks``): a pair of terms, or of first-slot
groups, whose lowest t-orders sum to the ring's ``keep`` or more is never
multiplied.  A ring that drops no degree pays no per-pair test for this.
Monomial products have integer coefficients, so a ring value is rescaled only
by an integer other than 1, each such integer converted into the ring once per
kernel call.

Each coproduct is given on PBW monomials and extended linearly by
``expand_slot`` over the one-slot view ``TensorElement.of(x)``, and the mod-p
reduction goes slot by slot.  Every coproduct, undeformed here and deformed in
:mod:`wittquant.twist`, reaches a monomial by one walk (``cached_walk`` over
``drop_last``): m is its prefix times its last symbol b, so
Delta(m) = Delta(prefix) * Delta(b), with Delta0(b) = b (x) 1 + 1 (x) b here.
The caches hold plain data (ring-valued dicts) and wrap them on return; an
element points back at its context, so a cached element would keep the context
alive until a full garbage collection.  ``delta_mono`` grows on the right.

Powers and antipodes go through one walk, Horner's rule over PBW monomials
(``_horner``): each monomial starts from its items, and from the highest degree
down its items are multiplied by the image of one outer symbol b and added into
the sum of the monomial without b.  The unit's sum is the answer.  Monomials that
share a shortening share its products, and a sum cancels before its next symbol.
A power x^k grows on the left, x * x^(k-1), and its right factor is new at every
step, so a ``mono_mul`` row keyed by a monomial of the running power would serve
one product.  A power step's element product (``_left_power``) walks x's
monomials instead: each starts from its coefficient times the running power, and
b, its last symbol, goes on the left by ``_insert``, so the step builds no row.  A
tensor power keeps the kernel's first-slot products, whose monomials are few and
recur, and forms the rests this way; every other product keeps the rows.  Every
antipode, undeformed here (S0(b) = -b) and deformed in :mod:`wittquant.twist`, is
given on basis symbols only and walks the monomials of one slot of a 2-tensor
(``TensorElement.antipode_out``): m(S (x) Id) or m(Id (x) S), as in the antipode
laws and twistors, and S(x) itself as m(S (x) Id)(x (x) 1).  No S of a whole
monomial is formed or cached.  For slot 1, b is the last symbol and S(b) goes on
the right, since a S(prefix b) = (a S(b)) S(prefix); for slot 0, b is the first
symbol and S(b) goes on the left, since S(b rest) a = S(rest) (S(b) a).

All coefficient arithmetic goes through the ring descriptors of
:mod:`wittquant.rings`; structure constants stay integers until they are
folded into ring values at the element level.
"""
from __future__ import annotations

import itertools
import math
import operator

from .liealg import JW, WPLUS, BasisDeriv, LieAlgebra, LieElement
from .rings import Canonical, SparseElement, accumulate, inverse_factorial, multi_factorial


def _power(x, k: int, one, mul):
    """x^k = x * x^(k-1), from the unit one, by ``mul(x, running power)``.  Up to
    k = 3 this forms the products squaring does (x * x, then x * x^2), past that
    fewer: squaring multiplies two dense powers.  x goes on the left, so each
    step walks x's monomials by Horner's rule (``EnvelopingAlgebra._left_power``)
    and builds no ``mono_mul`` row keyed by the running power's new monomials."""
    if k < 0:
        raise ValueError("negative powers are not defined here")
    out = one
    for _ in range(k):
        out = mul(x, out)
    return out


def cached_walk(cache: dict, key, shorten, step):
    """cache[key], built forward from the longest cached shortening of key.

    ``shorten`` drops one factor of a key, and the cache holds the end of every
    such chain; ``step(value, key)`` turns the value of shorten(key) into that of
    key, and every step is cached.  The walk back is a loop because a monomial's
    degree can pass the recursion limit.
    """
    hit = cache.get(key)
    missing = []
    while hit is None:
        missing.append(key)
        key = shorten(key)
        hit = cache.get(key)
    for key in reversed(missing):
        hit = cache[key] = step(hit, key)
    return hit


class _Monomial(Canonical):
    """A canonical normal PBW monomial; only :func:`monomial` makes one."""

    __slots__ = ()


def monomial(pairs):
    """The canonical monomial with these (symbol, exponent) pairs, in normal order;
    ``()`` for none.  A canonical monomial is returned as it is, without a lookup."""
    key = pairs if type(pairs) is _Monomial else tuple(pairs)
    return _Monomial.of(key) if key else ()


def _drop_first(mono):
    """mono without one factor of its first symbol."""
    (b, e), rest = mono[0], mono[1:]
    return monomial(((b, e - 1),) + rest if e > 1 else rest)


def drop_last(mono):
    """mono without one factor of its last symbol."""
    b, e = mono[-1]
    return monomial(mono[:-1] + ((b, e - 1),) if e > 1 else mono[:-1])


class EnvelopingAlgebra:
    """Context object: Lie algebra + coefficient ring + Free/Restricted mode.

    Holds the normalization and coalgebra caches; elements are cheap handles
    onto it.  Restricted mode requires the Jacobson-Witt flavor and a ring of
    matching characteristic.
    """

    def __init__(self, alg: LieAlgebra, ring, restricted: bool = False):
        if restricted:
            if alg.flavor != JW:
                raise ValueError("restricted mode requires the Jacobson-Witt flavor")
            if ring.char != alg.p:
                raise ValueError("restricted mode needs a ring of characteristic p")
        self.alg = alg
        self.ring = ring
        self.restricted = restricted
        # memo caches of plain data; per-context, results never depend on fill order.
        # _mono_mul_rows: right factor m2 -> {left factor m1 -> m1 * m2}
        # _units: monomial m -> {m: 1}, the one dict of that unit term
        # _vanished: the one dict of every straightening result that is 0
        # _delta0_cache: monomial -> terms of its Delta0, from the unit up
        self._insert_cache: dict = {}
        self._mono_mul_rows: dict = {}
        self._units: dict = {}
        self._vanished: dict = {}
        self._delta0_cache: dict = {(): {((), ()): ring.one}}

    # -- element constructors -------------------------------------------------

    def zero(self) -> "UEAElement":
        return UEAElement(self, {})

    def one(self) -> "UEAElement":
        return UEAElement(self, {(): self.ring.one})

    def gen(self, b: BasisDeriv, coeff=None) -> "UEAElement":
        self.alg.validate(b)
        c = self.ring.one if coeff is None else coeff
        return UEAElement(self, {monomial(((b, 1),)): c} if c else {})

    def element(self, terms: dict) -> "UEAElement":
        """The element with these terms; a key may be a plain tuple of (symbol, exponent) pairs,
        and must be a normal monomial of this context (``_normal_key``)."""
        return UEAElement(self, {self._normal_key(m): c for m, c in terms.items() if c})

    def _normal_key(self, key):
        """The canonical monomial of key; ValueError naming key unless its symbols belong to
        the algebra and strictly increase, and each exponent is at least 1 and one the fold
        rule leaves as it is."""
        last = None
        for b, e in key:
            try:
                self.alg.validate(b)
            except ValueError as err:
                raise ValueError(f"monomial key {key!r}: {err}") from None
            if last is not None and not last < b:
                raise ValueError(f"monomial key {key!r}: symbols not strictly increasing")
            if e < 1 or self.fold_exponent(b, e) != e:
                raise ValueError(f"monomial key {key!r}: {b} has exponent {e}, not that of a normal monomial")
            last = b
        return monomial(key)

    def lift(self, x: LieElement) -> "UEAElement":
        """Embed a Lie element as a degree-one element of the enveloping algebra."""
        shape = [(alg.flavor, alg.n, getattr(alg, "p", None)) for alg in (x.alg, self.alg)]
        if shape[0] != shape[1] or x.ring is not self.ring:
            raise ValueError("Lie element from a different algebra or coefficient ring")
        return UEAElement(self, {monomial(((b, 1),)): c for b, c in x.terms.items()})

    def scalar(self, c) -> "UEAElement":
        return UEAElement(self, {(): c} if c else {})

    # -- normalization core ----------------------------------------------------

    def fold_exponent(self, b: BasisDeriv, e: int) -> int:
        """Exponent of b^e under the restricted relations b^p = b^[p]; 0 when b^e dies."""
        p = self.alg.p if self.restricted else 0
        if not p or e < p:
            return e
        return 1 + (e - 1) % (p - 1) if self.alg.p_power(b) is not None else 0

    def _insert(self, b: BasisDeriv, mono) -> dict:
        """Normal form of b * mono for a normal monomial: dict mono -> int coeff, a
        residue in 1..p-1 in characteristic p.  A prepended symbol gives a fresh
        dict; every other result is cached, shared (``_shared``) and must not be
        mutated, so the swap sums its parts into a dict of its own (``_combine``)."""
        if not mono or b < mono[0][0]:
            return {monomial(((b, 1),) + mono): 1}
        key = (b, mono)
        hit = self._insert_cache.get(key)
        if hit is not None:
            return hit
        b1, e1 = mono[0]
        if b == b1:
            e = self.fold_exponent(b, e1 + 1)
            out = self._unit(monomial(((b, e),) + mono[1:])) if e else self._vanished
        else:
            # b b1 rest = b1 (b rest) + [b, b1] rest
            rest = _drop_first(mono)
            ins = self._insert
            parts = [(c, ins(b1, m)) for m, c in ins(b, rest).items()]
            parts += [(k, ins(s, rest)) for s, k in self.alg.bracket_basis(b, b1).items()]
            out = self._shared(self._combine(parts))
        self._insert_cache[key] = out
        return out

    def _left_multiply(self, symbols, terms: dict) -> dict:
        """Multiply normal terms on the left by each symbol in turn.  One unit term's
        product is its insertion as cached, so the result may be shared."""
        for b in symbols:
            if not terms:
                break
            if len(terms) == 1 and 1 in terms.values():
                terms = self._insert(b, next(iter(terms)))
            else:
                terms = self._combine([(c, self._insert(b, m)) for m, c in terms.items()])
        return terms

    def _combine(self, parts) -> dict:
        """The sum of k * terms over the (int k, int terms) pairs of parts, as a fresh
        dict whose coefficients are reduced mod p in characteristic p, zeros dropped."""
        out: dict = {}
        get = out.get
        for k, terms in parts:
            for m, c in terms.items():
                out[m] = get(m, 0) + k * c
        p = self.ring.char
        if p:
            return {m: r for m, c in out.items() if (r := c % p)}
        return {m: c for m, c in out.items() if c} if 0 in out.values() else out

    def _unit(self, m) -> dict:
        """The context's one dict {m: 1}."""
        hit = self._units.get(m)
        if hit is None:
            hit = self._units[m] = {m: 1}
        return hit

    def _shared(self, terms: dict) -> dict:
        """terms, or the context's one dict with its content when it is 0 or one unit term."""
        if not terms:
            return self._vanished
        if len(terms) == 1:
            ((m, c),) = terms.items()
            if c == 1:
                return self._unit(m)
        return terms

    def normalize_word(self, word) -> dict:
        """Normal form of a product of basis symbols: dict mono -> int coeff, a residue
        in 1..p-1 in characteristic p.  The result may be a cached insertion and
        must not be mutated."""
        return self._left_multiply(reversed(tuple(word)), {(): 1})

    def mono_mul(self, m1, m2) -> dict:
        """Normalized product of two PBW monomials: dict mono -> int coeff, a residue
        in 1..p-1 in characteristic p.

        Row m2 maps m1 -> m1 * m2 and holds the unit.  A miss walks m1 back,
        one factor of its first symbol b1 at a time, to its longest suffix s in
        the row, then goes forward by b1 * (s * m2), one insertion step per
        entry (``cached_walk``).  Returned dicts are shared and must not be
        mutated: a row entry that is 0 or one unit term is the context's one
        dict of that content (``_shared``), and a cached insertion is the row
        entry itself.
        """
        if not m2:
            return {m1: 1}
        row = self._mono_mul_rows.get(m2)
        if row is None:
            row = self._mono_mul_rows[m2] = {(): self._unit(m2)}
        hit = row.get(m1)
        if hit is None:
            hit = cached_walk(row, m1, _drop_first, lambda s, m: self._shared(self._left_multiply((m[0][0],), s)))
        return hit

    def pbw_normalize(self, word) -> "UEAElement":
        """Normalize a word of basis symbols into an element."""
        word = tuple(word)
        for bd in word:
            self.alg.validate(bd)
        rint = self.ring.from_int
        return UEAElement(self, {m: v for m, c in self.normalize_word(word).items() if (v := rint(c))})

    # -- products ----------------------------------------------------------------

    def mul(self, x: "UEAElement", y: "UEAElement") -> "UEAElement":
        self.check(x)
        self.check(y)
        return UEAElement(self, self._product(x.terms, y.terms, 0))

    def _product(self, x: dict, y: dict, depth: int, power: bool = False, ints=None) -> dict:
        """The one product kernel, on terms nested ``depth`` levels below their first monomial
        (``_nest``; depth 0: an element's terms): dict key -> value.  Each pair of first
        monomials left by ``_blocks`` is multiplied once, and dropped if that vanishes; else
        the values multiply (by the ring at depth 0, by this kernel one level down past it)
        and scatter over the first monomials with their integer rescale (``ints``, shared
        down the levels).  In a power step (``power``: x the factor, y the running power)
        the first monomials still multiply by ``mono_mul``, but the product at depth 0 goes
        by Horner's rule over x's monomials (``_left_power``)."""
        ints = _Ints(self.ring) if ints is None else ints
        if power and not depth:
            return self._left_power(x, y, ints)
        rmul, mono_mul = self.ring.mul, self.mono_mul

        def pairs():
            for xs, ys in self._blocks(x, y, depth):
                for m1, v1 in xs:
                    for m2, v2 in ys:
                        first = mono_mul(m1, m2)
                        if not first:
                            continue
                        if not depth:
                            c = rmul(v1, v2)
                            for m, k in first.items():
                                yield m, c if k == 1 else rmul(c, ints[k])
                            continue
                        rest = self._product(v1, v2, depth - 1, power, ints)
                        for m, k in first.items():
                            for r, c in rest.items():
                                yield (m, r) if depth == 1 else (m,) + r, c if k == 1 else rmul(c, ints[k])

        return accumulate(self.ring.add, {}, pairs())

    def _left_power(self, x: dict, y: dict, ints) -> dict:
        """x * y on element terms by the walk over x's monomials (``_horner``), each seeded
        with its coefficient times the terms of y that ``_blocks`` pairs it with, scaled as
        they are read; its last symbol goes on the left, one ``_insert`` per term."""
        ins, rmul, one = self._insert, self.ring.mul, self.ring.one

        def times(m, items):
            b = m[-1][0]
            for m2, v in items:
                for mm, k in ins(b, m2).items():
                    yield mm, v if k == 1 else rmul(v, ints[k])

        seeds = {m: ys if c == one else _scaled(c, ys, rmul) for xs, ys in self._blocks(x, y, 0) for m, c in xs}
        return self._horner(seeds, drop_last, times)

    def _horner(self, seeds, shorten, times) -> dict:
        """Horner's rule over monomials (see the module docstring): ``seeds`` maps each
        monomial m to its starting items, ``shorten`` (``drop_last`` or ``_drop_first``) drops
        its outer factor, and ``times(m, items)`` yields the items times that symbol's image.
        A loop over the degrees, which can pass the recursion limit."""
        radd = self.ring.add
        levels: dict = {}  # degree -> monomial -> the sum its longer monomials added into it
        for m in seeds:
            levels.setdefault(sum(e for _, e in m), {})[m] = {}
        for degree in range(max(levels, default=0), 0, -1):
            up = levels.setdefault(degree - 1, {})
            for m, acc in levels.pop(degree).items():
                items = itertools.chain(acc.items(), seeds.get(m, ()))
                accumulate(radd, up.setdefault(shorten(m), {}), times(m, items))
        return accumulate(radd, levels.get(0, {}).get((), {}), seeds.get((), ()))

    def _blocks(self, x: dict, y: dict, depth: int):
        """Pairs (left items, right items) that hold every pair of items whose coefficient
        products the ring's truncation keeps, and no other pair; all items when ``keep`` is
        None.  An item's order is the lowest over the ring values ``depth`` nesting levels
        under it (``_nest``).  The ring forms no degree >= keep and order(ab) >= order(a) +
        order(b), so the left items of order o meet only the right items of order below keep - o."""
        keep = self.ring.keep
        if keep is None:
            return ((x.items(), y.items()),)
        order = self.ring.order
        low = order if not depth else lambda node: _lowest(order, node, depth)
        rights = [[] for _ in range(keep)]
        for item in y.items():
            rights[low(item[1])].append(item)
        below = list(itertools.accumulate(rights, operator.add))  # below[o]: right items of order <= o
        lefts: dict = {}
        for item in x.items():
            lefts.setdefault(low(item[1]), []).append(item)
        return [(items, below[keep - 1 - o]) for o, items in lefts.items()]

    def power(self, x: "UEAElement", k: int) -> "UEAElement":
        self.check(x)
        return _power(x, k, self.one(), lambda a, b: UEAElement(self, self._product(a.terms, b.terms, 0, True)))

    def check(self, x):
        """x, once it is checked to be an element of this enveloping algebra; ValueError if not."""
        if type(x) is not UEAElement or x.uea is not self:
            raise ValueError("operand is not an element of this enveloping algebra")
        return x

    # -- standard Hopf structure ---------------------------------------------------

    def coproduct0_mono(self, mono) -> "TensorElement":
        """Delta0(m) = Delta0(prefix) * (b (x) 1 + 1 (x) b), b the last symbol of m and
        the prefix m without one factor of it; Delta0(1) = 1 (x) 1."""

        def step(terms, m):
            b = self.gen(m[-1][0])
            primitive = TensorElement.of(b, self.one()) + TensorElement.of(self.one(), b)
            return (TensorElement(self, 2, terms) * primitive).terms

        return TensorElement(self, 2, cached_walk(self._delta0_cache, mono, drop_last, step))

    def coproduct0(self, x: "UEAElement") -> "TensorElement":
        """The undeformed coproduct, each generator primitive."""
        self.check(x)
        return TensorElement.of(x).expand_slot(0, self.coproduct0_mono)

    def antipode0(self, x: "UEAElement") -> "UEAElement":
        """The undeformed antipode, each generator negated: m(S0 (x) Id)(x (x) 1)."""
        self.check(x)
        return TensorElement.of(x, self.one()).antipode_out(0, lambda b: -self.gen(b))

    # -- derived elements ----------------------------------------------------------

    def factorial_element(self, base: "UEAElement", a, r: int) -> "UEAElement":
        """The rising factorial (x+a)(x+a+1)...(x+a+r-1) of a ring element x, for an int or
        Fraction shift a.  Every falling factorial is one of these, read from its lowest
        factor: (x+a)(x+a-1)...(x+a-r+1) = factorial_element(x, a-r+1, r)."""
        if r < 0:
            raise ValueError("r must be nonnegative")
        a0 = self.ring.from_fraction(a)
        out = self.one()
        for j in range(r):
            out = self.mul(out, base + self.scalar(self.ring.add(a0, self.ring.from_int(j))))
        return out

    def ad_divided_power(self, e: "UEAElement", ell: int, x: "UEAElement") -> "UEAElement":
        """(1/ell!) (ad e)^ell (x); in characteristic p this needs ell < p."""
        if ell < 0:
            raise ValueError("ell must be nonnegative")
        inv = inverse_factorial(self.ring, ell)
        cur = x
        for _ in range(ell):
            cur = self.mul(e, cur) - self.mul(cur, e)
        return cur.scale(inv)

    # -- restricted basis enumeration ------------------------------------------------

    def enumerate_restricted_basis(self):
        """All PBW monomials of the restricted algebra (exponents < p), sorted."""
        if not self.restricted:
            raise ValueError("basis enumeration is defined for restricted mode")
        gens = self.alg.basis()
        p = self.alg.p
        for exps in itertools.product(range(p), repeat=len(gens)):
            yield monomial((b, e) for b, e in zip(gens, exps) if e)


class UEAElement(SparseElement):
    """A sparse combination of PBW monomials over the context's ring."""

    __slots__ = ("uea",)

    def __init__(self, uea: EnvelopingAlgebra, terms: dict):
        self.uea = uea
        self.terms = terms

    def _context(self) -> tuple:
        return (self.uea,)

    @property
    def ring(self):
        return self.uea.ring

    def __mul__(self, other):
        return self.uea.mul(self, other)

    def __pow__(self, k: int):
        return self.uea.power(self, k)

    def __repr__(self):
        from .grammar import format_element

        return f"<UEA {format_element(self)}>"


class _Ints(dict):
    """int k -> ring.from_int(k), each k converted once: the integer rescales of one
    kernel call."""

    __slots__ = ("from_int",)

    def __init__(self, ring):
        self.from_int = ring.from_int

    def __missing__(self, k):
        value = self[k] = self.from_int(k)
        return value


def _scaled(c, items, rmul):
    """The (key, c * value) of items whose product is not 0, formed as they are read."""
    return ((m, w) for m, v in items if (w := rmul(c, v)))


def _lowest(order, node: dict, depth: int) -> int:
    """The lowest order over the ring values ``depth`` >= 1 nesting levels under node."""
    if depth == 1:
        return min(map(order, node.values()))
    return min(_lowest(order, v, depth - 1) for v in node.values())


def _nest(terms: dict) -> dict:
    """Tensor terms nested slot by slot: first monomial -> ... -> last monomial -> value."""
    out: dict = {}
    for key, c in terms.items():
        node = out
        for m in key[:-1]:
            node = node.setdefault(m, {})
        node[key[-1]] = c
    return out


class TensorElement(SparseElement):
    """A sparse element of the arity-fold tensor power of the algebra.

    Keys are tuples of PBW monomials, one per slot; coefficients live in the
    shared ring (so truncated t-polynomials multiply across slots correctly).
    """

    __slots__ = ("uea", "arity")

    def __init__(self, uea: EnvelopingAlgebra, arity: int, terms: dict):
        self.uea = uea
        self.arity = arity
        self.terms = terms

    def _context(self) -> tuple:
        return (self.uea, self.arity)

    @property
    def ring(self):
        return self.uea.ring

    @classmethod
    def unit(cls, uea, arity=2):
        if arity < 0:
            raise ValueError("a tensor has a nonnegative number of slots")
        return cls(uea, arity, {((),) * arity: uea.ring.one})

    @classmethod
    def of(cls, *factors: UEAElement):
        """The pure tensor x1 (x) x2 (x) ... of elements of one enveloping algebra."""
        if not factors:
            raise ValueError("a pure tensor needs at least one factor")
        uea = factors[0].uea
        for f in factors:
            uea.check(f)
        ring = uea.ring
        rmul = ring.mul
        keys = [((), ring.one)]
        for f in factors:
            keys = [(key + (m,), v) for key, c in keys for m, cf in f.terms.items() if (v := rmul(c, cf))]
        return cls(uea, len(factors), accumulate(ring.add, {}, keys))

    def __mul__(self, other):
        """Slotwise product: the product kernel at depth arity - 1 on the terms nested by slot.
        Arity 0 gains a unit slot for it; the kernel's bare monomial keys get their tuple back."""
        self._same(other)
        return self._times(other, False)

    def __pow__(self, k: int):
        """The first slot of each step multiplies in the product kernel, the rests by
        Horner's rule over the factor's rests (``EnvelopingAlgebra._product``)."""
        return _power(self, k, TensorElement.unit(self.uea, self.arity), lambda a, b: a._times(b, True))

    def _times(self, other, power: bool) -> "TensorElement":
        arity = self.arity
        x, y = (_nest(z.terms if arity else z.pad(right=1).terms) for z in (self, other))
        terms = self.uea._product(x, y, max(arity - 1, 0), power)
        return self._like(terms if arity >= 2 else {(m,)[:arity]: c for m, c in terms.items()})

    def map_slot(self, slot: int, f) -> "TensorElement":
        """Apply a linear map (mono -> UEAElement of this algebra, else ValueError) to one slot."""
        self._check_slot(slot)
        rmul = self.ring.mul
        pairs = (
            (key[:slot] + (m,) + key[slot + 1 :], rmul(c, cf))
            for key, c in self.terms.items()
            for m, cf in self.uea.check(f(key[slot])).terms.items()
        )
        return self._like(accumulate(self.ring.add, {}, pairs))

    def expand_slot(self, slot: int, f) -> "TensorElement":
        """Replace one slot through a map (mono -> TensorElement of arity 2 over this
        algebra); any other image raises ValueError."""
        self._check_slot(slot)
        rmul = self.ring.mul
        pairs = (
            (key[:slot] + kk + key[slot + 1 :], rmul(c, cf))
            for key, c in self.terms.items()
            for kk, cf in _arity_two(f(key[slot]), self.uea).terms.items()
        )
        return TensorElement(self.uea, self.arity + 1, accumulate(self.ring.add, {}, pairs))

    def pad(self, left: int = 0, right: int = 0) -> "TensorElement":
        """Tensor with unit slots added on the left/right (e.g. F (x) 1)."""
        if left < 0 or right < 0:
            raise ValueError("a tensor is padded by a nonnegative number of slots")
        lk, rk = ((),) * left, ((),) * right
        return TensorElement(
            self.uea, self.arity + left + right, {lk + k + rk: c for k, c in self.terms.items()}
        )

    def contract(self, slot: int) -> "TensorElement":
        """Apply eps0, the one counit (``QuantizedHopf.counit`` too), to one slot:
        keep the terms whose monomial in that slot is the empty one."""
        self._check_slot(slot)
        terms = {key[:slot] + key[slot + 1 :]: c for key, c in self.terms.items() if not key[slot]}
        return TensorElement(self.uea, self.arity - 1, terms)

    def _check_slot(self, slot: int):
        if not 0 <= slot < self.arity:
            raise ValueError(f"slot {slot} is outside a tensor of arity {self.arity}")

    def antipode_out(self, slot: int, image) -> UEAElement:
        """m(S (x) Id) of a 2-tensor for slot 0, m(Id (x) S) for slot 1, S the
        anti-multiplicative map with S(b) = image(b), an element of this algebra, on basis
        symbols: the element ``map_slot(slot, S).multiply_out()``, associated the other way
        by the walk over the slot's monomials (``EnvelopingAlgebra._horner``), each seeded
        with its terms of the other slot.  Slot 1 drops the last symbol and multiplies its
        image on the right, slot 0 the first and on the left, both by ``_product``.  Every
        antipode goes through here; S(x) is ``of(x, one).antipode_out(0, image)``."""
        if self.arity != 2 or slot not in (0, 1):
            raise ValueError(f"antipode_out maps slot 0 or 1 of a 2-tensor, got slot {slot} of arity {self.arity}")
        uea, radd = self.uea, self.ring.add
        groups: dict = {}  # slot monomial -> terms of the other slot
        for key, c in self.terms.items():
            groups.setdefault(key[slot], {})[key[1 - slot]] = c

        def times(m, items):
            terms = accumulate(radd, {}, items)
            if slot:
                return uea._product(terms, uea.check(image(m[-1][0])).terms, 0).items()
            return uea._product(uea.check(image(m[0][0])).terms, terms, 0).items()

        seeds = {m: terms.items() for m, terms in groups.items()}
        return UEAElement(uea, uea._horner(seeds, drop_last if slot else _drop_first, times))

    def multiply_out(self) -> UEAElement:
        """The image under slotwise multiplication m: A⊗...⊗A -> A.

        Slots 0 and 1 merge into one, with one monomial product per key, until
        one slot is left; the sum is collected after each merge, so terms that
        cancel are not carried into the next."""
        uea = self.uea
        radd, rmul, ints, mono_mul = uea.ring.add, uea.ring.mul, _Ints(uea.ring), uea.mono_mul
        terms = self.terms if self.arity else self.pad(1).terms
        for _ in range(self.arity - 1):
            pairs = (
                ((m,) + key[2:], c if k == 1 else rmul(c, ints[k]))
                for key, c in terms.items()
                for m, k in mono_mul(key[0], key[1]).items()
            )
            terms = accumulate(radd, {}, pairs)
        return UEAElement(uea, {key[0]: c for key, c in terms.items()})

    def to_element(self) -> UEAElement:
        if self.arity != 1:
            raise ValueError("only arity-1 tensors collapse to elements")
        return UEAElement(self.uea, {k[0]: c for k, c in self.terms.items()})

    def __repr__(self):
        from .grammar import format_element

        return f"<Tensor {format_element(self)}>"


def _arity_two(image: TensorElement, uea: EnvelopingAlgebra) -> TensorElement:
    """image, the value of an ``expand_slot`` map, once it is checked to be a 2-tensor over uea."""
    if type(image) is not TensorElement or image.uea is not uea:
        raise ValueError("expand_slot needs images over the tensor's own enveloping algebra")
    if image.arity != 2:
        raise ValueError(f"expand_slot needs images of arity 2, got arity {image.arity}")
    return image


# -- reduction of integral-form elements mod p ----------------------------------------


def _reduce_mono(mono, target: EnvelopingAlgebra):
    """(image, scale) of a normal W+ monomial under x^a D_i -> a! x^(a) D_i in target,
    or None when it dies: x^a is outside target's W(n;1) (its ``in_range``), or a factor
    folds to 0.  The image keeps the (alpha, i) order of the factors, so it is normal as
    it stands."""
    image, scale = [], 1
    for bd, e in mono:
        if not target.alg.in_range(bd.alpha):
            return None
        sym = BasisDeriv(JW, bd.alpha, bd.i)
        target.alg.validate(sym)
        folded = target.fold_exponent(sym, e)
        if not folded:
            return None
        image.append((sym, folded))
        scale *= multi_factorial(bd.alpha) ** e
    return monomial(image), scale


def reduce_tensor_mod_p(x: TensorElement, target: EnvelopingAlgebra) -> TensorElement:
    """Reduce a W+ tensor element slotwise to the Jacobson-Witt side: x^a D_i -> a! x^(a) D_i.

    A term dies with any slot (``_reduce_mono``); a surviving term picks up the
    factorial scalars of every slot, and its coefficient is reduced mod p.  The
    source must be a tensor over U(W+) and the target an algebra over W(n;1);
    any other raises ValueError.
    """
    if x.uea.alg.flavor != WPLUS:
        raise ValueError(f"reduction mod p maps U(W+), not an element over {x.uea.alg!r}")
    if target.alg.flavor != JW:
        raise ValueError(f"reduction mod p maps into U(W(n;1)), not into an algebra over {target.alg!r}")
    ring = target.ring
    pairs = []
    for key, c in x.terms.items():
        images = [_reduce_mono(m, target) for m in key]
        if all(images):
            scale = math.prod(s for _, s in images)
            pairs.append((tuple(m for m, _ in images), ring.mul(ring.from_fraction(c), ring.from_int(scale))))
    return TensorElement(target, x.arity, accumulate(ring.add, {}, pairs))


def reduce_element_mod_p(x: UEAElement, target: EnvelopingAlgebra) -> UEAElement:
    """The one-slot case of ``reduce_tensor_mod_p``."""
    return reduce_tensor_mod_p(TensorElement.of(x), target).to_element()
