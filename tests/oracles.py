"""Independent oracles used by the test suite.

The Jacobson-Witt algebra acts on the restricted divided power algebra
O(n;1) = span{ x^(beta) : 0 <= beta <= tau } by

    x^(alpha) D_i . x^(beta) = C(alpha+beta-e_i, alpha) x^(alpha+beta-e_i)

with C the componentwise binomial.  Realizing basis symbols as p^n x p^n
matrices over GF(p) gives a faithful representation, so brackets must match
matrix commutators and the restricted p-power map must match p-th matrix
powers.  None of this code shares logic with the bracket implementation.

``rewrite_normalize`` is the reference PBW straightener: it rewrites whole
words one adjacent swap at a time, which shares no subproblems and no code
with the memoized left insertion of :mod:`wittquant.uea`.

``quotient_mul`` and ``quotient_add`` are the reference arithmetic of
GF(p)[t]/(t^p - q t): a dense schoolbook product followed by long division
by the monic modulus, sharing no code with :mod:`wittquant.rings`.
``series_mul`` is the reference product of K[t]/(t^N): the full convolution,
cut at degree N afterwards.

``pairwise_tensor_product`` and ``keywise_multiply_out`` are the reference
tensor kernels: every pair of terms (every key) is expanded over all of its
slot products before anything is dropped, with no early exit.

``binary_power`` is the reference power: repeated squaring, which groups the
factors differently from the one-factor-at-a-time powers of the package.

``binomial_coproduct0``, ``reversed_word_antipode0`` and ``series_twistors``
are the reference undeformed coproduct, undeformed antipode and antipode
twistors.  The package builds Delta0 of a monomial one factor at a time by a
cached walk, applies S0 by the Horner kernel ``TensorElement.antipode_out``,
and reads the twistors off the twist by their definitions
u_a = m(S0 (x) Id)(F_a^-1) and v_a = m(Id (x) S0)(F_a).  These oracles use the
closed rules instead: each factor b^e splits binomially under Delta0; S0
reverses the word, negates each symbol and straightens by
``rewrite_normalize``; and the twistors are products over the directions of
the series whose S0 images were worked out by hand (S0 of a rising factorial
is a signed falling factorial), each falling factorial formed as its own
product rather than through ``EnvelopingAlgebra.factorial_element``.

``reversed_word_antipode`` is the reference deformed antipode of a monomial:
the closed forms ``antipode_basis`` of its symbols multiplied over the reversed
word, left to right with ``uea.mul``, where the package goes through the Horner
kernel.

``one_minus_et_by_powers`` is the reference (1 - e t)^m: a power of 1 - e t,
or for m < 0 of the truncated geometric series, where the package sums the
binomial series sum_j C(m, j) (-e t)^j.
"""
from __future__ import annotations

import itertools
import operator

from wittquant.liealg import WITT, BasisDeriv, JacobsonWitt, LieElement
from wittquant.rings import accumulate, binom_int, inverse_factorial
from wittquant.uea import TensorElement, UEAElement, monomial


def mono_of_sorted_word(uea, word):
    """Group a sorted word into a PBW monomial; None when it dies in u."""
    mono = []
    for bd, grp in itertools.groupby(word):
        e = len(tuple(grp))
        if uea.restricted:
            p = uea.alg.p
            while e >= p:
                if uea.alg.p_power(bd) is None:
                    return None
                e -= p - 1  # H^p -> H
        if e:
            mono.append((bd, e))
    return monomial(mono)


def rewrite_normalize(uea, word) -> dict:
    """Normal form of a word by leftmost swaps y x -> x y + [y, x]: dict mono -> int."""
    out: dict = {}
    work = {tuple(word): 1}
    while work:
        w, c = work.popitem()
        idx = next((t for t in range(len(w) - 1) if w[t] > w[t + 1]), -1)
        if idx < 0:
            m = mono_of_sorted_word(uea, w)
            if m is not None:
                out[m] = out.get(m, 0) + c
            continue
        swapped = w[:idx] + (w[idx + 1], w[idx]) + w[idx + 2 :]
        work[swapped] = work.get(swapped, 0) + c
        if not work[swapped]:
            del work[swapped]
        for bd, k in uea.alg.bracket_basis(w[idx], w[idx + 1]).items():
            w2 = w[:idx] + (bd,) + w[idx + 2 :]
            work[w2] = work.get(w2, 0) + c * k
            if not work[w2]:
                del work[w2]
    return {m: c for m, c in out.items() if c}


def pairwise_tensor_product(x: TensorElement, y: TensorElement) -> TensorElement:
    """x * y, each pair of terms expanded over the product of all its slot products."""
    uea = x.uea
    rmul, rint, mono_mul = uea.ring.mul, uea.ring.from_int, uea.mono_mul
    slots = range(x.arity)

    def products():
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                c = rmul(c1, c2)
                if not c:
                    continue
                for combo in itertools.product(*[mono_mul(k1[s], k2[s]).items() for s in slots]):
                    k = 1
                    for _, ki in combo:
                        k *= ki
                    yield tuple(m for m, _ in combo), c if k == 1 else rmul(c, rint(k))

    return TensorElement(uea, x.arity, accumulate(uea.ring.add, {}, products()))


def keywise_multiply_out(x: TensorElement) -> UEAElement:
    """The slotwise product of each key, left to right from the unit, in integer
    coefficients, then scaled by the key's ring coefficient."""
    uea = x.uea
    rmul, rint = uea.ring.mul, uea.ring.from_int

    def products():
        for key, c in x.terms.items():
            acc = {(): 1}
            for m in key:
                terms = ((mm, k * k2) for cur, k in acc.items() for mm, k2 in uea.mono_mul(cur, m).items())
                acc = accumulate(operator.add, {}, terms)
            for m, k in acc.items():
                yield m, c if k == 1 else rmul(c, rint(k))

    return UEAElement(uea, accumulate(uea.ring.add, {}, products()))


def binary_power(x, k: int, one, mul):
    """x^k by repeated squaring, starting from the unit one, with the product mul."""
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


def binomial_coproduct0(uea, mono) -> TensorElement:
    """Delta0 of a PBW monomial: each factor b^e splits as sum_j binom(e, j) b^j (x) b^(e-j)."""
    terms = {((), ()): 1}
    for bd, e in mono:
        terms = {
            (a + ((bd, j),) if j else a, b + ((bd, e - j),) if e - j else b): c * binom_int(e, j)
            for (a, b), c in terms.items()
            for j in range(e + 1)
        }
    rint = uea.ring.from_int
    return TensorElement(uea, 2, {(monomial(a), monomial(b)): v for (a, b), c in terms.items() if (v := rint(c))})


def reversed_word_antipode0(uea, mono) -> UEAElement:
    """S0 of a PBW monomial: the reversed word, straightened by ``rewrite_normalize``,
    times (-1)^(its length)."""
    word = [b for b, e in reversed(mono) for _ in range(e)]
    sign = -1 if len(word) % 2 else 1
    rint = uea.ring.from_int
    return UEAElement(uea, {m: v for m, c in rewrite_normalize(uea, word).items() if (v := rint(sign * c))})


def reversed_word_antipode(hopf, mono) -> UEAElement:
    """S of a PBW monomial b1^e1 ... bk^ek: S(bk)^ek ... S(b1)^e1 from the closed
    forms, multiplied left to right from the unit."""
    uea = hopf.uea
    out = uea.one()
    for b, e in reversed(mono):
        for _ in range(e):
            out = uea.mul(out, hopf.antipode_basis(b))
    return out


def series_twistors(hopf, a) -> tuple:
    """(u_a, v_a) as products over the directions d of the series

        u_a: sum_{r<cap} (-1)^r/r! (h_d - a)^[r] e_d^r t^r,
        v_a: sum_{r<cap}      1/r! (h_d + a)^[r] e_d^r t^r,

    with ^[r] the falling factorial (h + s)^[r] = prod_{j<r} (h + s - j)."""
    uea, ring = hopf.uea, hopf.uea.ring

    def series(direction, shift, sign):
        out = uea.zero()
        for r in range(hopf.cap):
            c = ring.mul(ring.mul(inverse_factorial(ring, r), ring.from_int(sign**r)), ring.t_power(r))
            if c:
                term = uea.power(direction.e, r)
                for j in range(r):
                    term = (direction.h + uea.scalar(ring.from_fraction(shift - j))) * term
                out = out + term.scale(c)
        return out

    u = v = uea.one()
    for direction in hopf.directions:
        u = u * series(direction, -a, -1)
        v = v * series(direction, a, 1)
    return u, v


def one_minus_et_by_powers(hopf, d: int, m: int) -> UEAElement:
    """(1 - e_d t)^m as the |m|-th power of 1 - e_d t, or for m < 0 of its inverse, the
    truncated geometric series sum_{j<cap} (e_d t)^j."""
    uea, ring, e = hopf.uea, hopf.uea.ring, hopf.directions[d].e
    if m >= 0:
        base = uea.one() - e.scale(ring.t_power(1))
    else:
        base = uea.zero()
        for j in range(hopf.cap):
            base = base + uea.power(e, j).scale(ring.t_power(j))
    return uea.power(base, abs(m))


def _trimmed(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def quotient_add(p: int, a, b) -> tuple:
    """a + b for coefficient sequences (index = t-degree) over GF(p)."""
    return _trimmed((x + y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0))


def quotient_mul(p: int, q: int, a, b) -> tuple:
    """a * b in GF(p)[t]/(t^p - q t): dense product, then the remainder mod t^p - q t."""
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    modulus = [0] * (p + 1)  # t^p - q t, low degree first
    modulus[1], modulus[p] = -q % p, 1
    for top in range(len(prod) - 1, p - 1, -1):
        c = prod[top]
        for k, m in enumerate(modulus):
            prod[top - p + k] = (prod[top - p + k] - c * m) % p
    return _trimmed(prod[:p])


def series_mul(cap: int, a, b, p: int | None = None) -> tuple:
    """a * b in K[t]/(t^cap), K = GF(p) or, for p None, the rationals: every
    degree of the product is formed, then those >= cap are cut."""
    prod = [sum(a[i] * b[d - i] for i in range(len(a)) if 0 <= d - i < len(b)) for d in range(len(a) + len(b) - 1)]
    if p is not None:
        prod = [c % p for c in prod]
    return _trimmed(prod[:cap])


def o_basis(p: int, n: int):
    """Sorted exponents of the divided power basis x^(beta), 0 <= beta <= tau."""
    return sorted(itertools.product(range(p), repeat=n))


def op_matrix(alg: JacobsonWitt, b: BasisDeriv):
    """Matrix of x^(alpha) D_i acting on O(n;1), over GF(p)."""
    p, n = alg.p, alg.n
    basis = o_basis(p, n)
    index = {beta: r for r, beta in enumerate(basis)}
    N = len(basis)
    M = [[0] * N for _ in range(N)]
    for c, beta in enumerate(basis):
        target = tuple(
            a + bb - (1 if j == b.i - 1 else 0) for j, (a, bb) in enumerate(zip(b.alpha, beta))
        )
        if any(t < 0 or t > p - 1 for t in target):
            continue
        coeff = 1
        for t, a in zip(target, b.alpha):
            coeff = coeff * binom_int(t, a) % p
        if coeff:
            M[index[target]][c] = coeff
    return M


def mat_mul(A, B, p):
    N = len(A)
    out = [[0] * N for _ in range(N)]
    for i in range(N):
        Ai = A[i]
        for k in range(N):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(N):
                    if Bk[j]:
                        row[j] = (row[j] + a * Bk[j]) % p
    return out


def mat_sub(A, B, p):
    return [[(a - b) % p for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_commutator(A, B, p):
    return mat_sub(mat_mul(A, B, p), mat_mul(B, A, p), p)


def mat_pow(A, k, p):
    N = len(A)
    out = [[1 if i == j else 0 for j in range(N)] for i in range(N)]
    for _ in range(k):
        out = mat_mul(out, A, p)
    return out


def element_matrix(x: LieElement):
    """Matrix of a Jacobson-Witt LieElement (coefficients in GF(p))."""
    alg = x.alg
    p = alg.p
    N = p ** alg.n
    M = [[0] * N for _ in range(N)]
    for b, c in x.terms.items():
        Mb = op_matrix(alg, b)
        for i in range(N):
            for j in range(N):
                if Mb[i][j]:
                    M[i][j] = (M[i][j] + c * Mb[i][j]) % p
    return M


def wplus_to_witt(x: LieElement, witt_alg) -> LieElement:
    """Identification x^alpha D_i -> x^(alpha - e_i) d_i into the Witt algebra."""
    terms = {}
    for b, c in x.terms.items():
        alpha = tuple(a - (1 if j == b.i - 1 else 0) for j, a in enumerate(b.alpha))
        k = BasisDeriv(WITT, alpha, b.i)
        terms[k] = terms.get(k, x.ring.zero) + c
    return LieElement(witt_alg, x.ring, {k: v for k, v in terms.items() if v})
