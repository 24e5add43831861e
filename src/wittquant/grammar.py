"""Plain-text element grammar: lossless, grep-able, canonical.

    element := term (('+'|'-') term)*
    term    := chunk (' (x) ' chunk)*          -- tensor slots
    chunk   := [coeff '*'] [mono] ['*' tpow]   -- at least one piece
    coeff   := integer | int '/' int           -- residues are plain integers
    mono    := factor ('.' factor)*
    factor  := 'x(' int (',' int)* ')D' int ['^' exp]
    tpow    := 't' ['^' int]

Exponents never expand into words of that length.  In a restricted algebra
each factor's exponent is first folded by the relations b^p = b^[p] (so
``x(1)D1^1000000000`` is ``x(1)D1^2`` at p = 3); elsewhere a chunk whose
factor exponents sum past ``MAX_DEGREE`` = 1000 is a syntax error.  A t-power
is reduced by the ring, so any t-degree is accepted.

The canonical form produced by :func:`format_element` sorts terms by monomial
key and then t-degree, prints coefficients minimally (1 omitted, signs pulled
into the separators), and attaches the coefficient to the first tensor slot,
the t-power to the last.  An arity-0 tensor, a scalar, renders as the one
chunk that the same scalar times 1 in the algebra gives (``2*t``), so its text
reads back as an element, not as a tensor.  ``parse_element`` accepts any
grammar-conformant string and reports syntax errors with a byte offset.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .rings import ReductionError, accumulate
from .uea import EnvelopingAlgebra, TensorElement, UEAElement


MAX_DEGREE = 1000  # largest total factor degree of one chunk outside restricted mode


class ElementSyntaxError(ValueError):
    """A parse failure, carrying the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<tensor>\(x\))
    | (?P<xopen>x\()
    | (?P<dclose>\)D)
    | (?P<num>\d+)
    | (?P<t>t)
    | (?P<op>[-+*/^.,()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ElementSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str, uea: EnvelopingAlgebra):
        self.text = text
        self.uea = uea
        self.toks = _tokenize(text)
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, "", len(self.text))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect(self, text: str):
        tok = self._next()
        if tok[1] != text:
            raise ElementSyntaxError(f"expected {text!r}, found {tok[1]!r}", tok[2])
        return tok

    def _int(self) -> int:
        sign = 1
        tok = self._peek()
        if tok[0] == "op" and tok[1] == "-":
            self._next()
            sign = -1
        tok = self._next()
        if tok[0] != "num":
            raise ElementSyntaxError(f"expected integer, found {tok[1]!r}", tok[2])
        return sign * int(tok[1])

    def _factor(self):
        # 'x(' int (',' int)* ')D' int ['^' exp]
        start = self._peek()[2]
        self._expect("x(")
        comps = [self._int()]
        while self._peek()[:2] == ("op", ","):
            self._next()
            comps.append(self._int())
        self._expect(")D")
        tok = self._next()
        if tok[0] != "num":
            raise ElementSyntaxError(f"expected derivation index, found {tok[1]!r}", tok[2])
        idx = int(tok[1])
        exp = 1
        if self._peek()[:2] == ("op", "^"):
            self._next()
            exp = self._int()
        if exp < 1:
            raise ElementSyntaxError("exponent must be >= 1", start)
        try:
            bd = self.uea.alg.basis_symbol(tuple(comps), idx)
        except ValueError as ex:
            raise ElementSyntaxError(str(ex), start) from None
        return bd, exp

    def _chunk(self):
        """-> (coefficient Fraction, factor list, t-degree)."""
        coeff = Fraction(1)
        factors = []
        tdeg = 0
        while True:
            kind, val, pos = self._peek()
            if kind == "num":
                self._next()
                num = int(val)
                if self._peek()[:2] == ("op", "/"):
                    self._next()
                    den = self._next()
                    if den[0] != "num":
                        raise ElementSyntaxError("expected denominator", den[2])
                    if int(den[1]) == 0:
                        raise ElementSyntaxError("zero denominator", den[2])
                    coeff *= Fraction(num, int(den[1]))
                else:
                    coeff *= num
            elif kind == "xopen":
                factors.append(self._factor())
                while self._peek()[:2] == ("op", "."):
                    self._next()
                    factors.append(self._factor())
            elif kind == "t":
                self._next()
                d = 1
                if self._peek()[:2] == ("op", "^"):
                    self._next()
                    d = self._int()
                if d < 0:
                    raise ElementSyntaxError("t-degree must be >= 0", pos)
                tdeg += d
            else:  # also after a '*', which must be followed by another piece
                raise ElementSyntaxError(f"expected a term, found {val!r}", pos)
            if self._peek()[:2] != ("op", "*"):
                return coeff, factors, tdeg
            self._next()

    def _chunk_element(self, sign: int) -> UEAElement:
        pos = self._peek()[2]
        coeff, factors, tdeg = self._chunk()
        return self._build(sign * coeff, factors, tdeg, pos)

    def _build(self, coeff: Fraction, factors, tdeg: int, pos: int) -> UEAElement:
        uea, ring = self.uea, self.uea.ring
        try:
            c = ring.from_fraction(coeff)
        except ReductionError as ex:  # a denominator the characteristic divides
            raise ElementSyntaxError(str(ex), pos) from None
        if tdeg:
            if not hasattr(ring, "t_power"):
                raise ElementSyntaxError("t-powers need a t-polynomial ring", pos)
            c = ring.mul(c, ring.t_power(tdeg))
        if uea.restricted:
            factors = [(bd, uea.fold_exponent(bd, e)) for bd, e in factors]
            if not all(e for _, e in factors):
                return uea.zero()
        elif sum(e for _, e in factors) > MAX_DEGREE:
            raise ElementSyntaxError(f"total degree above {MAX_DEGREE}", pos)
        return uea.pbw_normalize(bd for bd, e in factors for _ in range(e)).scale(c)

    def parse(self):
        terms = []
        sign = 1
        if self._peek()[:2] == ("op", "-"):
            self._next()
            sign = -1
        while True:
            start = self._peek()[2]
            slots = [self._chunk_element(sign)]
            sign = 1
            while self._peek()[0] == "tensor":
                self._next()
                slots.append(self._chunk_element(1))
            terms.append((start, slots))
            kind, val, pos = self._peek()
            if kind is None:
                break
            if kind == "op" and val in "+-":
                self._next()
                sign = -1 if val == "-" else 1
                continue
            raise ElementSyntaxError(f"expected '+', '-' or end, found {val!r}", pos)
        arity = len(terms[0][1])
        for start, slots in terms:
            if len(slots) != arity:
                raise ElementSyntaxError("inconsistent tensor arity across terms", start)
        pairs = (item for _, slots in terms for item in TensorElement.of(*slots).terms.items())
        out = TensorElement(self.uea, arity, accumulate(self.uea.ring.add, {}, pairs))
        return out.to_element() if arity == 1 else out


def parse_element(text: str, uea: EnvelopingAlgebra):
    """Parse an element or tensor element in the plain-text grammar."""
    return _Parser(text, uea).parse()


def _scalar_parts(scalar):
    """-> (is_negative, magnitude string) for a base-ring scalar; a GF(p) residue is never negative."""
    neg = scalar < 0
    return neg, str(-scalar if neg else scalar)


def _mono_str(mono) -> str:
    bits = []
    for bd, e in mono:
        comps = ",".join(str(a) for a in bd.alpha)
        s = f"x({comps})D{bd.i}"
        if e > 1:
            s += f"^{e}"
        bits.append(s)
    return ".".join(bits)


def _term_str(monos, tdeg: int, mag: str) -> str:
    """One term; an arity-0 key () renders its scalar as one chunk, as an element's would."""
    slot_strs = [_mono_str(m) if m else "" for m in monos] or [""]
    if mag != "1" and slot_strs[0]:
        slot_strs[0] = mag + "*" + slot_strs[0]
    elif mag != "1":
        slot_strs[0] = mag
    if tdeg:
        tp = "t" if tdeg == 1 else f"t^{tdeg}"
        if slot_strs[-1]:
            slot_strs[-1] += "*" + tp
        else:
            slot_strs[-1] = tp
    slot_strs = [s if s else "1" for s in slot_strs]
    return " (x) ".join(slot_strs)


def format_element(x) -> str:
    """Canonical rendering: terms sorted by monomial keys, then t-degree."""
    uea = x.uea
    ring = uea.ring
    t_terms = getattr(ring, "t_terms", None)
    rows = []
    if isinstance(x, UEAElement):
        items = [((m,), c) for m, c in x.terms.items()]
    else:
        items = list(x.terms.items())
    for key, c in items:
        pieces = t_terms(c) if t_terms else [(0, c)]
        for tdeg, scalar in pieces:
            rows.append((key, tdeg, scalar))
    if not rows:
        return "0"
    rows.sort(key=lambda r: (r[0], r[1]))
    out = []
    for key, tdeg, scalar in rows:
        neg, mag = _scalar_parts(scalar)
        term = _term_str(key, tdeg, mag)
        if not out:
            out.append(("-" if neg else "") + term)
        else:
            out.append(("- " if neg else "+ ") + term)
    return " ".join(out)
