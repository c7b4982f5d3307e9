"""Boson operator algebra with exact coefficients.

Words over the two-letter alphabet are encoded as tuples of 0/1 where
0 is the annihilator a and 1 is the creator ad (a-dagger), read left to
right as an operator product.  `BosonExpr` is a free-algebra element
(coefficient-weighted words, no relations applied); `NormalForm` is the
fully ordered object, a map (dag, ann) -> coefficient standing for
sum c * ad^dag a^ann.

A `NormalForm` stores int numerators over one reduced int denominator,
the layout `series.SeriesQ` and `laguerre.DotSeries` share: a product
is one `backend.nf_mul` fold of the numerators over the product of the
denominators and one gcd pass, and two normal forms are equal when their
denominators and numerators are.  `terms` reads the coefficients out
canonical by `series._canonical`, the package's one coefficient rule: an
int when integral, a Fraction (with denominator > 1) only when not.  The
normal forms of words (rook numbers) and of powers of D(r,M)
(generalized Stirling numbers) have denominator 1, so their arithmetic
stays in ints and skips the gcd pass; a denominator appears only when a
rational scalar brings one in.

There are three independent routes from a word to its normal form, and
they are tested against each other:

- `normal_order_rook`: the graded-row kernel `backend.graded_step`, one
  step per letter, whose rows are the rook numbers of the word's board.
- `normal_order_rewrite` / `word_to_normal_form`: the rewriter
  a a† = a† a + 1, kept as the oracle (the criteria and the weyl tests
  call it; the tests also check its confluence).
- `word_product_normal_form`: a fold of single-letter contraction
  products.

Powers have two routes as well.  `_graded` folds p right-multiplications
by the base's words through the same kernel, for any base: the state is
one falling-factorial row per shift, and on a one-shift base such as
D(r,M) it is the row product of Blasiak, Penson and Solomon (Phys.
Lett. A 309, 2003).  This one loop builds `order`'s powers and the
triangle rows of `stirling.stirling_rows`.  `NormalForm.__pow__` is the
`nf_mul` fold, which never touches the kernel and is the oracle.
"""

from __future__ import annotations

from math import lcm
from operator import add

from . import backend
from .series import SeriesQ, _canonical, _ratio, _reduce, _to_one_den

ANNIHILATOR = 0
CREATOR = 1

__all__ = [
    "ANNIHILATOR",
    "CREATOR",
    "BosonExpr",
    "NormalForm",
    "normal_order_rewrite",
    "normal_order_rook",
    "normal_order_power",
    "word_to_normal_form",
    "word_product_normal_form",
    "laguerre_derivative_word",
    "laguerre_derivative_nf",
    "apply_word_to_monomial",
]


class BosonExpr:
    """Finite linear combination of operator words; no relations applied."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict = {}
        if terms:
            for w, c in terms.items():
                c = _canonical(c)
                if c:
                    clean[tuple(w)] = c
        self.terms = clean

    @classmethod
    def scalar(cls, c) -> "BosonExpr":
        return cls({(): c})

    @classmethod
    def from_word(cls, word, coeff=1) -> "BosonExpr":
        return cls({tuple(word): coeff})

    def __add__(self, other: "BosonExpr") -> "BosonExpr":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return BosonExpr(out)

    def __sub__(self, other: "BosonExpr") -> "BosonExpr":
        return self + (-other)

    def __neg__(self) -> "BosonExpr":
        return BosonExpr({w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "BosonExpr":
        c = _canonical(c)
        return BosonExpr({w: c * v for w, v in self.terms.items()})

    def __mul__(self, other: "BosonExpr") -> "BosonExpr":
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return BosonExpr(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, BosonExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"BosonExpr({self.terms!r})"


class NormalForm:
    """Normally ordered operator sum c ad^k a^l.

    Stored as `nums`, {(dag, ann): nonzero int}, over one reduced int
    denominator `den`, the layout of `series.SeriesQ` and
    `laguerre.DotSeries`; `terms` reads the coefficients out once,
    {(dag, ann): canonical coefficient}.
    """

    __slots__ = ("nums", "den", "_terms")

    def __init__(self, terms=None):
        terms = terms or {}
        vals, den = _to_one_den(terms.values())
        nums = {}
        for (k, l), a in zip(terms, vals):
            if a:
                if k < 0 or l < 0:
                    raise ValueError(f"negative operator power in key ({k},{l})")
                nums[(k, l)] = a
        self._set(nums, den)

    @classmethod
    def _from_ints(cls, nums: dict, den: int) -> "NormalForm":
        """nums / den, reduced; no entry of nums is zero and no key negative."""
        out = object.__new__(cls)
        out._set(nums, den)
        return out

    def _set(self, nums: dict, den: int) -> None:
        if den != 1:
            vals, reduced = _reduce(nums.values(), den)
            if reduced != den:
                nums, den = dict(zip(nums, vals)), reduced
        self.nums = nums
        self.den = den
        self._terms = None

    @property
    def terms(self) -> dict:
        if self._terms is None:
            self._terms = {key: _ratio(a, self.den) for key, a in self.nums.items()}
        return self._terms

    @classmethod
    def zero(cls) -> "NormalForm":
        return cls()

    @classmethod
    def one(cls) -> "NormalForm":
        return cls({(0, 0): 1})

    @classmethod
    def annihilator(cls) -> "NormalForm":
        return cls({(0, 1): 1})

    @classmethod
    def creator(cls) -> "NormalForm":
        return cls({(1, 0): 1})

    @classmethod
    def monomial(cls, dag: int, ann: int, coeff=1) -> "NormalForm":
        return cls({(dag, ann): coeff})

    def __bool__(self) -> bool:
        return bool(self.nums)

    def _add(self, other: "NormalForm", sign: int) -> "NormalForm":
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        out = {k: a * f for k, a in self.nums.items()}
        for k, b in other.nums.items():
            out[k] = out.get(k, 0) + b * g
        return NormalForm._from_ints({k: a for k, a in out.items() if a}, den)

    def __add__(self, other: "NormalForm") -> "NormalForm":
        return self._add(other, 1)

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        return self._add(other, -1)

    def __neg__(self) -> "NormalForm":
        return self.scale(-1)

    def scale(self, c) -> "NormalForm":
        c = _canonical(c)
        if not c:
            return NormalForm()
        return NormalForm._from_ints(
            {k: a * c.numerator for k, a in self.nums.items()},
            self.den * c.denominator)

    def __mul__(self, other) -> "NormalForm":
        if isinstance(other, NormalForm):
            return NormalForm._from_ints(backend.nf_mul(self.nums, other.nums),
                                         self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other) -> "NormalForm":
        return self.scale(other)

    def __pow__(self, n: int) -> "NormalForm":
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        out = NormalForm.one()
        base = self
        # plain repeated multiplication: n stays small and the repeated
        # squaring order would change nothing observable
        for _ in range(n):
            out = out * base
        return out

    def dagger(self) -> "NormalForm":
        # (ad^k a^l)+ = ad^l a^k, already ordered; rational coefficients
        # are their own conjugates
        return NormalForm._from_ints(
            {(l, k): a for (k, l), a in self.nums.items()}, self.den)

    def sorted_terms(self):
        """Terms as (dag, ann, coeff), sorted dag descending, ann descending."""
        return [
            (k, l, self.terms[(k, l)])
            for (k, l) in sorted(self.terms, key=lambda kl: (-kl[0], -kl[1]))
        ]

    def coherent_expectation(self, z, z_imag=0):
        """<z| self |z> = sum c * conj(z)^dag * z^ann, exactly.

        z is given by rational real and imaginary parts; returns a pair
        (real, imag), each canonical: an int when integral, else a
        Fraction.  With z = (x + yi)/d, the Gaussian powers (x + yi)^j
        are built once (conj(z)^k takes the k-th's conjugate) and summed in
        ints over den d^(max dag + ann), den the coefficients' denominator.
        """
        (x, y), d = _to_one_den((z, z_imag))
        top = max((k + l for k, l in self.nums), default=0)
        gauss = [(1, 0)]
        for _ in range(max((max(kl) for kl in self.nums), default=0)):
            a, b = gauss[-1]
            gauss.append((a * x - b * y, a * y + b * x))
        re = im = 0
        for (k, l), c in self.nums.items():
            (a, b), (e, f), c = gauss[k], gauss[l], c * d ** (top - k - l)
            re += c * (a * e + b * f)
            im += c * (a * f - b * e)
        den = self.den * d**top
        return _ratio(re, den), _ratio(im, den)

    def expectation_at_one(self):
        """Shorthand for the z=1 coherent expectation (sum of coefficients).

        An int when the sum is integral (always, for integer
        coefficients), else a Fraction.
        """
        return _ratio(sum(self.nums.values()), self.den)

    def diagonal_polynomial(self) -> SeriesQ:
        """Rewrite a number-conserving operator as a polynomial in n = ad*a.

        Uses ad^k a^k = n(n-1)...(n-k+1).  Returns a `SeriesQ` of order
        one past the top power (`SeriesQ(0)` for the zero operator).
        Raises ValueError if any term has dag != ann.
        """
        for (k, l) in self.nums:
            if k != l:
                raise ValueError(f"non-diagonal term ad^{k} a^{l}")
        top = max((k for k, _ in self.nums), default=-1)
        out = [0] * (top + 1)
        ff = [1]  # n(n-1)...(n-k+1), lowest power first
        for k in range(top + 1):
            c = self.nums.get((k, k))
            if c:
                out[:k + 1] = [a + c * f for a, f in zip(out, ff)]
            ff = [a - k * b for a, b in zip([0, *ff], [*ff, 0])]
        return SeriesQ._from_ints(top + 1, out, self.den)

    def apply_to_monomial(self, p: int) -> dict:
        """Action on x^p in the polynomial model a -> d/dx, ad -> x.

        Equivalently the action on the unnormalised Fock vector ad^p|0>.
        Returns {power: coefficient}.
        """
        out: dict = {}
        for (k, l), c in self.terms.items():
            if l > p:
                continue
            f = c
            for i in range(l):
                f *= p - i
            q = p - l + k
            v = out.get(q, 0) + f
            if v:
                out[q] = v
            elif q in out:
                del out[q]
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, NormalForm) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __repr__(self) -> str:
        bits = [f"({k},{l}): {c}" for k, l, c in self.sorted_terms()]
        return "NormalForm({" + ", ".join(bits) + "})"


def word_to_normal_form(word) -> NormalForm:
    """Rewrite-based normal ordering of a single word (the oracle path)."""
    return NormalForm._from_ints(backend.normal_order_word(tuple(word)), 1)


def normal_order_rewrite(expr: BosonExpr) -> NormalForm:
    """Normal-order a free-algebra element term by term via the rewriter."""
    out = NormalForm.zero()
    for w, c in expr.terms.items():
        out = out + word_to_normal_form(w).scale(c)
    return out


def _graded(words: dict, p: int):
    """Yield the states of (sum c_w w)^0..p, c_w ints, one factor apart.

    A state is {s: row} as in `backend.graded_step`; a row that cancels is
    dropped.  `normal_order_power` reads the last state, and
    `stirling.stirling_rows` reads triangle row n from state n.
    """
    state = {0: [1]}
    yield state
    for _ in range(p):
        out: dict = {}
        for w, c in words.items():
            part = state
            for letter in w:
                part = backend.graded_step(part, letter)
            for s, row in part.items():
                if c != 1:
                    row = [c * g for g in row]
                have = out.get(s)
                if have is not None:
                    if len(have) < len(row):
                        have, row = row, have
                    row = [*map(add, have, row), *have[len(row):]]
                out[s] = row
        state = {s: row for s, row in out.items() if any(row)}
        yield state


def normal_order_rook(expr: BosonExpr) -> NormalForm:
    """Normal-order a free-algebra element, one kernel run per word."""
    return normal_order_power(expr, 1)


def normal_order_power(expr: BosonExpr, p: int) -> NormalForm:
    """expr^p normal-ordered by the graded-row kernel, for any expr.

    Each factor right-multiplies by the parsed words, or by the normal
    form's terms ad^k a^l spelled as words when those have fewer letters
    in all (a sum such as (a + ad)^5 of 32 words has 12 terms).  The rows
    stay in ints, scaled by the coefficients' common denominator L; the
    last state is divided by L^p once.
    """
    if p < 0:
        raise ValueError("negative operator powers are not defined")
    words = expr.terms
    if p > 1:
        nf = normal_order_rook(expr)
        spelled = {(CREATOR,) * k + (ANNIHILATOR,) * l: c
                   for (k, l), c in nf.terms.items()}
        if sum(map(len, spelled)) < sum(map(len, words)):
            words = spelled
    nums, den = _to_one_den(words.values())
    for state in _graded(dict(zip(words, nums)), p):
        pass
    return NormalForm._from_ints(
        {(d + max(-s, 0), d + max(s, 0)): g
         for s, row in state.items() for d, g in enumerate(row) if g}, den**p)


def word_product_normal_form(word) -> NormalForm:
    """Fold of single-letter contraction products; independent of the rewriter."""
    out = NormalForm.one()
    for s in word:
        out = out * (NormalForm.creator() if s else NormalForm.annihilator())
    return out


def laguerre_derivative_word(r: int, M: int) -> tuple:
    """Word for a^r (ad a)^M."""
    if r < 0 or M < 0:
        raise ValueError("orders must be nonnegative")
    return (ANNIHILATOR,) * r + (CREATOR, ANNIHILATOR) * M


def laguerre_derivative_nf(r: int, M: int) -> NormalForm:
    return word_to_normal_form(laguerre_derivative_word(r, M))


def apply_word_to_monomial(word, p: int) -> dict:
    """Apply an operator word to x^p (a -> d/dx, ad -> x), rightmost first."""
    state = {p: 1}
    for s in reversed(tuple(word)):
        nxt: dict = {}
        for q, c in state.items():
            if s == CREATOR:
                nxt[q + 1] = nxt.get(q + 1, 0) + c
            elif q > 0:
                nxt[q - 1] = nxt.get(q - 1, 0) + c * q
        state = {q: c for q, c in nxt.items() if c}
    return state
