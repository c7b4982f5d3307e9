"""Boson operator algebra with exact coefficients.

Words over the two-letter alphabet are encoded as tuples of 0/1 where
0 is the annihilator a and 1 is the creator ad (a-dagger), read left to
right as an operator product.  `BosonExpr` is a free-algebra element
(coefficient-weighted words, no relations applied); `NormalForm` is the
fully ordered object, a map (dag, ann) -> coefficient standing for
sum c * ad^dag a^ann.

Coefficients are canonical by `series._canonical`, the package's one
coefficient rule: an int when integral, a Fraction (with denominator
> 1) only when not.  The normal forms of words (rook numbers) and of
powers of D(r,M) (generalized Stirling numbers) have integer
coefficients, so their arithmetic stays in ints; a Fraction appears only
when a rational scalar brings one in.  `Fraction(3) == 3` and both hash
alike, so equality and hashing do not depend on the type, and both
print the same with `str`.

There are three independent routes from a word to its normal form, and
they are tested against each other:

- `normal_order_rook`: the graded-row kernel `backend.graded_step`, one
  step per letter, whose rows are the rook numbers of the word's board.
- `normal_order_rewrite` / `word_to_normal_form`: the rewriter
  a a† = a† a + 1, kept as the oracle (the criteria and the weyl tests
  call it; the tests also check its confluence).
- `word_product_normal_form`: a fold of single-letter contraction
  products.

Powers have two routes as well.  `normal_order_power` folds p
right-multiplications by the base's words through the same kernel, for
any base: the state is one falling-factorial row per shift, and on a
one-shift base such as D(r,M) it is the row product of Blasiak, Penson
and Solomon (Phys. Lett. A 309, 2003).  `NormalForm.__pow__` is the
`nf_mul` fold, which never touches the kernel and is the oracle.
"""

from __future__ import annotations

from operator import add

from . import backend
from .series import PolyQ, _canonical, _ratio, _to_one_den

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
    """Normally ordered operator: {(dag, ann): coeff} for sum c ad^k a^l."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict = {}
        if terms:
            for (k, l), c in terms.items():
                c = _canonical(c)
                if c:
                    if k < 0 or l < 0:
                        raise ValueError(f"negative operator power in key ({k},{l})")
                    clean[(k, l)] = c
        self.terms = clean

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
        return bool(self.terms)

    def __add__(self, other: "NormalForm") -> "NormalForm":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return NormalForm(out)

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        return self + (-other)

    def __neg__(self) -> "NormalForm":
        return NormalForm({k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "NormalForm":
        c = _canonical(c)
        if not c:
            return NormalForm()
        return NormalForm({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other) -> "NormalForm":
        if isinstance(other, NormalForm):
            terms = backend.nf_mul(self.terms, other.terms)
            if {*map(type, terms.values())} <= {int}:
                # nf_mul drops zeros and its keys are nonnegative: ints
                # are already canonical
                out = object.__new__(NormalForm)
                out.terms = terms
                return out
            return NormalForm(terms)
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
        return NormalForm({(l, k): c for (k, l), c in self.terms.items()})

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
        ints over L d^(max dag + ann), L the coefficients' denominator.
        """
        (x, y), d = _to_one_den((z, z_imag))
        nums, den = _to_one_den(self.terms.values())
        top = max((k + l for k, l in self.terms), default=0)
        gauss = [(1, 0)]
        for _ in range(max((max(kl) for kl in self.terms), default=0)):
            a, b = gauss[-1]
            gauss.append((a * x - b * y, a * y + b * x))
        re = im = 0
        for (k, l), c in zip(self.terms, nums):
            (a, b), (e, f), c = gauss[k], gauss[l], c * d ** (top - k - l)
            re += c * (a * e + b * f)
            im += c * (a * f - b * e)
        return _ratio(re, den * d**top), _ratio(im, den * d**top)

    def expectation_at_one(self):
        """Shorthand for the z=1 coherent expectation (sum of coefficients).

        An int when the sum is integral (always, for integer
        coefficients), else a Fraction.
        """
        return _canonical(sum(self.terms.values()))

    def diagonal_polynomial(self) -> PolyQ:
        """Rewrite a number-conserving operator as a polynomial in n = ad*a.

        Uses ad^k a^k = n(n-1)...(n-k+1).  Raises ValueError if any term
        has dag != ann.
        """
        for (k, l) in self.terms:
            if k != l:
                raise ValueError(f"non-diagonal term ad^{k} a^{l}")
        top = max((k for k, _ in self.terms), default=-1)
        out = [0] * (top + 1)
        ff = [1]  # n(n-1)...(n-k+1), lowest power first
        for k in range(top + 1):
            c = self.terms.get((k, k))
            if c:
                out[:k + 1] = [a + c * f for a, f in zip(out, ff)]
            ff = [a - k * b for a, b in zip([0, *ff], [*ff, 0])]
        return PolyQ(out)

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
        return isinstance(other, NormalForm) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        bits = [f"({k},{l}): {c}" for k, l, c in self.sorted_terms()]
        return "NormalForm({" + ", ".join(bits) + "})"


def word_to_normal_form(word) -> NormalForm:
    """Rewrite-based normal ordering of a single word (the oracle path)."""
    return NormalForm(backend.normal_order_word(tuple(word)))


def normal_order_rewrite(expr: BosonExpr) -> NormalForm:
    """Normal-order a free-algebra element term by term via the rewriter."""
    out = NormalForm.zero()
    for w, c in expr.terms.items():
        out = out + word_to_normal_form(w).scale(c)
    return out


def _graded(words: dict, p: int) -> NormalForm:
    """(sum c_w w)^p by p right-multiplications through `backend.graded_step`.

    The rows stay in ints: the coefficients are scaled by their common
    denominator L, and the result is divided by L^p once.
    """
    nums, den = _to_one_den(words.values())
    state = {0: [1]}
    for _ in range(p):
        out: dict = {}
        for w, c in zip(words, nums):
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
    den **= p
    return NormalForm({(d + max(-s, 0), d + max(s, 0)): _ratio(g, den)
                       for s, row in state.items() for d, g in enumerate(row) if g})


def normal_order_rook(expr: BosonExpr) -> NormalForm:
    """Normal-order a free-algebra element, one kernel run per word."""
    return _graded(expr.terms, 1)


def normal_order_power(expr: BosonExpr, p: int) -> NormalForm:
    """expr^p normal-ordered by the graded-row kernel, for any expr.

    Each factor right-multiplies by the parsed words, or by the normal
    form's terms ad^k a^l spelled as words when those have fewer letters
    in all (a sum such as (a + ad)^5 of 32 words has 12 terms).
    """
    if p < 0:
        raise ValueError("negative operator powers are not defined")
    nf = normal_order_rook(expr)
    if p == 1:
        return nf
    words = {(CREATOR,) * k + (ANNIHILATOR,) * l: c for (k, l), c in nf.terms.items()}
    if sum(map(len, words)) >= sum(map(len, expr.terms)):
        words = expr.terms
    return _graded(words, p)


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
