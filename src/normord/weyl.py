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

- `normal_order_rook`: rook numbers of the word's Ferrers board, built
  by the falling-factorial row step `backend.ff_step`.  The CLI uses it.
- `normal_order_rewrite` / `word_to_normal_form`: the rewriter
  a a† = a† a + 1, kept as the oracle (the criteria and the weyl tests
  call it), with `normal_order_word_rightmost` as its confluence check.
- `word_product_normal_form`: a fold of single-letter contraction
  products.

Powers have two routes as well.  `row_power` applies when every term
has the same shift s = ann - dag: then X = G(N) a^s with N = a†a, and
X^p = prod_{i<p} G(N + i*s) a^(s*p) (Blasiak, Penson and Solomon, Phys.
Lett. A 309, 2003) is one falling-factorial row.  `NormalForm.__pow__`
is the `nf_mul` fold, which works for any operator and is the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import backend
from .series import PolyQ, _canonical

ANNIHILATOR = 0
CREATOR = 1

__all__ = [
    "ANNIHILATOR",
    "CREATOR",
    "BosonExpr",
    "NormalForm",
    "normal_order_rewrite",
    "normal_order_rook",
    "row_power",
    "word_to_normal_form",
    "normal_order_word_rightmost",
    "word_product_normal_form",
    "dagger_word",
    "laguerre_derivative_word",
    "laguerre_derivative_nf",
    "diagonal_reduce",
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
            return NormalForm(backend.nf_mul(self.terms, other.terms))
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
        Fraction.
        """
        zr = _canonical(z)
        zi = _canonical(z_imag)
        out_r = 0
        out_i = 0
        pow_cache: dict = {}

        def cpow(re, im, n):
            key = (re, im, n)
            hit = pow_cache.get(key)
            if hit is not None:
                return hit
            r, i = 1, 0
            for _ in range(n):
                r, i = r * re - i * im, r * im + i * re
            pow_cache[key] = (r, i)
            return r, i

        for (k, l), c in self.terms.items():
            ar, ai = cpow(zr, -zi, k)
            br, bi = cpow(zr, zi, l)
            tr = ar * br - ai * bi
            ti = ar * bi + ai * br
            out_r += c * tr
            out_i += c * ti
        return _canonical(out_r), _canonical(out_i)

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
        out = PolyQ.zero()
        for (k, _), c in self.terms.items():
            ff = PolyQ.one()
            for i in range(k):
                ff = ff * PolyQ((-i, 1))
            out = out + ff.scale(c)
        return out

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


def normal_order_rook(expr: BosonExpr) -> NormalForm:
    """Normal-order a free-algebra element term by term via rook numbers."""
    out: dict = {}
    for w, c in expr.terms.items():
        for key, v in backend.rook_normal_order_word(w).items():
            out[key] = out.get(key, 0) + c * v
    return NormalForm(out)


def row_power(nf: NormalForm, p: int) -> NormalForm | None:
    """nf^p as one falling-factorial row, or None if nf mixes shifts.

    Needs every term ad^d a^(d+s) to have the same shift s >= 0 (s < 0
    goes through the dagger).  Since ad^d a^(d+s) = N^(d) a^s, the base
    is G(N) a^s with g_d its coefficient on N^(d), and a^s G(N) =
    G(N+s) a^s gives nf^p = prod_{i<p} G(N + i*s) a^(s*p).  Each factor
    is Horner in the falling basis, G(N+t) = g_0 + (N+t)(g_1 +
    (N+t-1)(g_2 + ...)), one `ff_step` per coefficient.  The arithmetic
    is in ints: G is scaled by the common denominator L of its
    coefficients, and the final row is divided by L^p.
    """
    if p < 0:
        raise ValueError("negative operator powers are not defined")
    shifts = {l - k for k, l in nf.terms}
    if len(shifts) > 1:
        return None
    if p == 0:
        return NormalForm.one()
    if not shifts:
        return NormalForm()
    s = shifts.pop()
    if s < 0:
        return row_power(nf.dagger(), p).dagger()
    g = [nf.terms.get((d, d + s), 0) for d in range(max(nf.terms)[0] + 1)]
    den = lcm(*(c.denominator for c in g))
    g = [int(c * den) for c in g]
    row = [1]
    for i in range(p):
        acc = [g[-1] * x for x in row]
        for j in range(len(g) - 2, -1, -1):
            acc = backend.ff_step(acc, i * s - j)
            if g[j]:
                for k, x in enumerate(row):
                    acc[k] += g[j] * x
        row = acc
    den **= p
    return NormalForm(
        {(k, k + s * p): Fraction(c, den) if den > 1 else c
         for k, c in enumerate(row) if c}
    )


def normal_order_word_rightmost(word) -> NormalForm:
    """Rewriter variant that always attacks the rightmost inversion.

    Exists only to exercise the confluence property in tests; the result
    must equal word_to_normal_form on every input.
    """
    pending = {tuple(word): 1}
    done: dict = {}
    while pending:
        w, c = pending.popitem()
        pos = -1
        for i in range(len(w) - 2, -1, -1):
            if w[i] == 0 and w[i + 1] == 1:
                pos = i
                break
        if pos < 0:
            dag = sum(w)
            key = (dag, len(w) - dag)
            done[key] = done.get(key, 0) + c
            continue
        for nw in (w[:pos] + (1, 0) + w[pos + 2:], w[:pos] + w[pos + 2:]):
            pending[nw] = pending.get(nw, 0) + c
    return NormalForm(done)


def word_product_normal_form(word) -> NormalForm:
    """Fold of single-letter contraction products; independent of the rewriter."""
    out = NormalForm.one()
    for s in word:
        out = out * (NormalForm.creator() if s else NormalForm.annihilator())
    return out


def dagger_word(word) -> tuple:
    return tuple(1 - s for s in reversed(tuple(word)))


def laguerre_derivative_word(r: int, M: int) -> tuple:
    """Word for a^r (ad a)^M."""
    if r < 0 or M < 0:
        raise ValueError("orders must be nonnegative")
    return (ANNIHILATOR,) * r + (CREATOR, ANNIHILATOR) * M


def laguerre_derivative_nf(r: int, M: int) -> NormalForm:
    return word_to_normal_form(laguerre_derivative_word(r, M))


def diagonal_reduce(nf: NormalForm) -> PolyQ:
    """Free-function form of NormalForm.diagonal_polynomial."""
    return nf.diagonal_polynomial()


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
