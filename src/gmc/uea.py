"""Noncommutative polynomials in Lie-algebra generators, in normal-ordered form.

Elements are stored as maps from multi-indices alpha to complex coefficients,
representing X^alpha = X_1^a1 ... X_l^al. Every product is normal-ordered once:
the letters of a word are folded on one at a time by the rule for X^alpha X_i,
which each structure keeps for every (alpha, i) it has rewritten.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import BasisMismatch

_DROP = 1e-300  # coefficients with modulus at or below this are not stored


@dataclass(frozen=True)
class LieStructure:
    """Generator labels, structure constants, and the modular derivative.

    brackets maps (i, j) with i < j to {k: c} meaning [X_i, X_j] = sum c X_k;
    the antisymmetric completion is implied. delta holds the modular
    derivative of each generator (zero for the unimodular models shipped).
    """

    labels: tuple[str, ...]
    brackets: Mapping[tuple[int, int], Mapping[int, complex]] = field(default_factory=dict)
    delta: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(self.delta) or (0.0,) * len(self.labels))
        if len(self.delta) != len(self.labels):
            raise ValueError("delta must list one value per generator")
        frozen = {}
        for (i, j), comps in self.brackets.items():
            if not (0 <= i < len(self.labels) and 0 <= j < len(self.labels)):
                raise ValueError(f"bracket indices {(i, j)} out of range")
            if i >= j:
                raise ValueError("store brackets with i < j; antisymmetry is implied")
            frozen[(i, j)] = {int(k): complex(c) for k, c in comps.items() if c != 0}
        object.__setattr__(self, "brackets", frozen)
        # (alpha, i) -> X^alpha X_i in normal order, and (alpha, shift) -> the image of X^alpha
        object.__setattr__(self, "_products", {})

    @property
    def dim(self) -> int:
        return len(self.labels)

    def bracket(self, i: int, j: int) -> dict[int, complex]:
        """[X_i, X_j] as {k: coefficient}, for any i, j."""
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown generator {label!r}") from None


def _expand(alpha: tuple[int, ...]) -> tuple[int, ...]:
    """Multi-index to word: (2,1) over (X,Y) -> (0,0,1)."""
    word: list[int] = []
    for i, a in enumerate(alpha):
        word.extend([i] * a)
    return tuple(word)


@dataclass(frozen=True)
class UEAElement:
    structure: LieStructure
    terms: Mapping[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        dim = self.structure.dim
        for alpha, c in self.terms.items():
            alpha = tuple(map(int, alpha))
            if len(alpha) != dim:
                raise ValueError(f"multi-index {alpha} does not match basis of length {dim}")
            if alpha and min(alpha) < 0:
                raise ValueError(f"negative exponent in multi-index {alpha}")
            c = complex(c)
            if abs(c) > _DROP:
                cleaned[alpha] = c
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(structure: LieStructure) -> "UEAElement":
        return UEAElement(structure, {})

    @staticmethod
    def one(structure: LieStructure) -> "UEAElement":
        return UEAElement(structure, {(0,) * structure.dim: 1.0})

    @staticmethod
    def generator(structure: LieStructure, label: str) -> "UEAElement":
        i = structure.index(label)
        alpha = [0] * structure.dim
        alpha[i] = 1
        return UEAElement(structure, {tuple(alpha): 1.0})

    @staticmethod
    def monomial(structure: LieStructure, alpha, coeff=1.0) -> "UEAElement":
        return UEAElement(structure, {tuple(alpha): coeff})

    # -- inspection -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return iter(sorted(self.terms.items()))

    def coefficient(self, alpha) -> complex:
        return self.terms.get(tuple(alpha), 0j)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for alpha, c in self.sorted_terms():
            mono = "*".join(
                f"{lab}^{a}" if a > 1 else lab
                for lab, a in zip(self.structure.labels, alpha)
                if a
            )
            bits.append(f"({c:.6g}){mono or '1'}")
        return " + ".join(bits)

    # -- linear structure -----------------------------------------------------

    def _check_compatible(self, other: "UEAElement") -> None:
        if self.structure.labels != other.structure.labels or dict(
            self.structure.brackets
        ) != dict(other.structure.brackets):
            raise BasisMismatch("elements live over different bases or relation tables")

    def __add__(self, other: "UEAElement") -> "UEAElement":
        self._check_compatible(other)
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            terms[alpha] = terms.get(alpha, 0j) + c
        return UEAElement(self.structure, terms)

    def __sub__(self, other: "UEAElement") -> "UEAElement":
        return self + (-1.0) * other

    def __neg__(self) -> "UEAElement":
        return (-1.0) * self

    def __rmul__(self, scalar) -> "UEAElement":
        if isinstance(scalar, UEAElement):
            return NotImplemented
        return UEAElement(
            self.structure, {a: scalar * c for a, c in self.terms.items()}
        )

    def __mul__(self, other) -> "UEAElement":
        if not isinstance(other, UEAElement):
            return UEAElement(
                self.structure, {a: c * other for a, c in self.terms.items()}
            )
        return uea_multiply(self, other)

    def __pow__(self, n: int) -> "UEAElement":
        if n < 0:
            raise ValueError("negative powers are not defined in the enveloping algebra")
        out = UEAElement.one(self.structure)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, UEAElement):
            return NotImplemented
        return (
            self.structure.labels == other.structure.labels
            and dict(self.terms) == dict(other.terms)
        )

    def __hash__(self):
        return hash((self.structure.labels, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))


def _times(structure: LieStructure, terms: Mapping, i: int, out: dict | None = None) -> dict:
    """(sum c X^alpha) X_i in normal order, added into out."""
    out = {} if out is None else out
    for alpha, c in terms.items():
        hit = structure._products.get((alpha, i))
        if hit is None:
            hit = _rewrite(structure, alpha, i)
        for beta, cb in hit.items():
            out[beta] = out.get(beta, 0j) + c * cb
    return out


def _in_order(products: dict, alpha: tuple[int, ...], i: int) -> bool:
    """Whether X^alpha X_i is kept, keeping it first where no letter of X^alpha comes
    after X_i: it is then X^(alpha + e_i)."""
    if (alpha, i) in products:
        return True
    if any(alpha[i + 1 :]):
        return False
    products[(alpha, i)] = {alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]: 1.0}
    return True


def _rule(structure: LieStructure, alpha: tuple[int, ...], i: int) -> Iterator:
    """Keeps X^alpha X_i, with X_j the last letter of X^alpha and j > i, as
    X^rest X_j X_i = (X^rest X_i) X_j + X^rest [X_j, X_i]; yields each (alpha', i')
    whose product it reads first, to be kept before it resumes."""
    j = max(k for k, a in enumerate(alpha) if a)
    rest = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
    bracket = sorted(structure.bracket(j, i).items())
    yield rest, i
    first = _times(structure, {rest: 1.0}, i)
    for beta in first:
        yield beta, j
    for k, _ in bracket:
        yield rest, k
    hit = _times(structure, first, j)
    for k, ck in bracket:
        _times(structure, {rest: ck}, k, hit)
    structure._products[(alpha, i)] = hit


def _rewrite(structure: LieStructure, alpha: tuple[int, ...], i: int) -> dict:
    """X^alpha X_i in normal order, rewritten once per structure. The rules pending
    are kept on a stack rather than in nested calls, so that moving a letter across a
    run of any length takes no deeper call stack."""
    products = structure._products
    pending = [] if _in_order(products, alpha, i) else [_rule(structure, alpha, i)]
    while pending:
        read = next(pending[-1], None)
        if read is None:
            pending.pop()
        elif not _in_order(products, *read):
            pending.append(_rule(structure, *read))
    return products[(alpha, i)]


def uea_multiply(a: UEAElement, b: UEAElement) -> UEAElement:
    """Normal-ordered product: the letters of each term of b folded onto a."""
    a._check_compatible(b)
    out: dict[tuple[int, ...], complex] = {}
    for beta, cb in b.sorted_terms():
        terms = a.terms
        for i in _expand(beta):
            terms = _times(a.structure, terms, i)
        for alpha, c in terms.items():
            out[alpha] = out.get(alpha, 0j) + c * cb
    return UEAElement(a.structure, out)


def _reverse_negated(d: UEAElement, shift) -> UEAElement:
    """The anti-automorphism X_i -> -X_i - shift[i]: the images of each word's letters, in
    reverse order, folded onto 1. The image of each X^alpha is kept once per structure."""
    out: dict[tuple[int, ...], complex] = {}
    for alpha, c in d.sorted_terms():
        image = d.structure._products.get((alpha, shift))
        if image is None:
            image = {(0,) * d.structure.dim: 1.0}
            for i in reversed(_expand(alpha)):
                # image (-X_i - shift[i]) = (-image) X_i + shift[i] (-image)
                image = {beta: -cb for beta, cb in image.items()}
                image = _times(d.structure, image, i, {beta: shift[i] * cb for beta, cb in image.items() if shift[i]})
            d.structure._products[(alpha, shift)] = image
        for beta, cb in image.items():
            out[beta] = out.get(beta, 0j) + c * cb
    return UEAElement(d.structure, out)


def uea_transpose(d: UEAElement) -> UEAElement:
    """Anti-automorphism t: X^alpha -> (-1)^|alpha| X_l^al ... X_1^a1, re-ordered."""
    return _reverse_negated(d, (0.0,) * d.structure.dim)


def uea_antipode(d: UEAElement) -> UEAElement:
    """Anti-automorphism extending X -> -X - delta(X), delta the structure's modular derivative.

    For unimodular structures (delta identically zero) this is the transpose.
    """
    return _reverse_negated(d, d.structure.delta)


def monomial_words(d: UEAElement) -> Iterator[tuple[tuple[int, ...], complex]]:
    """Terms as generator words (letter sequences) with coefficients."""
    for alpha, c in d.sorted_terms():
        yield _expand(alpha), c
