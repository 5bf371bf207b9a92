"""Noncommutative polynomials in Lie-algebra generators, in normal-ordered form.

Elements are stored as maps from multi-indices alpha to complex coefficients,
representing X^alpha = X_1^a1 ... X_l^al. Products are rewritten to this basis
by bubble-style adjacent transpositions X_j X_i -> X_i X_j - [X_i, X_j] for
i < j, driven by a structure-constant table.
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
        if not self.delta:
            object.__setattr__(self, "delta", tuple(0.0 for _ in self.labels))
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

    @property
    def dim(self) -> int:
        return len(self.labels)

    def bracket(self, i: int, j: int) -> dict[int, complex]:
        """[X_i, X_j] as {k: coefficient}, for any i, j."""
        if i == j:
            return {}
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


def _collapse(word: tuple[int, ...], dim: int) -> tuple[int, ...]:
    alpha = [0] * dim
    for i in word:
        alpha[i] += 1
    return tuple(alpha)


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


def _normal_order_word(
    structure: LieStructure, word: tuple[int, ...], coeff: complex, out: dict
) -> None:
    """Rewrite one word into the sorted-monomial basis, accumulating into out."""
    stack = [(word, coeff)]
    while stack:
        w, c = stack.pop()
        for pos in range(len(w) - 1):
            if w[pos] > w[pos + 1]:
                j, i = w[pos], w[pos + 1]
                stack.append((w[:pos] + (i, j) + w[pos + 2 :], c))
                # X_j X_i = X_i X_j + [X_j, X_i]
                for k, ck in sorted(structure.bracket(j, i).items()):
                    stack.append((w[:pos] + (k,) + w[pos + 2 :], c * ck))
                break
        else:
            alpha = _collapse(w, structure.dim)
            out[alpha] = out.get(alpha, 0j) + c


def uea_multiply(a: UEAElement, b: UEAElement) -> UEAElement:
    """Normal-ordered product; deterministic term order."""
    a._check_compatible(b)
    out: dict[tuple[int, ...], complex] = {}
    for alpha, ca in a.sorted_terms():
        wa = _expand(alpha)
        for beta, cb in b.sorted_terms():
            _normal_order_word(a.structure, wa + _expand(beta), ca * cb, out)
    return UEAElement(a.structure, out)


def _reverse_negated(d: UEAElement, shift) -> UEAElement:
    """The anti-automorphism X_i -> -X_i - shift[i]: each word reversed, each letter
    replaced by its image, and every resulting product normal-ordered."""
    if not d.structure.brackets and not any(shift):
        # commuting generators: X^alpha keeps its place and changes sign |alpha| times
        return UEAElement(d.structure, {a: 0j + (-c if sum(a) % 2 else c) for a, c in d.sorted_terms()})
    out: dict[tuple[int, ...], complex] = {}
    for alpha, c in d.sorted_terms():
        words = [((), c)]
        for i in reversed(_expand(alpha)):
            words = [(w + (i,), -cw) for w, cw in words] + (
                [(w, -shift[i] * cw) for w, cw in words] if shift[i] else []
            )
        for w, cw in words:
            _normal_order_word(d.structure, w, cw, out)
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
