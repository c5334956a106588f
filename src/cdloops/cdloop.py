"""n-fold Cayley-Dickson loops over a finite cyclic scalar group.

Repeated doubling of the scalar group Z introduces generators l_1, ..., l_n
with l_i**2 = gamma_i.  Every element of the resulting loop is uniquely a
scalar times a basis monomial, so we represent elements as (scalar, mask)
pairs where bit i-1 of the mask says whether l_i participates.  The product
of two basis monomials is the monomial of the XOR'd mask times a scalar
"twist", so multiplication never touches symbolic trees.

The twist exponents form one dense 2**n x 2**n table per loop, built by
applying the doubling law one generator at a time to the whole table (see
twist_table) and cached on the descriptor; the surveys read it.  Single
products unroll the same law over the mask bits instead (twist_exp), and
commutant applies it to one row and one column (twist_row_and_column), so
they cost O(n) and O(2**n) at every depth up to MAX_GENERATORS and build
no table.

A loop is the one-factor central product of itself: its elements are
ProductElements of L.product, and L.mul, L.inv, L.commutator,
L.associator and L.elements are views onto that product's arithmetic and
enumeration.  CDLoop keeps the descriptor and what belongs to one doubled
loop alone: the twist and the doubling involution conj.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .central_product import CentralProduct, ProductElement
from .scalars import Scalar, ScalarGroup

MAX_GENERATORS = 16


@dataclass(frozen=True)
class CDLoop:
    """Loop descriptor: scalar group Z plus the doubling constants gamma_i."""

    z: ScalarGroup
    gammas: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(self.gammas))
        if len(self.gammas) > MAX_GENERATORS:
            raise ValueError(
                f"at most {MAX_GENERATORS} doubling steps supported, "
                f"got {len(self.gammas)}"
            )
        for g in self.gammas:
            if g.group != self.z:
                raise ValueError(f"gamma {g} does not belong to {self.z}")

    @classmethod
    def all_minus_one(cls, z: ScalarGroup, n: int) -> "CDLoop":
        """The loop (-1, ..., -1)_Z with n doubling steps."""
        if not 0 <= n <= MAX_GENERATORS:
            raise ValueError(f"n must be in 0..{MAX_GENERATORS}, got {n}")
        return cls(z, tuple(z.minus_one for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.gammas)

    @property
    def order(self) -> int:
        return (1 << self.n) * self.z.order

    @cached_property
    def product(self) -> CentralProduct:
        """This loop as the one-factor central product that holds its elements."""
        return CentralProduct(self.z, (self,))

    @property
    def identity(self) -> ProductElement:
        return self.product.identity

    def generator(self, i: int) -> ProductElement:
        """l_i, 1-based."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        return self.element(self.z.one, 1 << (i - 1))

    def element(self, scalar: Scalar, mask: int) -> ProductElement:
        return self.product.element(scalar, (mask,))

    # -- twist kernel ---------------------------------------------------------

    def twist_exp(self, e: int, f: int) -> int:
        """Exponent of the scalar t(e, f) with b(e)*b(f) = t(e, f)*b(e^f).

        The doubling law of twist_table, unrolled from the top generator
        down for one pair of masks, so a single product builds no table.
        """
        half = self.z.order // 2
        exp = 0
        for level in range(self.n, 0, -1):
            top = 1 << (level - 1)
            a, b = e & top, f & top
            e, f = e & (top - 1), f & (top - 1)
            if a:
                if f:
                    exp += half
                if b:
                    exp += self.gammas[level - 1].exponent
            if b:
                e, f = f, e
        return exp % self.z.order

    def twist_table(self) -> np.ndarray:
        """Dense read-only table of twist_exp(e, f), built once per descriptor.

        Each generator l_k doubles the table T of l_1..l_{k-1}: the doubling
        law (q + r*l)(s + t*l) = qs + gamma*conj(t)*r + (t*q + r*conj(s))*l
        keeps one term per pair of monomials, giving [[T, T.T], [T + S,
        T.T + S + gamma]] mod |Z|, where S is |Z|/2 (conj's sign) in every
        column but 0.  Entries are stored in the narrowest unsigned dtype
        that holds the sum of two of them.  The table has 4**n entries;
        callers charge the budget.
        """
        return self._twist_table

    @cached_property
    def _twist_table(self) -> np.ndarray:
        order = self.z.order
        dtype = twist_dtype(order)
        table = np.zeros((1, 1), dtype=dtype)
        for g in self.gammas:
            sign, sign_gamma = _doubling_signs(len(table), g, dtype)
            flip = table.T
            table = np.block(
                [[table, flip], [(table + sign) % order, (flip + sign_gamma) % order]]
            )
        table.flags.writeable = False
        return table

    def twist_row_and_column(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """Row e and column e of twist_table, without building the table.

        The doubling law of twist_table, restricted to one row and one
        column: with e = b * 2**k + low, row e of the doubled table is [row
        low, column low], plus [S, S + gamma] when b is set, and column e is
        [column low, column low + S[low]], or [row low, row low + S[low] +
        gamma] when b is set.  Each step costs O(2**k).
        """
        order = self.z.order
        dtype = twist_dtype(order)
        row = col = np.zeros(1, dtype=dtype)
        for k, g in enumerate(self.gammas):
            low = e & ((1 << k) - 1)
            sign, sign_gamma = _doubling_signs(row.size, g, dtype)
            if e >> k & 1:
                row, col = (
                    np.concatenate([(row + sign) % order, (col + sign_gamma) % order]),
                    np.concatenate([row, (row + sign_gamma[low]) % order]),
                )
            else:
                row, col = np.concatenate([row, col]), np.concatenate([col, (col + sign[low]) % order])
        return row, col

    def twist(self, e: int, f: int) -> Scalar:
        self._check_mask(e)
        self._check_mask(f)
        return Scalar(self.z, self.twist_exp(e, f))

    # -- element arithmetic: views onto the one-factor product ----------------

    def mul(self, x: ProductElement, y: ProductElement) -> ProductElement:
        return self.product.pmul(x, y)

    def inv(self, x: ProductElement) -> ProductElement:
        return self.product.pinv(x)

    def commutator(self, x: ProductElement, y: ProductElement) -> ProductElement:
        return self.product.pcommutator(x, y)

    def associator(
        self, x: ProductElement, y: ProductElement, z: ProductElement
    ) -> ProductElement:
        return self.product.passociator(x, y, z)

    def elements(self, max_elements: int | None = None) -> list[ProductElement]:
        return self.product.penumerate(max_elements)

    def conj(self, x: ProductElement) -> ProductElement:
        """The doubling involution: fixes scalars, negates every other monomial."""
        A = self.product
        A._check_member(x)
        if x.is_scalar:
            return x
        return A._result(x.scalar.exponent + self.z.order // 2, x.masks)

    # -- helpers -------------------------------------------------------------

    def _check_mask(self, e: int) -> None:
        if not isinstance(e, (int, np.integer)):
            raise ValueError(f"mask {e!r} is not an integer")
        if not 0 <= e < (1 << self.n):
            raise ValueError(f"mask {e:#x} does not fit in {self.n} bits")

    def describe(self) -> str:
        gammas = ",".join(self.z.format(g) for g in self.gammas)
        return f"({gammas})_Z{self.z.order}"


def _doubling_signs(size: int, gamma: Scalar, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """S and S + gamma of one doubling step, reduced mod |Z|: S is |Z|/2
    (conj's sign) at every index but 0."""
    order = gamma.group.order
    sign = np.full(size, order // 2, dtype=dtype)
    sign[0] = 0
    return sign, (sign + dtype.type(gamma.exponent)) % order


def twist_dtype(order: int) -> np.dtype:
    """Twist tables' dtype: the narrowest that holds two reduced exponents' sum."""
    return np.min_scalar_type(2 * (order - 1))


def as_product(obj: CDLoop | CentralProduct) -> CentralProduct:
    """The central product behind a loop or product: a loop is its own
    one-factor product."""
    if isinstance(obj, CDLoop):
        return obj.product
    if isinstance(obj, CentralProduct):
        return obj
    raise TypeError(f"expected CDLoop or CentralProduct, got {type(obj).__name__}")
