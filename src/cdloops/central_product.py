"""Central products of Cayley-Dickson loops sharing one scalar group.

The product of loops D_1, ..., D_m glues the factors along Z: inside the
direct product, pairs that differ only by a balanced scalar rearrangement
are identified.  Working in that quotient, every element has a canonical
form (global scalar, mask per factor): factor scalars all fold into one.
Factors multiply independently, so the product of two canonical forms
multiplies the global scalars by every per-factor twist.  Over cosets of Z
those twists add up to the Kronecker sum of the factors' dense twist
tables, which coset_twist_matrix builds in one broadcast per factor.

A single Cayley-Dickson loop is the one-factor case (CDLoop.product), so
ProductElement is the library's only element type and pmul, pinv,
pcommutator and passociator its only arithmetic.  Factors are duck-typed
descriptors: this module reads their z, n, twist_exp and twist_table.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import xor
from typing import TYPE_CHECKING

import numpy as np

from .budget import ensure_budget
from .scalars import Scalar, ScalarGroup

if TYPE_CHECKING:
    from .cdloop import CDLoop


@dataclass(frozen=True)
class CentralProduct:
    """Descriptor of D_1 x ... x D_m glued along the shared scalar group."""

    z: ScalarGroup
    factors: tuple[CDLoop, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("central product needs at least one factor")
        for d in self.factors:
            if d.z != self.z:
                raise ValueError("all factors must share the product's scalar group")
        n = self.factors[0].n
        for d in self.factors:
            if d.n != n:
                raise ValueError(
                    f"factors must have equal length, got {d.n} and {n}"
                )

    @property
    def m(self) -> int:
        return len(self.factors)

    @property
    def n(self) -> int:
        return self.factors[0].n

    @property
    def coset_count(self) -> int:
        """Number of cosets of Z, i.e. distinct mask tuples."""
        return 1 << (self.m * self.n)

    @property
    def order(self) -> int:
        return self.z.order * self.coset_count

    @property
    def identity(self) -> "ProductElement":
        return ProductElement(self, self.z.one, (0,) * self.m)

    def element(self, scalar: Scalar, masks: tuple[int, ...]) -> "ProductElement":
        return ProductElement(self, scalar, masks)

    # -- canonical-form arithmetic -------------------------------------------

    def pmul(self, x: "ProductElement", y: "ProductElement") -> "ProductElement":
        self._check_member(x)
        self._check_member(y)
        exp = x.scalar.exponent + y.scalar.exponent + self._twist_sum(x.masks, y.masks)
        return self._result(exp, tuple(map(xor, x.masks, y.masks)))

    def pinv(self, x: "ProductElement") -> "ProductElement":
        self._check_member(x)
        exp = -x.scalar.exponent - self._twist_sum(x.masks, x.masks)
        return self._result(exp, x.masks)

    def _twist_sum(self, es: tuple[int, ...], fs: tuple[int, ...]) -> int:
        """Unreduced sum of the factor twists t_i(e_i, f_i) over two mask tuples."""
        exp = 0
        for d, e, f in zip(self.factors, es, fs):
            exp += d.twist_exp(e, f)
        return exp

    def _result(self, exp: int, masks: tuple[int, ...]) -> "ProductElement":
        """The element (exp mod |Z|, masks), skipping ProductElement's checks.

        Callers pass members' masks or their XORs, which are in range by
        construction; the checks would cost more than the arithmetic.
        """
        x = object.__new__(ProductElement)
        fields = x.__dict__
        fields["product"], fields["masks"] = self, masks
        fields["scalar"] = Scalar(self.z, exp % self.z.order)
        return x

    def pcommutator(self, x: "ProductElement", y: "ProductElement") -> "ProductElement":
        """The unique c with x*y = c*(y*x); lands in {1, -1}."""
        return self.pmul(self.pmul(x, y), self.pinv(self.pmul(y, x)))

    def passociator(
        self, x: "ProductElement", y: "ProductElement", z: "ProductElement"
    ) -> "ProductElement":
        """The unique c with (x*y)*z = c*(x*(y*z)); lands in {1, -1}."""
        left = self.pmul(self.pmul(x, y), z)
        right = self.pmul(x, self.pmul(y, z))
        return self.pmul(left, self.pinv(right))

    def rank(self, x: "ProductElement") -> int:
        """Number of factors the element meets outside Z."""
        self._check_member(x)
        return sum(1 for e in x.masks if e)

    def embed(self, factor_index: int, x: "ProductElement") -> "ProductElement":
        """Canonical image of an element of factor D_i (1-based i), given
        as an element of D_i.product."""
        if not 1 <= factor_index <= self.m:
            raise ValueError(f"factor index {factor_index} out of range 1..{self.m}")
        if x.product != self.factors[factor_index - 1].product:
            raise ValueError(
                f"element belongs to {x.product.describe()}, not factor {factor_index}"
            )
        masks = tuple(x.mask if i == factor_index - 1 else 0 for i in range(self.m))
        return ProductElement(self, x.scalar, masks)

    def scale(self, s: Scalar, x: "ProductElement") -> "ProductElement":
        if s.group != self.z:
            raise ValueError("scalar belongs to a different group")
        return ProductElement(self, s * x.scalar, x.masks)

    # -- enumeration ----------------------------------------------------------

    def penumerate(self, max_elements: int | None = None) -> list["ProductElement"]:
        """All elements, scalar-major then combined mask (factor 1 in low bits)."""
        ensure_budget(self.order, max_elements, "product enumeration")
        return self._coset_elements(np.arange(self.coset_count))

    def _coset_elements(self, cosets: np.ndarray) -> list["ProductElement"]:
        """Every element over the given in-range combined masks, scalar-major.

        Elements skip ProductElement's checks, which the product's own
        scalars and split masks pass by construction: the checks cost
        several times the object, and commutant returns up to |A| elements.
        """
        masks = list(map(tuple, self._split_masks(cosets).tolist()))
        elements = []
        for scalar in self.z.elements():
            for mask in masks:
                x = object.__new__(ProductElement)
                fields = x.__dict__
                fields["product"], fields["scalar"], fields["masks"] = self, scalar, mask
                elements.append(x)
        return elements

    def _split_masks(self, cosets: np.ndarray) -> np.ndarray:
        """Per-factor masks of each combined mask, one column per factor."""
        return cosets[:, None] >> self.n * np.arange(self.m) & (1 << self.n) - 1

    def coset_ranks(self) -> np.ndarray:
        """Rank of every coset of Z (see rank), indexed by combined mask."""
        return (self._split_masks(np.arange(self.coset_count)) != 0).sum(axis=1)

    def split_mask(self, combined: int) -> tuple[int, ...]:
        n = self.n
        low = (1 << n) - 1
        return tuple((combined >> (n * i)) & low for i in range(self.m))

    def element_index(self, x: "ProductElement") -> int:
        self._check_member(x)
        return x.scalar.exponent * self.coset_count + x.mask

    def element_at(self, index: int) -> "ProductElement":
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range 0..{self.order - 1}")
        exp, combined = divmod(index, self.coset_count)
        return ProductElement(self, Scalar(self.z, exp), self.split_mask(combined))

    def twist_tables(self) -> list[np.ndarray]:
        """Dense per-factor twist exponent tables t_i[e][f] (CDLoop.twist_table)."""
        return [d.twist_table() for d in self.factors]

    def _check_member(self, x: "ProductElement") -> None:
        if x.product is not self and x.product != self:
            raise ValueError("element belongs to a different product")

    def describe(self) -> str:
        return " * ".join(d.describe() for d in self.factors)


@dataclass(frozen=True)
class ProductElement:
    """Canonical form (global scalar, mask per factor) of a product element."""

    product: CentralProduct
    scalar: Scalar
    masks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "masks", tuple(self.masks))
        if self.scalar.group != self.product.z:
            raise ValueError("scalar belongs to a different group")
        if len(self.masks) != self.product.m:
            raise ValueError(
                f"expected {self.product.m} masks, got {len(self.masks)}"
            )
        for d, e in zip(self.product.factors, self.masks):
            if not 0 <= e < (1 << d.n):
                raise ValueError(f"mask {e:#x} does not fit in {d.n} bits")

    @property
    def mask(self) -> int:
        """Combined mask: factor i's mask in bits n*(i-1) and up."""
        n = self.product.n
        return sum(e << (n * i) for i, e in enumerate(self.masks))

    @property
    def is_scalar(self) -> bool:
        return not any(self.masks)

    @property
    def rank(self) -> int:
        return self.product.rank(self)

    def __mul__(self, other: "ProductElement") -> "ProductElement":
        return self.product.pmul(self, other)

    def inv(self) -> "ProductElement":
        return self.product.pinv(self)

    def __str__(self) -> str:
        """Monomials tagged @i with their factor, untagged in a single loop."""
        parts = []
        for i, e in enumerate(self.masks):
            if e:
                monomial = "".join(
                    f"l{j + 1}" for j in range(self.product.n) if e >> j & 1
                )
                parts.append(monomial if self.product.m == 1 else f"{monomial}@{i + 1}")
        if not parts:
            return str(self.scalar)
        body = "*".join(parts)
        if self.scalar.is_one:
            return body
        return f"{self.scalar}*{body}"


def make_product(z: ScalarGroup, factors: list[CDLoop] | tuple[CDLoop, ...]) -> CentralProduct:
    """Validate and build the central product of the given factors."""
    return CentralProduct(z, tuple(factors))


def coset_twist_matrix(A: CentralProduct) -> np.ndarray:
    """Twist exponents t(c1, c2) mod |Z| over all pairs of combined masks.

    Extends the per-factor twists to cosets of Z: the scalar picked up when
    multiplying representatives of two cosets is the product of the factor
    twists, so exponents add.  Factor 1 sits in the low n bits, so each
    further factor becomes the outer block index of a Kronecker sum.  The
    sum is reduced after every factor, so entries keep the factor tables'
    narrow unsigned dtype: upcast before subtracting entries.
    """
    order = A.z.order
    tables = A.twist_tables()
    total = tables[0].copy()
    for table in tables[1:]:
        outer, inner = len(table), len(total)
        grid = table[:, None, :, None] + total[None, :, None, :]
        np.remainder(grid, order, out=grid)
        total = grid.reshape(outer * inner, outer * inner)
    return total
