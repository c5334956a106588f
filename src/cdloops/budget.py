"""Enumeration budget: a global guard against runaway exhaustive computations.

Every operation that enumerates elements, pairs or triples checks its work
item count against a budget before starting.  The default (2**20 items) can
be overridden per call, or globally through the CDL_MAX_ELEMENTS environment
variable.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded

DEFAULT_MAX_ELEMENTS = 1 << 20

ENV_VAR = "CDL_MAX_ELEMENTS"

# Cap on the cells of one block of temporaries in the blocked numpy passes:
# find_isomorphism's candidate rows, AbstractLoop._signatures, analytics'
# _associates and associator_exponent_image.
_BLOCK_CELLS = 1 << 20


def resolve_max_elements(max_elements: int | None = None) -> int:
    """Explicit argument wins, then the environment variable, then the default."""
    if max_elements is not None:
        if max_elements < 1:
            raise ValueError(f"budget must be positive, got {max_elements}")
        return max_elements
    env = os.environ.get(ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError(f"{ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_MAX_ELEMENTS


def ensure_budget(required: int, max_elements: int | None, what: str) -> int:
    """Raise BudgetExceeded if `required` work items exceed the budget."""
    limit = resolve_max_elements(max_elements)
    if required > limit:
        raise BudgetExceeded(
            f"{what} needs {required} items, exceeding the budget of {limit} "
            f"(raise --max-elements or {ENV_VAR})",
            required=required,
            budget=limit,
        )
    return limit
