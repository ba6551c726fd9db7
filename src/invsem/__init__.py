"""invsem: a verifiable workbench for finite inverse semigroups."""

from .core import (
    FiniteSemigroup,
    IdempotentsDontCommute,
    InverseSemigroup,
    NotAssociative,
    NotRegular,
    TooLarge,
    direct_product,
    generated_subsemigroup,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteSemigroup",
    "IdempotentsDontCommute",
    "InverseSemigroup",
    "NotAssociative",
    "NotRegular",
    "TooLarge",
    "direct_product",
    "generated_subsemigroup",
    "validate",
]
