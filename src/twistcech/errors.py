"""Exception hierarchy.

Every validation error carries the witness that triggered it, so callers
(and test suites) can assert on the exact failure site instead of parsing
messages.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

from .records import record

DEFAULT_ENUM_BUDGET = 2_000_000  # steps of each exact enumeration
DEFAULT_ORDER_GUARD = 64  # largest group order of an automorphism or isomorphism search


class TwistError(Exception):
    """Base class for all library errors."""


class InputError(TwistError):
    """Malformed or mathematically invalid input data."""


class BudgetExceeded(TwistError):
    """An exact enumeration would exceed the configured budget."""


@record(frozen=True)
class Work:
    """The limits of one job: ``enum`` bounds each enumeration's steps on its own, ``order`` the
    group order of a hom search, and ``deadline`` (a ``time.monotonic()`` reading) every loop."""

    enum: int = DEFAULT_ENUM_BUDGET
    order: int = DEFAULT_ORDER_GUARD
    deadline: float = float("inf")

    def clock(self, stage: str) -> None:
        """Refuse once the deadline has passed; each loop calls this at its start and every 1024 steps."""
        if time.monotonic() >= self.deadline:
            raise BudgetExceeded(f"time limit reached in {stage}")

    def paced(self, items: Iterable, stage: str) -> Iterator:
        """``items``, with the clock read before the first and then every 1024th."""
        for i, item in enumerate(items):
            if not i & 1023:
                self.clock(stage)
            yield item


class InternalError(TwistError):
    """A theorem-guaranteed property failed; indicates a library bug."""


def _witness_error(name, doc):
    """Build an InputError subclass that stores its witness tuple."""

    def __init__(self, *witness, message=None):
        self.witness = witness
        text = message or f"{name}: witness {witness!r}"
        InputError.__init__(self, text)

    cls = type(name, (InputError,), {"__init__": __init__, "__doc__": doc})
    return cls


# group_core
NotAssociative = _witness_error("NotAssociative", "mul(mul(x,y),z) != mul(x,mul(y,z)); witness (x,y,z).")
NoIdentity = _witness_error("NoIdentity", "No two-sided identity element exists.")
NoInverse = _witness_error("NoInverse", "Element has no two-sided inverse; witness (x,).")


# extension_algebra
NotNormalized = _witness_error("NotNormalized", "c(gamma,1) or c(1,gamma) is not the identity; witness (gamma,).")
CocycleViolation = _witness_error("CocycleViolation", "Twisted 2-cocycle identity fails; witness (g0,g1,g2).")
ValueNotCentral = _witness_error("ValueNotCentral", "Cochain value lies outside the centre; witness (g1,g2).")
SectionNotNormalised = _witness_error(
    "SectionNotNormalised", "Section does not conjugate the subgroup into itself, or s(1) != 1."
)
CocycleNotCentral = _witness_error(
    "CocycleNotCentral", "Extracted cocycle value is not central; the section is incompatible with a lift."
)
NotAOneCocycle = _witness_error("NotAOneCocycle", "Int_s . theta fails to be a homomorphism; witness (gamma,gamma').")
CsNotCentral = _witness_error("CsNotCentral", "Recocycling defect s(g)theta_g(s(g'))s(gg')^-1 is not central.")

# twisted_actions
NotAGroupAction = _witness_error("NotAGroupAction", "The plain group-action part of the data fails; witness tuple.")
AxiomI = _witness_error("AxiomI", "Twisted action axiom (i) fails: identity does not act trivially.")
AxiomII = _witness_error("AxiomII", "Twisted action axiom (ii) fails; witness (m,g,gamma).")
AxiomIII = _witness_error("AxiomIII", "Twisted action axiom (iii) fails; witness (m,gamma1,gamma2).")
CarrierMismatch = _witness_error("CarrierMismatch", "Map endpoints disagree in carrier size or twisted data.")
SubgroupNotInvariant = _witness_error("SubgroupNotInvariant", "Subgroup is not preserved by the action; witness (gamma,).")
NotCentral = _witness_error("NotCentral", "Element is not central in the acting group; witness (lambda,).")

# equivariant_nerve
NotClosed = _witness_error("NotClosed", "A face of a stored simplex is missing; witness (simplex,).")
NotSimplicial = _witness_error("NotSimplicial", "A group element maps a simplex outside the complex; witness (gamma, simplex).")
NotFree = _witness_error("NotFree", "Action is not free; witness (gamma, fixed simplex).")
Disconnected = _witness_error("Disconnected", "Operation requires a connected complex.")
SectionInvalid = _witness_error("SectionInvalid", "Provided section does not pick one vertex per orbit.")
NotGoodCover = _witness_error(
    "NotGoodCover", "Simplex fibres of the quotient are not single free orbits; descent data is ill-defined."
)

# twisted_cech
NotEquivariant = _witness_error("NotEquivariant", "Homomorphism does not intertwine the two actions; witness (gamma,).")
ImageCocycleNotCentral = _witness_error("ImageCocycleNotCentral", "Pushed-forward twist value is not central in the target.")
