"""Exception types shared across the package."""


class CmkitError(Exception):
    """Base class for all errors raised by cmkit."""


class InvalidPermutation(CmkitError):
    """Image array is not a bijection, or degrees do not match."""


class GroupTooLarge(CmkitError):
    """Enumeration would exceed a configured order bound."""


class SubgroupMismatch(CmkitError):
    """Subgroup does not live inside the expected parent group."""


class NotNormal(CmkitError):
    """Quotient requested by a non-normal subgroup."""


class NotNormalInN(CmkitError):
    """Intermediate cover is not Galois: H is not normal in N."""


class ElementNotInGroup(CmkitError):
    """Permutation is not a member of the group."""


class GroupMismatch(CmkitError):
    """Operands belong to different groups."""


class NonIntegralResult(CmkitError):
    """An exact computation that must produce an integer did not."""


class NonIntegerGenus(CmkitError):
    """Branch data does not satisfy the integrality of the genus formula."""


class NegativeGenus(CmkitError):
    """Branch data forces a negative genus (inconsistent input)."""


class InconsistentRamification(CmkitError):
    """Ramification indices over one base point of a Galois cover disagree."""


class InvalidCharacterTable(CmkitError):
    """A character table, or a count read from it, fails a required identity."""


class InternalCheckFailed(CmkitError):
    """An identity that holds for every input on a correct program failed."""


class NonIntegralMultiplicity(CmkitError):
    """Eigenvalue bookkeeping produced a non-integral multiplicity."""


class VectorNotFound(CmkitError):
    """No generating vector exists for the requested signature."""


class InvalidParameter(CmkitError):
    """Parameter outside the supported range."""


class NotProperNontrivial(CmkitError):
    """Subgroup must be proper and non-trivial for this test."""


class GenusZeroQuotient(CmkitError):
    """Quotient has genus zero; the large-abelian test does not apply."""


# Failed identities that no input can cause on a correct program.
INTERNAL_ERRORS = (InvalidCharacterTable, NonIntegralMultiplicity, NonIntegralResult,
                   InconsistentRamification, InternalCheckFailed)
