"""Exception types shared across the package, and `Record`, the immutable
base of its value types."""

from operator import attrgetter


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


class InvalidParameter(CmkitError):
    """Parameter outside the supported range."""


class NotProperNontrivial(CmkitError):
    """Subgroup must be proper and non-trivial for this test."""


class GenusZeroQuotient(CmkitError):
    """Quotient has genus zero; the large-abelian test does not apply."""


# Failed identities that no input can cause on a correct program.
INTERNAL_ERRORS = (InvalidCharacterTable, NonIntegralMultiplicity, NonIntegralResult,
                   InconsistentRamification, InternalCheckFailed)


class Record:
    """A value with named fields that never change, built by position or
    keyword and equal, hashed and printed by those fields, as a frozen
    dataclass is.

    A subclass lists its slots in `__slots__`.  `_fields` names the slots it
    is built, compared and printed by (all of them unless it says otherwise;
    its own `__init__` fills the rest), and `_defaults` maps trailing fields
    to default values.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._fields = cls.__match_args__ = fields
        cls._key = attrgetter(*fields)
        # Each slot's own setter, which the raising __setattr__ does not reach.
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for setter, value in zip(setters, args):
            setter(self, value)

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of a call with keywords or omitted defaults."""
        fields, defaults = cls._fields, cls._defaults
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, "
                            f"{len(args)} given")
        values = list(args)
        for name in fields[len(args):]:
            if name not in kwargs and name not in defaults:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            values.append(kwargs.pop(name) if name in kwargs else defaults[name])
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument "
                            f"{next(iter(kwargs))!r}")
        return values

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
