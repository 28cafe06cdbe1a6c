"""Exception hierarchy shared by all modules."""


class McHoeffdingError(Exception):
    """Base class for all library errors."""


class ValidationError(McHoeffdingError):
    """Bad input: rejected before any computation runs."""


class NumericError(McHoeffdingError):
    """A computation left the representable range."""


class NonStochastic(ValidationError):
    pass


class NotStationary(ValidationError):
    pass


class DegenerateStationary(ValidationError):
    pass


class OutOfRange(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NegativeU(ValidationError):
    pass


class OddQ(ValidationError):
    pass


class LambdaGeOne(ValidationError):
    pass


class TooLarge(ValidationError):
    pass


class Unsorted(ValidationError):
    pass


class NotLattice(ValidationError):
    pass


class NotMeanZero(ValidationError):
    pass


class InvalidOrder(ValidationError):
    pass


class OrderMismatch(InvalidOrder, DimensionMismatch):
    """A fill order built for another d than the coefficient matrix's."""


class Overflow(NumericError):
    pass
