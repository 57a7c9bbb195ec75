"""Exception hierarchy shared by all posat modules."""


class PosatError(Exception):
    """Base class for all posat errors."""


class CycleInCovers(PosatError):
    """The transitive closure of the given cover relations is not acyclic."""


class IndexOutOfRange(PosatError):
    """An element index does not fit the declared ground/element count."""


class UnknownName(PosatError):
    """Unknown catalog poset name."""


class BadParam(PosatError):
    """A parameter is missing, superfluous, or out of range."""


class BadIndex(PosatError):
    """A ground-set index is outside 1..n."""


class NotPerfectSquare(PosatError):
    """The ground-set size must be a perfect square (and at least 4)."""


class BadN(PosatError):
    """The ground-set size is too small for this construction."""


class BadParams(PosatError):
    """Invalid (n, l) combination for a parameterized construction."""


class HypothesisFails(PosatError):
    """No ordered member pair (A, B) has A \\ B = {i} for some i.

    Carries the 1-based failing index in ``.index``.
    """

    def __init__(self, index: int):
        super().__init__(f"no member pair (A, B) with A \\ B = {{{index}}}")
        self.index = index


class NotAnInducedCycle(PosatError):
    """The supplied vertex list is not an induced oriented cycle."""


class TooLarge(PosatError):
    """The exhaustive enumeration is capped below this input size."""


class NotSaturated(PosatError):
    """The family is not induced saturated for the given poset(s)."""


class NoLegs(PosatError):
    """The poset has no legs, so the legs machinery does not apply."""


class ParseError(PosatError):
    """A text-format file could not be parsed."""
