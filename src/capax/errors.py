"""Exception types shared across the package."""


class CapaxError(Exception):
    """Base class for all capax-specific failures."""


class NonConvergence(CapaxError):
    """Root iteration exhausted its sweep budget without meeting the residual bound."""


class PoleHit(CapaxError):
    """Evaluation point is within the pole-proximity threshold of a pole."""


class DuplicatePole(CapaxError):
    """Two poles coincide within the distinctness threshold."""


class TrackingAmbiguity(CapaxError):
    """Nearest-neighbor continuation between parameter steps is not a stable matching."""


class ComponentCountMismatch(CapaxError):
    """Boundary components do not pair off bijectively with the poles."""


class EmptyBasis(CapaxError):
    """Basis enumeration was requested with no elements (k < 1 or empty pole set)."""


class IllConditioned(CapaxError):
    """The Gram is not finite, or its factorization failed beyond what the
    ridge fallback can absorb."""


class AmplitudeOutOfRange(CapaxError):
    """Rotational family amplitude outside the admissible open interval."""


class OnSlit(CapaxError):
    """Evaluation point lies on (or numerically on) the slit set."""


class PoleCollision(CapaxError):
    """Pole interpolation path self-intersects at a sample."""


class ParseError(CapaxError):
    """Map expression text violates the grammar.

    Carries the 0-based offset into the input where scanning failed.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidMap(CapaxError):
    """Map expression parsed but describes an invalid map (duplicate pole, zero residue).

    Carries the 0-based index of the offending term.
    """

    def __init__(self, message, term_index):
        super().__init__(f"{message} (term {term_index})")
        self.term_index = term_index
