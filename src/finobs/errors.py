"""Shared exception types.

Validation errors flag malformed or structurally inconsistent inputs.
Tolerance errors flag numerical post-condition failures on otherwise
well-formed data.  The command line front end maps the former to exit
code 1 and the latter to exit code 2.
"""


class FinobsError(Exception):
    """Base class for all library errors."""


class ValidationError(FinobsError):
    """Input violates a structural precondition."""


class ToleranceError(FinobsError):
    """A numerical tolerance was exceeded at run time."""


class SchemaError(ValidationError):
    """A JSON document does not match the expected schema.

    `pointer` is a JSON-pointer style path to the offending node.
    """

    def __init__(self, pointer, message):
        self.pointer = pointer or "/"
        super().__init__(f"{self.pointer}: {message}")


class NonIdealFamily(ValidationError):
    """Labeling family cannot sit inside any order ideal.

    `witness` is a triple (x, y, z) with x ~ y and y ~ z but x !~ z.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class InsufficientLabels(ValidationError):
    """Too few labels for the requested construction."""


class UnorderedLabels(ValidationError):
    """Operation needs a totally ordered label set."""


class OutsideDomain(ToleranceError):
    """Vector fails the operator domain test; carries the residual norm."""

    def __init__(self, residual):
        self.residual = float(residual)
        super().__init__(f"vector outside operator domain, residual {self.residual:.3e}")


class NotInvariant(ToleranceError):
    """Subspace is not invariant; `witness` is a vector mapped outside."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__("subspace is not invariant under the operator")


class NotCommeasurable(ValidationError):
    """Operators do not commute on a shared domain."""


class NotEquivariant(ValidationError):
    """Matrix has no finite-block plus scalar structure."""


class Inconsistent(ValidationError):
    """Sampled functional values are mutually inconsistent."""
