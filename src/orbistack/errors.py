"""Shared exception types carrying machine-readable witnesses."""

from __future__ import annotations

from typing import Any


class DomainError(Exception):
    """A computation failed for a mathematical reason that has a witness.

    Subclasses set ``name`` to a stable identifier used in serialized
    reports.  ``witness`` holds JSON-ready diagnostic data.
    """

    name = "DomainError"

    def __init__(self, message: str, **witness: Any):
        super().__init__(message)
        self.witness = dict(witness)

    def payload(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"error": self.name, "message": str(self)}
        if self.witness:
            doc["witness"] = self.witness
        return doc


class InfiniteSolutionSet(DomainError):
    """A graded piece is an infinite set; enumerating it would truncate."""

    name = "InfiniteSolutionSet"


class NotDetAmple(DomainError):
    """The requested bundle degree is not det-ample on this weight system."""

    name = "NotDetAmple"


class VeryAmpleCertificationFailed(DomainError):
    """No tested twist passed the very-ampleness and generation certificates."""

    name = "VeryAmpleCertificationFailed"


class InvalidEmbeddingData(DomainError):
    """Embedding data violates a structural invariant."""

    name = "InvalidEmbeddingData"


class ChartGenerationFailed(DomainError):
    """A chart algebra is not generated by the designated coordinates."""

    name = "ChartGenerationFailed"


class StabilizerNotPreserved(DomainError):
    """A stratum's character lattice or stabilizer is not matched by the map."""

    name = "StabilizerNotPreserved"


class RoundTripMismatch(DomainError):
    """Data recovered from a monomial map disagrees with a stored field."""

    name = "RoundTripMismatch"


class ResourceLimitExceeded(DomainError):
    """The job's result is too large to build; the witness names the limit passed."""

    name = "ResourceLimitExceeded"


class InvariantViolation(DomainError):
    """An internal consistency check failed; the witness shows where."""

    name = "InvariantViolation"


class SchemaViolation(DomainError):
    """A serialized document does not match the expected shape."""

    name = "SchemaViolation"
