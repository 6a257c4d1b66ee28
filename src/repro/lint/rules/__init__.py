"""Rule modules; importing this package registers every rule into
:data:`repro.lint.engine.REGISTRY`."""

from repro.lint.rules import (  # noqa: F401  (import-for-registration)
    concurrency_rules,
    determinism,
    plumbing,
    schema_drift,
    typeflow_rules,
)

__all__ = [
    "determinism",
    "plumbing",
    "schema_drift",
    "typeflow_rules",
    "concurrency_rules",
]
