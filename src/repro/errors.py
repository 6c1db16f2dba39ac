"""Exception hierarchy for the secure-NVM simulator.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
Integrity-related failures are deliberately separated from configuration and
simulation errors: an :class:`IntegrityError` models a *detected attack*
(the system working as designed), while the others model misuse or internal
inconsistency.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent (e.g. a capacity
    that is not a multiple of the cache-line size)."""


class AddressError(ReproError):
    """An address is out of range or misaligned for the targeted region."""


class IntegrityError(ReproError):
    """Integrity verification failed: a stored MAC or root did not match the
    recomputed value.  This is the simulator's representation of a *detected
    integrity attack* (or, after a crash, of an inconsistent recovery)."""


class RootMismatchError(IntegrityError):
    """The reconstructed integrity-tree root does not match the root stored
    in the on-chip non-volatile register."""


class RecoveryError(ReproError):
    """Recovery could not proceed (distinct from a *detected attack*): for
    example the persisted metadata region is structurally corrupt."""


class CrashError(ReproError):
    """Raised internally to unwind the simulator when an injected crash
    point fires.  Crash injection machinery catches this; user code should
    normally never see it escape :func:`repro.crash.injection.run_until_crash`."""


class SimulationError(ReproError):
    """The simulator reached an internal state that should be impossible
    (a bug in the model, not in the modelled system)."""


class MetadataTypeError(SimulationError):
    """A metadata fetch produced a node of the wrong type (e.g. a
    :class:`~repro.tree.node.SITNode` where a counter block was expected).
    Raised instead of ``assert`` so the check survives ``python -O``."""


class CampaignError(ReproError):
    """An experiment campaign could not complete: a cell failed past its
    retry budget, a worker pool collapsed, or a manifest/cache file is
    structurally unusable.  Per-cell failures inside a non-``fail_fast``
    campaign are *recorded*, not raised.  ``error`` holds a failed
    cell's last attempt in full (the message keeps its last line)."""

    def __init__(self, message: str, error: str = "") -> None:
        super().__init__(message)
        self.error = error


class ObservabilityError(SimulationError):
    """The tracing/attribution layer caught the simulator lying about
    itself: per-component attributed cycles do not sum to the total, a
    trace is structurally invalid (unbalanced span begin/end, time going
    backwards), or an exported artifact fails schema validation."""


class PersistOrderingError(SimulationError):
    """The runtime crash-consistency sanitizer observed a persist-order
    violation: security metadata reached the persistence domain in an
    order the scheme's declared crash-consistency rules forbid (e.g. a
    SCUE leaf persisted before its shortcut root update)."""
