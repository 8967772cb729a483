"""Recovery: shadowing policy, journal-driven recovery, the crash sweep.

Only the shadow policy is exported here: :mod:`repro.core.env` pulls it
in at interpreter start, and the other modules — :mod:`.atomic`
(journal-driven recovery) and :mod:`.sweep` (the crash-sweep harness,
with :func:`~repro.recovery.sweep.read_image`) — import the storage
managers, which import the env.  Import those modules directly.
Rebuilding an object from the disk image is each manager's own
``mount``.
"""

from repro.recovery.shadow import DEFAULT_SHADOW, NO_SHADOW, ShadowPolicy

__all__ = ["DEFAULT_SHADOW", "NO_SHADOW", "ShadowPolicy"]
