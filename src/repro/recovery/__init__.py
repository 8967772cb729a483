"""Recovery: shadowing policy, crash rebuild, and the crash sweep.

Only the shadow policy is exported here: :mod:`repro.core.env` pulls it
in at interpreter start, and the other modules — :mod:`.crash` (rebuild
from disk images), :mod:`.sweep` (the crash-sweep harness) and
:mod:`.atomic` (journal-driven recovery) — import the storage managers,
which import the env.  Import those modules directly.
"""

from repro.recovery.shadow import DEFAULT_SHADOW, NO_SHADOW, ShadowPolicy

__all__ = ["DEFAULT_SHADOW", "NO_SHADOW", "ShadowPolicy"]
