"""Content-addressed artifact store: compute once, reuse everywhere.

The run-time flow is only cheap if its expensive intermediates —
activity records, featurized trace spans — are computed once and
reused by every consumer.  :class:`ArtifactStore` persists them on
disk keyed by content (a SHA-256 of the full simulation provenance),
so repeated detection sweeps, localization sweeps, monitor sessions
and CI smoke jobs warm-start **bit-identically** to their cold runs.

The store plugs into the library through
:meth:`ArtifactStore.mapping`, whose views are drop-in replacements
for the in-memory memos already threaded through
:class:`~repro.sweep.orchestrator.DetectionSweep`,
:class:`~repro.sweep.localize.LocalizationSweep` and
:class:`~repro.runtime.sources.LiveSource`.

Administer it from the command line::

    repro store stats          # entries, sizes, session hit/miss
    repro store gc [--max-mb]  # LRU-evict down to the size cap
    repro store clear          # drop everything

``REPRO_STORE_DIR`` relocates the store; sweep/monitor commands take
``--store-dir``/``--no-store`` overrides (CI smoke jobs pass
``--no-store`` so cold-start timings stay cold).
"""

from .keys import (
    CODE_VERSION,
    KEY_SCHEMA,
    adc_fingerprint,
    amplifier_fingerprint,
    analyzer_fingerprint,
    campaign_fingerprint,
    canonical,
    chip_fingerprint,
    config_fingerprint,
    digest,
    floorplan_fingerprint,
    psa_fingerprint,
)
from .store import (
    DEFAULT_MAX_BYTES,
    ENV_STORE_DIR,
    SCHEMA_VERSION,
    ArrayCodec,
    ArtifactStore,
    Codec,
    RecordCodec,
    StoreMapping,
    StoreStats,
    default_store_root,
)

__all__ = [
    "CODE_VERSION",
    "KEY_SCHEMA",
    "SCHEMA_VERSION",
    "DEFAULT_MAX_BYTES",
    "ENV_STORE_DIR",
    "ArtifactStore",
    "ArrayCodec",
    "Codec",
    "RecordCodec",
    "StoreMapping",
    "StoreStats",
    "default_store_root",
    "adc_fingerprint",
    "amplifier_fingerprint",
    "analyzer_fingerprint",
    "campaign_fingerprint",
    "canonical",
    "chip_fingerprint",
    "config_fingerprint",
    "digest",
    "floorplan_fingerprint",
    "psa_fingerprint",
]
