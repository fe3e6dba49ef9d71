"""Persistent result store + diffable EXPERIMENTS.md regeneration.

The reporting layer between the sweep engine and the repository's
committed evaluation document:

* :mod:`repro.report.store` — :class:`ResultStore`: schema-versioned
  CSV tables + a JSON run manifest, written byte-deterministically;
* :mod:`repro.report.claims` — :data:`PAPER_CLAIMS` with per-claim
  tolerances and :func:`claim_verdicts` (pass/fail records);
* :mod:`repro.report.render` — :func:`render_document`, the
  deterministic EXPERIMENTS.md renderer (store in, markdown out);
* :mod:`repro.report.runner` — :func:`run_report`,
  :func:`render_report` and :func:`check_report` behind
  ``python -m repro report run|render|check``.

The committed reference lives in ``results/store/`` + ``EXPERIMENTS.md``
(quick scale); ``check_report`` re-runs the committed configuration and
fails on any table, verdict, manifest, or document drift.
"""

from .claims import PAPER_CLAIMS, PaperClaim, claim_tolerances, claim_verdicts
from .render import EXPERIMENT_ORDER, EXPERIMENT_TITLES, render_document
from .runner import (
    DEFAULT_DOC_PATH,
    DEFAULT_STORE_DIR,
    FULL_DOC_PATH,
    FULL_STORE_DIR,
    check_report,
    render_report,
    run_report,
)
from .store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    format_cell,
    manifest_identity,
    parse_cell,
)

__all__ = [
    "PAPER_CLAIMS",
    "PaperClaim",
    "claim_tolerances",
    "claim_verdicts",
    "EXPERIMENT_ORDER",
    "EXPERIMENT_TITLES",
    "render_document",
    "DEFAULT_DOC_PATH",
    "DEFAULT_STORE_DIR",
    "FULL_DOC_PATH",
    "FULL_STORE_DIR",
    "check_report",
    "render_report",
    "run_report",
    "STORE_SCHEMA_VERSION",
    "ResultStore",
    "format_cell",
    "manifest_identity",
    "parse_cell",
]
