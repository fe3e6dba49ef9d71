"""Paper claims and machine-readable verdicts.

Each headline number the paper reports is one :class:`PaperClaim`:
the experiment that measures it, the summary metric key, the published
value, and a per-claim relative tolerance.  :func:`claim_verdicts`
turns a batch of experiment results into one verdict row per claim —
measured value, relative error, tolerance, pass/fail — which the
result store persists as ``claims.csv`` and ``report --check`` diffs
against the committed run.

Tolerances encode how closely this reproduction is expected to track
the paper *at full scale* (default 60k+ nonzeros per matrix).  The
committed store is a quick-scale canary, so scale-sensitive claims
(peak-bandwidth counts, system speedups) legitimately read ``fail``
there; the verdict table makes that visible instead of hiding it.
"""

from __future__ import annotations

from typing import NamedTuple


class PaperClaim(NamedTuple):
    """One tracked paper number.

    A ``NamedTuple`` so legacy consumers can keep unpacking it as the
    historic ``(experiment, metric, paper)`` triple prefix.
    """

    experiment: str
    metric: str
    paper: float
    #: accepted relative deviation of measured from paper (full scale).
    rel_tol: float = 0.25


#: Every paper number tracked by the report, figure order.
PAPER_CLAIMS: tuple[PaperClaim, ...] = (
    PaperClaim("fig3", "sell_mlpnc_mean_gbps", 2.9),
    PaperClaim("fig3", "sell_mlp256_boost", 8.4),
    PaperClaim("fig3", "csr_mlp256_boost", 8.6, 0.30),
    PaperClaim("fig3", "sell_above_70pct_peak", 12, 0.30),
    PaperClaim("fig3", "sell_seq256_boost_vs_nc", 2.9, 0.30),
    PaperClaim("fig3", "sell_mlp256_vs_seq256", 3.0, 0.25),
    PaperClaim("fig4", "af_shell10_mlp256_index_gbps", 13.2, 0.10),
    PaperClaim("fig4", "af_shell10_mlp256_reqs_per_cycle", 3.3, 0.10),
    PaperClaim("fig4", "seq256_mean_index_gbps", 4.0, 0.10),
    PaperClaim("fig5a", "pack0_speedup_geomean", 2.7, 0.60),
    PaperClaim("fig5a", "pack256_speedup_geomean", 10.0, 0.60),
    PaperClaim("fig5a", "pack256_vs_pack0", 3.0, 0.40),
    PaperClaim("fig5b", "base_util_min_pct", 5.9, 0.15),
    PaperClaim("fig5b", "pack0_util_mean_pct", 65.8, 0.40),
    PaperClaim("fig5b", "pack0_traffic_vs_ideal_mean", 5.6, 0.10),
    PaperClaim("fig5b", "pack256_traffic_vs_ideal_mean", 1.29, 0.10),
    PaperClaim("fig5b", "pack256_util_mean_pct", 61.0, 0.40),
    PaperClaim("fig6a", "coal_kge_w64", 307, 0.01),
    PaperClaim("fig6a", "coal_kge_w128", 617, 0.01),
    PaperClaim("fig6a", "coal_kge_w256", 1035, 0.01),
    PaperClaim("fig6a", "area_mm2_w64", 0.19, 0.01),
    PaperClaim("fig6a", "area_mm2_w256", 0.34, 0.01),
    PaperClaim("fig6b", "onchip_eff_vs_sx_aurora", 1.4, 0.10),
    PaperClaim("fig6b", "onchip_eff_vs_a64fx", 2.6, 0.10),
    PaperClaim("fig6b", "perf_eff_vs_sx_aurora", 1.0, 0.55),
    PaperClaim("fig6b", "perf_eff_vs_a64fx", 0.9, 0.55),
    PaperClaim("table1", "storage_kib", 27.0, 0.05),
)


#: Full-scale corpus-tier claims: the fig3 headline aggregates, restated
#: over the whole synthetic suite (every generator recipe at full
#: scale, not the three-matrix quick canary) with the tighter
#: tolerances appropriate to the larger sample.  The committed
#: ``results/full/`` tier stores these as ``corpus_claims.csv``.
CORPUS_CLAIMS: tuple[PaperClaim, ...] = (
    PaperClaim("corpus", "mlp256_boost_geomean", 8.4, 0.30),
    PaperClaim("corpus", "seq256_boost_vs_nc_geomean", 2.9, 0.35),
    PaperClaim("corpus", "mlp256_vs_seq256_geomean", 3.0, 0.30),
)


def claim_tolerances() -> dict[str, float]:
    """``"experiment.metric" -> rel_tol`` map, recorded in the manifest."""
    return {
        f"{claim.experiment}.{claim.metric}": claim.rel_tol
        for claim in PAPER_CLAIMS
    }


def corpus_claim_tolerances() -> dict[str, float]:
    """Corpus-tier tolerances, recorded in the corpus manifest."""
    return {
        f"{claim.experiment}.{claim.metric}": claim.rel_tol
        for claim in CORPUS_CLAIMS
    }


def _verdict_row(claim: PaperClaim, measured) -> dict:
    """One verdict row: measured vs paper under the claim's tolerance."""
    if isinstance(measured, (int, float)):
        rel_err = (
            abs(measured - claim.paper) / abs(claim.paper)
            if claim.paper
            else abs(measured - claim.paper)
        )
        rel_err = round(rel_err, 4)
        verdict = "pass" if rel_err <= claim.rel_tol else "fail"
    else:
        measured = "n/a"
        rel_err = "n/a"
        verdict = "missing"
    return {
        "experiment": claim.experiment,
        "metric": claim.metric,
        "paper": claim.paper,
        "measured": measured,
        "rel_err": rel_err,
        "rel_tol": claim.rel_tol,
        "verdict": verdict,
    }


def claim_verdicts(results: dict[str, dict]) -> list[dict]:
    """One verdict row per claim against a batch of experiment results.

    ``results`` maps experiment name to its runner output (the
    ``{"rows": ..., "summary": ...}`` dict).  Claims whose experiment
    or metric is absent get ``measured = "n/a"`` and verdict
    ``missing``; the rest get ``pass``/``fail`` against the claim's
    relative tolerance.
    """
    return [
        _verdict_row(
            claim,
            results.get(claim.experiment, {}).get("summary", {}).get(
                claim.metric, "n/a"
            ),
        )
        for claim in PAPER_CLAIMS
    ]


def corpus_claim_verdicts(summary: dict) -> list[dict]:
    """Verdict rows for :data:`CORPUS_CLAIMS` against a corpus summary
    (:func:`repro.report.rollup.corpus_claim_summary`)."""
    return [
        _verdict_row(claim, summary.get(claim.metric, "n/a"))
        for claim in CORPUS_CLAIMS
    ]
