"""The paper's 20-matrix evaluation suite (Sec. III).

Each :class:`MatrixSpec` records the published SuiteSparse/HPCG
dimensions and maps the matrix onto one of the synthetic structure
generators in :mod:`repro.sparse.generators`.  ``get_matrix`` accepts a
``max_nnz`` budget: matrices larger than the budget are *scaled down* by
reducing the row count while keeping row lengths and absolute column
locality, which preserves the per-window coalescing statistics the
adapter responds to (see README.md, "Model fidelity").

Results are memoised per (name, max_nnz) because suite sweeps touch the
same matrices repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from ..errors import ExperimentError
from . import generators
from .csr import CsrMatrix


@dataclass(frozen=True)
class MatrixSpec:
    """Published shape plus synthetic structure recipe for one matrix."""

    name: str
    #: published row/column count (square matrices throughout the suite).
    n: int
    #: published nonzero count.
    nnz: int
    #: structure class (documentation + generator dispatch).
    kind: str
    #: generator keyword arguments (excluding n and seed).
    params: dict

    @property
    def avg_row(self) -> float:
        return self.nnz / self.n


def _spec(name: str, n: int, nnz: int, kind: str, **params) -> MatrixSpec:
    return MatrixSpec(name, n, nnz, kind, params)


#: The twenty matrices of the paper's evaluation, in Fig. 3 order.
#: Dimensions follow the published SuiteSparse collection / HPCG sizes.
PAPER_SUITE: tuple[MatrixSpec, ...] = (
    _spec("af_shell10", 1_508_065, 52_259_885, "banded_fem",
          avg_row=34.7, band=700, run=8),
    _spec("adaptive", 6_815_744, 27_248_640, "mesh",
          avg_row=4.0, spread=1200.0),
    _spec("BenElechi1", 245_874, 13_150_496, "banded_fem",
          avg_row=53.5, band=900, run=10),
    _spec("bone010", 986_703, 47_851_783, "banded_fem",
          avg_row=48.5, band=3000, run=8),
    _spec("circuit5M_dc", 3_523_317, 14_865_409, "circuit",
          avg_row=4.2, local_band=96, num_hubs=6, hub_prob=0.06, far_prob=0.18),
    _spec("HPCG", 1_124_864, 29_791_000, "stencil", points=27),
    _spec("nlpkkt120", 3_542_400, 50_194_096, "kkt",
          avg_row=14.2, band=420),
    _spec("pwtk", 217_918, 11_524_432, "banded_fem",
          avg_row=52.9, band=400, run=10),
    _spec("Dubcova1", 16_129, 253_009, "banded_fem",
          avg_row=15.7, band=260, run=5),
    _spec("exdata_1", 6_001, 2_269_500, "dense_block", avg_row=378.0),
    _spec("F1", 343_791, 26_837_113, "banded_fem",
          avg_row=78.1, band=2600, run=9),
    _spec("fv1", 9_604, 85_264, "stencil", points=9),
    _spec("G3_circuit", 1_585_478, 7_660_826, "circuit",
          avg_row=4.8, local_band=48, num_hubs=3, hub_prob=0.03, far_prob=0.03),
    _spec("hood", 220_542, 9_895_422, "banded_fem",
          avg_row=44.9, band=600, run=10),
    _spec("msc01440", 1_440, 44_998, "dense_block", avg_row=31.2),
    _spec("msc10848", 10_848, 1_229_776, "dense_block", avg_row=113.4),
    _spec("Na5", 5_832, 305_630, "banded_fem",
          avg_row=52.4, band=500, run=10),
    _spec("nasa4704", 4_704, 104_756, "banded_fem",
          avg_row=22.3, band=240, run=7),
    _spec("s2rmq4m1", 5_489, 263_351, "banded_fem",
          avg_row=48.0, band=240, run=10),
    _spec("thermal2", 1_228_045, 8_580_313, "mesh",
          avg_row=7.0, spread=700.0),
)

#: The six representative matrices of the paper's deep-dive figures
#: (Figs. 4 and 5).
FIG4_MATRICES: tuple[str, ...] = (
    "af_shell10",
    "adaptive",
    "circuit5M_dc",
    "HPCG",
    "pwtk",
    "G3_circuit",
)

#: The three matrices called out in Fig. 6b.
FIG6B_MATRICES: tuple[str, ...] = ("af_shell10", "pwtk", "BenElechi1")

_BY_NAME = {spec.name: spec for spec in PAPER_SUITE}

#: Default nonzero budget for scaled instantiation (laptop-friendly).
DEFAULT_MAX_NNZ = 60_000

#: Generator seed behind every suite matrix; recorded in the report
#: store's run manifest so stored tables name their full provenance.
SUITE_SEED = 2024

#: Engine matrix-name scheme for cached corpus artifacts
#: (:mod:`repro.sparse.corpus` builds and loads them); the engine tells
#: the two namespaces apart here, without loading corpus ingest.
CORPUS_NAME_PREFIX = "corpus:"


def is_corpus_name(name: str) -> bool:
    """Whether ``name`` names a cached corpus artifact, not a suite
    matrix."""
    return name.startswith(CORPUS_NAME_PREFIX)


def list_matrices() -> list[str]:
    """Names of the twenty suite matrices, in Fig. 3 order."""
    return [spec.name for spec in PAPER_SUITE]


def get_spec(name: str) -> MatrixSpec:
    """Look up a suite matrix's published metadata."""
    if name not in _BY_NAME:
        raise ExperimentError(
            f"unknown suite matrix {name!r}; known: {', '.join(_BY_NAME)}"
        )
    return _BY_NAME[name]


def _scaled_n(spec: MatrixSpec, max_nnz: int) -> int:
    if spec.nnz <= max_nnz:
        return spec.n
    target_rows = int(max_nnz / spec.avg_row)
    return max(256, min(spec.n, target_rows))


def _build(spec: MatrixSpec, n: int, seed: int) -> CsrMatrix:
    builder: Callable[..., CsrMatrix]
    params = dict(spec.params)
    if spec.kind == "stencil":
        points = params.pop("points")
        if points == 27:
            side = max(4, round(n ** (1.0 / 3.0)))
            return generators.stencil(side, side, side, points=27, seed=seed)
        side = max(4, round(n ** 0.5))
        return generators.stencil(side, side, 1, points=points, seed=seed)
    builder = getattr(generators, spec.kind)
    return builder(n, seed=seed, **params)


@lru_cache(maxsize=64)
def get_matrix(
    name: str,
    max_nnz: int = DEFAULT_MAX_NNZ,
    seed: int = SUITE_SEED,
) -> CsrMatrix:
    """Instantiate a suite matrix, scaled to at most ``max_nnz``
    nonzeros (pass a large budget for full published size)."""
    spec = get_spec(name)
    n = _scaled_n(spec, max_nnz)
    return _build(spec, n, seed)


def suite_summary(max_nnz: int = DEFAULT_MAX_NNZ) -> list[dict]:
    """One row per matrix: published vs instantiated shape."""
    rows = []
    for spec in PAPER_SUITE:
        matrix = get_matrix(spec.name, max_nnz)
        rows.append(
            {
                "name": spec.name,
                "kind": spec.kind,
                "published_n": spec.n,
                "published_nnz": spec.nnz,
                "n": matrix.nrows,
                "nnz": matrix.nnz,
                "avg_row": round(matrix.avg_row_length, 1),
            }
        )
    return rows
