"""Request canonicalization and the job-key contract.

Every request the sweep service accepts is a JSON object with a
``cmd`` discriminator:

* ``{"cmd": "sweep", "matrices": [...], "variants": [...], ...}`` —
  an ad-hoc engine sweep through any registered backend kind (the
  JSON twin of ``python -m repro sweep``);
* ``{"cmd": "experiment", "name": "fig3", "quick": true}`` — one
  registered experiment runner, servable straight from the committed
  result store when the store manifest matches the resolved
  configuration;
* ``{"cmd": "corpus", "corpus": "quick", ...}`` — a registered matrix
  corpus (:mod:`repro.sparse.corpus`) swept offline through the corpus
  runner, rows streaming per completed entry.  The job key embeds the
  corpus *digest*, so editing a manifest's entry set splits the key.

:func:`canonicalize` turns such a payload into a frozen request
object: defaults are filled in, list fields become tuples, comma
strings are split, and unknown fields, matrices and variants are
rejected with :class:`~repro.errors.ServeError` — before ``accepted``,
so a bad name never reaches the engine.  The point is the **job key**
(:attr:`SweepRequest.job_key`): two payloads that differ only in JSON
field order or in spelling out a defaulted knob canonicalize to the
*same* key, and the key is built from exactly the identity the engine
already dedups on — a sweep key is the set of
:attr:`~repro.engine.points.SweepPoint.row_key` inputs (kind,
matrices, variants, formats, scale, model), an experiment key is the
identity subset of the store manifest (name, scale, model, matrices).
Single-flight dedup and the response cache (:mod:`repro.serve.jobs`)
both hang off this key.

``python -m repro`` builds the same payloads from its command lines,
so the CLI and the service validate every job-identity knob here, and
each request computes through its own methods
(:meth:`SweepRequest.points`, :meth:`ExperimentRequest.run`,
:meth:`CorpusRequest.runner`) whichever front end received it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from ..axipack.streams import FORMATS
from ..engine import get_backend, grid_points, index_stream_kinds, registered_kinds
from ..errors import ReproError, ServeError
from ..experiments.common import QUICK_MATRICES, QUICK_NNZ
from ..report.runner import PARAMLESS, RUNNERS
from ..sparse.suite import DEFAULT_MAX_NNZ, get_spec

#: Backend kinds whose grids take a traversal-format axis; for any
#: other kind a ``formats`` field is rejected rather than silently
#: ignored (it would split otherwise-identical job keys).
KINDS_WITH_FORMATS = index_stream_kinds()

_SWEEP_FIELDS = frozenset(
    {"cmd", "kind", "matrices", "variants", "formats", "max_nnz", "model", "quick"}
)
_EXPERIMENT_FIELDS = frozenset(
    {"cmd", "name", "matrices", "max_nnz", "model", "quick"}
)
_CORPUS_FIELDS = frozenset(
    {"cmd", "corpus", "kind", "variants", "fmt", "max_nnz", "model", "quick"}
)


@dataclass(frozen=True)
class SweepRequest:
    """A canonical ad-hoc sweep: one grid through one backend kind."""

    kind: str
    matrices: tuple[str, ...]
    variants: tuple[str, ...]
    formats: tuple[str, ...]
    max_nnz: int
    model: str

    @property
    def job_key(self) -> tuple:
        return (
            "sweep", self.kind, self.matrices, self.variants, self.formats,
            self.max_nnz, self.model,
        )

    def points(self) -> list:
        """The request's grid, built through the backend registry."""
        return grid_points(
            self.kind, self.matrices, self.variants, self.formats,
            self.max_nnz, self.model,
        )

    def chunks(self, executor) -> Iterator[list[dict]]:
        """Result rows per completed matrix group, in completion order
        (``executor.run(self.points())`` is the input-ordered table)."""
        for _key, _variants, rows in executor.run_stream(self.points()):
            yield rows


@dataclass(frozen=True)
class ExperimentRequest:
    """A canonical experiment-runner request (one figure/table)."""

    name: str
    scale_nnz: int
    model: str
    matrices: tuple[str, ...] | None

    @property
    def paramless(self) -> bool:
        return self.name in PARAMLESS

    @property
    def job_key(self) -> tuple:
        if self.paramless:
            return ("experiment", self.name)
        return ("experiment", self.name, self.scale_nnz, self.model, self.matrices)

    def run(self, executor) -> dict:
        """Run the registered runner on ``executor``; returns its
        ``rows`` and ``summary`` (paramless runners take no engine)."""
        if self.paramless:
            return RUNNERS[self.name]()
        kwargs: dict = {
            "max_nnz": self.scale_nnz, "model": self.model, "executor": executor,
        }
        if self.matrices is not None:
            kwargs["matrices"] = self.matrices
        return RUNNERS[self.name](**kwargs)

    def chunks(self, executor) -> Iterator[list[dict]]:
        yield self.run(executor)["rows"]


@dataclass(frozen=True)
class CorpusRequest:
    """A canonical corpus sweep: one variant set over a named corpus.

    ``digest`` is the corpus's entry-identity digest, resolved at
    canonicalization — two requests naming the same corpus share a key
    only while the corpus's entry set is unchanged.  Corpus jobs always
    run offline (only cached/local matrices); enabling fetches is a CLI
    decision, not a wire-request one.
    """

    corpus: str
    digest: str
    kind: str
    variants: tuple[str, ...]
    fmt: str
    max_nnz: int
    model: str

    @property
    def job_key(self) -> tuple:
        return (
            "corpus", self.corpus, self.digest, self.kind, self.variants,
            self.fmt, self.max_nnz, self.model,
        )

    def runner(self, executor, **options):
        """A :class:`~repro.corpus.CorpusRunner` for this sweep;
        ``options`` are the run's non-identity settings (store, matrix
        cache, fetching, ...), which the CLI sets and the service
        leaves at their defaults."""
        from ..corpus import CorpusRunner
        from ..sparse.corpus import get_corpus

        return CorpusRunner(
            get_corpus(self.corpus),
            executor=executor,
            kind=self.kind,
            variants=self.variants,
            fmt=self.fmt,
            max_nnz=self.max_nnz,
            model=self.model,
            **options,
        )

    def chunks(self, executor) -> Iterator[list[dict]]:
        # Ephemeral (no journal/store): the service's own cache layers
        # provide the warm path for repeated corpus jobs.
        for _entry, _status, rows, _slug in self.runner(executor).iter_groups():
            if rows:
                yield rows


Request = SweepRequest | ExperimentRequest | CorpusRequest


def _str_tuple(payload: dict, field: str, default=None) -> tuple[str, ...] | None:
    """A tuple-of-names field: list/tuple of strings, or one
    comma-separated string (the CLI's spelling, handy under curl)."""
    if field not in payload:
        return default
    value = payload[field]
    if isinstance(value, str):
        value = [part for part in value.split(",") if part]
    if not isinstance(value, (list, tuple)) or not value or not all(
        isinstance(item, str) and item for item in value
    ):
        raise ServeError(f"{field} must be a non-empty list of names")
    return tuple(value)


def _int_field(payload: dict, field: str, default=None, minimum: int = 1):
    if field not in payload:
        return default
    value = payload[field]
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ServeError(f"{field} must be an integer >= {minimum}")
    return value


def _bool_field(payload: dict, field: str) -> bool:
    value = payload.get(field, False)
    if not isinstance(value, bool):
        raise ServeError(f"{field} must be a boolean")
    return value


def _model_field(payload: dict) -> str:
    model = payload.get("model", "fast")
    if model not in ("fast", "cycle"):
        raise ServeError(f"unknown adapter model {model!r}; expected fast or cycle")
    return model


def _resolve(lookup, *names):
    """``lookup(*names)`` (a corpus, suite or backend name lookup), its
    failure raised as a ServeError (OSError: an over-long corpus path)."""
    try:
        return lookup(*names)
    except (ReproError, OSError) as exc:
        raise ServeError(str(exc)) from exc


def _check_fields(payload: dict, allowed: frozenset) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ServeError(
            f"unknown request fields {unknown}; allowed: {sorted(allowed)}"
        )


def canonicalize(payload) -> Request:
    """Validate a request payload into its canonical frozen form.

    Raises :class:`~repro.errors.ServeError` on anything malformed.
    Canonicalization is *total* on the job identity: every knob that
    affects the result is resolved here (defaults included), so two
    requests that would compute the same rows share one
    :attr:`~SweepRequest.job_key`.
    """
    if not isinstance(payload, dict):
        raise ServeError("request must be a JSON object")
    cmd = payload.get("cmd", "sweep")
    if cmd == "sweep":
        return _canonicalize_sweep(payload)
    if cmd == "experiment":
        return _canonicalize_experiment(payload)
    if cmd == "corpus":
        return _canonicalize_corpus(payload)
    raise ServeError(
        f"unknown cmd {cmd!r}; expected sweep, experiment or corpus"
    )


def _canonicalize_sweep(payload: dict) -> SweepRequest:
    _check_fields(payload, _SWEEP_FIELDS)
    kind = payload.get("kind", "adapter")
    if kind not in registered_kinds():
        raise ServeError(
            f"unknown sweep backend {kind!r}; "
            f"registered: {', '.join(registered_kinds())}"
        )
    matrices = _str_tuple(payload, "matrices")
    variants = _str_tuple(payload, "variants")
    if matrices is None or variants is None:
        raise ServeError("sweep requests need matrices and variants")
    if kind in KINDS_WITH_FORMATS:
        formats = _str_tuple(payload, "formats", default=("sell",))
        unknown = [fmt for fmt in formats if fmt not in FORMATS]
        if unknown:
            raise ServeError(
                f"unknown formats {unknown}; expected {', '.join(FORMATS)}"
            )
    elif "formats" in payload:
        raise ServeError(f"formats does not apply to kind {kind!r}")
    else:
        formats = ()
    quick = _bool_field(payload, "quick")
    max_nnz = _int_field(
        payload, "max_nnz",
        default=QUICK_NNZ if quick else DEFAULT_MAX_NNZ, minimum=1000,
    )
    model = _model_field(payload)
    _resolve(get_backend(kind).check_names, matrices, variants)
    return SweepRequest(
        kind=kind, matrices=matrices, variants=variants, formats=formats,
        max_nnz=max_nnz, model=model,
    )


def _canonicalize_experiment(payload: dict) -> ExperimentRequest:
    _check_fields(payload, _EXPERIMENT_FIELDS)
    name = payload.get("name")
    if not isinstance(name, str) or name not in RUNNERS:
        raise ServeError(
            f"unknown experiment {name!r}; registered: {', '.join(RUNNERS)}"
        )
    quick = _bool_field(payload, "quick")
    if name in PARAMLESS:
        if any(field in payload for field in ("matrices", "max_nnz")) or quick:
            raise ServeError(f"{name} has no matrix grid; scale knobs do not apply")
        # model/scale slots are fixed for paramless runners; they are
        # excluded from the job key.
        return ExperimentRequest(
            name=name, scale_nnz=0, model="fast", matrices=None
        )
    matrices = _str_tuple(
        payload, "matrices", default=QUICK_MATRICES if quick else None
    )
    scale = _int_field(
        payload, "max_nnz",
        default=QUICK_NNZ if quick else DEFAULT_MAX_NNZ, minimum=1000,
    )
    model = _model_field(payload)
    for matrix in matrices or ():
        _resolve(get_spec, matrix)
    return ExperimentRequest(
        name=name, scale_nnz=scale, model=model, matrices=matrices,
    )


def _canonicalize_corpus(payload: dict) -> CorpusRequest:
    from ..corpus import CORPUS_KINDS, DEFAULT_VARIANTS
    from ..sparse.corpus import get_corpus

    _check_fields(payload, _CORPUS_FIELDS)
    name = payload.get("corpus", "quick")
    if not isinstance(name, str) or not name:
        raise ServeError("corpus must be a corpus name")
    corpus = _resolve(get_corpus, name)
    kind = payload.get("kind", "adapter")
    if kind not in CORPUS_KINDS:
        raise ServeError(
            f"corpus sweeps support kinds {', '.join(CORPUS_KINDS)}, "
            f"not {kind!r}"
        )
    fmt = payload.get("fmt", "sell")
    if fmt not in FORMATS:
        raise ServeError(
            f"fmt must be a format name ({', '.join(FORMATS)}), not {fmt!r}"
        )
    quick = _bool_field(payload, "quick")
    max_nnz = _int_field(
        payload, "max_nnz",
        default=QUICK_NNZ if quick else DEFAULT_MAX_NNZ, minimum=1000,
    )
    variants = _str_tuple(payload, "variants", default=DEFAULT_VARIANTS)
    model = _model_field(payload)
    _resolve(get_backend(kind).check_names, (), variants)
    return CorpusRequest(
        corpus=name,
        digest=corpus.digest,
        kind=kind,
        variants=variants,
        fmt=fmt,
        max_nnz=max_nnz,
        model=model,
    )


def json_default(value):
    """``json.dumps(..., default=json_default)`` hook for engine rows —
    NumPy scalars (and arrays, defensively) serialise as their Python
    equivalents so streamed rows round-trip as plain JSON numbers."""
    import numpy as np

    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")
