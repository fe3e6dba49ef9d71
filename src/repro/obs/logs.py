"""Stdlib logging wiring for the ``repro`` package.

Every ``src/repro`` module takes its logger the usual way::

    logger = logging.getLogger(__name__)

and stays silent until :func:`logging_setup` attaches a handler to the
``"repro"`` root.  Verbosity maps 0 → WARNING (operational anomalies
only: pool respawns, journal-corruption recomputes, leader failures),
1 → INFO, 2+ → DEBUG.  Records still propagate to the root logger, so
an embedding application's handlers (and pytest's ``caplog``) see them
too.
"""

from __future__ import annotations

import logging
import sys

_FORMAT = "%(asctime)s %(levelname)s %(name)s: %(message)s"

_LEVELS = {0: logging.WARNING, 1: logging.INFO}


class _Handler(logging.StreamHandler):
    """A stream handler that, given no stream of its own, writes to
    whatever ``sys.stderr`` is when it emits — never to a stream that
    was swapped out (and maybe closed) after set-up."""

    def __init__(self, stream=None) -> None:
        logging.Handler.__init__(self)
        self._stream = stream

    @property
    def stream(self):
        return sys.stderr if self._stream is None else self._stream

    @stream.setter
    def stream(self, value) -> None:
        self._stream = value


def logging_setup(verbosity: int = 0, stream=None) -> logging.Logger:
    """Configure the ``repro`` logger tree and return its root.

    Idempotent: reconfigures the existing handler's level/stream rather
    than stacking handlers on repeated calls (serve restarts, tests).
    Without ``stream`` the handler writes to the current ``sys.stderr``.
    """
    level = _LEVELS.get(verbosity, logging.DEBUG)
    root = logging.getLogger("repro")
    root.setLevel(level)
    for handler in root.handlers:
        if isinstance(handler, _Handler):
            handler.setLevel(level)
            if stream is not None:
                handler.setStream(stream)
            return root
    handler = _Handler(stream)
    handler.setLevel(level)
    handler.setFormatter(logging.Formatter(_FORMAT))
    root.addHandler(handler)
    return root
