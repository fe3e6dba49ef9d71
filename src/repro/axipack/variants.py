"""Adapter variant labels used throughout the paper's figures."""

from __future__ import annotations

#: Fig. 3 x-axis configurations, in plot order.
VARIANT_LABELS: tuple[str, ...] = (
    "MLPnc",
    "MLP8",
    "MLP16",
    "MLP32",
    "MLP64",
    "MLP128",
    "MLP256",
    "SEQ256",
)

#: Fig. 4 subset.
FIG4_VARIANTS: tuple[str, ...] = ("MLPnc", "MLP16", "MLP64", "MLP256", "SEQ256")
