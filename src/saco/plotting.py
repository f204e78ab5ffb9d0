"""Deterministic SVG scatter plots of patch layouts and selections."""

from __future__ import annotations

from xml.sax.saxutils import escape

from .data import PatchSet, positions
from .errors import InvalidInputError

PALETTE = [
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
    "#aa3377", "#bbbbbb", "#cc6644", "#44aa99", "#882255",
]

_SIZE = 480
_PAD = 36


def _sx(x: float) -> str:
    return f"{_PAD + x * (_SIZE - 2 * _PAD):.2f}"


def _sy(y: float) -> str:
    # flip so y grows upward in the plot
    return f"{_PAD + (1.0 - y) * (_SIZE - 2 * _PAD):.2f}"


def svg_scatter(patches, selected_ids=(), title="patch layout") -> str:
    """Render patches colored by class, selected row positions ringed in black.

    Selected ids are read by ``data.positions``: one that is not a whole number
    in [0, len(patches)) is an error naming its position.
    """
    patches = PatchSet.of(patches)
    if not len(patches):
        raise InvalidInputError("nothing to plot")
    selected = sorted(set(positions("selected id", selected_ids, len(patches)).tolist()))
    labels = patches.labels.tolist()
    classes = sorted(set(labels))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<rect x="{_PAD}" y="{_PAD}" width="{_SIZE - 2 * _PAD}" height="{_SIZE - 2 * _PAD}" '
        f'fill="none" stroke="#888888" stroke-width="1"/>',
        f'<text x="{_PAD}" y="{_PAD - 12}" font-family="monospace" font-size="13">'
        f'{escape(title)}</text>',
    ]
    for (x, y), label in zip(patches.coords.tolist(), labels):
        parts.append(
            f'<circle cx="{_sx(x)}" cy="{_sy(y)}" r="3" '
            f'fill="{PALETTE[label % len(PALETTE)]}" fill-opacity="0.55"/>'
        )
    for x, y in patches.coords[selected].tolist():
        parts.append(
            f'<circle cx="{_sx(x)}" cy="{_sy(y)}" r="6" '
            f'fill="none" stroke="black" stroke-width="1.6"/>'
        )
    for k, c in enumerate(classes):
        y = _PAD + 14 + 16 * k
        parts.append(
            f'<rect x="{_SIZE - _PAD - 66}" y="{y - 9}" width="10" height="10" '
            f'fill="{PALETTE[c % len(PALETTE)]}"/>'
        )
        parts.append(
            f'<text x="{_SIZE - _PAD - 52}" y="{y}" font-family="monospace" '
            f'font-size="12">class {c}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
