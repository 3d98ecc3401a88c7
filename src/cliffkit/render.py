"""Deterministic 2-D molecule depictions with attribution coloring.

Coordinates come from a seeded force-directed embedding; the seed is
derived from the compound id, so a given compound always lands in the
same pose regardless of which run produced the picture. Atom fills use
a symmetric diverging scale (blue, white, red) normalized per compound
by the maximum absolute value.
"""

from __future__ import annotations

import functools
import hashlib
import html

import numpy as np

from .molgraph import DOUBLE, MolecularGraph, TRIPLE, AROMATIC

_COLD = (49, 104, 187)
_WARM = (197, 44, 39)
_NEUTRAL = (247, 247, 247)

_CANVAS = 420.0
_MARGIN = 46.0
_ATOM_RADIUS = 15.0
_LAYOUT_ITERATIONS = 220


def layout_seed(compound_id: str) -> int:
    digest = hashlib.sha256(compound_id.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@functools.lru_cache(maxsize=1024)
def spring_layout(graph: MolecularGraph, compound_id: str) -> np.ndarray:
    """Fruchterman-Reingold embedding, float64, fully seeded.

    The layout depends only on its arguments, so it is computed once per
    graph and compound id and shared: the returned array is read-only.
    """
    n = graph.num_atoms
    rng = np.random.default_rng(layout_seed(compound_id))
    pos = rng.uniform(-1.0, 1.0, size=(n, 2))
    if n == 1:
        pos = np.zeros((1, 2))
        pos.flags.writeable = False
        return pos
    k = 1.0 / np.sqrt(n)
    edges = np.array([(b.i, b.j) for b in graph.bonds], dtype=np.int64).reshape(-1, 2)
    temperature = 0.18
    cooling = temperature / _LAYOUT_ITERATIONS
    for _ in range(_LAYOUT_ITERATIONS):
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((delta * delta).sum(axis=2))
        np.fill_diagonal(dist, 1.0)
        repulse = (k * k / dist**2)[:, :, None] * delta
        np.fill_diagonal(repulse[:, :, 0], 0.0)
        np.fill_diagonal(repulse[:, :, 1], 0.0)
        force = repulse.sum(axis=1)
        if edges.size:
            span = pos[edges[:, 0]] - pos[edges[:, 1]]
            span_len = np.sqrt((span * span).sum(axis=1, keepdims=True))
            span_len = np.where(span_len == 0.0, 1e-9, span_len)
            pull = span * span_len / k
            np.add.at(force, edges[:, 0], -pull)
            np.add.at(force, edges[:, 1], pull)
        norms = np.sqrt((force * force).sum(axis=1, keepdims=True))
        norms = np.where(norms == 0.0, 1e-9, norms)
        pos = pos + force / norms * np.minimum(norms, temperature)
        temperature = max(temperature - cooling, 1e-3)
    pos = pos - pos.mean(axis=0)
    spread = np.abs(pos).max()
    if spread > 0:
        pos = pos / spread
    pos.flags.writeable = False
    return pos


def _to_canvas(pos: np.ndarray) -> np.ndarray:
    half = (_CANVAS - 2.0 * _MARGIN) / 2.0
    return pos * half + _CANVAS / 2.0


def diverging_color(value: float, vmax: float) -> str:
    """Blue for negative, white for zero, red for positive, clipped at vmax."""
    if vmax <= 0:
        t = 0.0
    else:
        t = max(-1.0, min(1.0, value / vmax))
    anchor = _WARM if t >= 0 else _COLD
    a = abs(t)
    channels = tuple(round(n + (c - n) * a) for n, c in zip(_NEUTRAL, anchor))
    return f"rgb({channels[0]},{channels[1]},{channels[2]})"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_molecule_svg(
    graph: MolecularGraph,
    values: np.ndarray,
    compound_id: str,
    title: str,
    manifest_hash: str = "",
) -> str:
    """One annotated molecule as a standalone SVG document string."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (graph.num_atoms,):
        raise ValueError(f"need one value per atom, got {values.shape}")
    pos = _to_canvas(spring_layout(graph, compound_id))
    vmax = float(np.abs(values).max()) if values.size else 0.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS:.0f}" '
        f'height="{_CANVAS:.0f}" viewBox="0 0 {_CANVAS:.0f} {_CANVAS:.0f}">',
        f"<!-- manifest:{manifest_hash} -->",
        f'<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{_CANVAS / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{html.escape(title, quote=False)}</text>',
    ]
    for bond in graph.bonds:
        x1, y1 = pos[bond.i]
        x2, y2 = pos[bond.j]
        dx, dy = x2 - x1, y2 - y1
        length = max(np.hypot(dx, dy), 1e-9)
        ox, oy = -dy / length * 2.6, dx / length * 2.6
        style = 'stroke="#555" stroke-width="2"'
        if bond.order == DOUBLE:
            offsets = (-1.0, 1.0)
        elif bond.order == TRIPLE:
            offsets = (-1.6, 0.0, 1.6)
        else:
            offsets = (0.0,)
        dash = ' stroke-dasharray="6,3"' if bond.order == AROMATIC else ""
        for o in offsets:
            parts.append(
                f'<line x1="{_fmt(x1 + ox * o)}" y1="{_fmt(y1 + oy * o)}" '
                f'x2="{_fmt(x2 + ox * o)}" y2="{_fmt(y2 + oy * o)}" {style}{dash}/>'
            )
    for idx, atom in enumerate(graph.atoms):
        x, y = pos[idx]
        fill = diverging_color(float(values[idx]), vmax)
        label = atom.element.lower() if atom.aromatic else atom.element
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_ATOM_RADIUS:.0f}" '
            f'fill="{fill}" stroke="#222" stroke-width="1.2">'
            f"<title>atom {idx}: {values[idx]!r}</title></circle>"
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 4.5)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
