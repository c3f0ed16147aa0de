"""ASCII visualization of the die, floorplan and sensor layout.

Text renderings used by the examples and handy for debugging floorplan
changes — a poor man's amoeba view (Figure 2).
"""

from __future__ import annotations

import numpy as np

from .chip.floorplan import Floorplan, Rect
from .errors import FloorplanError

#: Drawing priority (later entries overwrite earlier ones).
_MODULE_GLYPHS = [
    ("clock_tree", "."),
    ("io_ring", "o"),
    ("aes_sbox_bank", "s"),
    ("aes_mixcolumns", "m"),
    ("aes_addroundkey", "a"),
    ("aes_state_regs", "r"),
    ("aes_key_expand", "k"),
    ("aes_round_ctrl", "c"),
    ("uart_core", "u"),
    ("uart_fifo", "U"),
    ("psa_control", "p"),
    ("T1", "1"),
    ("T2", "2"),
    ("T3", "3"),
    ("T4", "4"),
]


def floorplan_map(
    floorplan: Floorplan, width: int = 64, height: int = 32
) -> str:
    """Render the module placement as an ASCII map (y up)."""
    if width < 8 or height < 8:
        raise FloorplanError("map needs at least 8x8 characters")
    canvas = np.full((height, width), " ", dtype="<U1")
    for module, glyph in _MODULE_GLYPHS:
        if module not in floorplan.placements:
            continue
        for rect in floorplan.placements[module]:
            _paint(canvas, rect, glyph, floorplan.die_size)
    rows = ["".join(canvas[row]) for row in range(height - 1, -1, -1)]
    legend = "  ".join(
        f"{glyph}={module}"
        for module, glyph in _MODULE_GLYPHS
        if module in floorplan.placements
    )
    return "\n".join(rows) + "\n" + legend


def score_heatmap(scores: np.ndarray) -> str:
    """Render a 16-sensor score map as a 4x4 heat grid."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (16,):
        raise FloorplanError("score map must have 16 entries")
    glyphs = " .:-=+*#%@"
    lo, hi = float(scores.min()), float(scores.max())
    span = (hi - lo) or 1.0
    lines = []
    for row in range(4):
        cells = []
        for col in range(4):
            value = scores[row * 4 + col]
            level = int((value - lo) / span * (len(glyphs) - 1))
            cells.append(glyphs[level] * 3)
        lines.append(" ".join(cells))
    return "\n".join(lines)


def _to_cells(
    rect: Rect, die: float, width: int, height: int
) -> tuple[int, int, int, int]:
    x0 = int(np.clip(rect.x0 / die * width, 0, width - 1))
    x1 = int(np.clip(np.ceil(rect.x1 / die * width), 1, width))
    y0 = int(np.clip(rect.y0 / die * height, 0, height - 1))
    y1 = int(np.clip(np.ceil(rect.y1 / die * height), 1, height))
    return x0, x1, y0, y1


def _paint(canvas: np.ndarray, rect: Rect, glyph: str, die: float) -> None:
    height, width = canvas.shape
    x0, x1, y0, y1 = _to_cells(rect, die, width, height)
    canvas[y0:y1, x0:x1] = glyph
