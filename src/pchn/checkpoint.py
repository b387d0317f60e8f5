"""Plain-text weight checkpoints.

Format "PCHN v2": a magic first line, a line naming the network's
activation and whether its weights are tied, then one block per edge
(src, dst) in the net's edge order, read from and written into that
edge's blocks of M, W and b (Network.edge_blocks):

    activation <name> tied <true|false>
    conn <src> <dst> <rows> <cols>
    ... M, row-major, one row per line ...
    ... W, row-major, one row per line ...
    ... b on one line ...

rows/cols are M's shape (dst size by src size); W is stored with shape
(cols, rows).  Values are printed with 17 significant digits, which
round-trips float64 exactly, so save -> load -> save is byte-identical.
"PCHN v1" files, the same without the activation line, still load.
"""

import numpy as np

from .errors import ConstructionError
from .fileio import atomic_write_text

MAGIC = "PCHN v2"
MAGIC_V1 = "PCHN v1"


def _fmt_row(row):
    # one %-template per row formats as "{:.17g}" does per value, faster
    return " ".join(["%.17g"] * len(row)) % tuple(row.tolist())


def _kind(net):
    return ["activation", net.activation.value, "tied", str(net.tied).lower()]


def save_weights(net, path):
    lines = [MAGIC, " ".join(_kind(net))]
    for src, dst, M, W, b, _ in net.edge_blocks():
        rows, cols = M.shape
        lines.append(f"conn {src} {dst} {rows} {cols}")
        lines.extend(_fmt_row(r) for r in (*M, *W, b))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_weights(net, path):
    """Load weights saved by save_weights into net; the activation, the
    tying and the architecture must match the header lines exactly, every
    value must be a finite number, every M and W entry outside the edge
    mask (the diagonal of a self-edge block) must be zero, and a tied
    net's every W block must equal its M block transposed.  The whole
    file, which must be readable text, is checked before any weight is
    written, so a rejected file leaves net as it was."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as e:  # UnicodeDecodeError is a ValueError
        raise ConstructionError(f"{path}: cannot read checkpoint: {e}") from None
    if not lines or lines[0] not in (MAGIC, MAGIC_V1):
        raise ConstructionError(f"{path}: not a {MAGIC} or {MAGIC_V1} checkpoint")
    tokens = " ".join(lines[1:]).split()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(tokens):
            raise ConstructionError(f"{path}: truncated checkpoint")
        out = tokens[pos:pos + n]
        pos += n
        return out

    def floats(n, shape):
        words = take(n)
        try:
            return np.array([float(x) for x in words]).reshape(shape)
        except ValueError as e:
            raise ConstructionError(f"{path}: {e}") from None

    if lines[0] == MAGIC:
        kind = take(4)
        if kind != _kind(net):
            raise ConstructionError(f"{path}: saved from a net with {' '.join(kind)}, "
                                    f"not {' '.join(_kind(net))}")
    edges = list(net.edge_blocks())
    loaded = []
    for k, (src, dst, M, W, b, mask) in enumerate(edges):
        head = take(5)
        if head[0] != "conn":
            raise ConstructionError(f"{path}: expected conn header, got {head[0]!r}")
        rows, cols = M.shape
        if head[1:] != [str(x) for x in (src, dst, rows, cols)]:
            raise ConstructionError(
                f"{path}: edge {k} header {head[1:]} does not match "
                f"architecture ({src}, {dst}, {rows}, {cols})")
        block = (floats(rows * cols, (rows, cols)), floats(cols * rows, (cols, rows)),
                 floats(rows, (rows,)))
        if not all(np.all(np.isfinite(x)) for x in block):
            raise ConstructionError(f"{path}: edge {k} holds a non-finite weight")
        off = mask == 0.0
        if np.any(block[0][off]) or np.any(block[1][off.T]):
            raise ConstructionError(f"{path}: edge {k} holds a weight outside the "
                                    "edge mask, such as a unit predicting itself")
        if net.tied and not np.array_equal(block[1], block[0].T):
            raise ConstructionError(f"{path}: edge {k} has a W that is not M "
                                    "transposed, which a tied net needs")
        loaded.append(block)
    if pos != len(tokens):
        raise ConstructionError(f"{path}: trailing data after last edge")
    for (_, _, M, W, b, _), (M_new, W_new, b_new) in zip(edges, loaded):
        M[...], W[...], b[...] = M_new, W_new, b_new
