"""Atomic text output used by checkpoints, CSV writers, and the CLI."""

import os


def atomic_write_text(path, text):
    """Write text, a str or ASCII bytes, to path via a temp file + rename
    so readers never see a half-written file; bytes are written as they
    are.  A failed write removes the temp file and re-raises, leaving
    path as it was."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb" if isinstance(text, bytes) else "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
