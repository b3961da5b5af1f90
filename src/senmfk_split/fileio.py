"""File primitives shared by every reader and writer of the package.

Writers go through :func:`atomic_path`, so an artifact on disk is always
either the previous file or the complete new one, never a truncated mix.
Every text input (corpus, stopwords, vocabulary, config file) is read as
strict UTF-8 through :func:`utf8_lines`, one stripped non-blank line at a
time; an undecodable byte is a DataError naming the file and the line.
Only ``\n``, ``\r\n`` and ``\r`` end a line.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .errors import DataError


@contextmanager
def atomic_path(path: str | Path) -> Iterator[Path]:
    """A temporary path beside ``path`` with the same suffix (``X.mtx`` ->
    ``X.tmp.mtx``) to write the new file to.  When the block completes the
    temporary file is renamed over ``path``; if the block raises it is
    removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.stem}.tmp{path.suffix}")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def utf8_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number from 1, line stripped) for every non-blank line of
    ``path``; raises DataError naming the first line that is not UTF-8."""
    # surrogateescape maps each undecodable byte to a lone surrogate, which
    # valid UTF-8 never decodes to, strip never removes, and which cannot be
    # encoded back
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line := line.strip():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise DataError(f"{path}:{lineno}: not UTF-8 text") from exc
                yield lineno, line
