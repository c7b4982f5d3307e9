"""On-disk cache of triangle rows: versioned, diffable plain text.

Only `seq --poly` uses it: `seq --number` sums the rows of
`stirling.stirling_rows` and never reads or writes a file.  One file per
(r, M, n_max) key.  A file is a short self-describing header followed by
one row of decimal strings per n; anything that does not parse back
exactly is treated as corrupt, reported through the returned warning,
and silently recomputed (and rewritten).  Rendering is deterministic, so
a cache hit is byte-identical to a fresh computation.

The file is the only place a triangle is staged: `load_triangle` hands
back an iterator that reads the rows one line at a time from a file it
holds open, each row as its line of the file without the newline.  A
miss writes each row to a temp file as `stirling_rows` yields it, moves
the file into place once the last row has passed its S(n, 0) check, and
reads it back; a hit checks every line of the file before the first row
is read.  So peak memory is one row, whatever n_max is, a row's entries
are turned into text once, and a row reaches its reader as one string,
never split into entries.
"""

from __future__ import annotations

import os
import re
from contextlib import suppress
from pathlib import Path

from .stirling import stirling_rows

__all__ = [
    "CACHE_VERSION",
    "default_cache_dir",
    "triangle_path",
    "load_triangle",
    "cache_clear",
]

CACHE_VERSION = 1
_MAGIC = "normord-triangle-cache"
ENV_CACHE_DIR = "NORMORD_CACHE_DIR"

# One body line: tokens exactly as str(int) renders them (ASCII digits, no
# sign on zero, no leading zero, no "+" or "_"), one space apart.
_ROW_LINE = re.compile(r"(?:0|-?[1-9][0-9]*)(?: (?:0|-?[1-9][0-9]*))*")


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "normord"


def triangle_path(cache_dir: Path, r: int, M: int, n_max: int) -> Path:
    return Path(cache_dir) / f"triangle-v{CACHE_VERSION}-r{r}-M{M}-n{n_max}.txt"


def _header(r: int, M: int, count: int) -> str:
    return f"{_MAGIC} {CACHE_VERSION}\nr {r}\nM {M}\nrows {count}\n"


def _lines(rows):
    """One line of the file per row of ints."""
    for row in rows:
        yield " ".join(map(str, row)) + "\n"


def _open(path: Path, mode: str):
    # newline="\n": no line-end translation, so a line is checked as the
    # bytes hold it
    return open(path, mode, encoding="ascii", newline="\n")


def _open_checked(path: Path, r: int, M: int, n_max: int):
    """Open path, check all of it, and return it positioned at row 0.

    Raises OSError, or ValueError on any defect, a token that is not
    canonical included, so the rows read afterwards are exactly the ones
    `_lines` writes.
    """
    fh = _open(path, "r")
    try:
        if "".join(fh.readline() for _ in range(4)) != _header(r, M, n_max + 1):
            raise ValueError("bad header: magic, version, key or row count")
        start = fh.tell()
        n = -1
        for n, line in enumerate(fh):
            if n > n_max:
                break
            if line[-1:] != "\n" or not _ROW_LINE.fullmatch(line, 0, len(line) - 1):
                raise ValueError(f"row {n} is not canonically rendered")
            if line.count(" ") != M * n:
                raise ValueError(f"row {n} has wrong width")
        if n != n_max:
            raise ValueError("body length mismatch")
        fh.seek(start)
    except BaseException:
        fh.close()
        raise
    return fh


def _file_rows(fh):
    """Yield a checked file's lines from its position on, newline cut; then close it."""
    with fh:
        for line in fh:
            yield line[:-1]


def _write_failed(warning: str | None, exc: OSError) -> str:
    extra = f"cache write failed ({exc})"
    return f"{warning}; {extra}" if warning else extra


def load_triangle(r: int, M: int, n_max: int, cache_dir: Path | None = None):
    """Return (rows, hit, warning); row n is the line of S(n, k), k = 0..M*n.

    A row is one string: the entries in decimal, as str(int) writes
    them, one space apart, with no newline.  rows is a one-pass iterator
    that holds the cache file open until it is drawn to the end or
    closed, so a concurrent `cache clear` or rewrite cannot change the
    bytes it checked.  hit is True when the rows come from a valid cache
    file.  A missing file is a plain miss; an unreadable or corrupt file
    additionally sets a warning string, and the recomputed rows are
    written back.  A miss returns only after every row has been built
    and has passed stirling_rows' S(n, 0) check, and reads the rows back
    from the file it wrote; if the file cannot be written, the rows come
    from a second pass of stirling_rows.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = triangle_path(cache_dir, r, M, n_max)
    warning = None
    try:
        return _file_rows(_open_checked(path, r, M, n_max)), True, None
    except (FileNotFoundError, NotADirectoryError):
        pass
    except (OSError, ValueError) as exc:
        warning = f"corrupt cache file {path.name} ({exc}); recomputing"
    rows = stirling_rows(r, M, n_max)
    tmp = fh = None
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        # a temp name of this writer's own, hidden from cache_clear's glob,
        # so concurrent writers of one key never share a file
        tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(6).hex()}.tmp")
        fh = _open(tmp, "x+")
        fh.write(_header(r, M, n_max + 1))
        start = fh.tell()
        # drawing the last row runs the S(n, 0) check, so a file that
        # fails it is never moved into place
        fh.writelines(_lines(rows))
        fh.flush()
        fh.seek(start)
    except BaseException as exc:
        if fh is not None:
            with suppress(OSError):
                fh.close()
        if tmp is not None:
            tmp.unlink(missing_ok=True)
        if not isinstance(exc, OSError):
            raise
        # finish the first pass, and with it the S(n, 0) check, before
        # any row is handed out
        for _ in rows:
            pass
        rows = (" ".join(map(str, row)) for row in stirling_rows(r, M, n_max))
        return rows, False, _write_failed(warning, exc)
    try:
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        warning = _write_failed(warning, exc)
    return _file_rows(fh), False, warning


def cache_clear(cache_dir: Path | None = None) -> int:
    """Remove this cache's files (matching names only); returns the count."""
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    if not cache_dir.is_dir():
        return 0
    removed = 0
    for path in sorted(cache_dir.glob(f"triangle-v{CACHE_VERSION}-*.txt")):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
