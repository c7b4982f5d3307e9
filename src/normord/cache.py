"""On-disk cache of triangle rows: versioned, diffable plain text.

Only `seq --poly` uses it: `seq --number` sums the rows of
`stirling.stirling_rows` and never reads or writes a file.  One file per
(r, M, n_max) key.  A file is a short self-describing header followed by
one row of decimal strings per n; anything that does not parse back
exactly is treated as corrupt, reported through the returned warning,
and silently recomputed (and rewritten).  Rendering is deterministic, so
a cache hit is byte-identical to a fresh computation.

Rows leave this module as decimal tokens, the text `str(int)` gives, so
a caller that prints them converts nothing: a miss renders each row to
tokens as `stirling_rows` yields it, and the file is joined from those
tokens; a hit checks the file's text and splits it, with no int() or
str() at all.
"""

from __future__ import annotations

import os
import re
from itertools import chain, repeat
from pathlib import Path

from .stirling import stirling_rows

__all__ = [
    "CACHE_VERSION",
    "default_cache_dir",
    "triangle_path",
    "render_triangle",
    "parse_triangle",
    "load_triangle",
    "cache_clear",
]

CACHE_VERSION = 1
_MAGIC = "normord-triangle-cache"
ENV_CACHE_DIR = "NORMORD_CACHE_DIR"

# One body line: tokens exactly as str(int) renders them (ASCII digits, no
# sign on zero, no leading zero, no "+" or "_"), one space apart.
_ROW_LINE = re.compile(r"(?:0|-?[1-9][0-9]*)(?: (?:0|-?[1-9][0-9]*))*")
# The file is written in slices of this many characters, so the encoded
# copy of a large text is never held whole.
_WRITE_CHUNK = 1 << 20


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "normord"


def triangle_path(cache_dir: Path, r: int, M: int, n_max: int) -> Path:
    return Path(cache_dir) / f"triangle-v{CACHE_VERSION}-r{r}-M{M}-n{n_max}.txt"


def render_triangle(r: int, M: int, rows) -> str:
    """The file text; rows hold ints or their decimal tokens.

    One join over every token and separator: no line of the text is built
    as a string of its own, so the text is the only copy made.  With the
    sliced write in load_triangle this holds a miss's peak memory to the
    tokens and one text; either one alone leaves a second copy at some
    point and the peak as it was.
    """
    parts = [f"{_MAGIC} {CACHE_VERSION}\nr {r}\nM {M}\nrows {len(rows)}\n"]
    for row in rows:
        parts += chain.from_iterable(zip(map(str, row), repeat(" ")))
        parts[-1] = "\n"  # rows are non-empty; the last space ends the line
    return "".join(parts)


def parse_triangle(text: str, r: int, M: int, n_max: int) -> list:
    """Strict inverse of render_triangle, as decimal tokens.

    Raises ValueError on any defect, a token that is not canonical
    included, so the rows returned are exactly the rendered text.
    """
    lines = text.splitlines()
    if len(lines) < 4:
        raise ValueError("truncated header")
    if lines[0] != f"{_MAGIC} {CACHE_VERSION}":
        raise ValueError("bad magic or version")
    if lines[1] != f"r {r}" or lines[2] != f"M {M}":
        raise ValueError("key mismatch")
    if lines[3] != f"rows {n_max + 1}":
        raise ValueError("row-count mismatch")
    rows = lines[4:]
    del text, lines  # from here rows holds the only reference to each line
    if len(rows) != n_max + 1:
        raise ValueError("body length mismatch")
    for n, line in enumerate(rows):
        if not _ROW_LINE.fullmatch(line):
            raise ValueError(f"row {n} is not canonically rendered")
        # each line gives way to its tokens, so the two are never all held
        rows[n] = line.split(" ")
        if len(rows[n]) != M * n + 1:
            raise ValueError(f"row {n} has wrong width")
    return rows


def load_triangle(r: int, M: int, n_max: int, cache_dir: Path | None = None):
    """Return (rows, hit, warning); row n lists S(n, k) as decimal tokens.

    hit is True when the rows came from a valid cache file.  A missing
    file is a plain miss; an unreadable or corrupt file additionally
    sets a warning string, and the recomputed rows are written back.
    On a miss the file is written from the very tokens returned.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = triangle_path(cache_dir, r, M, n_max)
    warning = None
    if path.exists():
        try:
            return parse_triangle(path.read_text(), r, M, n_max), True, None
        except (OSError, ValueError) as exc:
            warning = f"corrupt cache file {path.name} ({exc}); recomputing"
    # each row becomes decimal tokens as it is built, so the int triangle
    # is never held whole; the file is those tokens.  Drawing every row
    # runs stirling_rows' S(n, 0) check before anything is written.
    rows = [list(map(str, row)) for row in stirling_rows(r, M, n_max)]
    text = render_triangle(r, M, rows)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        # a temp name of this writer's own, hidden from cache_clear's glob,
        # so concurrent writers of one key never share a file
        tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(6).hex()}.tmp")
        try:
            with open(tmp, "x") as fh:
                for start in range(0, len(text), _WRITE_CHUNK):
                    fh.write(text[start:start + _WRITE_CHUNK])
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        extra = f"cache write failed ({exc})"
        warning = f"{warning}; {extra}" if warning else extra
    return rows, False, warning


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
