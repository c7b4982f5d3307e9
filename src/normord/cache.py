"""On-disk cache of triangle rows: versioned, diffable plain text.

Only `seq --poly` uses it: `seq --number` sums the rows of
`stirling.stirling_rows` and never reads or writes a file.  One file per
(r, M, n_max) key.  A file is a short self-describing header, one row of
decimal strings per n, and a trailer line `crc32 <8 lowercase hex>` that
holds the CRC-32 of the rows' bytes.  A file whose header, row count,
CRC or trailer does not match, or whose rows hold a byte past ASCII, is
treated as corrupt, reported through the returned warning, and silently
recomputed (and rewritten).
Rendering is deterministic, so a cache hit is byte-identical to a fresh
computation.

The CRC catches accidental corruption: truncation, bit rot, an edited
digit, a foreign file.  It is not authentication: whoever can write the
cache directory can write a file with wrong rows and a matching CRC.

The file is the only place a triangle is staged: `load_triangle` hands
back an iterator that reads the rows one line at a time from a file it
holds open, each row as its line of the file without the newline.  A
miss writes each row to a temp file as `stirling_rows` yields it,
feeding the same bytes to the CRC, moves the file into place once the
last row has passed its S(n, 0) check, and reads it back; a hit reads
the whole body once, in chunks of at most _CHUNK bytes, before the first
row is read.  So peak memory is one row or one chunk, whatever n_max is,
a row's entries are turned into text once, and a row reaches its reader
as one string, never split into entries.
"""

from __future__ import annotations

import os
import zlib
from contextlib import suppress
from io import TextIOWrapper
from itertools import islice
from pathlib import Path

from .stirling import stirling_rows

__all__ = [
    "CACHE_VERSION",
    "default_cache_dir",
    "triangle_path",
    "load_triangle",
    "cache_clear",
]

CACHE_VERSION = 2
_MAGIC = "normord-triangle-cache"
ENV_CACHE_DIR = "NORMORD_CACHE_DIR"
# Bytes a hit's check reads at a time: it never holds the whole body.
_CHUNK = 256 * 1024
_TRAILER_SIZE = len(b"crc32 00000000\n")


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "normord"


def triangle_path(cache_dir: Path, r: int, M: int, n_max: int) -> Path:
    return Path(cache_dir) / f"triangle-v{CACHE_VERSION}-r{r}-M{M}-n{n_max}.txt"


def _header(r: int, M: int, count: int) -> bytes:
    return f"{_MAGIC} {CACHE_VERSION}\nr {r}\nM {M}\nrows {count}\n".encode()


def _trailer(crc: int) -> bytes:
    return b"crc32 %08x\n" % crc


def _row_text(row) -> str:
    """A row of ints as its line of the file, without the newline."""
    return " ".join(map(str, row))


def _lines(rows):
    """One line of the file per row of ints, as bytes."""
    for row in rows:
        yield (_row_text(row) + "\n").encode()


def _open_checked(path: Path, r: int, M: int, n_max: int):
    """Open path, check all of it, and return it positioned at row 0.

    Raises OSError, or ValueError on any defect: the header, n_max + 1
    newline-ended rows of ASCII bytes, the trailer with the CRC-32 of the
    rows, and nothing after it.  The rows are read once, _CHUNK bytes at
    a time.
    """
    fh = open(path, "rb")
    try:
        header = _header(r, M, n_max + 1)
        if fh.read(len(header)) != header:
            raise ValueError("bad header: magic, version, key or row count")
        left = os.fstat(fh.fileno()).st_size - len(header) - _TRAILER_SIZE
        crc = lines = 0
        chunk = b""
        while left > 0:
            chunk = fh.read(min(left, _CHUNK))
            if not chunk:
                raise ValueError("body length mismatch")
            if not chunk.isascii():  # so the rows served afterwards decode
                raise ValueError("a byte past ASCII in the rows")
            crc = zlib.crc32(chunk, crc)
            lines += chunk.count(b"\n")
            left -= len(chunk)
        if lines != n_max + 1 or chunk[-1:] != b"\n":
            raise ValueError("body length mismatch")
        if fh.read(_TRAILER_SIZE + 1) != _trailer(crc):
            raise ValueError("CRC-32 mismatch or bad trailer")
        fh.seek(len(header))
    except BaseException:
        fh.close()
        raise
    return fh


def _file_rows(fh, count: int):
    """Yield count lines of a checked file from its position on, newline cut; then close it."""
    with TextIOWrapper(fh, encoding="ascii", newline="\n") as text:
        for line in islice(text, count):
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
        return _file_rows(_open_checked(path, r, M, n_max), n_max + 1), True, None
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
        fh = open(tmp, "xb+")
        header = _header(r, M, n_max + 1)
        fh.write(header)
        crc = 0
        # drawing the last row runs the S(n, 0) check, so a file that
        # fails it is never moved into place
        for line in _lines(rows):
            crc = zlib.crc32(line, crc)
            fh.write(line)
        fh.write(_trailer(crc))
        fh.flush()
        fh.seek(len(header))
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
        rows = (_row_text(row) for row in stirling_rows(r, M, n_max))
        return rows, False, _write_failed(warning, exc)
    try:
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        warning = _write_failed(warning, exc)
    return _file_rows(fh, n_max + 1), False, warning


def _is_cache_name(name: str) -> bool:
    """True for triangle-v<digits>-r<digits>-M<digits>-n<digits>.txt, any version."""
    if not (name.startswith("triangle-") and name.endswith(".txt")):
        return False
    fields = name[len("triangle-"):-len(".txt")].split("-")
    return len(fields) == 4 and all(
        f[:1] == tag and f[1:].isdigit() and f[1:].isascii()
        for tag, f in zip("vrMn", fields))


def cache_clear(cache_dir: Path | None = None) -> int:
    """Remove this cache's files of every format version; returns the count.

    Only names load_triangle writes, in any version, match; a temp file
    (a leading dot) and every other name are left alone.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    if not cache_dir.is_dir():
        return 0
    removed = 0
    for path in sorted(cache_dir.glob("triangle-v*.txt")):
        if not _is_cache_name(path.name):
            continue
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
