"""On-disk cache of triangle rows: versioned, diffable plain text.

One file per (r, M, n_max) key.  A file is a short self-describing
header followed by one row of decimal strings per n; anything that does
not parse back exactly is treated as corrupt, reported through the
returned warning, and silently recomputed (and rewritten).  Rendering is
deterministic, so a cache hit is byte-identical to a fresh computation.
"""

from __future__ import annotations

import os
from math import factorial
from pathlib import Path

from .stirling import gen_stirling, gen_stirling_rows

__all__ = [
    "CACHE_VERSION",
    "default_cache_dir",
    "triangle_path",
    "compute_triangle",
    "render_triangle",
    "parse_triangle",
    "load_triangle",
    "cache_clear",
]

CACHE_VERSION = 1
_MAGIC = "normord-triangle-cache"
ENV_CACHE_DIR = "NORMORD_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "normord"


def triangle_path(cache_dir: Path, r: int, M: int, n_max: int) -> Path:
    return Path(cache_dir) / f"triangle-v{CACHE_VERSION}-r{r}-M{M}-n{n_max}.txt"


def compute_triangle(r: int, M: int, n_max: int) -> list:
    """Rows n = 0..n_max; row n holds S(n, k) for k = 0..M*n.

    The shared triangle is grown to n_max once and each row copied once.
    A cache hit is never recomputed, so before the rows can reach disk the
    last row's constant term is held to its closed form
    S(n, 0) = prod_{i<=n} (i*r)^M = (n! r^n)^M.
    """
    rows = gen_stirling_rows(r, M, n_max)
    if gen_stirling(r, M, n_max, 0) != (factorial(n_max) * r**n_max) ** M:
        raise ArithmeticError(
            f"S(n={n_max}, k=0) at r={r} M={M} differs from (n! r^n)^M")
    return rows


def render_triangle(r: int, M: int, rows) -> str:
    lines = [
        f"{_MAGIC} {CACHE_VERSION}",
        f"r {r}",
        f"M {M}",
        f"rows {len(rows)}",
    ]
    for row in rows:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_triangle(text: str, r: int, M: int, n_max: int) -> list:
    """Strict inverse of render_triangle; raises ValueError on any defect."""
    lines = text.splitlines()
    if len(lines) < 4:
        raise ValueError("truncated header")
    if lines[0] != f"{_MAGIC} {CACHE_VERSION}":
        raise ValueError("bad magic or version")
    if lines[1] != f"r {r}" or lines[2] != f"M {M}":
        raise ValueError("key mismatch")
    if lines[3] != f"rows {n_max + 1}":
        raise ValueError("row-count mismatch")
    body = lines[4:]
    if len(body) != n_max + 1:
        raise ValueError("body length mismatch")
    rows = []
    for n, line in enumerate(body):
        parts = line.split(" ")
        if len(parts) != M * n + 1:
            raise ValueError(f"row {n} has wrong width")
        try:
            row = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"row {n} holds a non-integer token") from None
        if any(p != str(v) for p, v in zip(parts, row)):
            raise ValueError(f"row {n} is not canonically rendered")
        rows.append(row)
    return rows


def load_triangle(r: int, M: int, n_max: int, cache_dir: Path | None = None):
    """Return (rows, hit, warning).

    hit is True when the rows came from a valid cache file.  A missing
    file is a plain miss; an unreadable or corrupt file additionally
    sets a warning string, and the recomputed rows are written back.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = triangle_path(cache_dir, r, M, n_max)
    warning = None
    if path.exists():
        try:
            return parse_triangle(path.read_text(), r, M, n_max), True, None
        except (OSError, ValueError) as exc:
            warning = f"corrupt cache file {path.name} ({exc}); recomputing"
    rows = compute_triangle(r, M, n_max)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        # a temp name of this writer's own, hidden from cache_clear's glob,
        # so concurrent writers of one key never share a file
        tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(6).hex()}.tmp")
        try:
            with open(tmp, "x") as fh:
                fh.write(render_triangle(r, M, rows))
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
