# native.py
"""
vesim's compiled kernels: `_native.c`, built with the system C compiler
`cc` on first use, cached per user and loaded with ctypes.

The library holds the FDM step (`fdm._step_numpy`'s twin), the CSV row
writer (`trajectory.write_csv_columns`) and the plot export's field
copier (`runner.emit_plot_data`). Each kernel equals its Python twin bit
for bit; the twins are the tests' oracles, and they run where the
library cannot be built, after one UserWarning that names the reason.
Importing vesim builds, loads and allocates nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import importlib.resources
import os
import shutil
import subprocess
import tempfile
import warnings
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np

# Fixed, so the library's bits do not depend on the environment: no
# fused multiply-add, no -ffast-math, no host-specific instructions
_CC_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-lm")

# The longest float `repr` ("-2.2250738585072014e-308") and int64
_FLOAT_WIDTH, _INT_WIDTH = 24, 20
# vesim_format_rows' column kinds and the int64 entries of each column
_FLOAT, _INT, _LABEL = range(3)
_COL_FIELDS = 7


def _cache_dir() -> Path:
    """$XDG_CACHE_HOME/vesim (default ~/.cache/vesim), or a per-user
    temporary directory when that cannot be written."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    path = Path(root) / "vesim"
    with contextlib.suppress(OSError):
        path.mkdir(parents=True, exist_ok=True)
    if os.access(path, os.W_OK):
        return path
    path = Path(tempfile.gettempdir()) / f"vesim-{os.getuid()}"
    path.mkdir(mode=0o700, exist_ok=True)
    if path.stat().st_uid != os.getuid():
        raise OSError(f"{path} belongs to another user")
    return path


def _build() -> Path:
    """The library of _native.c built with `_CC_FLAGS`.

    Builds it unless the cache already holds a library for this source
    and these flags (those of others stay). Raises OSError or
    CalledProcessError when it cannot be built.
    """
    source = (importlib.resources.files("vesim") / "_native.c").read_bytes()
    key = hashlib.sha256(source + str(_CC_FLAGS).encode()).hexdigest()[:16]
    lib_dir = _cache_dir()
    path = lib_dir / f"_native-{key}.so"
    if not path.exists():
        cc = shutil.which("cc")
        if cc is None:
            raise OSError("no C compiler: cc is not on the PATH")
        # build under a temporary name: other processes may build it too
        fd, tmp = tempfile.mkstemp(dir=lib_dir, prefix=path.name)
        os.close(fd)
        try:
            subprocess.run([cc, "-x", "c", "-", "-o", tmp, *_CC_FLAGS],
                           input=source, capture_output=True, check=True)
            os.replace(tmp, path)
        finally:
            Path(tmp).unlink(missing_ok=True)
    return path


def _pow5_tables() -> tuple[np.ndarray, ...]:
    """vesim_format_rows' exact power-of-5 tables (see shortest_digits)."""
    powers = [5**k for k in range(326)]
    tables = ([(1 << p.bit_length() + 124) // p + 1 for p in powers[:292]],
              [(p << 125) >> p.bit_length() for p in powers])
    return tuple(np.array([(v % 2**64, v >> 64) for v in t], np.uint64)
                 for t in tables)


def _returns_at_least(floor: int):
    """A ctypes errcheck: a return below `floor` is a kernel's failure."""
    def check(result: int, func, args) -> int:
        if result < floor:
            raise RuntimeError(f"{func.__name__} failed ({result})")
        return result
    return check


class Library:
    """The loaded library, every function with its argument types.

    `fdm_steps` is vesim_fdm_steps as a ctypes function (see `fdm`);
    `row_writer` and `field_copier` bind the text kernels to one call's
    columns or input.
    """

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))  # its calls release the GIL
        long, ptr = ctypes.c_long, ctypes.c_void_p
        steps = self.fdm_steps = lib.vesim_fdm_steps
        steps.argtypes = (long, *[ptr] * 6, long, *[ptr] * 4, long, long,
                          long, ctypes.c_int, ctypes.c_double)
        steps.restype = long
        fmt = lib.vesim_format_rows
        fmt.argtypes = (ptr, ptr, long, ptr, long, long, ptr, long)
        fmt.restype, fmt.errcheck = long, _returns_at_least(0)
        self._format_rows = functools.partial(
            fmt, *(table.ctypes for table in _pow5_tables()))
        copy = self._copy_fields = lib.vesim_copy_fields
        copy.argtypes = (ctypes.c_char_p, long, long, long, *[ptr] * 5, long,
                         ptr)
        copy.restype, copy.errcheck = long, _returns_at_least(-1)  # -1 refuses

    def row_writer(self, columns: Sequence,
                   max_rows: int) -> Callable[[int, int], np.ndarray]:
        """vesim_format_rows over `columns`: float64 and int64 arrays
        and lists of labels (str), all of one length n. rows(r0, r1),
        0 <= r0 <= r1 <= min(n, r0 + max_rows), is the rows' text, in a
        buffer the next call overwrites."""
        n = len(columns[0]) if columns else 0
        cols = np.zeros((len(columns), _COL_FIELDS), dtype=np.int64)
        keep, width = [], 1  # the arrays cols points into; the row's "\n"
        for col, values in zip(cols, columns):
            if len(values) != n:
                raise ValueError("columns of unequal length")
            if isinstance(values, np.ndarray):
                if (values.dtype not in (np.float64, np.int64)
                        or values.ndim != 1 or not values.flags.c_contiguous):
                    raise ValueError("a column of the wrong layout")
                is_float = values.dtype == np.float64
                col[:2] = _FLOAT if is_float else _INT, values.ctypes.data
                width += (_FLOAT_WIDTH if is_float else _INT_WIDTH) + 1
                keep.append(values)
                continue
            table = {s: k for k, s in enumerate(dict.fromkeys(values))}
            codes = np.fromiter(map(table.__getitem__, values), np.int64, n)
            encoded = [s.encode() for s in table]
            text = np.frombuffer(b"".join(encoded), dtype=np.uint8)
            offsets = np.cumsum([0, *map(len, encoded)], dtype=np.int64)
            keep += [codes, text, offsets]
            col[:4] = (_LABEL, codes.ctypes.data, text.ctypes.data,
                       offsets.ctypes.data)
            width += max(map(len, encoded), default=0) + 1
        return functools.partial(self._rows, cols, keep, n, max_rows,
                                 np.empty(width * min(n, max_rows),
                                          dtype=np.uint8))

    def _rows(self, cols, keep, n, max_rows, out, r0, r1) -> np.ndarray:
        if not 0 <= r0 <= r1 <= min(n, r0 + max_rows):
            raise ValueError(f"rows [{r0}, {r1}) outside the columns")
        return out[:self._format_rows(len(cols), cols.ctypes.data, r0, r1,
                                      out.ctypes.data, out.size)]

    def field_copier(self, heads: Sequence[bytes], pick: Sequence[int],
                     width: int) -> Callable[[bytes], tuple | None]:
        """vesim_copy_fields for one input of `width` fields: copy(lines)
        is the export's text for whole lines, series k headed heads[k]
        with the t field pick[0] and the value field pick[k + 1], in a
        buffer the next call overwrites, and the number of lines; or
        None where the kernel refuses the lines."""
        if len(pick) != len(heads) + 1 or not all(
                0 <= p < width for p in pick):
            raise ValueError("picked fields outside the input's width")
        pick = np.array(pick, dtype=np.int64)
        offsets = np.cumsum([0, *map(len, heads)], dtype=np.int64)
        per_line = int(offsets[-1]) + 4 * len(heads)
        pos, n_lines = np.empty(width + 1, dtype=np.int64), np.zeros(1, int)
        # ndarray.ctypes passes the address and keeps the array alive
        args = (width, len(pick), pick.ctypes, b"".join(heads),
                offsets.ctypes, pos.ctypes)
        out = np.empty(0, dtype=np.uint8)

        def copy(lines: bytes) -> tuple[np.ndarray, int] | None:
            nonlocal out
            # a line holds width - 1 commas and its end; its t and a
            # value field are at most the line twice
            cap = ((len(lines) // (width + 1) + 1) * per_line
                   + 2 * len(heads) * len(lines))
            if out.size < cap:
                out = np.empty(cap, dtype=np.uint8)
            n = self._copy_fields(lines, len(lines), *args, out.ctypes,
                                  out.size, n_lines.ctypes)
            return None if n == -1 else (out[:n], int(n_lines[0]))
        return copy


def _select() -> Library | None:
    """The library, or None with one UserWarning saying why."""
    try:
        return Library(_build())
    except (OSError, subprocess.CalledProcessError) as exc:
        # a failed build's reason is the compiler's first message
        err = getattr(exc, "stderr", b"").decode(errors="replace")
        reason = err.split("\n")[0] or exc
        warnings.warn(
            f"vesim: cannot build the compiled kernels ({reason}); running "
            "their Python twins: the FDM step 20 to 200 times slower, "
            "the CSV writer 7 and the plot export 5 times slower",
            UserWarning, stacklevel=2)
        return None


# Built and loaded on first use, never at import
library = functools.cache(_select)
