"""Line-oriented structured-text documents used for model files.

The format is intentionally trivial so that model files diff cleanly:
one ``key: value`` line per scalar or vector field, and matrices as a
``key: RxC`` header followed by R indented rows. Floats are written with
``repr`` so every value round-trips bit-exactly; the getters reject NaN and ±inf.
"""

import numpy as np

from .errors import FormatError


def _fmt_floats(values):
    return " ".join(repr(float(v)) for v in values)


def dump(entries):
    """Render ``entries`` (an iterable of (key, value) pairs) to text.

    Values may be str, int, float, 1-D or 2-D arrays.
    """
    lines = []
    for key, value in entries:
        arr = np.asarray(value)
        if arr.ndim == 2:
            lines.append(f"{key}: {arr.shape[0]}x{arr.shape[1]}")
            for row in arr:
                lines.append("  " + _fmt_floats(row))
        elif arr.ndim == 1 and arr.dtype.kind in "iu":
            lines.append(f"{key}: {' '.join(str(int(v)) for v in arr)}")
        elif arr.ndim == 1:
            lines.append(f"{key}: {_fmt_floats(arr)}")
        elif isinstance(value, float) or arr.dtype.kind == "f":
            lines.append(f"{key}: {value!r}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def parse(text):
    """Parse document text into an ordered ``{key: str | ndarray}`` dict.

    Matrix blocks come back as 2-D float arrays; every other value is the
    raw string after the colon (callers convert as needed).
    """
    out = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.startswith(" "):
            raise FormatError(f"unexpected indented line {i}: {line!r}")
        if ":" not in line:
            raise FormatError(f"malformed line {i}: {line!r}")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        shape = _matrix_header(value)
        if shape is not None:
            rows, cols = shape
            block = []
            for r in range(rows):
                if i >= len(lines) or not lines[i].startswith(" "):
                    raise FormatError(f"matrix {key!r} truncated at row {r}")
                entries = lines[i].split()
                if len(entries) != cols:
                    raise FormatError(
                        f"matrix {key!r} row {r} has {len(entries)} entries, expected {cols}"
                    )
                try:
                    block.append([float(v) for v in entries])
                except ValueError:
                    raise FormatError(f"matrix {key!r} row {r} has a non-numeric entry") from None
                i += 1
            out[key] = np.array(block, dtype=float)
        else:
            out[key] = value
    return out


def _matrix_header(value):
    parts = value.split("x")
    if len(parts) != 2:
        return None
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    if rows < 0 or cols < 0:
        return None
    return rows, cols


def get_str(doc, key):
    try:
        value = doc[key]
    except KeyError:
        raise FormatError(f"missing field {key!r}") from None
    if not isinstance(value, str):
        raise FormatError(f"field {key!r} is not scalar text")
    return value


def _finite(key, value):
    if not np.isfinite(value).all():
        raise FormatError(f"field {key!r} holds a non-finite number")
    return value


def get_float(doc, key):
    try:
        return _finite(key, float(get_str(doc, key)))
    except ValueError:
        raise FormatError(f"field {key!r} is not a float") from None


def get_int(doc, key):
    try:
        return int(get_str(doc, key))
    except ValueError:
        raise FormatError(f"field {key!r} is not an integer") from None


def get_vector(doc, key, dtype=float):
    raw = get_str(doc, key)
    if not raw:
        return np.array([], dtype=dtype)
    try:
        return _finite(key, np.array([dtype(v) for v in raw.split()], dtype=dtype))
    except ValueError:
        raise FormatError(f"field {key!r} is not a vector") from None


def get_matrix(doc, key):
    try:
        value = doc[key]
    except KeyError:
        raise FormatError(f"missing field {key!r}") from None
    if isinstance(value, str):
        raise FormatError(f"field {key!r} is not a matrix block")
    return _finite(key, value)
