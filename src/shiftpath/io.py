"""Config loading and deterministic output writers for the command line tool.

Config files are JSON with the shape

    {
      "k": 2,
      "matrix": [[1, 1], [1, 0]],
      "V": {"depth": 1, "values": {"1": 1.0, "2": 1.0}},
      "mu0": "auto",
      "filter": {"depth": 1, "values": {"1": [0.6, 0.8], "2": 1.0}}
    }

Only "k" and "matrix" are mandatory.  Cylinder tables are keyed by the
word written as a digit string (hence k <= 9), must list every
admissible word of the stated depth and nothing else; every table but the
filter is real and nonnegative, which `parse_table` checks once.  "mu0" is either
"auto" (solve for the fixed density) or a density table against the
strongly invariant base measure, whose total mass must be a normal
float64 (at least about 2.2e-308).  Filter values may be numbers or
[real, imag] pairs.  "marginal_override", {"n": n, "depth": d, "masses":
table}, substitutes a raw measure for level n of the path family, which
is only useful for feeding the verifier deliberately broken data; d must
exceed the command's --depth.

All writers emit byte-stable output: floats go through repr() (the
shortest round-tripping decimal form), JSON keys are sorted, newlines
are "\n" everywhere.
"""

import json
import sys

import numpy as np

from .errors import ConfigError, InadmissibleWord
from .subshift import CylinderFunction, Subshift


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and an integer
        # past the interpreter's digit limit; RecursionError, nesting too deep to parse
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def config_sha256(cfg):
    """Hash of the canonical (sorted, compact) JSON form of the config.

    It uses the interpreter's own SHA-256, as `random` does for sha512,
    and hashlib only where that module is missing: hashlib maps OpenSSL,
    3.6 MiB of resident memory, into every process that imports it.  The
    module loads on the first call, so a process that writes no report
    does not load it.
    """
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode("utf-8")).hexdigest()


def _finite(raw):
    """Whether a JSON value is a number that is a finite float: no bool, NaN or Infinity."""
    return type(raw) in (int, float) and abs(raw) <= sys.float_info.max


def _parse_value(raw, name, key, allow_complex):
    if _finite(raw) and (allow_complex or raw >= 0):
        return complex(raw) if allow_complex else float(raw)
    if allow_complex and isinstance(raw, list) and len(raw) == 2 and all(map(_finite, raw)):
        return complex(raw[0], raw[1])
    kind = "a finite number or a [re, im] pair of them" if allow_complex else "a finite number >= 0"
    raise ConfigError(f"{name} value for {key!r} must be {kind}")


def _integer(section, key, name):
    """section[key] when it is a JSON integer; a float, a bool or a string is refused, not cast."""
    value = section.get(key)
    if type(value) is not int:
        raise ConfigError(f"{name} needs an integer {key}, not {value!r}")
    return value


def parse_table(shift, section, name, allow_complex=False):
    """A {"depth": d, "values": {...}} block as a CylinderFunction, nonnegative unless complex."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object with depth and values")
    depth = _integer(section, "depth", name)
    values = section.get("values")
    if depth < 1:
        raise ConfigError(f"{name} depth must be >= 1")
    if not isinstance(values, dict) or not values:
        raise ConfigError(f"{name} values must be a non-empty table")

    for key in values:
        if not (type(key) is str and len(key) == depth and key.isascii() and key.isdigit()):
            raise ConfigError(f"{name} key {key!r} is not a depth-{depth} digit string")
    digits = np.frombuffer("".join(values).encode("ascii"), dtype=np.uint8)
    words = digits.reshape(len(values), depth) - ord("0")
    parsed = [_parse_value(raw, name, key, allow_complex) for key, raw in values.items()]
    try:
        return CylinderFunction.from_words(shift, depth, words, parsed)
    except InadmissibleWord as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def build_subshift_from_config(cfg):
    k = _integer(cfg, "k", "config")
    if k < 1 or k > 9:
        raise ConfigError("k must be between 1 and 9 (words are digit strings)")
    try:
        arr = np.asarray(cfg.get("matrix"))  # a ragged matrix raises here
        if arr.shape == (k, k):
            return Subshift(arr)
    except Exception as exc:
        raise ConfigError(f"bad transition matrix: {exc}") from exc
    raise ConfigError(f"matrix must be {k}x{k}")


def build_weight_from_config(shift, cfg):
    if "V" not in cfg:
        raise ConfigError("config has no weight table V")
    return parse_table(shift, cfg["V"], "V")


def build_base_measure_from_config(shift, cfg, rho):
    """The configured mu0 as a density against rho, or None when set to "auto" (caller solves)."""
    spec_mu0 = cfg.get("mu0", "auto")
    if spec_mu0 == "auto":
        return None
    density = parse_table(shift, spec_mu0, "mu0")
    # measures and the transfer module it imports load only for the commands that build a measure
    from .measures import DensityMeasure

    mu0 = DensityMeasure(density, rho)
    # below the normal range a mass keeps too few digits to pass or fail the fixed-point gate
    total, tiny = mu0.total_mass(), np.finfo(np.float64).tiny
    if not total >= tiny:  # a NaN mass fails too
        raise ConfigError(f"mu0 density has mass {total:.6g} against the invariant measure, "
                          f"below the smallest normal float64 {tiny:.6g}")
    return mu0


def build_filter_from_config(shift, cfg):
    if "filter" not in cfg:
        return None
    return parse_table(shift, cfg["filter"], "filter", allow_complex=True)


def build_overrides_from_config(shift, cfg):
    if "marginal_override" not in cfg:
        return None
    section = cfg["marginal_override"]
    if not isinstance(section, dict):
        raise ConfigError("marginal_override must be an object")
    n = _integer(section, "n", "marginal_override")
    if n < 0:
        raise ConfigError("marginal_override level must be >= 0")
    masses = parse_table(
        shift,
        {"depth": section.get("depth"), "values": section.get("masses")},
        "marginal_override",
    )
    from .measures import RawMeasure

    return {n: RawMeasure(shift, masses.depth, masses.values)}


# rows rendered and written per block, which bounds the text held in memory: a
# block of a measure CSV is about 1 MiB of text matrices, and larger blocks
# render no faster
CSV_BLOCK_ROWS = 1 << 13


class _TableWords:
    """The words of one depth of a shift's table, as a 2-D column built per sliced block."""

    def __init__(self, shift, depth):
        self.shift, self.depth = shift, depth

    def __len__(self):
        return self.shift.word_count(self.depth)

    def __getitem__(self, rows):
        return self.shift.words_at(self.depth, np.arange(*rows.indices(len(self))))


def _digits(values):
    """ASCII text of an integer array: the digits right-aligned and NUL-padded.

    A sign place leads only when some value is negative.  The magnitude
    goes through uint64, so the most negative int64 keeps all its
    digits.  Each remainder is rest - 10 * (rest // 10): numpy divides
    by a scalar about five times faster than it takes `%`.
    """
    signed = bool(values.min() < 0)
    magnitude = values.astype(np.uint64)
    if signed:
        negative = values < 0
        magnitude[negative] = np.uint64(0) - magnitude[negative]
    width = len(str(int(magnitude.max())))
    # one row per place, so that each digit step writes contiguous bytes
    text = np.zeros((signed + width, len(values)), dtype=np.uint8)
    if signed:
        text[0, negative] = ord("-")
    digits, rest = text[signed:], magnitude
    for place in range(width - 1, -1, -1):
        tens = rest // 10
        digits[place] = rest - 10 * tens
        digits[place] += ord("0")
        if place < width - 1:
            # the digit of 10**e is padding where the magnitude is below 10**e
            digits[place][rest == 0] = 0
        rest = tens
    return text.T


def _byte_rows(strings):
    """The rows of a contiguous 1-D bytes array as an (n, itemsize) uint8 matrix, NUL-padded."""
    return strings.view(np.uint8).reshape(len(strings), strings.dtype.itemsize)


def _cells(column):
    """ASCII text of each cell, one NUL-padded row of an (n, width) uint8 matrix per cell.

    2-D rows of symbols are words, integers are decimal, and floats are
    the shortest round-tripping repr; any other dtype is a TypeError.
    When at most half of the floats are distinct, repr runs once per
    distinct bit pattern, which keeps -0.0 apart from 0.0.
    """
    column = np.asarray(column)
    if column.ndim == 2:
        return (column + ord("0")).astype(np.uint8)
    if column.dtype.kind in "iu":
        return _digits(column)
    if column.dtype.kind != "f":
        raise TypeError(f"no CSV text for a column of dtype {column.dtype}")
    values = np.ascontiguousarray(column, dtype=np.float64)
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    if 2 * len(distinct) > len(values):
        return _byte_rows(np.array(list(map(repr, values.tolist())), dtype="S"))
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype="S")
    return _byte_rows(text)[inverse]


def write_csv(path, header, *columns):
    """Write equal-length columns (2-D ones hold words) under a header, one row per line.

    Each block of rows is filled into one preallocated uint8 matrix of
    cell texts and separators, padded with NUL, and is written without
    its NUL bytes.  No cell text has a NUL of its own: digits, ASCII
    words and repr never do.
    """
    n_rows = len(columns[0])
    if any(len(c) != n_rows for c in columns):
        raise ValueError(f"columns of unequal length: {[len(c) for c in columns]}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n_rows)
            cells = [_cells(c[start:stop]) for c in columns]
            block = np.empty((stop - start, sum(c.shape[1] + 1 for c in cells)), dtype=np.uint8)
            at = 0
            for text in cells:
                block[:, at : at + text.shape[1]] = text
                at += text.shape[1]
                block[:, at] = ord(",")
                at += 1
            block[:, -1] = ord("\n")
            fh.write(block.tobytes().replace(b"\0", b""))


def write_measure_csv(path, shift, depth, masses):
    write_csv(path, ("word", "mass"), _TableWords(shift, depth), masses)


def write_function_csv(path, f):
    write_csv(path, ("word", "value"), _TableWords(f.shift, f.depth), f.values)


def write_report(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
