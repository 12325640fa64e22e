"""Config loading and deterministic output writers for the command line tool.

Config files are JSON with the shape

    {
      "k": 2,
      "matrix": [[1, 1], [1, 0]],
      "V": {"depth": 1, "values": {"1": 1.5, "2": 0.5}},
      "mu0": "auto",
      "filter": {"depth": 1, "values": {"1": [1.0, 0.5], "2": 0.5}},
      "marginal_override": {"n": 1, "depth": 1, "masses": {"1": 0.5, "2": 0.5}}
    }

Only "k" and "matrix" are mandatory.  Cylinder tables are keyed by the
word written as a digit string (hence k <= 9), must list every
admissible word of the stated depth and nothing else.  "mu0" is either
"auto" (solve for the fixed density) or a density table against the
strongly invariant base measure.  Filter values may be numbers or
[real, imag] pairs.  "marginal_override" substitutes a raw measure for
one level of the path family, which is only useful for feeding the
verifier deliberately broken data.

All writers emit byte-stable output: floats go through repr() (the
shortest round-tripping decimal form), JSON keys are sorted, newlines
are "\n" everywhere.
"""

import hashlib
import json

import numpy as np

from .errors import ConfigError, InadmissibleWord
from .invariant import strongly_invariant_measure
from .measures import DensityMeasure, RawMeasure
from .subshift import CylinderFunction, Subshift


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def config_sha256(cfg):
    """Hash of the canonical (sorted, compact) JSON form of the config."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _parse_value(raw, key, allow_complex):
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return complex(raw) if allow_complex else float(raw)
    if (
        allow_complex
        and isinstance(raw, list)
        and len(raw) == 2
        and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in raw)
    ):
        return complex(raw[0], raw[1])
    kind = "a number or a [re, im] pair" if allow_complex else "a number"
    raise ConfigError(f"value for {key!r} must be {kind}")


def parse_table(shift, section, name, allow_complex=False):
    """A {"depth": d, "values": {...}} block as a CylinderFunction."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object with depth and values")
    try:
        depth = int(section["depth"])
        values = section["values"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name} needs integer depth and a values table") from exc
    if depth < 1:
        raise ConfigError(f"{name} depth must be >= 1")
    if not isinstance(values, dict) or not values:
        raise ConfigError(f"{name} values must be a non-empty table")

    for key in values:
        if not (type(key) is str and len(key) == depth and key.isascii() and key.isdigit()):
            raise ConfigError(f"{name} key {key!r} is not a depth-{depth} digit string")
    digits = np.frombuffer("".join(values).encode("ascii"), dtype=np.uint8)
    words = digits.reshape(len(values), depth) - ord("0")
    parsed = [_parse_value(raw, key, allow_complex) for key, raw in values.items()]
    try:
        return CylinderFunction.from_words(shift, depth, words, parsed)
    except InadmissibleWord as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def build_subshift_from_config(cfg):
    try:
        k = int(cfg["k"])
        matrix = cfg["matrix"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("config needs integer k and a matrix") from exc
    if k < 1 or k > 9:
        raise ConfigError("k must be between 1 and 9 (words are digit strings)")
    arr = np.asarray(matrix)
    if arr.shape != (k, k):
        raise ConfigError(f"matrix must be {k}x{k}")
    try:
        return Subshift(arr)
    except Exception as exc:
        raise ConfigError(f"bad transition matrix: {exc}") from exc


def build_weight_from_config(shift, cfg):
    if "V" not in cfg:
        raise ConfigError("config has no weight table V")
    v = parse_table(shift, cfg["V"], "V")
    try:
        v.require_nonnegative("V")
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    return v


def build_base_measure_from_config(shift, cfg, rho=None):
    """The configured mu0, or None when set to "auto" (caller solves)."""
    spec_mu0 = cfg.get("mu0", "auto")
    if spec_mu0 == "auto":
        return None
    density = parse_table(shift, spec_mu0, "mu0")
    try:
        density.require_nonnegative("mu0 density")
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    if rho is None:
        rho = strongly_invariant_measure(shift)
    return DensityMeasure(density, rho)


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
    try:
        n = int(section["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("marginal_override needs an integer level n") from exc
    if n < 0:
        raise ConfigError("marginal_override level must be >= 0")
    masses = parse_table(
        shift,
        {"depth": section.get("depth"), "values": section.get("masses")},
        "marginal_override",
    )
    if masses.values.min() < 0:
        raise ConfigError("marginal_override masses must be nonnegative")
    return {n: RawMeasure(shift, masses.depth, masses.values)}


# rows rendered and written per block, which bounds the text held in memory
CSV_BLOCK_ROWS = 1 << 16


def word_column(symbols):
    """Digit strings of the rows of an (n, depth) array of symbols 1..9 ("" at depth 0)."""
    sym = np.asarray(symbols)
    if sym.shape[1] == 0:
        return np.full(len(sym), "")
    digits = np.ascontiguousarray(sym + ord("0"), dtype=np.uint8)
    return digits.view(f"S{sym.shape[1]}").ravel().astype(str)


class _TableWords:
    """The words of one depth of a shift's table, as a 2-D column built per sliced block."""

    def __init__(self, shift, depth):
        self.shift, self.depth = shift, depth

    def __len__(self):
        return self.shift.word_count(self.depth)

    def __getitem__(self, rows):
        return self.shift.words_at(self.depth, np.arange(*rows.indices(len(self))))


def _cells(column):
    """Text of each cell: floats as the shortest round-tripping repr, 2-D rows as words, else str.

    When at most half of the floats are distinct, repr runs once per
    distinct bit pattern, which keeps -0.0 apart from 0.0.
    """
    column = np.asarray(column)
    if column.ndim == 2:
        column = word_column(column)
    if column.dtype.kind != "f":
        return map(str, column.tolist())
    values = np.ascontiguousarray(column, dtype=np.float64)
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    if 2 * len(distinct) > len(values):
        return map(repr, values.tolist())
    text = np.array([repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def write_csv(path, header, *columns):
    """Write equal-length columns (2-D ones hold words) under a header, one row per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = (_cells(c[start : start + CSV_BLOCK_ROWS]) for c in columns)
            fh.write("\n".join(map(",".join, zip(*block, strict=True))) + "\n")


def write_measure_csv(path, shift, depth, masses):
    write_csv(path, ("word", "mass"), _TableWords(shift, depth), masses)


def write_function_csv(path, f):
    words = _TableWords(f.shift, f.depth)
    if np.iscomplexobj(f.values):
        write_csv(path, ("word", "real", "imag"), words, f.values.real, f.values.imag)
    else:
        write_csv(path, ("word", "value"), words, f.values)


def write_report(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
