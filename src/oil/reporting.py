"""Report persistence and symbol-file loading for the CLI driver."""

from __future__ import annotations

import json

import numpy as np

from .hardy import Symbol, make_symbol


class UsageError(ValueError):
    """Invalid command-line input; maps to exit status 2."""


def _plain(obj):
    """Recursively convert report values to JSON-serializable builtins."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and not np.isfinite(obj):  # not valid JSON
        return repr(obj)  # "nan", "inf" or "-inf"
    return obj


def write_report(report: dict, path) -> None:
    """Write a report as deterministic, sorted-key JSON."""
    text = json.dumps(_plain(report), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_symbol_file(path) -> Symbol:
    """Load a symbol from a JSON array of [degree, re, im] triples."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read symbol file {path}: {exc}") from exc
    if not isinstance(data, list):
        raise UsageError(f"symbol file {path} must hold a JSON array of triples")
    pairs = []
    for row in data:
        if not (isinstance(row, list) and len(row) == 3):
            raise UsageError(f"bad symbol row {row!r}: expected [degree, re, im]")
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in row):
            raise UsageError(f"bad symbol row {row!r}: entries must be numbers")
        deg, re, im = row
        try:
            pairs.append((deg, complex(float(re), float(im))))
        except OverflowError as exc:  # an integer beyond the float range
            raise UsageError(f"bad symbol row {row!r}: {exc}") from exc
    try:  # make_symbol owns the rules on degrees and amplitudes
        return make_symbol(pairs)
    except ValueError as exc:
        raise UsageError(f"symbol file {path}: {exc}") from exc
