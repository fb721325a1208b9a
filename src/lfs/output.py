"""Output serialization: CSV samples with embedded provenance, JSON summaries.

Every output file embeds the exact config text that produced it, so any run
can be reproduced from its own artifacts.  Floats are written in shortest
round-trip decimal form; JSON uses stable key order.  Given a fixed config,
re-running produces byte-identical files.
"""

import json
import os

import numpy as np

from . import __version__
from .config import RunConfig

CONFIG_PREFIX = "# "
_CSV_BLOCK_ROWS = 64


def format_float(x):
    """Shortest decimal form that round-trips to the same double."""
    return repr(float(x))


def default_out_dir():
    """Output directory: $LFS_OUT_DIR if set, else the working directory."""
    return os.environ.get("LFS_OUT_DIR", ".")


def resolve_out_path(path):
    path = os.fspath(path)
    if os.path.isabs(path) or os.path.dirname(path):
        return path
    return os.path.join(default_out_dir(), path)


def _echo_lines(config_text):
    return "".join(f"{CONFIG_PREFIX}{line}\n" for line in config_text.splitlines())


def write_samples_csv(path, columns, rows, config_text):
    """UTF-8 CSV: '# '-prefixed config echo, header row, full-precision rows.

    Each cell is written as ``format_float`` writes it, integers and booleans
    as integers.  Rows are converted a block at a time: the repr of a nested
    list of Python floats or ints is exactly those cells joined by ", " and
    "], [", which no float's or int's repr contains.  The block bounds the
    memory the text takes.
    """
    rows = np.asarray(rows)
    if rows.dtype.kind == "b":
        rows = rows.astype(np.int64)
    elif rows.dtype.kind not in "iu":
        rows = rows.astype(float, copy=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_echo_lines(config_text))
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = repr(rows[start:start + _CSV_BLOCK_ROWS].tolist())[2:-2]
            fh.write(block.replace("], [", "\n").replace(", ", ",") + "\n")


def read_samples_csv(path):
    """Returns (embedded config text, column names, float data array)."""
    config_lines, header, data = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith(CONFIG_PREFIX.rstrip()) and header is None:
                config_lines.append(line[len(CONFIG_PREFIX):])
            elif header is None:
                header = line.split(",")
            elif line:
                data.append([float(cell) for cell in line.split(",")])
    config_text = "\n".join(config_lines)
    return config_text, header, np.asarray(data, dtype=float)


def embedded_config(path):
    """Recover the RunConfig a CSV or JSON output file was produced from."""
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return RunConfig.from_text(payload["provenance"]["config"])
    config_text, _, _ = read_samples_csv(path)
    return RunConfig.from_text(config_text)


def jsonable(value):
    """Recursively convert numpy containers/scalars for JSON emission."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def write_json_summary(path, payload, config_text, seed):
    """JSON with stable key order and a provenance block (config echo, seed, version)."""
    body = dict(payload)
    body["provenance"] = {"config": config_text, "seed": int(seed), "version": __version__}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(jsonable(body), fh, sort_keys=True, indent=2)
        fh.write("\n")


def summary_path_for(csv_path):
    base, _ = os.path.splitext(csv_path)
    return base + ".summary.json"
