"""Config primitives shared by every command, with no numpy behind them.

Reading the JSON file, checking a numeric field, requiring a key,
resolving the output directory and hashing the resolved config are all
the config work `par-generate` needs, so they live apart from the
experiment layer and its array stack.
"""

import hashlib
import json
from pathlib import Path

__all__ = ["ConfigError", "number", "read_config", "output_dir", "config_hash"]


class ConfigError(ValueError):
    """Config parsing/validation error; the message names the offending field."""


def number(value, field: str, kind=float):
    """A numeric config value as kind (float or int), or a ConfigError naming field.

    The value must be a JSON number: not null, a bool, a string, a list
    or a mapping. An int field must also be integral (3 or 3.0, not 3.7).
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"field '{field}' must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def _need(raw: dict, key: str, where: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"field '{where.rstrip('.') or 'config'}' must be a mapping")
    if key not in raw:
        raise ConfigError(f"missing field '{where}{key}'")
    return raw[key]


def read_config(path) -> dict:
    """The raw config dict of a JSON file, read as UTF-8 whatever the locale."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def output_dir(raw: dict, out_dir=None) -> Path:
    """The run's output directory: out_dir if given (recorded in raw), else output.directory."""
    out = _need(raw, "output", "")
    if out_dir is None:
        return Path(_need(out, "directory", "output."))
    if not isinstance(out, dict):
        raise ConfigError(f"field 'output' must be a mapping, got {out!r}")
    out["directory"] = str(Path(out_dir))
    return Path(out_dir)


def config_hash(raw: dict) -> str:
    """Stable sha256 over the canonical JSON form of a config dict."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
