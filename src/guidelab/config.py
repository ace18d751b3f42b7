"""Config primitives shared by every command, with no numpy behind them.

Reading the JSON file, reading a typed field, resolving the output
directory and hashing the resolved config are all the config work
`par-generate` needs, so they live apart from the experiment layer and
its array stack.
"""

import hashlib
import json
import math
import os
from pathlib import Path

__all__ = ["ConfigError", "field", "read_text", "read_config", "output_dir", "config_hash"]

_REQUIRED = object()
_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list",
          dict: "a mapping"}


class ConfigError(ValueError):
    """Config parsing/validation error; the message names the offending field."""


def field(section, key, name: str, kind, default=_REQUIRED, length=None, keys=None):
    """section[key] as kind, or a ConfigError naming the field by its full name.

    kind is int, float, bool, str, list or dict, or [int] or [float] for a
    list of JSON numbers (exactly length of them, if length is given). A
    number is never null, a bool, a string or a JSON integer beyond the
    float range, and an int must be integral (3 or 3.0, not 3.7); a nan or
    inf, which read_config refuses in a file, is left to the object built
    from the value. An absent key reads as default, and is an error
    without one; a field whose default is None reads a null as None too.
    A mapping read with keys holds no other key, so a misspelled field
    fails instead of leaving its default in force.
    """
    try:
        value = section[key]
    except KeyError:
        if default is _REQUIRED:
            raise ConfigError(f"missing field '{name}'") from None
        return default
    if value is None and default is None:
        return None
    for unknown in value if keys is not None and isinstance(value, dict) else ():
        if unknown not in keys:
            raise ConfigError(f"unknown field '{name}.{unknown}'; '{name}' reads {', '.join(keys)}")
    if isinstance(kind, list):
        if isinstance(value, list) and length in (None, len(value)):
            return [field(value, i, f"{name}[{i}]", kind[0]) for i in range(len(value))]
        size = "" if length is None else f"{length} "
        what = f"a list of {size}{'integers' if kind[0] is int else 'numbers'}"
    else:
        what = _KINDS[kind]
        if kind not in (int, float):
            if isinstance(value, kind):
                return value
        elif (isinstance(value, (int, float)) and not isinstance(value, bool)
                and (kind is float or isinstance(value, int) or value.is_integer())):
            try:
                return kind(value)
            except OverflowError:  # a JSON integer beyond the float range
                pass
    raise ConfigError(f"field '{name}' must be {what}, got {value!r}")


def read_text(path, what: str, error=ValueError) -> str:
    """The file's text as open(path, encoding="utf-8").read() returns it: strict UTF-8, CRLF and CR read as LF.

    A file that is not UTF-8 raises error, naming the file as what. Raw
    reads skip the io stack's buffer and decoder set-up, which took most
    of the time of loading a few thousand small fixture files; the 64 KiB
    read size keeps each call's buffer allocation cheap.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 65536):
            chunks.append(chunk)
        text = b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not valid UTF-8: {exc}") from None
    except OSError as exc:  # os.read's error (a directory, say) names no file; name it as open() would
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_config(path) -> dict:
    """The raw config dict of a JSON file, read as UTF-8 whatever the locale, with no key repeated in an object."""

    def unique_keys(pairs):  # a key given twice is an error, where json would keep its last value silently
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"config key '{key}' is given twice in one object")
            obj[key] = value
        return obj

    def finite(value, name):  # json reads NaN, Infinity and 1e999 as floats, which strict JSON cannot hold
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"field '{name}' must be a finite number, got {value!r}")
        if isinstance(value, dict):
            for key, item in value.items():
                finite(item, f"{name}.{key}" if name else key)
        for i, item in enumerate(value if isinstance(value, list) else ()):
            finite(item, f"{name}[{i}]")

    try:
        raw = json.loads(read_text(path, "config file", ConfigError), object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    finite(field({"config": raw}, "config", "config", dict), "")
    return raw


def output_dir(raw: dict, out_dir=None) -> Path:
    """The run's output directory: out_dir if given (recorded in raw), else output.directory; neither may be empty."""
    out = field(raw, "output", "output", dict)
    # out_dir replaces output.directory, which may then be absent but not of another kind
    directory = field(out, "directory", "output.directory", str, _REQUIRED if out_dir is None else "")
    if out_dir is not None:
        if out_dir == "":  # Path("") is the working directory, which a run would write into and delete from
            raise ConfigError("argument --out must be a nonempty path, got ''")
        out["directory"] = directory = str(Path(out_dir))
    if not directory:
        raise ConfigError("field 'output.directory' must be a nonempty string, got ''")
    return Path(directory)


def config_hash(raw: dict) -> str:
    """Stable sha256 over the canonical JSON form of a config dict."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
