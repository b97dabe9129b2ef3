"""Line-oriented configuration with dotted keys.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Keys are namespaced (`hw.*`, `model.*`, `sweep.*`); list
values are comma-separated.  Overrides (`key=value` strings) apply after
file parsing, last writer wins.  Every key, with its parser and default,
is declared once in the table of the spec it builds.  Each key's parser
also checks the key's range, so a key no table declares, a number that
is not finite, or a value out of its key's range is rejected naming that
key alone; the records built from the tables check nothing themselves.
"""

from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path

from .dataflow import ArraySpec, FabricSpec
from .memory import Buffers
from .workload import PHASES, InferenceRequest, ModelSpec

KIB = 1024
MIB = 1024 * 1024
GB = 10**9  # bandwidth uses SI gigabytes
MHZ = 10**6


class ConfigError(ValueError):
    pass


class HardwareConfig(namedtuple("HardwareConfig", (
        "fabric",
        "buffers",
        "ext_bandwidth",  # bytes/s into and out of the global buffer
        "onchip_bandwidth",  # bytes/s aggregate global<->local
        "frequency",  # Hz
        "sram_leakage_per_byte",  # W/byte
        "sram_access_energy_ref",  # J/access at sram_ref_size
        "sram_ref_size",  # bytes
        "sram_access_exponent",
        "array_leakage_w",  # per array, post-layout
        "array_dynamic_w_ref",  # per array at array_ref_frequency, full use
        "array_ref_frequency",  # Hz
        "gating_prefill",  # share of leakage gated off in prefill
        "gating_decode",
))):
    """The fabric, its buffers, clock and bandwidths, and the energy
    constants that `energy.energy_terms` reads."""

    __slots__ = ()


class SweepSpec(namedtuple("SweepSpec", (
        "s_values",  # bytes, ascending
        "f_values",  # Hz, ascending
        "bw_values",  # bytes/s, ascending
        "phases",
))):
    """The sweep's axes, each sorted and distinct, and its phases."""

    __slots__ = ()


def _scaled(unit: float, cast=float):
    """Parser of a finite number given in `unit`s, as `cast(number * unit)`."""
    def parse(text: str):
        number = float(text)
        if not math.isfinite(number):
            raise ValueError("need a finite number")
        value = number * unit
        if not math.isfinite(value):
            raise ValueError(f"overflows a float once scaled by {unit}")
        return cast(value)
    return parse


def _whole_gbps(text: str) -> float:
    """Parser of a bandwidth in whole GB/s, at least 1, as finite bytes/s:
    report file names and summary keys carry it as an integer."""
    gbps = float(text)
    if not gbps.is_integer() or gbps < 1:
        raise ValueError("need a whole number of GB/s, at least 1")
    return _scaled(GB)(text)


def _axis(parse):
    """Parser of a comma-separated list, as its sorted distinct values."""
    def parse_axis(text: str) -> tuple:
        axis = sorted({parse(part) for part in text.split(",") if part.strip()})
        if not axis or axis[0] <= 0:
            raise ValueError("need one or more positive values")
        return tuple(axis)
    return parse_axis


def _phases(text: str) -> tuple[str, ...]:
    phases = tuple(name.strip() for name in text.split(",") if name.strip())
    if (not phases or len(set(phases)) < len(phases)
            or not set(phases) <= set(PHASES)):
        raise ValueError(f"need one or more of {', '.join(PHASES)}, "
                         "each named once")
    return phases


def _checked(parse, ok, need: str):
    """`parse`, rejecting a value for which `ok` is false as not `need`."""
    def parse_checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"need {need}")
        return value
    return parse_checked


def _positive(parse):
    """`parse`, rejecting a value that is not > 0."""
    return _checked(parse, lambda value: value > 0, "a value > 0")


_float = _scaled(1.0)
_count = _positive(int)
_bytes = _positive(_scaled(KIB, int))  # KB, whole bytes after the cast
_hz = _positive(_scaled(MHZ))
_gbps = _positive(_scaled(GB))
_constant = _positive(_float)
_saving = _checked(_float, lambda value: 0 <= value < 1, "a value in [0, 1)")

# Per spec: field -> (key, parser, default text).
_MODEL = {
    "n_heads": ("model.n_heads", _count, "96"),
    "head_dim": ("model.head_dim", _count, "128"),
    "mlp_ratio": ("model.mlp_ratio", _count, "4"),
    "bytes_per_element": ("model.bytes_per_element", _count, "2"),
    "n_layers": ("model.n_layers", _count, "1"),
}
_REQUEST = {
    "batch": ("model.batch", _count, "8"),
    "prompt_len": ("model.prompt_len", _count, "2048"),
    "gen_tokens": ("model.gen_tokens", _count, "16"),
    "decode_step": ("model.decode_step", int, "0"),
}
_ARRAY = {"rows": ("hw.array_rows", _count, "16"),
          "cols": ("hw.array_cols", _count, "16")}
_FABRIC = {"cores": ("hw.cores", _count, "108"),
           "arrays_per_core": ("hw.arrays_per_core", _count, "4")}
_BUFFERS = {"local": ("hw.local_buffer_kb", _bytes, "64"),
            "global_": ("hw.global_buffer_mb", _positive(_scaled(MIB, int)),
                        "40")}
_HARDWARE = {
    "sram_leakage_per_byte": ("hw.sram_leakage_w_per_byte", _constant,
                              "3.0e-7"),
    "sram_access_energy_ref": ("hw.sram_access_energy_j", _constant,
                               "2.0e-13"),
    "sram_ref_size": ("hw.sram_access_ref_kb", _bytes, "32"),
    "sram_access_exponent": ("hw.sram_access_exponent", _constant, "0.5"),
    "array_leakage_w": ("hw.array_leakage_w", _constant, "9.31e-3"),
    "array_dynamic_w_ref": ("hw.array_dynamic_w", _constant, "1.25"),
    "array_ref_frequency": ("hw.array_ref_frequency_mhz", _hz, "1000"),
    "gating_prefill": ("hw.gating_prefill", _saving, "0.04"),
    "gating_decode": ("hw.gating_decode", _saving, "0.20"),
    "ext_bandwidth": ("hw.ext_bandwidth_gbps", _gbps, "2048"),
    "onchip_bandwidth": ("hw.onchip_bandwidth_gbps", _gbps, "16384"),
    "frequency": ("hw.frequency_mhz", _hz, "800"),
}
_SWEEP = {
    "s_values": ("sweep.local_buffer_kb", _axis(_scaled(KIB, int)),
                 "16,32,64,128,256,512,1024"),
    "f_values": ("sweep.frequency_mhz", _axis(_scaled(MHZ)),
                 "200,400,600,800,1000,1200,1400"),
    "bw_values": ("sweep.bandwidth_gbps", _axis(_whole_gbps),
                  "2048,4096,8192"),
    "phases": ("sweep.phases", _phases, "prefill,decode"),
}

_TABLES = (_MODEL, _REQUEST, _ARRAY, _FABRIC, _BUFFERS, _HARDWARE, _SWEEP)
KEYS = frozenset(key for table in _TABLES for key, _, _ in table.values())


def _entry(text: str, where: str) -> tuple[str, str]:
    """The (key, value) of one `key = value` entry; `where` names its source."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    if not key or not value:
        raise ConfigError(f"{where}: empty key or value in {text!r}")
    if key not in KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, value


def parse_config(path: str | Path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _entry(line, f"{path}:{lineno}")
            values[key] = value
    return values


def apply_overrides(values: dict[str, str], overrides: list[str]) -> dict[str, str]:
    out = dict(values)
    for item in overrides:
        key, value = _entry(item, "override")
        out[key] = value
    return out


def _parse(values: dict[str, str], table: dict) -> dict:
    """Each field of `table` parsed from its key's value, or its default."""
    fields = {}
    for field, (key, parse, default) in table.items():
        text = values.get(key, default)
        try:
            fields[field] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc
    return fields


def load_model_spec(values: dict[str, str]) -> ModelSpec:
    """The model; its d_model is n_heads * head_dim, not a key."""
    return ModelSpec(**_parse(values, _MODEL))


def load_request(values: dict[str, str]) -> InferenceRequest:
    """The request; its decode_step must lie in [0, gen_tokens)."""
    req = InferenceRequest(**_parse(values, _REQUEST))
    if not 0 <= req.decode_step < req.gen_tokens:
        raise ConfigError("bad value for model.decode_step: "
                          f"{req.decode_step} is not in "
                          f"[0, model.gen_tokens = {req.gen_tokens})")
    return req


def decode_step(values: dict[str, str]) -> int:
    """The request's decode_step, kept only as `perfbench/` calls it."""
    return load_request(values).decode_step


def load_hardware(values: dict[str, str]) -> HardwareConfig:
    array = ArraySpec(**_parse(values, _ARRAY))
    return HardwareConfig(
        fabric=FabricSpec(**_parse(values, _FABRIC), array=array),
        buffers=Buffers(**_parse(values, _BUFFERS)),
        **_parse(values, _HARDWARE))


def load_sweep_axes(values: dict[str, str]) -> SweepSpec:
    """The sweep's axes and phases, the phases in the configured order."""
    return SweepSpec(**_parse(values, _SWEEP))
