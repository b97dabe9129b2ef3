"""Line-oriented configuration with dotted keys.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Keys are namespaced (`hw.*`, `model.*`, `sweep.*`); list
values are comma-separated.  Overrides (`key=value` strings) apply after
file parsing, last writer wins.  Every key, with its parser and default,
is declared once in the table of the spec it builds; a key no table
declares, or a number that is not finite, is rejected naming the key.
"""

from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path

from .dataflow import ArraySpec, FabricSpec
from .energy import ArrayPower, GatingPolicy, SramEnergyModel
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
        "sram",
        "arrays",
        "gating",
))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.ext_bandwidth <= 0 or self.onchip_bandwidth <= 0:
            raise ValueError("bandwidths must be > 0")
        if not self.frequency > 0:
            raise ValueError("frequency must be > 0")
        return self


def _scaled(unit: float, cast=float):
    """Parser of a finite number given in `unit`s, as `cast(number * unit)`."""
    def parse(text: str):
        value = float(text) * unit
        if not math.isfinite(value):
            raise ValueError("need a finite number")
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
    def parse_axis(text: str) -> list:
        axis = sorted({parse(part) for part in text.split(",") if part.strip()})
        if not axis or axis[0] <= 0:
            raise ValueError("need one or more positive values")
        return axis
    return parse_axis


def _phases(text: str) -> list[str]:
    phases = [name.strip() for name in text.split(",") if name.strip()]
    if (not phases or len(set(phases)) < len(phases)
            or not set(phases) <= set(PHASES)):
        raise ValueError(f"need one or more of {', '.join(PHASES)}, "
                         "each named once")
    return phases


_float = _scaled(1.0)

# Per spec: field -> (key, parser, default text).
_MODEL = {
    "d_model": ("model.d_model", int, "12288"),
    "n_heads": ("model.n_heads", int, "96"),
    "head_dim": ("model.head_dim", int, "128"),
    "mlp_ratio": ("model.mlp_ratio", int, "4"),
    "bytes_per_element": ("model.bytes_per_element", int, "2"),
    "n_layers": ("model.n_layers", int, "1"),
}
_REQUEST = {
    "batch": ("model.batch", int, "8"),
    "prompt_len": ("model.prompt_len", int, "2048"),
    "gen_tokens": ("model.gen_tokens", int, "16"),
}
_STEP = {"step": ("model.decode_step", int, "0")}
_ARRAY = {"rows": ("hw.array_rows", int, "16"),
          "cols": ("hw.array_cols", int, "16")}
_FABRIC = {"cores": ("hw.cores", int, "108"),
           "arrays_per_core": ("hw.arrays_per_core", int, "4")}
_BUFFERS = {"local": ("hw.local_buffer_kb", _scaled(KIB, int), "64"),
            "global_": ("hw.global_buffer_mb", _scaled(MIB, int), "40")}
_HARDWARE = {
    "ext_bandwidth": ("hw.ext_bandwidth_gbps", _scaled(GB), "2048"),
    "onchip_bandwidth": ("hw.onchip_bandwidth_gbps", _scaled(GB), "16384"),
    "frequency": ("hw.frequency_mhz", _scaled(MHZ), "800"),
}
_SRAM = {
    "leakage_per_byte": ("hw.sram_leakage_w_per_byte", _float, "3.0e-7"),
    "access_energy_ref": ("hw.sram_access_energy_j", _float, "2.0e-13"),
    "ref_size": ("hw.sram_access_ref_kb", _scaled(KIB, int), "32"),
    "access_exponent": ("hw.sram_access_exponent", _float, "0.5"),
}
_ARRAYS = {
    "leakage_w": ("hw.array_leakage_w", _float, "9.31e-3"),
    "dynamic_w_ref": ("hw.array_dynamic_w", _float, "1.25"),
    "ref_frequency": ("hw.array_ref_frequency_mhz", _scaled(MHZ), "1000"),
}
_GATING = {"prefill_saving": ("hw.gating_prefill", _float, "0.04"),
           "decode_saving": ("hw.gating_decode", _float, "0.20")}
_SWEEP = {
    "s_values": ("sweep.local_buffer_kb", _axis(_scaled(KIB, int)),
                 "16,32,64,128,256,512,1024"),
    "f_values": ("sweep.frequency_mhz", _axis(_scaled(MHZ)),
                 "200,400,600,800,1000,1200,1400"),
    "bw_values": ("sweep.bandwidth_gbps", _axis(_whole_gbps),
                  "2048,4096,8192"),
    "phases": ("sweep.phases", _phases, "prefill,decode"),
}

_TABLES = (_MODEL, _REQUEST, _STEP, _ARRAY, _FABRIC, _BUFFERS, _HARDWARE,
           _SRAM, _ARRAYS, _GATING, _SWEEP)
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


def _build(cls, table: dict, values: dict[str, str], **parts):
    """`cls` from the fields of `table`; a value the constructor rejects is
    reported naming the table's keys."""
    fields = _parse(values, table)
    try:
        return cls(**fields, **parts)
    except ValueError as exc:
        keys = " / ".join(key for key, _, _ in table.values())
        raise ConfigError(f"bad value for {keys}: {exc}") from exc


def load_model_spec(values: dict[str, str]) -> ModelSpec:
    return _build(ModelSpec, _MODEL, values)


def load_request(values: dict[str, str]) -> InferenceRequest:
    return _build(InferenceRequest, _REQUEST, values)


def decode_step(values: dict[str, str],
                phases: tuple[str, ...] = ("decode",)) -> int:
    """`model.decode_step`, checked against `model.gen_tokens`; a run
    whose `phases` include decode needs at least one generated token.
    `load_request` checks `model.gen_tokens` itself."""
    fields = _parse(values, {**_STEP, "gen_tokens": _REQUEST["gen_tokens"]})
    step, gen_tokens = fields["step"], fields["gen_tokens"]
    if not gen_tokens and "decode" in phases:
        raise ConfigError("bad value for model.gen_tokens: 0 leaves no "
                          "decode step to evaluate (need >= 1)")
    if gen_tokens and not 0 <= step < gen_tokens:
        raise ConfigError(f"bad value for model.decode_step: {step} is not in "
                          f"[0, model.gen_tokens = {gen_tokens})")
    return step


def load_hardware(values: dict[str, str]) -> HardwareConfig:
    array = _build(ArraySpec, _ARRAY, values)
    return _build(HardwareConfig, _HARDWARE, values,
                  fabric=_build(FabricSpec, _FABRIC, values, array=array),
                  buffers=_build(Buffers, _BUFFERS, values),
                  sram=_build(SramEnergyModel, _SRAM, values),
                  arrays=_build(ArrayPower, _ARRAYS, values),
                  gating=_build(GatingPolicy, _GATING, values))


def load_sweep_axes(values: dict[str, str]) -> tuple[list[int], list[float], list[float], list[str]]:
    """(S bytes, f Hz, BW bytes/s, phases); each axis sorted and distinct."""
    return tuple(_parse(values, _SWEEP).values())
