"""Line-oriented configuration with dotted keys.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Keys are namespaced (`hw.*`, `model.*`, `sweep.*`); list
values are comma-separated.  Overrides (`key=value` strings) apply after
file parsing, last writer wins.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .dataflow import ArraySpec, FabricSpec
from .energy import ArrayPower, GatingPolicy, SramEnergyModel
from .memory import GB, KIB, MIB, Buffers, BufferSpec, MemorySpec
from .workload import InferenceRequest, ModelSpec, Phase

MHZ = 10**6


class ConfigError(ValueError):
    pass


def parse_config(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value in {raw!r}")
        values[key] = value
    return values


def apply_overrides(values: dict[str, str], overrides: list[str]) -> dict[str, str]:
    out = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if not key or not value:
            raise ConfigError(f"override has empty key or value: {item!r}")
        out[key] = value
    return out


def _get(values: dict[str, str], key: str, cast, default):
    if key not in values:
        return default
    try:
        return cast(values[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {values[key]!r} ({exc})") from exc


@contextmanager
def _naming(*keys: str):
    """Report a value that a spec constructor rejects as a ConfigError
    naming the keys the spec was built from."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {' / '.join(keys)}: {exc}") from exc


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


@dataclass(frozen=True)
class HardwareConfig:
    fabric: FabricSpec
    buffers: Buffers
    mem: MemorySpec
    frequency: float  # Hz
    sram: SramEnergyModel
    arrays: ArrayPower
    gating: GatingPolicy


def load_model_spec(values: dict[str, str]) -> ModelSpec:
    with _naming("model.d_model", "model.n_heads", "model.head_dim",
                 "model.mlp_ratio", "model.bytes_per_element",
                 "model.n_layers"):
        return ModelSpec(
            d_model=_get(values, "model.d_model", int, 12288),
            n_heads=_get(values, "model.n_heads", int, 96),
            head_dim=_get(values, "model.head_dim", int, 128),
            mlp_ratio=_get(values, "model.mlp_ratio", int, 4),
            bytes_per_element=_get(values, "model.bytes_per_element", int, 2),
            n_layers=_get(values, "model.n_layers", int, 1),
        )


def load_request(values: dict[str, str]) -> InferenceRequest:
    with _naming("model.batch", "model.prompt_len", "model.gen_tokens"):
        return InferenceRequest(
            batch=_get(values, "model.batch", int, 8),
            prompt_len=_get(values, "model.prompt_len", int, 2048),
            gen_tokens=_get(values, "model.gen_tokens", int, 16),
        )


def decode_step(values: dict[str, str],
                phases: tuple[Phase, ...] = (Phase.DECODE_STEP,)) -> int:
    """`model.decode_step`, checked against `model.gen_tokens`; a run
    whose `phases` include decode needs at least one generated token."""
    step = _get(values, "model.decode_step", int, 0)
    gen_tokens = load_request(values).gen_tokens
    if not gen_tokens and Phase.DECODE_STEP in phases:
        raise ConfigError("bad value for model.gen_tokens: 0 leaves no "
                          "decode step to evaluate (need >= 1)")
    if gen_tokens and not 0 <= step < gen_tokens:
        raise ConfigError(f"bad value for model.decode_step: {step} is not in "
                          f"[0, model.gen_tokens = {gen_tokens})")
    return step


def load_hardware(values: dict[str, str]) -> HardwareConfig:
    with _naming("hw.array_rows", "hw.array_cols"):
        array = ArraySpec(
            rows=_get(values, "hw.array_rows", int, 16),
            cols=_get(values, "hw.array_cols", int, 16),
        )
    with _naming("hw.cores", "hw.arrays_per_core"):
        fabric = FabricSpec(
            cores=_get(values, "hw.cores", int, 108),
            arrays_per_core=_get(values, "hw.arrays_per_core", int, 4),
            array=array,
        )
    ext_bw = _get(values, "hw.ext_bandwidth_gbps", float, 2048.0) * GB
    onchip_default = 8.0 * ext_bw / GB
    with _naming("hw.ext_bandwidth_gbps", "hw.onchip_bandwidth_gbps"):
        mem = MemorySpec(
            ext_bandwidth=ext_bw,
            onchip_bandwidth=_get(values, "hw.onchip_bandwidth_gbps",
                                  float, onchip_default) * GB,
        )
    with _naming("hw.local_buffer_kb"):
        local = BufferSpec(
            int(_get(values, "hw.local_buffer_kb", float, 64.0) * KIB))
    with _naming("hw.global_buffer_mb"):
        global_ = BufferSpec(
            int(_get(values, "hw.global_buffer_mb", float, 40.0) * MIB))
    frequency = _get(values, "hw.frequency_mhz", float, 800.0) * MHZ
    if not frequency > 0:
        raise ConfigError(f"bad value for hw.frequency_mhz: "
                          f"{values['hw.frequency_mhz']!r} (need > 0)")
    with _naming("hw.sram_leakage_w_per_byte", "hw.sram_access_energy_j",
                 "hw.sram_access_ref_kb", "hw.sram_access_exponent"):
        sram = SramEnergyModel(
            leakage_per_byte=_get(values, "hw.sram_leakage_w_per_byte", float, 3.0e-7),
            access_energy_ref=_get(values, "hw.sram_access_energy_j", float, 2.0e-13),
            ref_size=int(_get(values, "hw.sram_access_ref_kb", float, 32.0) * KIB),
            access_exponent=_get(values, "hw.sram_access_exponent", float, 0.5),
        )
    with _naming("hw.array_leakage_w", "hw.array_dynamic_w",
                 "hw.array_ref_frequency_mhz"):
        arrays = ArrayPower(
            leakage_w=_get(values, "hw.array_leakage_w", float, 9.31e-3),
            dynamic_w_ref=_get(values, "hw.array_dynamic_w", float, 1.25),
            ref_frequency=_get(values, "hw.array_ref_frequency_mhz", float, 1000.0) * MHZ,
        )
    with _naming("hw.gating_prefill", "hw.gating_decode"):
        gating = GatingPolicy(
            prefill_saving=_get(values, "hw.gating_prefill", float, 0.04),
            decode_saving=_get(values, "hw.gating_decode", float, 0.20),
        )
    buffers = Buffers(local=local, global_=global_)
    return HardwareConfig(fabric=fabric, buffers=buffers, mem=mem,
                          frequency=frequency, sram=sram, arrays=arrays,
                          gating=gating)


DEFAULT_S_KB = [16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
DEFAULT_F_MHZ = [200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0]
DEFAULT_BW_GBPS = [2048.0, 4096.0, 8192.0]


def load_sweep_axes(values: dict[str, str]) -> tuple[list[int], list[float], list[float], list[Phase]]:
    s_kb = _get(values, "sweep.local_buffer_kb", _float_list, DEFAULT_S_KB)
    f_mhz = _get(values, "sweep.frequency_mhz", _float_list, DEFAULT_F_MHZ)
    bw_gbps = _get(values, "sweep.bandwidth_gbps", _float_list, DEFAULT_BW_GBPS)
    phase_text = _get(values, "sweep.phases", str, "prefill,decode")
    phases = []
    for name in (p.strip() for p in phase_text.split(",") if p.strip()):
        if name == "prefill":
            phases.append(Phase.PREFILL)
        elif name == "decode":
            phases.append(Phase.DECODE_STEP)
        else:
            raise ConfigError(f"unknown phase in sweep.phases: {name!r}")
    s_values = sorted({int(v * KIB) for v in s_kb})
    f_values = sorted({v * MHZ for v in f_mhz})
    bw_values = sorted({v * GB for v in bw_gbps})
    for key, axis in (("sweep.local_buffer_kb", s_values),
                      ("sweep.frequency_mhz", f_values),
                      ("sweep.bandwidth_gbps", bw_values)):
        if not axis or axis[0] <= 0:
            raise ConfigError(f"bad value for {key}: {values[key]!r} "
                              f"(need one or more positive values)")
    return s_values, f_values, bw_values, phases
