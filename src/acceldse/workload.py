"""Matmul traces for transformer prefill and per-token decode.

The workload is reduced to the five matmul groups that dominate both
inference phases: QKV projection, attention score, attention output,
MLP up-projection, and MLP down-projection.  Softmax, normalization,
residual adds, embedding, and logits are omitted; they contribute a
negligible share of compute and traffic.  Attention matmuls are emitted
one per (batch, head) pair so that traffic accounting stays explicit
under the head-parallel mapping onto many small arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Phase(Enum):
    PREFILL = "prefill"
    DECODE_STEP = "decode"


@dataclass(frozen=True)
class ModelSpec:
    """Shape of one transformer layer stack (GPT-3-like defaults)."""

    d_model: int = 12288
    n_heads: int = 96
    head_dim: int = 128
    mlp_ratio: int = 4
    bytes_per_element: int = 2
    n_layers: int = 1

    def __post_init__(self) -> None:
        for name in ("d_model", "n_heads", "head_dim", "mlp_ratio",
                     "bytes_per_element", "n_layers"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.n_heads * self.head_dim != self.d_model:
            raise ValueError(
                f"n_heads * head_dim must equal d_model "
                f"({self.n_heads} * {self.head_dim} != {self.d_model})")

    @property
    def d_ff(self) -> int:
        return self.mlp_ratio * self.d_model


@dataclass(frozen=True)
class InferenceRequest:
    batch: int = 8
    prompt_len: int = 2048
    gen_tokens: int = 16

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.prompt_len < 1:
            raise ValueError("prompt_len must be >= 1 (zero-token requests rejected)")
        if self.gen_tokens < 0:
            raise ValueError("gen_tokens must be >= 0")


@dataclass(frozen=True)
class MatmulDims:
    """One GEMM (M x K) @ (K x N); weight_resident marks a model-weight operand."""

    M: int
    K: int
    N: int
    weight_resident: bool = False

    def __post_init__(self) -> None:
        if min(self.M, self.K, self.N) < 1:
            raise ValueError("matmul dims must be >= 1")


@dataclass(frozen=True)
class PhaseTrace:
    phase: Phase
    kv_len: int
    matmuls: dict[MatmulDims, int]  # each distinct GEMM -> count over all layers


def flops_of(m: MatmulDims) -> int:
    """Standard GEMM cost: one multiply plus one add per MAC."""
    return 2 * m.M * m.K * m.N


def _layer_matmuls(model: ModelSpec, rows: int, batch: int,
                   kv_len: int, q_len: int) -> dict[MatmulDims, int]:
    """Five sublayer groups, counted over all `n_layers` layers.

    rows:   token rows hitting the weight matrices (batch * q_len)
    q_len:  query positions per sequence (prompt_len in prefill, 1 in decode)
    kv_len: context length visible to attention

    Groups whose shapes coincide (e.g. score and output GEMMs when
    kv_len == head_dim) share one entry.
    """
    d, ff, hd = model.d_model, model.d_ff, model.head_dim
    per_head = batch * model.n_heads
    counts: dict[MatmulDims, int] = {}
    for m, count in ((MatmulDims(rows, d, 3 * d, weight_resident=True), 1),
                     (MatmulDims(q_len, hd, kv_len), per_head),
                     (MatmulDims(q_len, kv_len, hd), per_head),
                     (MatmulDims(rows, d, ff, weight_resident=True), 1),
                     (MatmulDims(rows, ff, d, weight_resident=True), 1)):
        counts[m] = counts.get(m, 0) + count * model.n_layers
    return counts


def build_prefill_trace(model: ModelSpec, req: InferenceRequest) -> PhaseTrace:
    """Whole-prompt trace: T = batch * prompt_len token rows per layer."""
    rows = req.batch * req.prompt_len
    matmuls = _layer_matmuls(model, rows, req.batch,
                             kv_len=req.prompt_len, q_len=req.prompt_len)
    return PhaseTrace(Phase.PREFILL, req.prompt_len, matmuls)


def build_decode_trace(model: ModelSpec, req: InferenceRequest,
                       step: int) -> PhaseTrace:
    """Single-token trace at generation step `step` (0-based).

    The KV cache has grown by one entry per previously generated token,
    so attention sees kv_len = prompt_len + step.
    """
    if not 0 <= step < req.gen_tokens:
        raise ValueError(f"step {step} out of range [0, {req.gen_tokens})")
    kv_len = req.prompt_len + step
    matmuls = _layer_matmuls(model, rows=req.batch, batch=req.batch,
                             kv_len=kv_len, q_len=1)
    return PhaseTrace(Phase.DECODE_STEP, kv_len, matmuls)
