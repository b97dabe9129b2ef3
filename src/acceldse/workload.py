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

from collections import namedtuple

PHASES = ("prefill", "decode")  # every phase, by the name outputs carry


class ModelSpec(namedtuple("ModelSpec", (
        "n_heads", "head_dim", "mlp_ratio", "bytes_per_element", "n_layers"))):
    """Shape of one transformer layer stack.  Its width d_model is its
    heads side by side, n_heads * head_dim, as in GPT-3 (96 x 128)."""

    __slots__ = ()

    @property
    def d_model(self) -> int:
        return self.n_heads * self.head_dim

    @property
    def d_ff(self) -> int:
        return self.mlp_ratio * self.d_model


class InferenceRequest(namedtuple("InferenceRequest", (
        "batch", "prompt_len", "gen_tokens", "decode_step"))):
    """A request; decode reports step 0 <= decode_step < gen_tokens."""

    __slots__ = ()


class MatmulDims(namedtuple("MatmulDims", ("M", "K", "N"))):
    """One GEMM (M x K) @ (K x N)."""

    __slots__ = ()


class PhaseTrace(namedtuple("PhaseTrace", (
        "matmuls",  # {MatmulDims: count over all layers}, each GEMM once
))):
    __slots__ = ()


def weight_matmuls(model: ModelSpec,
                   rows: int) -> tuple[tuple[MatmulDims, int], ...]:
    """(GEMM, count over all layers) of the QKV projection, the MLP
    up-projection and the MLP down-projection, in that order.

    rows: token rows hitting the weight matrices (batch * q_len).  No
    weight GEMM depends on the context length.
    """
    d, ff, n = model.d_model, model.d_ff, model.n_layers
    return ((MatmulDims(rows, d, 3 * d), n), (MatmulDims(rows, d, ff), n),
            (MatmulDims(rows, ff, d), n))


def attention_matmuls(model: ModelSpec, batch: int, q_len: int,
                      kv_len: int) -> tuple[tuple[MatmulDims, int], ...]:
    """(GEMM, count over all layers) of the attention score and the
    attention output, one of each per (batch, head) pair.

    q_len:  query positions per sequence (prompt_len in prefill, 1 in decode)
    kv_len: context length visible to attention
    """
    hd = model.head_dim
    count = batch * model.n_heads * model.n_layers
    return ((MatmulDims(q_len, hd, kv_len), count),
            (MatmulDims(q_len, kv_len, hd), count))


def _layer_matmuls(model: ModelSpec, batch: int, kv_len: int,
                   q_len: int) -> dict[MatmulDims, int]:
    """Five sublayer groups in layer order: QKV, attention, MLP.

    GEMMs whose shapes coincide share one entry, where the first of them
    stands: score and output when kv_len == head_dim, an attention and a
    weight GEMM when n_heads == 1.  Per-matmul quantities depend on
    (M, K, N) alone and totals are integer sums, so merging changes no
    result.
    """
    qkv, *mlp = weight_matmuls(model, batch * q_len)
    counts: dict[MatmulDims, int] = {}
    for m, count in (qkv, *attention_matmuls(model, batch, q_len, kv_len),
                     *mlp):
        counts[m] = counts.get(m, 0) + count
    return counts


def build_prefill_trace(model: ModelSpec, req: InferenceRequest) -> PhaseTrace:
    """Whole-prompt trace: T = batch * prompt_len token rows per layer."""
    return PhaseTrace(_layer_matmuls(model, req.batch, kv_len=req.prompt_len,
                                     q_len=req.prompt_len))


def build_decode_trace(model: ModelSpec, req: InferenceRequest,
                       step: int) -> PhaseTrace:
    """Single-token trace at generation step 0 <= `step` < gen_tokens, the
    range `config.load_request` checks decode_step in: attention sees the
    prompt and every earlier generated token, kv_len = prompt_len + step."""
    return PhaseTrace(_layer_matmuls(model, req.batch,
                                     kv_len=req.prompt_len + step, q_len=1))
