from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from acceldse.cli import main
from acceldse.config import KIB, load_hardware, load_model_spec, load_request
from acceldse.energy import energy_terms
from acceldse.memory import phase_totals
from acceldse.sweep import evaluate_point
from acceldse.workload import (InferenceRequest, MatmulDims, ModelSpec,
                               PhaseTrace, attention_matmuls,
                               build_decode_trace, build_prefill_trace,
                               weight_matmuls)

BASELINE = Path(__file__).resolve().parent.parent / "configs" / "baseline.conf"
TOY = ModelSpec(n_heads=2, head_dim=2, mlp_ratio=4, bytes_per_element=2,
                n_layers=1)
GPT3 = load_model_spec({})
HW = load_hardware({})


def model(**fields) -> ModelSpec:
    """The default model with `fields` changed."""
    return ModelSpec(**{**GPT3._asdict(), **fields})


def request(**fields) -> InferenceRequest:
    return InferenceRequest(**{**load_request({})._asdict(), **fields})


def is_attention(m: MatmulDims) -> bool:
    # score GEMMs are (q_len, head_dim, kv_len), output GEMMs
    # (q_len, kv_len, head_dim); weight GEMMs have K, N >= d_model
    return GPT3.head_dim in (m.K, m.N)


def gemm_flops(m: MatmulDims) -> int:
    return 2 * m.M * m.K * m.N


def rejected(capsys, override: str) -> str:
    """The one-line diagnostic of a run with `override`, which exits 2."""
    assert main(["simulate", "--config", str(BASELINE),
                 "--override", override]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


def test_model_spec_validation(capsys):
    # config checks each model value as it parses it, naming its key;
    # d_model is n_heads * head_dim, not a key
    assert "bad value for model.n_heads: '0'" \
        in rejected(capsys, "model.n_heads=0")
    assert "unknown key 'model.d_model'" \
        in rejected(capsys, "model.d_model=12288")


def test_request_validation(capsys):
    for override in ("model.batch=0", "model.prompt_len=0",
                     "model.gen_tokens=-1"):
        assert f"bad value for {override.split('=')[0]}: " \
            in rejected(capsys, override)


def test_toy_prefill_shapes():
    req = request(batch=1, prompt_len=2, gen_tokens=0)
    trace = build_prefill_trace(TOY, req)
    assert trace.matmuls == {
        MatmulDims(2, 4, 12): 1,
        MatmulDims(2, 2, 2): 4,  # 2 head-score + 2 head-output matmuls
        MatmulDims(2, 4, 16): 1,
        MatmulDims(2, 16, 4): 1,
    }


def test_gpt3_prefill_qkv_shape():
    trace = build_prefill_trace(GPT3, request(batch=8, prompt_len=2048))
    qkv = next(iter(trace.matmuls))
    assert (qkv.M, qkv.K, qkv.N) == (16384, 12288, 36864)
    assert not is_attention(qkv) and trace.matmuls[qkv] == 1  # once a layer


def test_prefill_independent_of_gen_tokens():
    a = build_prefill_trace(GPT3, request(gen_tokens=0))
    b = build_prefill_trace(GPT3, request(gen_tokens=64))
    assert a == b


def test_decode_kv_growth():
    req = request(batch=8, prompt_len=2048, gen_tokens=16)
    t0 = build_decode_trace(GPT3, req, 0)
    t5 = build_decode_trace(GPT3, req, 5)
    score0 = next(m for m in t0.matmuls if m.K == GPT3.head_dim)
    score5 = next(m for m in t5.matmuls if m.K == GPT3.head_dim)
    assert score0.N == 2048 and score5.N == 2053  # kv_len
    assert score0 == MatmulDims(1, 128, 2048)
    assert score5 == MatmulDims(1, 128, 2053)


def test_decode_toy_shapes():
    req = request(batch=1, prompt_len=2, gen_tokens=1)
    trace = build_decode_trace(TOY, req, 0)
    assert trace.matmuls[MatmulDims(1, 2, 2)] == 4
    qkv = next(iter(trace.matmuls))
    assert (qkv.M, qkv.K, qkv.N) == (1, 4, 12)


@pytest.mark.parametrize("dims,flops", [
    ((1, 1, 1), 2),
    ((2, 2, 2), 16),
    ((16384, 12288, 36864), 2 * 16384 * 12288 * 36864),
])
def test_phase_flops_two_per_mac(dims, flops):
    totals = phase_totals(PhaseTrace({MatmulDims(*dims): 1}), HW.fabric,
                          64 * KIB, 2)
    record = evaluate_point(totals, energy_terms(totals, "prefill", HW,
                                                 64 * KIB),
                            "prefill", HW, 64 * KIB, HW.frequency,
                            HW.ext_bandwidth)
    assert record.flops == flops


def test_prefill_score_flops_quadratic_in_prompt():
    def score_flops(prompt_len):
        trace = build_prefill_trace(GPT3, request(batch=2,
                                                  prompt_len=prompt_len))
        return sum(gemm_flops(m) * n for m, n in trace.matmuls.items()
                   if m.K == GPT3.head_dim and m.N == prompt_len)

    assert score_flops(512) * 4 == score_flops(1024)
    assert score_flops(512) * 16 == score_flops(2048)


def test_decode_mlp_flops_independent_of_kv_attention_affine():
    req = request(batch=4, prompt_len=1024, gen_tokens=64)

    def split(step):
        trace = build_decode_trace(GPT3, req, step)
        mlp = sum(gemm_flops(m) * n for m, n in trace.matmuls.items()
                  if not is_attention(m))
        attn = sum(gemm_flops(m) * n for m, n in trace.matmuls.items()
                   if is_attention(m))
        return mlp, attn

    mlp0, attn0 = split(0)
    mlp10, attn10 = split(10)
    mlp20, attn20 = split(20)
    assert mlp0 == mlp10 == mlp20
    # affine: equal increments for equal kv increments
    assert attn10 - attn0 == attn20 - attn10
    assert attn10 > attn0


def test_decode_weight_bytes_constant_per_step():
    deep = model(n_layers=3)
    req = request(gen_tokens=8)
    d, ff, b = deep.d_model, deep.d_ff, deep.bytes_per_element
    expected = (d * 3 * d + 2 * d * ff) * b * deep.n_layers
    for step in (0, 3, 7):
        trace = build_decode_trace(deep, req, step)
        assert sum(m.K * m.N * b * n for m, n in trace.matmuls.items()
                   if not is_attention(m)) == expected


def test_n_layers_scales_trace():
    one = build_prefill_trace(GPT3, request())
    three = build_prefill_trace(model(n_layers=3), request())
    assert three.matmuls == {m: 3 * n for m, n in one.matmuls.items()}
    fabric, local = HW.fabric, 64 * KIB
    t1 = phase_totals(one, fabric, local, 2)
    t3 = phase_totals(three, fabric, local, 2)
    assert t3 == tuple(3 * v for v in t1)


def merged(pairs) -> list[tuple[MatmulDims, int]]:
    """Each distinct GEMM of (GEMM, count) pairs once, where it first
    appears, with the counts of all its appearances summed."""
    gemms = list(dict.fromkeys(m for m, _ in pairs))
    return [(g, sum(n for m, n in pairs if m == g)) for g in gemms]


@settings(max_examples=200, deadline=None)
@given(n_heads=st.integers(1, 3), head_dim=st.integers(1, 8),
       mlp_ratio=st.integers(1, 4), n_layers=st.integers(1, 3),
       batch=st.integers(1, 3), prompt_len=st.integers(1, 40),
       step=st.integers(0, 40))
# with one head and one sequence, kv_len == head_dim merges score and
# output; kv_len == 3 * d_model merges the decode score into QKV;
# kv_len == d_ff merges score into MLP up and output into MLP down;
# mlp_ratio 3 merges MLP up into QKV and mlp_ratio 1 MLP down into MLP up
@example(n_heads=1, head_dim=4, mlp_ratio=4, n_layers=2, batch=1,
         prompt_len=4, step=0)
@example(n_heads=1, head_dim=4, mlp_ratio=4, n_layers=2, batch=1,
         prompt_len=10, step=2)
@example(n_heads=1, head_dim=4, mlp_ratio=4, n_layers=2, batch=1,
         prompt_len=16, step=0)
@example(n_heads=1, head_dim=4, mlp_ratio=3, n_layers=1, batch=1,
         prompt_len=12, step=0)
@example(n_heads=2, head_dim=3, mlp_ratio=1, n_layers=1, batch=2,
         prompt_len=3, step=0)
def test_traces_merge_weight_and_attention_gemms(n_heads, head_dim, mlp_ratio,
                                                 n_layers, batch, prompt_len,
                                                 step):
    spec = ModelSpec(n_heads=n_heads, head_dim=head_dim, mlp_ratio=mlp_ratio,
                     bytes_per_element=2, n_layers=n_layers)
    req = InferenceRequest(batch, prompt_len, gen_tokens=step + 1,
                           decode_step=step)
    for trace, rows, q_len, kv_len in (
            (build_decode_trace(spec, req, step), batch, 1, prompt_len + step),
            (build_prefill_trace(spec, req), batch * prompt_len, prompt_len,
             prompt_len)):
        qkv, *mlp = weight_matmuls(spec, rows)
        attention = attention_matmuls(spec, batch, q_len, kv_len)
        # layer order: QKV, attention score and output, MLP up and down
        assert list(trace.matmuls.items()) == merged([qkv, *attention, *mlp])
