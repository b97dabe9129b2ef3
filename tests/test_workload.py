import pytest

from acceldse.dataflow import FabricSpec
from acceldse.memory import KIB, phase_totals
from acceldse.workload import (InferenceRequest, MatmulDims, ModelSpec, Phase,
                               build_decode_trace, build_prefill_trace,
                               flops_of)

TOY = ModelSpec(d_model=4, n_heads=2, head_dim=2, mlp_ratio=4,
                bytes_per_element=2, n_layers=1)
GPT3 = ModelSpec()


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(d_model=4, n_heads=3, head_dim=2)
    with pytest.raises(ValueError):
        ModelSpec(d_model=0, n_heads=1, head_dim=1)


def test_request_validation():
    with pytest.raises(ValueError):
        InferenceRequest(batch=0)
    with pytest.raises(ValueError):
        InferenceRequest(prompt_len=0)
    with pytest.raises(ValueError):
        InferenceRequest(gen_tokens=-1)


def test_toy_prefill_shapes():
    req = InferenceRequest(batch=1, prompt_len=2, gen_tokens=0)
    trace = build_prefill_trace(TOY, req)
    assert trace.phase is Phase.PREFILL
    assert trace.kv_len == 2
    assert trace.matmuls == {
        MatmulDims(2, 4, 12, weight_resident=True): 1,
        MatmulDims(2, 2, 2): 4,  # 2 head-score + 2 head-output matmuls
        MatmulDims(2, 4, 16, weight_resident=True): 1,
        MatmulDims(2, 16, 4, weight_resident=True): 1,
    }


def test_gpt3_prefill_qkv_shape():
    trace = build_prefill_trace(GPT3, InferenceRequest(batch=8, prompt_len=2048))
    qkv = next(iter(trace.matmuls))
    assert (qkv.M, qkv.K, qkv.N) == (16384, 12288, 36864)
    assert qkv.weight_resident


def test_prefill_independent_of_gen_tokens():
    a = build_prefill_trace(GPT3, InferenceRequest(gen_tokens=0))
    b = build_prefill_trace(GPT3, InferenceRequest(gen_tokens=64))
    assert a == b


def test_decode_kv_growth():
    req = InferenceRequest(batch=8, prompt_len=2048, gen_tokens=16)
    t0 = build_decode_trace(GPT3, req, 0)
    t5 = build_decode_trace(GPT3, req, 5)
    assert t0.kv_len == 2048 and t5.kv_len == 2053
    score0 = next(m for m in t0.matmuls if not m.weight_resident)
    score5 = next(m for m in t5.matmuls if not m.weight_resident)
    assert score0 == MatmulDims(1, 128, 2048)
    assert score5 == MatmulDims(1, 128, 2053)


def test_decode_toy_shapes():
    req = InferenceRequest(batch=1, prompt_len=2, gen_tokens=1)
    trace = build_decode_trace(TOY, req, 0)
    assert trace.matmuls[MatmulDims(1, 2, 2)] == 4
    qkv = next(iter(trace.matmuls))
    assert (qkv.M, qkv.K, qkv.N) == (1, 4, 12)


def test_decode_step_range():
    req = InferenceRequest(gen_tokens=4)
    with pytest.raises(ValueError):
        build_decode_trace(GPT3, req, 4)
    with pytest.raises(ValueError):
        build_decode_trace(GPT3, req, -1)


def test_flops_of():
    assert flops_of(MatmulDims(1, 1, 1)) == 2
    assert flops_of(MatmulDims(2, 2, 2)) == 16
    assert flops_of(MatmulDims(16384, 12288, 36864)) == 2 * 16384 * 12288 * 36864


def test_prefill_score_flops_quadratic_in_prompt():
    def score_flops(prompt_len):
        trace = build_prefill_trace(GPT3, InferenceRequest(batch=2, prompt_len=prompt_len))
        return sum(flops_of(m) * n for m, n in trace.matmuls.items()
                   if not m.weight_resident and m.N == prompt_len)

    assert score_flops(512) * 4 == score_flops(1024)
    assert score_flops(512) * 16 == score_flops(2048)


def test_decode_mlp_flops_independent_of_kv_attention_affine():
    req = InferenceRequest(batch=4, prompt_len=1024, gen_tokens=64)

    def split(step):
        trace = build_decode_trace(GPT3, req, step)
        mlp = sum(flops_of(m) * n for m, n in trace.matmuls.items()
                  if m.weight_resident)
        attn = sum(flops_of(m) * n for m, n in trace.matmuls.items()
                   if not m.weight_resident)
        return mlp, attn

    mlp0, attn0 = split(0)
    mlp10, attn10 = split(10)
    mlp20, attn20 = split(20)
    assert mlp0 == mlp10 == mlp20
    # affine: equal increments for equal kv increments
    assert attn10 - attn0 == attn20 - attn10
    assert attn10 > attn0


def test_decode_weight_bytes_constant_per_step():
    model = ModelSpec(n_layers=3)
    req = InferenceRequest(gen_tokens=8)
    d, ff, b = model.d_model, model.d_ff, model.bytes_per_element
    expected = (d * 3 * d + 2 * d * ff) * b * model.n_layers
    for step in (0, 3, 7):
        trace = build_decode_trace(model, req, step)
        assert sum(m.K * m.N * b * n for m, n in trace.matmuls.items()
                   if m.weight_resident) == expected


def test_n_layers_scales_trace():
    one = build_prefill_trace(GPT3, InferenceRequest())
    three = build_prefill_trace(ModelSpec(n_layers=3), InferenceRequest())
    assert three.matmuls == {m: 3 * n for m, n in one.matmuls.items()}
    fabric, local = FabricSpec(), 64 * KIB
    t1 = phase_totals(one, fabric, local, 2)
    t3 = phase_totals(three, fabric, local, 2)
    assert t3.flops == 3 * t1.flops
    assert t3.compute_cycles == 3 * t1.compute_cycles
    assert t3.traffic == t1.traffic.scaled(3)
