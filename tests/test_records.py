"""The value types are immutable named tuples whose constructors check
their fields; the checks must hold on every path that builds one."""

import pytest

from acceldse.calibrate import _rebuilt
from acceldse.config import load_hardware, load_model_spec, load_request
from acceldse.dataflow import ArraySpec, FabricSpec
from acceldse.energy import ArrayPower, GatingPolicy, SramEnergyModel
from acceldse.memory import Buffers
from acceldse.sweep import SweepSpec
from acceldse.workload import InferenceRequest, MatmulDims, ModelSpec

HW = load_hardware({})

# (valid record, field, bad value, the constructor's message)
CHECKED = [
    (load_model_spec({}), "d_model", 0, "d_model must be strictly positive"),
    (load_model_spec({}), "head_dim", 64,
     "n_heads * head_dim must equal d_model (96 * 64 != 12288)"),
    (load_request({}), "batch", 0, "batch must be >= 1"),
    (MatmulDims(2, 3, 4), "K", 0, "matmul dims must be >= 1"),
    (HW.fabric.array, "cols", 0, "array dims must be >= 1"),
    (HW.fabric, "cores", 0, "fabric must contain at least one array"),
    (Buffers(1024, 1024), "local", 0, "buffer capacity must be > 0"),
    (Buffers(1024, 1024), "global_", 0, "buffer capacity must be > 0"),
    (HW, "ext_bandwidth", 0, "bandwidths must be > 0"),
    (HW, "onchip_bandwidth", 0, "bandwidths must be > 0"),
    (SramEnergyModel(3e-7, 2e-13, 32768, 0.5), "leakage_per_byte", -1.0,
     "SRAM energy parameters must be positive"),
    (HW.arrays, "ref_frequency", 0.0,
     "array power parameters must be positive"),
    (HW.gating, "decode_saving", 1.0, "gating saving must be in [0, 1)"),
    (HW, "frequency", 0.0, "frequency must be > 0"),
    (SweepSpec((1,), (1.0,), (1.0,), ("decode",)), "f_values", (),
     "f_values must be non-empty"),
    (SweepSpec((1,), (1.0,), (1.0,), ("decode",)), "s_values",
     (2, 1), "s_values must be strictly increasing"),
    (SweepSpec((1,), (1.0,), (1.0,), ("decode",)), "phases", (),
     "phases must be non-empty"),
    (SweepSpec((1,), (1.0,), (1.0,), ("decode",)), "phases",
     ("decode", "decode"), "phases must not repeat"),
    (SweepSpec((1,), (1.0,), (1.0,), ("decode",)), "phases", ("decoder",),
     "phases must be among ('prefill', 'decode')"),
]


@pytest.mark.parametrize("record,field,bad,message", CHECKED,
                         ids=[f"{type(c[0]).__name__}.{c[1]}" for c in CHECKED])
def test_checked_record_rejects_bad_field_on_every_path(record, field, bad,
                                                       message):
    cls = type(record)
    assert _rebuilt(record) == record
    fields = {**record._asdict(), field: bad}
    with pytest.raises(ValueError) as by_keyword:
        cls(**fields)
    with pytest.raises(ValueError) as by_position:
        cls(*fields.values())
    with pytest.raises(ValueError) as by_rebuild:  # how the runtime replaces
        _rebuilt(record, **{field: bad})
    assert {str(e.value) for e in (by_keyword, by_position, by_rebuild)} \
        == {message}
    with pytest.raises(AttributeError):
        setattr(record, field, bad)
    with pytest.raises(AttributeError):  # no instance dict to grow
        record.extra = bad


def test_matmul_dims_is_a_dict_key_by_value():
    counts = {MatmulDims(2, 3, 4): 1}
    counts[MatmulDims(2, 3, 4)] += 1
    counts[MatmulDims(3, 2, 4)] = 5  # same dims in another order
    assert counts == {MatmulDims(2, 3, 4): 2, MatmulDims(3, 2, 4): 5}
    assert hash(MatmulDims(2, 3, 4)) == hash(MatmulDims(M=2, K=3, N=4))


@pytest.mark.parametrize("cls", [ModelSpec, InferenceRequest, ArraySpec,
                                 FabricSpec, SramEnergyModel, ArrayPower,
                                 GatingPolicy], ids=lambda cls: cls.__name__)
def test_config_built_record_declares_no_defaults(cls):
    # each default is declared once, in the config tables that build these
    assert cls._field_defaults == {}
