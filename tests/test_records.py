"""The value types are immutable named tuples that check nothing
themselves: config checks every value where it is parsed, so a value out
of its key's range is rejected naming that key on every path that sets
it, a config file line or an override."""

from pathlib import Path

import pytest

from acceldse.calibrate import calibrate
from acceldse.cli import main
from acceldse.config import (GB, KIB, HardwareConfig, SweepSpec,
                             load_hardware, load_model_spec, load_request)
from acceldse.dataflow import ArraySpec, FabricSpec
from acceldse.memory import Buffers, PhaseTotals, TilingPlan
from acceldse.sweep import run_sweep
from acceldse.workload import InferenceRequest, MatmulDims, ModelSpec

BASELINE = Path(__file__).resolve().parent.parent / "configs" / "baseline.conf"
HW = load_hardware({})
# one decode cell, and the search of a grid of that one cell
CELL = SweepSpec((64 * KIB,), (8e8,), (2048 * GB,), ("decode",))
RESULT = run_sweep(CELL, HW, load_model_spec({}), load_request({}))
OUTCOME = calibrate(HW, CELL, load_model_spec({}), load_request({}),
                    (64 * KIB, 8e8))

# (the record field a key builds, a value out of that key's range)
CHECKED = [
    ("ModelSpec.n_heads", "model.n_heads=0"),
    ("InferenceRequest.batch", "model.batch=0"),
    ("MatmulDims.K", "model.head_dim=0"),  # the attention score's K
    ("ArraySpec.cols", "hw.array_cols=0"),
    ("FabricSpec.cores", "hw.cores=0"),
    ("Buffers.local", "hw.local_buffer_kb=0.0001"),  # 0 bytes
    ("Buffers.global_", "hw.global_buffer_mb=0"),
    ("HardwareConfig.ext_bandwidth", "hw.ext_bandwidth_gbps=0"),
    ("HardwareConfig.onchip_bandwidth", "hw.onchip_bandwidth_gbps=0"),
    ("HardwareConfig.sram_leakage_per_byte", "hw.sram_leakage_w_per_byte=-1"),
    ("HardwareConfig.array_ref_frequency", "hw.array_ref_frequency_mhz=0"),
    ("HardwareConfig.gating_decode", "hw.gating_decode=1"),
    ("HardwareConfig.frequency", "hw.frequency_mhz=0"),
    ("SweepSpec.f_values", "sweep.frequency_mhz=,"),
    ("SweepSpec.s_values", "sweep.local_buffer_kb=2,-1"),
    ("SweepSpec.phases", "sweep.phases=,"),
    ("SweepSpec.phases", "sweep.phases=decode,decode"),
    ("SweepSpec.phases", "sweep.phases=decoder"),
]


@pytest.mark.parametrize("field,setting", CHECKED,
                         ids=[field for field, _ in CHECKED])
def test_checked_record_rejects_bad_field_on_every_path(tmp_path, capsys,
                                                       field, setting):
    key, value = setting.split("=")
    conf = tmp_path / "bad.conf"
    conf.write_text(f"{BASELINE.read_text()}{key} = {value}\n")
    for args in (["--config", str(conf)],
                 ["--config", str(BASELINE), "--override", setting]):
        assert main(["simulate", *args]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: bad value")
        assert key in err


@pytest.mark.parametrize("record", [
    load_model_spec({}), load_request({}), MatmulDims(2, 3, 4),
    HW.fabric.array, HW.fabric, HW.buffers, HW,
    SweepSpec((1,), (1.0,), (1.0,), ("decode",)),
    PhaseTotals(*range(1, 9)), TilingPlan(1, 1, 1),
    RESULT, RESULT.records[0], RESULT.records[0].energy, OUTCOME,
], ids=lambda record: type(record).__name__)
def test_record_is_an_immutable_plain_named_tuple(record):
    assert "__new__" not in vars(type(record))  # no checks of its own
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):  # no instance dict to grow
        record.extra = 1


def test_matmul_dims_is_a_dict_key_by_value():
    counts = {MatmulDims(2, 3, 4): 1}
    counts[MatmulDims(2, 3, 4)] += 1
    counts[MatmulDims(3, 2, 4)] = 5  # same dims in another order
    assert counts == {MatmulDims(2, 3, 4): 2, MatmulDims(3, 2, 4): 5}
    assert hash(MatmulDims(2, 3, 4)) == hash(MatmulDims(M=2, K=3, N=4))


@pytest.mark.parametrize("cls", [ModelSpec, InferenceRequest, ArraySpec,
                                 FabricSpec, Buffers, HardwareConfig,
                                 SweepSpec],
                         ids=lambda cls: cls.__name__)
def test_config_built_record_declares_no_defaults(cls):
    # each default is declared once, in the config tables that build these
    assert cls._field_defaults == {}
