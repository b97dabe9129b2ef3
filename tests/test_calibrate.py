import hashlib
import re
from pathlib import Path

from acceldse import calibrate as calibrate_module
from acceldse.calibrate import calibrate, constants_file_text
from acceldse.cli import main
from acceldse.config import (GB, KIB, MHZ, SweepSpec, load_hardware,
                             load_model_spec, load_request, parse_config)

BASELINE = Path(__file__).resolve().parent.parent / "configs" / "baseline.conf"

HW = load_hardware({})
MODEL = load_model_spec({})
REQ = load_request({})

SPEC = SweepSpec(
    s_values=tuple(k * KIB for k in (16, 32, 64, 128, 256, 512, 1024)),
    f_values=tuple(f * 1e6 for f in (200, 400, 600, 800, 1000, 1200, 1400)),
    bw_values=(2048 * GB,),
    phases=("decode",),
)


def test_shipped_constants_are_a_fixed_point(monkeypatch):
    # started from the shipped calibration, the greedy search stops one
    # step away: no single step lowers the displacement, so it must
    # return the shipped constants unchanged (an exact solver would not)
    tables = []
    build = calibrate_module.phase_table
    monkeypatch.setattr(calibrate_module, "phase_table",
                        lambda *args: tables.append(args) or build(*args))
    target = (32 * KIB, 600e6)
    outcome = calibrate(HW, SPEC, MODEL, REQ, target)
    # every trial reuses one table of cycles and traffic
    assert outcome.evaluations > 1 and len(tables) == 1
    assert outcome.hw.sram_leakage_per_byte == HW.sram_leakage_per_byte
    assert outcome.hw.sram_access_energy_ref == HW.sram_access_energy_ref
    assert outcome.achieved[1] == 600e6
    assert outcome.displacement == abs(
        SPEC.s_values.index(outcome.achieved[0]) - SPEC.s_values.index(32 * KIB))


def test_reachable_target_reports_zero_displacement():
    # ask for the cell the default calibration actually reaches
    base = calibrate(HW, SPEC, MODEL, REQ, (32 * KIB, 600e6))
    target = base.achieved
    outcome = calibrate(HW, SPEC, MODEL, REQ, target)
    assert outcome.displacement == 0
    assert outcome.hw.sram_leakage_per_byte == HW.sram_leakage_per_byte


def test_degenerate_single_cell_grid():
    spec = SweepSpec((32 * KIB,), (600e6,), (2048 * GB,), ("decode",))
    outcome = calibrate(HW, spec, MODEL, REQ, (32 * KIB, 600e6))
    assert outcome.displacement == 0
    assert outcome.evaluations == 1  # first search point already satisfies


def test_constants_file_text_round_trips(tmp_path):
    # from the shipped constants, which the search keeps, and from a
    # leakage it moves (1e-7 W/B reaches the target at 2.5e-8)
    target = (32 * KIB, 600e6)
    for start in ({}, {"hw.sram_leakage_w_per_byte": "1e-7"}):
        hw = load_hardware(start)
        outcome = calibrate(hw, SPEC, MODEL, REQ, target)
        text = constants_file_text(outcome, target)
        assert text.startswith("#")
        # parseable as a config fragment: loaded over the same config, it
        # gives the calibrated record, all four SRAM keys included
        path = tmp_path / "constants.conf"
        path.write_text(text)
        values = parse_config(path)
        assert {key for key in values if key.startswith("hw.sram_")} == {
            "hw.sram_leakage_w_per_byte", "hw.sram_access_energy_j",
            "hw.sram_access_ref_kb", "hw.sram_access_exponent"}
        assert load_hardware({**start, **values}) == outcome.hw
        # the search changes the two constants it searches and no other
        assert outcome.hw._replace(
            sram_leakage_per_byte=hw.sram_leakage_per_byte,
            sram_access_energy_ref=hw.sram_access_energy_ref) == hw
    assert outcome.hw.sram_leakage_per_byte == 2.5e-8
    assert outcome.displacement == 0


def test_cli_calibrate_exit_codes(tmp_path, capsys):
    # unreachable exact target: nonzero exit, best displacement reported
    rc = main(["calibrate", "--config", str(BASELINE),
               "--target-s-kb", "32", "--target-f-mhz", "600",
               "--override", "sweep.bandwidth_gbps=2048",
               "--out", str(tmp_path / "constants.conf")])
    captured = capsys.readouterr()
    if rc == 0:
        assert "displacement 0" in captured.out
    else:
        assert rc == 1
        assert "displacement" in captured.err
        assert (tmp_path / "constants.conf").exists()


def test_cli_calibrate_skips_only_trials_that_overflow(capsys):
    # at 2e300 W/B most start cells are finite, but the first trial
    # (leakage x 4) overflows every decode EDP: the search skips it
    def run(leakage):
        code = main(["calibrate", "--config", str(BASELINE),
                     "--override", f"hw.sram_leakage_w_per_byte={leakage}"])
        return (code, *capsys.readouterr())
    code, out, err = run("2e300")
    assert code == 1
    assert "hw.sram_leakage_w_per_byte = 2e+300\n" in out
    assert out.endswith(
        "achieved argmin (S=16384 B, f=6e+08 Hz) after 17 evaluations; "
        "displacement 1 grid step(s)\n")
    assert err == ("error: target argmin not reachable; "
                   "best displacement 1 grid step(s)\n")
    # at 1e303 no start cell is finite: nothing to search from
    assert run("1e303") == (
        1, "", "error: cannot calibrate: no decode EDP is finite\n")


def test_cli_calibrate_accepts_a_step(capsysbinary):
    # from 1e-7 W/B, leakage x 1/4 is the third evaluation and reaches
    # the target; stdout recorded before the search's state was one
    # hardware record
    code = main(["calibrate", "--config", str(BASELINE),
                 "--override", "hw.sram_leakage_w_per_byte=1e-7"])
    out = capsysbinary.readouterr().out
    assert code == 0
    assert b"hw.sram_leakage_w_per_byte = 2.5e-08\n" in out
    assert out.endswith(b"after 3 evaluations; displacement 0 grid step(s)\n")
    assert hashlib.sha256(out).hexdigest() == (
        "c8d60dc44bdb519105bc17d8275ae3f434bb5770fe2cd984c978ce96cd94ab34")


def test_cli_calibrate_clocks_read_back_as_grid_values(capsys):
    # two clocks 0.1 Hz apart: the target's and the achieved cell's differ
    # in every line that names one (`:g` printed both as 6e+08 Hz)
    code = main(["calibrate", "--config", str(BASELINE),
                 "--override", "sweep.frequency_mhz=600,600.0000001",
                 "--target-f-mhz", "600.0000001"])
    out = capsys.readouterr().out
    assert code == 1  # the target lies 2 grid steps from the argmin
    assert [float(f) for f in re.findall(r"f=(\S+) Hz", out)] == [
        600.0000001 * MHZ, 600 * MHZ, 600 * MHZ]
