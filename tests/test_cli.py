import csv
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner

from qdc.cli import CSV_FIELDS, main

runner = CliRunner()


def invoke(*args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


def test_capacity_noiseless_ghz():
    res = invoke("capacity", "--state", "gghz:n=3,x=0.70711", "--senders", "2",
                 "--receivers", "1", "--channel", "dephasing:alpha=0,p=0")
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert rec["capacity_bits"] == pytest.approx(3.0, abs=1e-9)
    assert rec["dense_codeable"] is True
    assert rec["tool_version"]


def test_capacity_bell_past_threshold():
    res = invoke("capacity", "--state", "bell", "--senders", "1",
                 "--channel", "depolarizing:alpha=0,p=0.19")
    rec = json.loads(res.output)
    assert rec["dense_codeable"] is False


def test_capacity_two_receivers_theorem3():
    res = invoke("capacity", "--state", "gghz:n=4,x=0.70711", "--senders", "2",
                 "--receivers", "2", "--split", "1",
                 "--channel", "dephasing:alpha=0.9,p=0.4", "--no-optimize")
    rec = json.loads(res.output)
    assert rec["capacity_bits"] == pytest.approx(3.0, abs=1e-9)


def test_csv_schema_order():
    res = invoke("capacity", "--state", "bell", "--senders", "1",
                 "--channel", "dephasing:alpha=0.5,p=0.1", "--format", "csv",
                 "--no-optimize")
    header = res.output.splitlines()[0]
    assert header == ",".join(CSV_FIELDS)


def test_csv_round_trip_reproduces_capacity():
    args = ["capacity", "--state", "w:n=3", "--senders", "2",
            "--channel", "dephasing:alpha=0.7,p=0.21", "--format", "csv",
            "--no-optimize"]
    first = invoke(*args)
    row = next(csv.DictReader(io.StringIO(first.output)))
    rebuilt = ["capacity",
               "--state", f"{row['state']}:{row['state_params']}",
               "--senders", row["n_senders"], "--receivers", row["receivers"],
               "--channel", f"{row['channel']}:alpha={row['alpha']},"
                            f"p={row['p']},eps={row['epsilon']},"
                            f"draw={row['draw_policy']}",
               "--format", "csv", "--no-optimize"]
    second = invoke(*rebuilt)
    row2 = next(csv.DictReader(io.StringIO(second.output)))
    assert row2["capacity_bits"] == row["capacity_bits"]


def test_usage_errors_exit_2():
    for args in (["capacity", "--state", "nope", "--senders", "1"],
                 ["capacity", "--state", "bell", "--senders", "1",
                  "--channel", "dephasing:alpha=0.5,p=0.9"],
                 ["capacity", "--state", "bell", "--senders", "2"],
                 ["critical", "--state", "bell", "--senders", "1"],
                 *(["capacity", "--state", "bell", "--senders", "1", "--channel",
                    f"dephasing:alpha=0.3,p=0.2,eps={eps}"] for eps in ("inf", "nan")),
                 # specifier values that are not (integer) numbers, repeated keys
                 *(["capacity", "--state", state, "--senders", senders, "--channel",
                    channel, "--no-optimize"]
                   for state, senders, channel in (
                       ("gghz:n=3,x=abc", "2", "dephasing:p=0.1"),
                       ("bell", "1", "dephasing:p=abc"),
                       ("w:n=nan", "2", "dephasing:p=0.1"),
                       ("gghz:n=3.7,x=0.7", "2", "dephasing:p=0.1"),
                       ("bell", "1", "dephasing:p=0.1,p=0.2"),
                       ("gghz:n=3,x=0.7,x=0.5", "2", "dephasing:p=0.1"))),
                 ["quench", "--state", "bell", "--senders", "1", "--channel",
                  "dephasing:alpha=0.3,p=0.1,eps=0.5", "--no-optimize",
                  "--optimize-per-realization"],
                 *(["capacity", "--state", "bell", "--senders", "1", "--channel",
                    "dephasing:alpha=0.5,p=0.2", *opts]
                   for opts in (["--opt-restarts", "0"], ["--opt-evals", "3"])),
                 *(["critical", "--state", "bell", "--senders", "1", "--channel",
                    "dephasing:alpha=0.5,p=0", "--no-optimize", option, value]
                   for option, value in (("--refine", "0"), ("--refine", "-1"),
                                         ("--scan-step", "0"), ("--scan-step", "nan"),
                                         ("--scan-step", "-0.01"), ("--threshold", "nan"),
                                         ("--threshold", "inf"), ("--threshold", "-1"))),
                 # a p or alpha sweep without a channel
                 *(["sweep", "--state", "bell", "--senders", "1", "--axis", axis,
                    "--lo", "0", "--hi", "0.1", "--steps", "2", "--no-optimize"]
                   for axis in ("p", "alpha")),
                 *([cmd, "--state", "bell", "--senders", "1", "--channel",
                    "dephasing:p=0.1,eps=0.5", "--realizations", n, *extra]
                   for cmd, extra in (("capacity", []), ("critical", []),
                                      ("sweep", ["--axis", "p", "--lo", "0",
                                                 "--hi", "0.1", "--steps", "2"]))
                   for n in ("0", "-1")),
                 *(["table", "--which", which, option, value]
                   for which in ("I", "III")
                   for option, value in (("--refine", "0"), ("--scan-step", "0"),
                                         ("--scan-step", "inf"))),
                 # negative seeds
                 ["capacity", "--state", "bell", "--senders", "1", "--opt-seed", "-1",
                  "--channel", "dephasing:p=0.1"],
                 *([cmd, "--state", "bell", "--senders", "1", "--channel",
                    "dephasing:p=0.1,eps=0.5", "--realizations", "2", "--seed", "-1"]
                   for cmd in ("quench", "capacity", "critical")),
                 ["table", "--which", "III", "--realizations", "2", "--seed", "-1"],
                 # a state_param sweep of a field that is not a float of the state
                 *(["sweep", "--state", "gghz:n=3,x=0.7", "--senders", "2",
                    "--axis", "state_param", "--param", param, "--lo", lo,
                    "--hi", hi, "--steps", "2", "--no-optimize"]
                   for param, lo, hi in (("y", "0.5", "0.7"), ("n_qubits", "3", "4"))),
                 # a NaN state weight
                 *(["sweep", "--state", state, "--senders", senders, "--channel",
                    "dephasing:alpha=0.5,p=0.1", "--axis", "state_param", "--param",
                    param, "--lo", "nan", "--hi", "0.2", "--steps", "2", "--no-optimize"]
                   for state, senders, param in (("gw3:a=0.1,b=0.2", "2", "a"),
                                                 ("gw3:a=0.1,b=0.2", "2", "b"),
                                                 ("gw4:a=0.1,b=0.2,c=0.1", "3", "c")))):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, args


def test_quench_reproducible():
    args = ["quench", "--state", "gghz:n=3,x=0.70711", "--senders", "2",
            "--channel", "depolarizing:alpha=0.3,p=0.05,eps=0.5",
            "--realizations", "200", "--seed", "7"]
    a = json.loads(invoke(*args).output)
    b = json.loads(invoke(*args).output)
    assert a["capacity_bits"] == b["capacity_bits"]
    assert a["std_error"] == b["std_error"]
    assert a["realizations"] == 200 and a["master_seed"] == 7


def test_sweep_rows_ordered():
    res = invoke("sweep", "--state", "gghz:n=3,x=0.70711", "--senders", "2",
                 "--channel", "dephasing:alpha=0.9,p=0", "--axis", "p",
                 "--lo", "0", "--hi", "0.5", "--steps", "6", "--no-optimize",
                 "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(res.output)))
    assert len(rows) == 6
    ps = [float(r["axis_value"]) for r in rows]
    assert ps == sorted(ps)


def test_critical_record_fields():
    res = invoke("critical", "--state", "gghz:n=3,x=0.70711", "--senders", "2",
                 "--channel", "dephasing:alpha=0.9,p=0", "--no-optimize",
                 "--scan-step", "0.005")
    rec = json.loads(res.output)
    assert 0.25 < rec["p_c"] < 0.35
    assert rec["p_r"] >= rec["p_c"]
    assert rec["p_a"] == pytest.approx(0.3927, abs=2e-3)


def test_validate_passes():
    res = invoke("validate")
    assert res.exit_code == 0
    assert "FAIL" not in res.output
    res = invoke("validate", "--format", "json")
    assert res.exit_code == 0
    reports = json.loads(res.output)
    assert reports and all(r["passed"] is True for r in reports)


def test_unknown_spec_keys_exit_2():
    for state, senders, channel, key in (
            ("bell", "1", "dephasing:alpha=0.5,p=0.1,epsilon=0.5", "epsilon"),
            ("gghz:n=3,x=0.7,foo=1", "2", "dephasing:p=0.1", "foo")):
        res = runner.invoke(main, ["capacity", "--state", state, "--senders",
                                   senders, "--channel", channel, "--no-optimize"])
        assert res.exit_code == 2, key
        assert f"'{key}'" in res.output


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    # a key that names no flag of the command is ignored
    cfg.write_text("state = bell\nsenders = 1\n"
                   "channel = dephasing:alpha=0.5,p=0.1\nno-optimize = true\n"
                   "threads = 2\n")
    res = invoke("--config", str(cfg), "capacity")
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert rec["state"] == "bell"
    # explicit flags override config values
    res = invoke("--config", str(cfg), "capacity", "--channel",
                 "dephasing:alpha=0.5,p=0")
    assert json.loads(res.output)["p"] == 0.0


def test_out_writes_file(tmp_path):
    out = tmp_path / "run.csv"
    res = invoke("capacity", "--state", "bell", "--senders", "1",
                 "--channel", "dephasing:alpha=0,p=0.1", "--no-optimize",
                 "--format", "csv", "--out", str(out))
    assert res.exit_code == 0
    assert out.read_text().startswith("state,")


def test_negative_seed_without_a_random_channel_runs():
    # --seed seeds a quench only; a deterministic channel (or none) reads no
    # seed, so a negative one is no error there
    for cmd, channel, extra in (
            ("capacity", "dephasing:alpha=0.5,p=0.2", []),
            ("capacity", None, []),
            ("critical", "dephasing:alpha=0.5,p=0", ["--scan-step", "0.01"]),
            ("sweep", "dephasing:alpha=0.5,p=0", ["--axis", "p", "--lo", "0",
                                                  "--hi", "0.1", "--steps", "2"])):
        args = [cmd, "--state", "bell", "--senders", "1", "--no-optimize", *extra,
                *(["--channel", channel] if channel else [])]
        res = invoke(*args, "--seed", "-1")
        assert res.exit_code == 0, args
        assert res.output == invoke(*args).output
        assert json.loads(res.output.splitlines()[0])["master_seed"] == ""


def test_capacity_random_channel_uses_quenched_mean():
    res = invoke("capacity", "--state", "bell", "--senders", "1",
                 "--channel", "dephasing:alpha=0.3,p=0.1,eps=0.5",
                 "--realizations", "100", "--seed", "3")
    rec = json.loads(res.output)
    assert rec["realizations"] == 100
    assert rec["std_error"] > 0
    res = invoke("capacity", "--state", "bell", "--senders", "1",
                 "--channel", "dephasing:alpha=0.3,p=0.1,eps=0.5")
    assert json.loads(res.output)["realizations"] == 4000
