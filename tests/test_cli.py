import csv
import json

import pytest

from qccdc.cli import main


def test_compile_writes_metrics_json(tmp_path, capsys):
    out = tmp_path / "m.json"
    rc = main(["compile", "--gen", "qft:8", "--topology", "G2x2:4",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["two_qubit_gates"] == 56
    assert data["shuttles"] >= 0 and data["success_rate"] > 0
    assert "compile_ms" in data


def test_compile_deterministic_metrics(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"m{i}.json"
        main(["compile", "--gen", "qft:8", "--topology", "G2x2:4",
              "--out", str(out)])
        d = json.loads(out.read_text())
        d.pop("compile_ms")  # wall-clock differs between runs
        outs.append(d)
    assert outs[0] == outs[1]


def test_compile_from_qasm_file(tmp_path):
    qasm = tmp_path / "c.qasm"
    qasm.write_text("OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n"
                    "cx q[1],q[2];\n")
    out = tmp_path / "m.json"
    rc = main(["compile", "--circuit", str(qasm), "--topology", "L2:3",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["two_qubit_gates"] == 2


def test_compile_a_circuit_without_qubits_under_sta(tmp_path):
    """``--mapping sta`` on ``qreg q[0];`` exited 2 with ``max() arg is an
    empty sequence`` where the other strategies compiled an empty schedule."""
    qasm = tmp_path / "empty.qasm"
    qasm.write_text("OPENQASM 2.0;\nqreg q[0];\n")
    out = tmp_path / "m.json"
    assert main(["compile", "--circuit", str(qasm), "--topology", "L2:3",
                 "--mapping", "sta", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["shuttles"] == data["two_qubit_gates"] == 0


def test_compile_events_csv_and_snapshot(tmp_path):
    ev = tmp_path / "events.csv"
    snap = tmp_path / "snap.json"
    rc = main(["compile", "--gen", "qft:8", "--topology", "G2x2:4",
               "--events-csv", str(ev), "--snapshot", str(snap),
               "--out", str(tmp_path / "m.json")])
    assert rc == 0
    rows = list(csv.DictReader(ev.open()))
    assert rows and {"kind", "start_us", "duration_us"} <= set(rows[0])
    # one row per event: as many of each kind as the metrics count
    m = json.loads((tmp_path / "m.json").read_text())
    kinds = [row["kind"] for row in rows]
    assert kinds.count("gate") == m["two_qubit_gates"] + m["one_qubit_gates"]
    assert kinds.count("swap") == m["swap_gates"]
    assert kinds.count("shift") == m["space_shifts"]
    assert kinds.count("shuttle") == m["shuttles"]
    assert len(rows) == len(kinds) == sum(
        m[k] for k in ("two_qubit_gates", "one_qubit_gates", "swap_gates", "space_shifts",
                       "shuttles"))
    s = json.loads(snap.read_text())
    assert set(s) == {"mapping", "spaces", "nbar"}
    assert len(s["mapping"]) == 8


@pytest.mark.parametrize("baseline", ["none", "ideal"])
def test_snapshot_heat_is_the_cost_models(tmp_path, baseline):
    """The snapshot's heat is ``evaluate``'s unrelaxed grade under every
    baseline: a relaxed shuttle adds no heat, but it still moved the ion."""
    snap = tmp_path / "snap.json"
    rc = main(["compile", "--gen", "qft:8", "--topology", "L3:4", "--baseline", baseline,
               "--snapshot", str(snap), "--out", str(tmp_path / "m.json")])
    assert rc == 0
    assert json.loads(snap.read_text())["nbar"] == {"0": 0.55, "1": 0.88, "2": 0.33}


def test_compile_baseline_flag(tmp_path):
    vals = {}
    for mode in ("none", "perfect-shuttle", "perfect-swap", "ideal"):
        out = tmp_path / f"{mode}.json"
        main(["compile", "--gen", "qft:8", "--topology", "G2x2:4",
              "--baseline", mode, "--out", str(out)])
        vals[mode] = json.loads(out.read_text())["success_rate"]
    assert vals["ideal"] >= vals["perfect-shuttle"] >= vals["none"]
    assert vals["ideal"] >= vals["perfect-swap"] >= vals["none"]


def test_compile_error_exit_code(capsys):
    assert main(["compile", "--topology", "G2x2:4"]) == 2  # no circuit
    assert main(["compile", "--gen", "nope:4", "--topology", "G2x2:4"]) == 2


def test_unknown_generator_parameter_exit_code(capsys):
    assert main(["compile", "--gen", "qft:8:foo=1", "--topology", "L3:4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'foo'" in err and "Traceback" not in err


@pytest.mark.parametrize("gen, topology, message", [
    ("qft:8:foo", "L3:4", "generator spec 'qft:8:foo': 'foo' is not param=value"),
    ("qft:x", "L3:4", "generator spec 'qft:x': size 'x' is not an integer"),
    ("qft:8:n=x", "L3:4", "generator spec 'qft:8:n=x': parameter n 'x' is not an integer"),
    ("qft:8", "G2:4", "topology spec 'G2:4': columns '' is not an integer"),
    ("qft:8", "L:4", "topology spec 'L:4': trap count '' is not an integer"),
    ("qft:8", "Lx:4", "topology spec 'Lx:4': trap count 'x' is not an integer"),
    ("qft:8", "L4:x", "topology spec 'L4:x': capacity 'x' is not an integer"),
    # ``int`` reads these; a spec holds ASCII digits only
    ("qft:1_0", "L3:4", "generator spec 'qft:1_0': size '1_0' is not an integer"),
    ("heisenberg:6:trotter_steps=+2", "L3:4",
     "generator spec 'heisenberg:6:trotter_steps=+2': parameter trotter_steps '+2' "
     "is not an integer"),
    ("qft:8", "L1_0:4", "topology spec 'L1_0:4': trap count '1_0' is not an integer"),
    ("qft:8", "L\u0663:4", "topology spec 'L\u0663:4': trap count '\u0663' is not an integer"),
    ("qft:8", "L3: 4", "topology spec 'L3: 4': capacity ' 4' is not an integer"),
    ("qft:8", "G2x3:+5", "topology spec 'G2x3:+5': capacity '+5' is not an integer"),
    ("qft:8", "L-4:3", "topology spec 'L-4:3': trap count '-4' is not an integer"),
    ("qft:8", "L--4:3", "topology spec 'L--4:3': trap count '--4' is not an integer"),
])
def test_malformed_spec_names_the_part(capsys, gen, topology, message):
    assert main(["compile", "--gen", gen, "--topology", topology]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag, value, field", [
    ("--delta", "nan", "delta"), ("--delta", "inf", "delta"),
    ("--shuttle-weight", "inf", "shuttle_base"), ("--shuttle-weight", "nan", "shuttle_base"),
    ("--alpha", "nan", "alpha"), ("--beta", "-inf", "beta"),
])
def test_non_finite_parameter_exit_code(capsys, flag, value, field):
    # --delta nan used to exit 0 with 12 shuttles where the default run gives 16
    argv = ["compile", "--gen", "qft:8", "--topology", "L3:4", f"{flag}={value}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be finite") and "Traceback" not in err


def test_compile_and_sweep_take_no_seed(capsys):
    """The compile pipeline is deterministic and draws nothing at random."""
    for cmd in (["compile"], ["sweep", "--axis", "delta", "--values", "0.001"]):
        with pytest.raises(SystemExit) as err:
            main(cmd + ["--gen", "qft:4", "--topology", "L2:3", "--seed", "7"])
        assert err.value.code == 2


def test_compile_and_sweep_take_no_m(tmp_path, monkeypatch):
    """The distance table has no truncation, so there is no --m flag and no
    sweep CSV column for it; edge classes come from the graph's structure,
    so there is no --threshold flag either."""
    for cmd in (["compile"], ["sweep", "--axis", "delta", "--values", "0.001"]):
        for flag in (["--m", "2"], ["--threshold", "0.5"]):
            with pytest.raises(SystemExit) as err:
                main(cmd + ["--gen", "qft:4", "--topology", "L2:3"] + flag)
            assert err.value.code == 2
    monkeypatch.setenv("QCCD_SYNC_THREADS", "1")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--gen", "qft:4", "--topology", "L2:3", "--axis", "delta",
                 "--values", "0.001", "--out", str(out)]) == 0
    assert "m" not in next(csv.DictReader(out.open()))


def test_negative_a0_exit_code(capsys):
    # a negative error scale reported success 0.99996 against the default's 0.966
    assert main(["compile", "--gen", "qft:8", "--topology", "L3:4", "--a0", "-1"]) == 2
    assert "a0 must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["-5", "0"])
def test_oracle_check_bad_depth_exit_code(capsys, depth):
    # --max-depth -5 used to exit 0, reporting only instances that need no move
    assert main(["oracle-check", "--n", "3", "--max-depth", depth]) == 2
    assert capsys.readouterr().err.startswith("error: max_depth must be an int >= 1")


def test_compile_full_device_exit_code(capsys):
    # even division fills both traps, so no qubit can be shuttled
    assert main(["compile", "--gen", "qft:8", "--topology", "L2:4", "--mapping", "even"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_topology_json_file(tmp_path):
    topo = tmp_path / "t.json"
    topo.write_text(json.dumps({"family": "L", "n": 2, "capacity": 4}))
    rc = main(["compile", "--gen", "qft:4", "--topology", str(topo),
               "--out", str(tmp_path / "m.json")])
    assert rc == 0


@pytest.mark.parametrize("data", [
    {"traps": [{"id": 0, "capacity": 4}, {"id": 1, "capacity": 4}],
     "paths": [{"trap_a": 0, "trap_b": 2}]},
    {"family": "L", "n": 2},
    {"family": "L", "n": 2, "capacity": "4"},
])
def test_malformed_topology_json_exit_code(tmp_path, capsys, data):
    topo = tmp_path / "t.json"
    topo.write_text(json.dumps(data))
    assert main(["compile", "--gen", "qft:4", "--topology", str(topo)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("junctions, message", [
    # degree -1000 used to exit 0 with a shuttle of -19,795 us
    ([{"id": 0, "degree": -1000}], "junction 0 degree -1000 < 1"),
    ([{"id": 0, "degree": 0}], "junction 0 degree 0 < 1"),
    ([{"id": 0, "degree": 2}, {"id": 0, "degree": 9}], "junction ids must be distinct"),
])
def test_bad_junction_exit_code(tmp_path, capsys, junctions, message):
    topo = tmp_path / "t.json"
    topo.write_text(json.dumps({
        "traps": [{"id": 0, "capacity": 4}, {"id": 1, "capacity": 4}],
        "junctions": junctions,
        "paths": [{"trap_a": 0, "trap_b": 1, "junctions": [0]}]}))
    assert main(["compile", "--gen", "qft:4", "--topology", str(topo)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_capacity_axis(tmp_path, monkeypatch):
    monkeypatch.setenv("QCCD_SYNC_THREADS", "1")
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--gen", "qft:8", "--topology", "G2x2:4",
               "--axis", "capacity", "--values", "4,6", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["value"] for r in rows] == ["4", "6"]
    assert all(r["status"] == "ok" for r in rows)
    assert rows[0]["topology"] == "G2x2:4" and rows[1]["topology"] == "G2x2:6"


@pytest.mark.parametrize("data", [
    {"family": "L", "n": 2, "capacity": 5},
    {"traps": [{"id": 0, "capacity": 5}, {"id": 1, "capacity": 5}],
     "paths": [{"trap_a": 0, "trap_b": 1, "junctions": [0]}],
     "junctions": [{"id": 0, "degree": 2}]},
])
def test_sweep_capacity_axis_on_a_json_topology(tmp_path, monkeypatch, data):
    """Each value sets the capacity of every trap of the loaded device: two
    traps of 3 cannot hold qft:8, and capacity 6 compiles as L2:6 does."""
    monkeypatch.setenv("QCCD_SYNC_THREADS", "1")
    topo = tmp_path / "u.json"
    topo.write_text(json.dumps(data))
    out = tmp_path / "sweep.csv"
    main(["sweep", "--gen", "qft:8", "--topology", str(topo),
          "--axis", "capacity", "--values", "3,6", "--out", str(out)])
    rows = list(csv.DictReader(out.open()))
    assert [r["topology"] for r in rows] == [str(topo)] * 2
    assert rows[0]["status"].startswith("failed: 8 qubits exceed")
    assert rows[1]["status"] == "ok"
    assert main(["compile", "--gen", "qft:8", "--topology", "L2:6",
                 "--out", str(tmp_path / "m.json")]) == 0
    expected = json.loads((tmp_path / "m.json").read_text())
    assert int(rows[1]["shuttles"]) == expected["shuttles"]
    assert int(rows[1]["swap_gates"]) == expected["swap_gates"]


def test_sweep_accepts_equals_form(tmp_path, monkeypatch):
    monkeypatch.setenv("QCCD_SYNC_THREADS", "1")
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--gen=qft:8", "--topology=G2x2:4",
               "--axis=capacity", "--values=4,6", f"--out={out}"])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert [(r["topology"], r["status"]) for r in rows] == [("G2x2:4", "ok"), ("G2x2:6", "ok")]


def test_weights_need_only_intra_below_shuttle(tmp_path, monkeypatch):
    """Any shuttle weight above the widest trap's intra weight compiles: a
    shuttle weight 100 times the intra weight (0.1), and intra weights up to
    0.78 on a 40-slot trap."""
    monkeypatch.setenv("QCCD_SYNC_THREADS", "1")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--gen", "qft:8", "--topology", "L3:4", "--axis", "weight-ratio",
                 "--values", "100,1000", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [(r["value"], r["status"]) for r in rows] == [("100", "ok"), ("1000", "ok")]
    assert main(["compile", "--gen", "qft:8", "--topology", "L2:40", "--inner-weight", "0.02",
                 "--out", str(tmp_path / "m.json")]) == 0


def test_sweep_mapping_axis_records_failures(tmp_path, monkeypatch):
    monkeypatch.setenv("QCCD_SYNC_THREADS", "1")
    out = tmp_path / "sweep.csv"
    # qft:8 does not fit two traps of capacity 3 under even division
    rc = main(["sweep", "--gen", "qft:8", "--topology", "L2:3",
               "--axis", "mapping", "--values", "even,gather", "--out", str(out)])
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["status"].startswith("failed")
    assert rc == 1 or any(r["status"] == "ok" for r in rows)


def test_sweep_rejects_an_unknown_axis(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--gen", "qft:4", "--topology", "L2:3", "--axis", "seed",
              "--values", "1"])
    assert err.value.code == 2 and "invalid choice: 'seed'" in capsys.readouterr().err


def test_sweep_process_pool_matches_serial(tmp_path, monkeypatch):
    """Two worker processes give the rows one process gives, in value order."""
    rows = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("QCCD_SYNC_THREADS", threads)
        out = tmp_path / f"sweep{threads}.csv"
        assert main(["sweep", "--gen", "qft:8", "--topology", "L2:6", "--axis", "delta",
                     "--values", "0.001,0.5", "--out", str(out)]) == 0
        rows[threads] = [{k: v for k, v in r.items() if k != "compile_ms"}
                         for r in csv.DictReader(out.open())]
    assert [r["value"] for r in rows["2"]] == ["0.001", "0.5"]
    assert all(r["status"] == "ok" for r in rows["2"])
    assert rows["2"] == rows["1"]


def test_sweep_bad_value_fails_one_row(tmp_path, monkeypatch):
    monkeypatch.setenv("QCCD_SYNC_THREADS", "1")
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--gen", "qft:8", "--topology", "L2:6", "--axis", "capacity",
               "--values", "6,x", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert [(r["value"], r["status"]) for r in rows] == [
        ("6", "ok"), ("x", "failed: invalid literal for int() with base 10: 'x'")]
    assert rows[1]["topology"] == "L2:6"


def test_oracle_check_csv(tmp_path):
    out = tmp_path / "oc.csv"
    rc = main(["oracle-check", "--n", "10", "--seed", "5", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 10
    assert list(rows[0])[-2:] == ["heuristic_ms", "oracle_ms"]
    for r in rows:
        if r["status"] == "ok":
            assert float(r["ratio"]) >= 1.0 - 1e-9
            assert float(r["oracle_ms"]) >= 0.0
