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
              "--seed", "7", "--out", str(out)])
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


def test_compile_events_csv_and_snapshot(tmp_path):
    ev = tmp_path / "events.csv"
    snap = tmp_path / "snap.json"
    rc = main(["compile", "--gen", "qft:8", "--topology", "G2x2:4",
               "--events-csv", str(ev), "--snapshot", str(snap),
               "--out", str(tmp_path / "m.json")])
    assert rc == 0
    rows = list(csv.DictReader(ev.open()))
    assert rows and {"kind", "start_us", "duration_us"} <= set(rows[0])
    s = json.loads(snap.read_text())
    assert set(s) == {"mapping", "spaces", "nbar"}
    assert len(s["mapping"]) == 8


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


def test_sweep_mapping_axis_records_failures(tmp_path, monkeypatch):
    monkeypatch.setenv("QCCD_SYNC_THREADS", "1")
    out = tmp_path / "sweep.csv"
    # qft:8 does not fit two traps of capacity 3 under even division
    rc = main(["sweep", "--gen", "qft:8", "--topology", "L2:3",
               "--axis", "mapping", "--values", "even,gather", "--out", str(out)])
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["status"].startswith("failed")
    assert rc == 1 or any(r["status"] == "ok" for r in rows)


def test_oracle_check_csv(tmp_path):
    out = tmp_path / "oc.csv"
    rc = main(["oracle-check", "--n", "10", "--seed", "5", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 10
    for r in rows:
        if r["status"] == "ok":
            assert float(r["ratio"]) >= 1.0 - 1e-9
