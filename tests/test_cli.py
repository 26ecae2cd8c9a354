import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qauthlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "perfbench/fixtures/family-m1-s3.json"

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def strip_timing(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "elapsed_seconds"}


def test_lemmas_command(capsys):
    code, rep = run_cli(capsys, "lemmas")
    assert code == 0
    assert rep["results"]["pass"] is True
    assert rep["results"]["relocation_identity_max_residual"] < 1e-12
    assert rep["results"]["postselection_identity_max_residual"] < 1e-12


def test_lemmas_fails_an_identity_that_drops_the_transpose(capsys, monkeypatch):
    # negative control: (M (x) I) sum_j |j>|j> = (I (x) M) sum_i |i>|i> holds
    # only for a symmetric M, and an off-diagonal matrix unit is not one
    from qauthlab import cli

    def without_transpose(m):
        d = m.shape[0]
        if m.shape != (d, d):
            return 0.0
        pair = np.eye(d).reshape(-1)
        return float(np.linalg.norm(np.kron(m, np.eye(d)) @ pair - np.kron(np.eye(d), m) @ pair))

    monkeypatch.setattr(cli, "transpose_trick_residual", without_transpose)
    code, rep = run_cli(capsys, "lemmas")
    assert code == 1
    assert rep["results"]["relocation_identity_max_residual"] > 1e-12
    assert rep["results"]["pass"] is False


def test_ptc_search_and_reload(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    code, rep = run_cli(
        capsys, "ptc", "--m", "1", "--s", "2", "--seed", "1", "--out", str(fam_path)
    )
    assert code == 0
    assert rep["results"]["meets_formula"] is True
    assert fam_path.exists()

    # loading the saved family re-verifies to the same value
    code2, rep2 = run_cli(capsys, "ptc", "--m", "1", "--s", "2", "--family", str(fam_path))
    assert code2 == 0
    assert rep2["results"]["epsilon_reverified"] == rep["results"]["epsilon_verified"]
    assert rep2["results"]["stored_matches_reverification"] is True


def test_ptc_detects_tampered_epsilon(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    code, _ = run_cli(
        capsys, "ptc", "--m", "1", "--s", "1", "--seed", "2", "--out", str(fam_path)
    )
    assert code == 0
    payload = json.loads(fam_path.read_text())
    payload["epsilon_verified"] = 0.0  # forge a better-than-true parameter
    fam_path.write_text(json.dumps(payload))
    code2, rep2 = run_cli(capsys, "ptc", "--m", "1", "--s", "1", "--family", str(fam_path))
    assert code2 == 1
    assert rep2["results"]["stored_matches_reverification"] is False


def test_ptc_loaded_family_overrides_size_flags(tmp_path, capsys):
    # parameters come from the loaded family, not from the --m/--s defaults
    fam_path = tmp_path / "fam3.json"
    run_cli(capsys, "ptc", "--m", "1", "--s", "3", "--seed", "1", "--out", str(fam_path))
    code, rep = run_cli(capsys, "ptc", "--family", str(fam_path))
    assert code == 0
    assert rep["results"]["epsilon_formula"] == pytest.approx(8.0 / 27.0)
    assert rep["results"]["qubits_sent"] == 4


def test_ptc_reports_the_key_of_the_family_it_verified(tmp_path, capsys):
    # the 14-code fixture pays log2 14 bits for its code index, not the
    # formula's log2 (2^3 + 1); its formula 8/27 can fail
    code, rep = run_cli(capsys, "ptc", "--family", str(FIXTURE))
    assert code == 0
    results = rep["results"]
    assert results["family_size"] == 14
    assert results["key_bits"] == pytest.approx(2 + 3 + np.log2(14.0), abs=1e-12)
    assert results["key_bits_formula"] == pytest.approx(2 + 3 + np.log2(9.0), abs=1e-12)
    assert round(results["key_bits"], 3) == 8.807 and round(results["key_bits_formula"], 3) == 8.170
    assert results["formula_vacuous"] is False
    # at s = 1 the formula 2 (1 + m) / 3 is at least 1: meets_formula holds
    # whatever the family's epsilon
    fam_path = tmp_path / "fam.json"
    code, rep = run_cli(capsys, "ptc", "--m", "2", "--s", "1", "--seed", "1", "--out", str(fam_path))
    assert code == 0
    results = rep["results"]
    assert results["epsilon_formula"] >= 1.0
    assert results["formula_vacuous"] is True
    assert results["key_bits"] == pytest.approx(4 + 1 + np.log2(results["family_size"]), abs=1e-12)
    assert results["key_bits_formula"] == pytest.approx(4 + 1 + np.log2(3.0), abs=1e-12)


def test_ptc_malformed_family_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"codes": [["xz:11|00", "xz:11|00"]]}))
    code = main(["ptc", "--m", "1", "--s", "1", "--family", str(bad)])
    assert code == 2


def test_uc_single_attack_and_determinism(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    run_cli(capsys, "ptc", "--m", "1", "--s", "1", "--seed", "1", "--out", str(fam_path))

    out = tmp_path / "report.json"
    argv = [
        "uc", "--m", "1", "--s", "1", "--family", str(fam_path),
        "--attack", "identity", "--seed", "1", "--out", str(out),
    ]
    code1, rep1 = run_cli(capsys, *argv)
    assert code1 == 0
    (result,) = rep1["results"]
    assert result["qa_kg"]["advantage"] < 1e-9
    first = json.loads(out.read_text())
    code2, _ = run_cli(capsys, *argv)
    assert code2 == 0
    second = json.loads(out.read_text())
    # byte-identical reports modulo the wall-clock field
    assert json.dumps(strip_timing(first), sort_keys=True) == json.dumps(
        strip_timing(second), sort_keys=True
    )


def test_uc_unknown_attack_is_config_error(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    run_cli(capsys, "ptc", "--m", "1", "--s", "1", "--seed", "1", "--out", str(fam_path))
    code = main(
        ["uc", "--m", "1", "--s", "1", "--family", str(fam_path), "--attack", "nope"]
    )
    assert code == 2


def test_uc_invariant_violation_exits_three(tmp_path, capsys, monkeypatch, clear_job_caches):
    from qauthlab import protocols

    fam_path = tmp_path / "fam.json"
    run_cli(capsys, "ptc", "--m", "1", "--s", "1", "--seed", "1", "--out", str(fam_path))
    pieces = protocols._attack_pieces

    def leaky(family, attack):  # an attack dilation that loses weight
        iso, names, out_regs = pieces(family, attack)
        return 0.9 * iso, names, out_regs

    monkeypatch.setattr(protocols, "_attack_pieces", leaky)
    code = main(["uc", "--m", "1", "--s", "1", "--family", str(fam_path), "--attack", "identity"])
    assert code == 3
    assert "total weight" in capsys.readouterr().err


def test_uc_tampered_attack_table_exits_three(capsys, monkeypatch, clear_job_caches):
    # swap-held's Kraus operators scaled by 1.01: --attack only names suite
    # attacks, so a V that is no isometry is a fault of the program (exit 3),
    # never a configuration error (exit 2)
    from qauthlab import adversary

    isometry = adversary._isometry

    def scaled(desc, dims):
        v = isometry(desc, dims)
        return 1.01 * v if desc.kind == "swap_held" else v

    monkeypatch.setattr(adversary, "_isometry", scaled)
    code = main(["uc", "--m", "1", "--s", "1", "--seed", "1", "--attack", "swap-held"])
    assert code == 3
    err = capsys.readouterr().err
    assert "internal invariant violated" in err and "'swap-held' is not an isometry" in err


def test_uc_plan_fault_exits_three(capsys, monkeypatch):
    # a plan that maps both verdicts of QA+KG to one record (REJ drops M, ACC
    # keeps it) can only come from the program's own plans: an internal
    # invariant, never a configuration error (exit 2)
    from qauthlab import protocols

    plan = protocols._qa_output_plan

    def one_record(*args):
        inner = plan(*args)
        return lambda fields: ((("verdict", "any"),),) + inner(fields)[1:]

    monkeypatch.setattr(protocols, "_qa_output_plan", one_record)
    code = main(["uc", "--family", str(FIXTURE), "--attack", "depol-0.5"])
    assert code == 3
    err = capsys.readouterr().err
    assert "internal invariant violated" in err and "accumulated under different kept registers" in err


def test_uc_non_hermitian_block_exits_three(capsys, monkeypatch):
    # one run_tqa_kg block moved by 1e-6 in one off-diagonal entry is no
    # longer Hermitian; the distance that compares it with run_qa_kg's refuses
    # it as a fault of the program (exit 3), never a configuration error
    from qauthlab import cli
    from qauthlab.hybrid import FinalState

    run_tqa_kg = cli.run_tqa_kg

    def tampered(*args, **kwargs):
        blocks = {rec: (b.registers, b.matrix) for rec, b in run_tqa_kg(*args, **kwargs).blocks.items()}
        rec = next(iter(blocks))
        regs, matrix = blocks[rec]
        matrix = matrix.copy()
        matrix[0, 1] += 1e-6
        blocks[rec] = (regs, matrix)
        return FinalState(blocks)

    monkeypatch.setattr(cli, "run_tqa_kg", tampered)
    code = main(["uc", "--family", str(FIXTURE), "--attack", "identity", "--input", "random-1", "--seed", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "internal invariant violated" in err and "trace_norm" in err


def test_uc_tampered_decoder_breaks_the_forms_identity(capsys, monkeypatch):
    # negative control for identities_ok: ebit_ptc runs the family with code 0
    # swapped for a copy of code 1, so its encoder and decoder for t = 0 are
    # wrong, while ebit_ptp keeps the true family and the two entanglement
    # forms drift apart. The fault goes into one form only: both forms read
    # one encoder stack, so a tampered stack would reach both and the
    # identity between them would still hold.
    from dataclasses import replace

    from qauthlab import cli

    def uc():
        code, rep = run_cli(
            capsys, "uc", "--family", str(FIXTURE), "--input", "entangled", "--attack", "random-101"
        )
        (result,) = rep["results"]
        return code, result

    code, result = uc()
    assert code == 0
    assert result["checks"]["identities_ok"] is True

    ebit_ptc = cli.ebit_ptc

    def swapped(family, attack):
        return ebit_ptc(replace(family, codes=family.codes[1:2] + family.codes[1:]), attack)

    monkeypatch.setattr(cli, "ebit_ptc", swapped)
    code, result = uc()
    assert code == 1
    assert result["checks"]["entanglement_forms_identity"] == pytest.approx(9.4e-3, rel=0.01)
    assert result["checks"]["teleported_twin_identity"] < 1e-9
    assert result["checks"]["identities_ok"] is False
    # both advantage bounds still pass: only the identity check sees the fault
    assert result["ebit"]["pass"] and result["qa_kg"]["pass"]


def test_uc_negative_eigenvalue_in_an_accept_block_exits_three(capsys, monkeypatch):
    # ebit_ptp's accept block with its lowest eigenvalue moved to -4.7e-6 of
    # its weight (the top one raised by as much, so it stays Hermitian with
    # its trace): the program built that block, so ebit_report's refusal of
    # its conditional state is a fault of the program (exit 3), never a
    # configuration error (exit 2)
    from qauthlab import cli
    from qauthlab.hybrid import ACC, FinalState, record_get

    ebit_ptp = cli.ebit_ptp

    def tampered(family, attack):
        blocks = {rec: (b.registers, b.matrix) for rec, b in ebit_ptp(family, attack).blocks.items()}
        rec = next(rec for rec in blocks if record_get(rec, "verdict") == ACC)
        regs, matrix = blocks[rec]
        values, vectors = np.linalg.eigh(matrix)
        shift = values[0] + 4.7e-6 * values.sum()
        low, top = vectors[:, :1], vectors[:, -1:]
        blocks[rec] = (regs, matrix + shift * (top @ top.conj().T - low @ low.conj().T))
        return FinalState(blocks)

    monkeypatch.setattr(cli, "ebit_ptp", tampered)
    code = main(["uc", "--family", str(FIXTURE), "--attack", "X1", "--input", "random-1", "--seed", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "internal invariant violated" in err
    assert re.search(r"FinalBlock\.conditional: density matrix has eigenvalue -4\.(7|69+\d*)e-06 below", err)


def test_uc_small_forms_gap_fails_identities_ok(capsys, monkeypatch):
    # negative control for identities_ok's 1e-9: ebit_ptc's accept block
    # mixed with 1e-6 of its trace times I/d stays Hermitian and positive, and
    # moves the forms identity to about 1e-6, far below any bound's notice
    from qauthlab import cli
    from qauthlab.hybrid import ACC, FinalState, record_get

    ebit_ptc = cli.ebit_ptc

    def mixed(family, attack):
        blocks = {rec: (b.registers, b.matrix) for rec, b in ebit_ptc(family, attack).blocks.items()}
        rec = next(rec for rec in blocks if record_get(rec, "verdict") == ACC)
        regs, matrix = blocks[rec]
        noise = matrix.trace().real * np.eye(len(matrix)) / len(matrix)
        blocks[rec] = (regs, (1 - 1e-6) * matrix + 1e-6 * noise)
        return FinalState(blocks)

    monkeypatch.setattr(cli, "ebit_ptc", mixed)
    code, rep = run_cli(capsys, "uc", "--family", str(FIXTURE), "--attack", "identity", "--input", "entangled")
    assert code == 1
    (result,) = rep["results"]
    assert 1e-9 < result["checks"]["entanglement_forms_identity"] < 1e-3
    assert result["checks"]["teleported_twin_identity"] < 1e-9
    assert result["checks"]["identities_ok"] is False
    assert result["ebit"]["pass"] and result["qa_kg"]["pass"]


def test_uc_small_factored_gap_fails_factored_matches_direct(capsys, monkeypatch):
    # negative control for factored_matches_direct's 1e-9: the factored
    # form's trace norm read 1e-6 too high moves the factored advantage by
    # p_acc * 1e-6 = 1e-6 on the identity attack, far below any bound
    from qauthlab import ucharness

    trace_norm = ucharness.trace_norm
    monkeypatch.setattr(ucharness, "trace_norm", lambda matrix: trace_norm(matrix) + 1e-6)
    code, rep = run_cli(capsys, "uc", "--family", str(FIXTURE), "--attack", "identity", "--input", "entangled")
    assert code == 1
    (result,) = rep["results"]
    ebit = result["ebit"]
    assert 1e-9 < abs(ebit["advantage"] - ebit["extras"]["advantage_factored"]) < 1e-3
    assert result["checks"]["factored_matches_direct"] is False
    assert result["checks"]["identities_ok"] and result["checks"]["fidelity_chain_ok"]
    assert ebit["pass"] and result["qa_kg"]["pass"]


def test_uc_small_fidelity_dip_fails_fidelity_chain_ok(capsys, monkeypatch):
    # negative control for fidelity_chain_ok's 1e-9: an accept fidelity read
    # 1e-6 too low falls 1e-6 below the floor (1 - d)^2, which is 1 up to
    # roundoff on the identity attack
    from qauthlab import ucharness

    fidelity = ucharness.fidelity
    monkeypatch.setattr(ucharness, "fidelity", lambda rho, sigma: fidelity(rho, sigma) - 1e-6)
    code, rep = run_cli(capsys, "uc", "--family", str(FIXTURE), "--attack", "identity", "--input", "entangled")
    assert code == 1
    (result,) = rep["results"]
    extras = result["ebit"]["extras"]
    assert 1e-9 < (1.0 - extras["overlap_defect"]) ** 2 - extras["fidelity_acc"] < 1e-2
    assert result["checks"]["fidelity_chain_ok"] is False
    assert result["checks"]["identities_ok"] and result["checks"]["factored_matches_direct"]
    assert result["ebit"]["pass"] and result["qa_kg"]["pass"]


def test_uc_understated_epsilon_exits_one(tmp_path, capsys):
    # negative control: this family's true eps is 0.625; with a stored eps of
    # 0.2, attack X0 is accepted with p_acc * (1 - overlap) = 0.25 > 0.2,
    # which breaks the purity-test soundness statement
    fam_path = tmp_path / "fam.json"
    run_cli(capsys, "ptc", "--m", "1", "--s", "1", "--seed", "1", "--out", str(fam_path))
    payload = json.loads(fam_path.read_text())
    payload["epsilon_verified"] = 0.2
    fam_path.write_text(json.dumps(payload))
    code, rep = run_cli(
        capsys, "uc", "--m", "1", "--s", "1", "--family", str(fam_path), "--attack", "X0"
    )
    assert code == 1
    (result,) = rep["results"]
    assert result["checks"]["acc_defect_ok"] is False
    # the advantage bounds are too loose to notice
    assert result["ebit"]["pass"] and result["qa_kg"]["pass"]


def test_uc_understated_epsilon_fails_both_bounds(tmp_path, capsys):
    # negative control: the fixture's eps is 2/7; stated as 1e-4, both bounds
    # fall to 2 sqrt(2) (1e-4)^(1/3) = 0.131, below X0's advantage of 2/7
    payload = json.loads(FIXTURE.read_text())
    payload["epsilon_verified"] = 1e-4
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(payload))
    code, rep = run_cli(capsys, "uc", "--family", str(fam_path), "--attack", "X0", "--input", "random-1", "--seed", "1")
    assert code == 1
    (result,) = rep["results"]
    for protocol in ("ebit", "qa_kg"):
        assert result[protocol]["advantage"] > result[protocol]["bound"], protocol
        assert result[protocol]["pass"] is False, protocol


def test_ptp_soundness_command(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    run_cli(capsys, "ptc", "--m", "1", "--s", "2", "--seed", "1", "--out", str(fam_path))
    code, rep = run_cli(capsys, "ptp-soundness", "--family", str(fam_path))
    assert code == 0
    assert rep["results"]["within_epsilon"] is True


def test_ptp_soundness_understated_epsilon_exits_one(tmp_path, capsys):
    # negative control: this family's exact soundness is 0.5; a stored eps of
    # 0.2 must turn within_epsilon false and the exit code to 1
    fam_path = tmp_path / "fam.json"
    run_cli(capsys, "ptc", "--m", "1", "--s", "2", "--seed", "1", "--out", str(fam_path))
    payload = json.loads(fam_path.read_text())
    payload["epsilon_verified"] = 0.2
    fam_path.write_text(json.dumps(payload))
    code, rep = run_cli(capsys, "ptp-soundness", "--family", str(fam_path))
    assert code == 1
    assert rep["results"]["within_epsilon"] is False
    assert rep["results"]["soundness_exact"] == pytest.approx(0.5, abs=1e-12)


def test_wc_commands(capsys):
    code, rep = run_cli(capsys, "wc", "--field-bits", "2", "--msg-len", "1")
    assert code == 0
    assert rep["results"]["advantage"]["pass"] is True
    code2, rep2 = run_cli(capsys, "wc", "--field-bits", "3", "--msg-len", "1", "--leak-demo")
    assert code2 == 0
    assert rep2["results"]["leak"]["leakage_bits"] > 0.0


def test_psqa_command(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    run_cli(capsys, "ptc", "--m", "1", "--s", "1", "--seed", "1", "--out", str(fam_path))
    code, rep = run_cli(
        capsys, "psqa", "--m", "1", "--s", "1", "--family", str(fam_path),
        "--K", "8", "--seed", "3", "--attacks", "2",
    )
    assert code == 0
    assert all(r["pass"] for r in rep["results"])
    assert rep["config"]["failure_probability"] >= 0.0


def test_psqa_remote_preparation_twin_identity(capsys, monkeypatch):
    from qauthlab import approx_psqa

    argv = ["psqa", "--family", str(FIXTURE), "--attacks", "25", "--seed", "1"]
    code, rep = run_cli(capsys, *argv)
    assert code == 0
    assert len(rep["results"]) == 25
    assert all(r["rsp_twin_identity"] < 1e-9 and r["pass"] for r in rep["results"])

    # negative control: the twin's receiver keeps the k-th encryption on
    # accept, its corrections U_k^dag replaced by the identity
    sweep = approx_psqa.key_sweep

    def uncorrected(*args, key=None, **kwargs):
        if key is not None and "f" in key[1]:
            key = key[:5] + (np.broadcast_to(np.eye(key[5].shape[1]), key[5].shape),)
        return sweep(*args, key=key, **kwargs)

    monkeypatch.setattr(approx_psqa, "key_sweep", uncorrected)
    code, tampered = run_cli(capsys, *argv)
    assert code == 1
    identity = next(r for r in tampered["results"] if r["attack"]["label"] == "identity")
    assert identity["rsp_twin_identity"] >= 1e-9 and identity["pass"] is False
    # the advantage and its bound do not read the twin
    for before, after in zip(rep["results"], tampered["results"]):
        assert {k: v for k, v in after.items() if k not in ("rsp_twin_identity", "pass")} == {
            k: v for k, v in before.items() if k not in ("rsp_twin_identity", "pass")
        }


def test_psqa_untransposed_failure_element_exits_three(capsys, monkeypatch):
    # F = I - S/M, the transpose of S dropped: on half of a maximally
    # entangled pair it weighs what F does, so only key_sweep's check that
    # the preparation measurement is complete sees it, 0.145 from I
    from qauthlab import approx_psqa
    from qauthlab.qmath import psd_sqrt

    key = approx_psqa.rsp_key

    def untransposed(cipher, vec):
        label, values, names, ops, out, fix = key(cipher, vec)
        total, scale, _ = approx_psqa.rsp_scale(cipher, vec)
        ops = np.concatenate([ops[:-1], psd_sqrt(np.eye(len(total)) - total / scale)[None]])
        return label, values, names, ops, out, fix

    monkeypatch.setattr(approx_psqa, "rsp_key", untransposed)
    code = main(["psqa", "--family", str(FIXTURE), "--attacks", "1", "--seed", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "internal invariant violated" in err
    assert "key sweep: key 'k' is not a complete instrument: sum_v K_v^dag K_v is 0.145 from I" in err


def test_psqa_small_twin_gap_fails_the_attack(capsys, monkeypatch):
    # negative control for the 1e-9 gate on rsp_twin_identity: the twin's
    # accept blocks mixed with 1e-6 of their trace times I/d stay Hermitian
    # and positive, and move the twin identity to about 1e-6
    from qauthlab import approx_psqa
    from qauthlab.hybrid import ACC, FinalState, record_get

    argv = ["psqa", "--family", str(FIXTURE), "--attacks", "1", "--seed", "1"]
    code, rep = run_cli(capsys, *argv)
    assert code == 0
    twin = approx_psqa.run_psrqa_kg

    def mixed(*args):
        blocks = {rec: (b.registers, b.matrix) for rec, b in twin(*args).blocks.items()}
        for rec, (regs, matrix) in blocks.items():
            if record_get(rec, "verdict") == ACC:
                noise = matrix.trace().real * np.eye(len(matrix)) / len(matrix)
                blocks[rec] = (regs, (1 - 1e-6) * matrix + 1e-6 * noise)
        return FinalState(blocks)

    monkeypatch.setattr(approx_psqa, "run_psrqa_kg", mixed)
    code, tampered = run_cli(capsys, *argv)
    assert code == 1
    (before,), (after,) = rep["results"], tampered["results"]
    assert after["attack"]["label"] == "identity"
    assert 1e-9 < after["rsp_twin_identity"] < 1e-3
    assert after["pass"] is False and after["advantage"] <= after["bound"]
    # the advantage and its bound do not read the twin
    assert {k: v for k, v in after.items() if k not in ("rsp_twin_identity", "pass")} == {
        k: v for k, v in before.items() if k not in ("rsp_twin_identity", "pass")
    }


def test_bad_usage_exits_two():
    assert main(["no-such-command"]) == 2


def test_wc_above_cost_limit_exits_two(capsys):
    assert main(["wc", "--field-bits", "6", "--msg-len", "2"]) == 2
    err = capsys.readouterr().err
    assert "68719476736" in err and "2^24 = 16777216" in err


def test_ptc_reproduces_the_committed_fixture(tmp_path, capsys):
    # locks the worst-error tie-break that search_ptc's repair loop follows
    out = tmp_path / "fam.json"
    code, _ = run_cli(capsys, "ptc", "--m", "1", "--s", "3", "--seed", "1", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == FIXTURE.read_bytes()


def test_ptc_family_above_cost_limit_exits_two(tmp_path, capsys):
    # an n = 10 family: verify_ptc would hold 4^10 * (20 + 1) entries
    fam_path = tmp_path / "fam10.json"
    fam_path.write_text(json.dumps({"codes": [["xz:0000000000|1000000000"]], "epsilon_verified": 0.0}))
    assert main(["ptc", "--family", str(fam_path)]) == 2
    err = capsys.readouterr().err
    assert "4^10 * (20 + 1) = 22020096" in err and "2^24 = 16777216" in err


def _one_code_family(tmp_path, n: int):
    """A family file of one code on n qubits with one generator."""
    fam_path = tmp_path / f"fam{n}.json"
    fam_path.write_text(json.dumps({"codes": [["xz:" + "0" * n + "|1" + "0" * (n - 1)]], "epsilon_verified": 0.0}))
    return fam_path


@pytest.mark.parametrize("command", ["uc", "psqa"])
def test_state_level_runs_above_n4_exit_two_before_any_work(tmp_path, capsys, monkeypatch, command):
    from qauthlab import cli

    def no_search(*args, **kwargs):
        raise AssertionError("the family search started")

    monkeypatch.setattr(cli, "search_ptc", no_search)
    assert main([command, "--m", "1", "--s", "4"]) == 2
    assert "limited to n <= 4" in capsys.readouterr().err
    # a loaded n = 5 family is refused the same way
    assert main([command, "--family", str(_one_code_family(tmp_path, 5))]) == 2
    assert "this family has n = m + s = 5" in capsys.readouterr().err


def test_ptp_soundness_above_n6_exits_two_before_any_work(tmp_path, capsys, monkeypatch):
    # ptp-soundness builds only Omega's XOR blocks and runs where families
    # are searched, up to n = 6
    from qauthlab import cli

    def no_work(*args, **kwargs):
        raise AssertionError("an experiment started")

    for step in ("search_ptc", "ptp_soundness_exact"):
        monkeypatch.setattr(cli, step, no_work)
    assert main(["ptp-soundness", "--m", "1", "--s", "6"]) == 2
    assert "ptp-soundness is limited to n <= 6" in capsys.readouterr().err
    assert main(["ptp-soundness", "--family", str(_one_code_family(tmp_path, 7))]) == 2
    assert "this family has n = m + s = 7" in capsys.readouterr().err


def test_parser_is_built_once_and_carries_nothing_over(capsys):
    from qauthlab import cli

    assert cli.build_parser() is cli.build_parser()
    run_cli(capsys, "wc", "--field-bits", "3", "--msg-len", "1", "--leak-demo")
    code, rep = run_cli(capsys, "lemmas")
    assert code == 0
    assert rep["config"] == {"command": "lemmas"}
    code, rep = run_cli(capsys, "wc", "--field-bits", "2")
    assert code == 0
    assert rep["config"] == {"command": "wc", "field_bits": 2, "msg_len": 1, "leak_demo": False}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["uc", "--m", "1", "--s", "1", "--attack", "identity", "--input", "basis-7"], "0 <= k < 2^m = 2"),
        (["uc", "--m", "1", "--s", "1", "--input", "basis-2"], "0 <= k < 2^m = 2"),
        (["uc", "--m", "1", "--s", "1", "--input", "basis--1"], "0 <= k < 2^m = 2"),
        (["psqa", "--K", "0"], "argument --K: 0 is not at least 1"),
        (["psqa", "--K", "-3"], "argument --K: -3 is not at least 1"),
        (["ptc", "--s", "0"], "argument --s: 0 is not at least 1"),
        (["ptc", "--budget", "0"], "argument --budget: 0 is not at least 1"),
        (["psqa", "--attacks", "0"], "argument --attacks: 0 is not at least 1"),
        (["ptp-soundness", "--budget", "10001"], "--budget 10001 is above the limit 10000"),
        (["uc", "--m", "2", "--s", "2", "--attack", "nope"], "no attack named 'nope' in the standard suite"),
        (["psqa", "--m", "0", "--s", "2"], "argument --m: 0 is not at least 1"),
        (["ptp-soundness", "--m", "0", "--s", "1"], "argument --m: 0 is not at least 1"),
        (
            ["psqa", "--m", "3", "--s", "1", "--target-eps", "0", "--budget", "3000"],
            "sampled ciphers are limited to m <= 2; this family has m = 3",
        ),
        (
            ["psqa", "--K", "1048576"],
            "a cipher of K = 1048576 keys on m = 1 qubits needs (2^(m+1) + 2000) * K * 2^m = 4202692608 "
            "entries to measure, above the limit 2^24 = 16777216",
        ),
        (
            ["psqa", "--m", "1", "--s", "1", "--attacks", "100"],
            "--attacks 100 is more than the 19 T-only attacks of the standard suite at m = 1, s = 1",
        ),
        (["psqa", "--budget", "10001"], "--budget 10001 is above the limit 10000"),
        (["ptc", "--budget", "10001"], "--budget 10001 is above the limit 10000 search trials"),
        (["uc", "--m", "1", "--s", "1", "--budget", "10001"], "--budget 10001 is above the limit 10000"),
    ],
)
def test_bad_numbers_exit_two_before_any_work(capsys, monkeypatch, argv, message):
    from qauthlab import cli

    def no_work(*args, **kwargs):
        raise AssertionError("an experiment started")

    for step in ("search_ptc", "sample_cipher"):
        monkeypatch.setattr(cli, step, no_work)
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_family_file_without_a_logical_qubit_exits_two(tmp_path, capsys):
    # one generator on one qubit: the code encodes m = 0 qubits
    fam_path = tmp_path / "m0.json"
    fam_path.write_text(json.dumps({"codes": [["xz:0|1"]], "epsilon_verified": 0.0}))
    for command in ("ptp-soundness", "ptc", "uc", "psqa"):
        assert main([command, "--family", str(fam_path)]) == 2, command
        assert "its codes have m = 0" in capsys.readouterr().err, command


def test_family_file_of_mixed_code_sizes_exits_two_before_any_encoder(tmp_path, capsys, monkeypatch):
    # the fixture's (1, 3) codes behind a (2, 3) code on 5 qubits: refused
    # when the family is built, not by numpy when the encoders are stacked
    from qauthlab import protocols

    def no_encoder(code):
        raise AssertionError("an encoder was built")

    monkeypatch.setattr(protocols, "encoding_unitary", no_encoder)
    payload = json.loads(FIXTURE.read_text())
    payload["codes"].insert(0, ["xz:00000|10000", "xz:00000|01000", "xz:00000|00100"])
    fam_path = tmp_path / "mixed.json"
    fam_path.write_text(json.dumps(payload))
    for command in ("uc", "psqa", "ptp-soundness", "ptc"):
        assert main([command, "--family", str(fam_path)]) == 2, command
        assert "family mixes code parameters" in capsys.readouterr().err, command


def test_family_file_declaring_other_parameters_exits_two_before_any_encoder(tmp_path, capsys, monkeypatch):
    # the fixture's (1, 3) codes under a declared s = 2
    from qauthlab import protocols

    def no_encoder(code):
        raise AssertionError("an encoder was built")

    monkeypatch.setattr(protocols, "encoding_unitary", no_encoder)
    payload = json.loads(FIXTURE.read_text())
    payload["s"] = 2
    fam_path = tmp_path / "s2.json"
    fam_path.write_text(json.dumps(payload))
    for command in ("uc", "psqa", "ptp-soundness", "ptc"):
        assert main([command, "--family", str(fam_path)]) == 2, command
        assert "family file declares s = 2, but its codes give 3" in capsys.readouterr().err, command


def test_unusable_paths_exit_two(tmp_path, capsys, monkeypatch):
    # a directory where a file belongs raises IsADirectoryError, an OSError
    # but no FileNotFoundError: a configuration error all the same, not a
    # traceback with exit 1, the code of a failed bound
    assert main(["ptc", "--family", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    # an --out that is a directory, or whose parent is missing or a file, is
    # refused before the family search or any uc or psqa run starts
    from qauthlab import cli

    entered = []

    def never(name):
        def spy(*args, **kwargs):
            entered.append(name)
            raise AssertionError(f"{name} was entered")

        return spy

    for name in ("search_ptc", "_uc_single", "psqa_advantage"):
        monkeypatch.setattr(cli, name, never(name))
    (tmp_path / "file").write_text("")
    for out in (tmp_path, tmp_path / "missing" / "r.json", tmp_path / "file" / "r.json"):
        for argv in (
            ["ptc", "--m", "1", "--s", "1", "--seed", "1"],
            ["uc", "--family", str(FIXTURE), "--attack", "X0"],
            ["psqa", "--family", str(FIXTURE), "--attacks", "1"],
        ):
            assert main(argv + ["--out", str(out)]) == 2, (argv, out)
            assert "configuration error: --out" in capsys.readouterr().err, (argv, out)
    assert entered == []
    assert not (tmp_path / "missing").exists()


def test_uc_draws_its_input_once(capsys, monkeypatch):
    # one call checks the --input spec before the search, one draws the state
    from qauthlab import cli

    calls = []
    draw = cli.purified_input

    def spy(spec, m):
        calls.append(spec)
        return draw(spec, m)

    monkeypatch.setattr(cli, "purified_input", spy)
    code, rep = run_cli(capsys, "uc", "--m", "1", "--s", "1", "--seed", "1", "--input", "random-2")
    assert code == 0
    assert len(rep["results"]) > 1
    assert calls == ["random-2", "random-2"]


def test_a_count_that_is_not_an_integer_exits_two(capsys):
    assert main(["ptc", "--budget", "abc"]) == 2
    err = capsys.readouterr().err
    assert "argument --budget: 'abc' is not an integer" in err
    assert "_positive" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("uc", "--m", "1", "--s", "1", "--attack", "random-101", "--seed", "1"),
        ("psqa", "--m", "1", "--s", "1", "--attacks", "2", "--seed", "1"),
        ("wc",),
        ("wc", "--leak-demo"),
        ("ptp-soundness", "--family", str(FIXTURE)),
    ],
    ids=["uc", "psqa", "wc", "wc-leak-demo", "ptp-soundness"],
)
def test_reports_do_not_depend_on_the_hash_seed(argv):
    # records are dict keys, grouped and summed in dict order; reruns in one
    # process share its hash seed, so each seed gets a fresh interpreter
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed}
        run = subprocess.run(
            [sys.executable, "-m", "qauthlab.cli", *argv], capture_output=True, text=True, env=env, timeout=300
        )
        assert run.returncode == 0, run.stderr
        assert '"elapsed_seconds"' in run.stdout
        runs.append(re.sub(r'\n *"elapsed_seconds": [^\n]*', "", run.stdout))
    assert runs[0] == runs[1]


def test_internal_key_error_exits_three(tmp_path, capsys, monkeypatch):
    from qauthlab import cli

    fam_path = tmp_path / "fam.json"
    run_cli(capsys, "ptc", "--m", "1", "--s", "1", "--seed", "1", "--out", str(fam_path))

    ebit_report = cli.ebit_report

    def missing_field(*args):  # a report field the program expected
        rep = ebit_report(*args)
        return replace(rep, extras={k: v for k, v in rep.extras.items() if k != "overlap_defect"})

    monkeypatch.setattr(cli, "ebit_report", missing_field)
    code = main(["uc", "--m", "1", "--s", "1", "--family", str(fam_path), "--attack", "identity"])
    assert code == 3
    err = capsys.readouterr().err
    assert "internal invariant violated" in err and "KeyError('overlap_defect')" in err


def test_memory_error_exits_three_and_names_the_subcommand(capsys, monkeypatch):
    from qauthlab import cli

    def out_of_memory(family, attack, psi):
        raise MemoryError("Unable to allocate 16.0 GiB")

    monkeypatch.setattr(cli, "_uc_single", out_of_memory)
    code = main(["uc", "--family", str(FIXTURE), "--attack", "identity"])
    assert code == 3
    err = capsys.readouterr().err
    assert "internal invariant violated: uc ran out of memory" in err and "16.0 GiB" in err
