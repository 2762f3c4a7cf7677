import json
import os

import numpy as np
import pytest

from ksgnslab.cli import main as cli_main
from ksgnslab.errors import InvalidConfig, ParseError
from ksgnslab.harness import (
    _SUITES,
    SUITE_NAMES,
    CheckRecord,
    Report,
    SizeCaps,
    SuiteConfig,
    check_instance,
    generate,
    generate_instance,
    instance_seed,
    report_emit,
    run,
)
from ksgnslab.numkernel import Tolerance
from ksgnslab.reporting import CheckReport


SMALL = SizeCaps(instances_per_suite=2)


def strip_times(report):
    return [
        (r.suite, r.instance_seed, r.check, r.theorem, r.residual, r.threshold, r.passed)
        for r in report.records
    ]


def test_config_validation():
    with pytest.raises(InvalidConfig):
        SuiteConfig(suites=("nope",))
    with pytest.raises(InvalidConfig):
        SuiteConfig(jobs=0)
    with pytest.raises(InvalidConfig):
        SizeCaps(max_block=0)
    with pytest.raises(InvalidConfig):
        SuiteConfig(caps=SizeCaps(max_block=9, max_blocks=3, max_module_dim=30))


def test_instance_seed_stable_under_reordering():
    a = instance_seed(7, "ksgns", 3)
    b = instance_seed(7, "tensor", 3)
    assert a == instance_seed(7, "ksgns", 3)
    assert a != b


def test_reports_deterministic_modulo_wall_time():
    cfg = SuiteConfig(seed=5, caps=SMALL, suites=("ksgns", "continuity"))
    r1 = run(cfg)
    r2 = run(cfg)
    assert strip_times(r1) == strip_times(r2)
    assert r1.all_passed


def test_generate_files_byte_identical(tmp_path):
    cfg = SuiteConfig(seed=5, caps=SMALL, suites=("ksgns", "equivariant"))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    generate(cfg, str(d1))
    generate(cfg, str(d2))
    for suite in cfg.suites:
        b1 = (d1 / f"{suite}.json").read_bytes()
        b2 = (d2 / f"{suite}.json").read_bytes()
        assert b1 == b2


def test_run_from_files_matches_run_from_seed(tmp_path):
    cfg = SuiteConfig(seed=9, caps=SMALL, suites=("lift",))
    generate(cfg, str(tmp_path))
    from_files = run(cfg, instance_dir=str(tmp_path))
    from_seed = run(cfg)
    assert strip_times(from_files) == strip_times(from_seed)


def test_empty_suite_list_is_empty_pass():
    cfg = SuiteConfig(seed=1, caps=SMALL, suites=())
    report = run(cfg)
    assert report.total == 0
    assert report.all_passed


def test_parse_error_on_garbage_file(tmp_path):
    path = tmp_path / "ksgns.json"
    path.write_text("{not json")
    cfg = SuiteConfig(seed=1, caps=SMALL, suites=("ksgns",))
    with pytest.raises(ParseError):
        run(cfg, instance_dir=str(tmp_path))


@pytest.mark.parametrize("where", ["missing", "empty"])
def test_run_from_directory_without_instances_is_parse_error(tmp_path, where, capsys):
    d = tmp_path / "inst"
    if where == "empty":
        d.mkdir()
    cfg = SuiteConfig(seed=1, caps=SMALL, suites=("ksgns",))
    with pytest.raises(ParseError):
        run(cfg, instance_dir=str(d))
    assert cli_main(["run", "--in", str(d)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("instances", [5, [5]])
def test_malformed_instance_list_is_parse_error(tmp_path, instances, capsys):
    (tmp_path / "ksgns.json").write_text(json.dumps({"suite": "ksgns", "instances": instances}))
    cfg = SuiteConfig(seed=1, caps=SMALL, suites=("ksgns",))
    with pytest.raises(ParseError):
        run(cfg, instance_dir=str(tmp_path))
    assert cli_main(["run", "--in", str(tmp_path), "--suites", "ksgns"]) == 2
    capsys.readouterr()


def test_suite_file_filed_under_another_suite_is_parse_error(tmp_path, capsys):
    generate(SuiteConfig(seed=1, caps=SizeCaps(instances_per_suite=1), suites=("lift",)),
             str(tmp_path))
    (tmp_path / "lift.json").rename(tmp_path / "ksgns.json")
    cfg = SuiteConfig(seed=1, caps=SMALL, suites=("ksgns",))
    with pytest.raises(ParseError, match="holds 'lift' instances, not 'ksgns'"):
        run(cfg, instance_dir=str(tmp_path))
    assert cli_main(["run", "--in", str(tmp_path), "--suites", "ksgns"]) == 2
    capsys.readouterr()


def test_run_from_directory_runs_the_suites_it_holds(tmp_path):
    generate(SuiteConfig(seed=2, caps=SizeCaps(instances_per_suite=1), suites=("ksgns",)),
             str(tmp_path))
    cfg = SuiteConfig(seed=2, caps=SMALL, suites=("ksgns", "lift"))
    report = run(cfg, instance_dir=str(tmp_path))
    assert {r.suite for r in report.records} == {"ksgns"}
    assert report.total > 0 and report.all_passed


def test_isolation_failing_instance_does_not_abort(tmp_path):
    cfg = SuiteConfig(seed=11, caps=SizeCaps(instances_per_suite=3), suites=("ksgns",))
    generate(cfg, str(tmp_path))
    path = tmp_path / "ksgns.json"
    doc = json.loads(path.read_text())
    # corrupt the first instance's map beyond repair
    doc["instances"][0]["phi"]["images"][0][0][0] = [0.1, 10.0]
    path.write_text(json.dumps(doc))
    report = run(cfg, instance_dir=str(tmp_path))
    assert not report.all_passed
    seeds = {r.instance_seed for r in report.records}
    assert len(seeds) == 3  # the other two instances still ran
    failing = {r.instance_seed for r in report.records if not r.passed}
    assert len(failing) == 1


def test_report_json_round_trip_idempotent():
    cfg = SuiteConfig(seed=2, caps=SMALL, suites=("ksgns",))
    report = run(cfg)
    text = report_emit(report, "json")
    parsed = Report.from_json(json.loads(text))
    assert report_emit(parsed, "json") == text
    summary = json.loads(text)["summary"]
    assert summary["total"] == report.total
    assert summary["passed"] == report.passed


def test_report_config_records_blas_thread_settings(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = SuiteConfig(seed=2, caps=SMALL, suites=("ksgns",))
    report = run(cfg)
    assert report.config["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None,
    }
    assert SuiteConfig.from_json(report.config) == cfg
    assert {k: v for k, v in report.config.items() if k != "blas_threads"} == cfg.to_json()


def test_report_round_trip_with_failure_record():
    rec = CheckRecord("lift", 7, "construction", "some law", float("inf"), 0.0, False, 0.1,
                      error="NotCP: boom")
    report = Report({}, [rec])
    text = report_emit(report, "json")
    parsed = Report.from_json(json.loads(text))
    assert parsed.records[0].residual == float("inf")
    assert parsed.records[0].error == "NotCP: boom"
    assert report_emit(parsed, "json") == text
    assert "inf" in report_emit(parsed, "text")


def test_text_report_contains_fail_line():
    rec = CheckRecord("ksgns", 1, "reconstruction", "some law", 1.0, 1e-8, False, 0.0)
    report = Report({}, [rec])
    text = report_emit(report, "text")
    assert "FAIL" in text
    assert "1.000e+00" in text


def test_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "inst"
    assert cli_main(["gen", "--seed", "3", "--out", str(out), "--suites", "ksgns",
                     "--caps", "instances_per_suite=1"]) == 0
    assert cli_main(["run", "--in", str(out), "--suites", "ksgns"]) == 0
    # corrupt and expect exit 1
    path = out / "ksgns.json"
    doc = json.loads(path.read_text())
    doc["instances"][0]["phi"]["images"][0][0][0] = [9.9, 0.0]
    path.write_text(json.dumps(doc))
    assert cli_main(["run", "--in", str(out), "--suites", "ksgns"]) == 1
    # garbage file: exit 2
    path.write_text("{")
    assert cli_main(["run", "--in", str(out), "--suites", "ksgns"]) == 2
    capsys.readouterr()


def test_cli_run_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(["run", "--seed", "6", "--suites", "ksgns",
                     "--caps", "instances_per_suite=1", "--format", "json",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["failed"] == 0
    assert doc["records"]
    capsys.readouterr()


def test_cli_env_seed_override(tmp_path, monkeypatch, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("VERIFY_SEED", "77")
    cli_main(["gen", "--seed", "3", "--out", str(d1), "--suites", "ksgns",
              "--caps", "instances_per_suite=1"])
    monkeypatch.delenv("VERIFY_SEED")
    cli_main(["gen", "--seed", "77", "--out", str(d2), "--suites", "ksgns",
              "--caps", "instances_per_suite=1"])
    assert (d1 / "ksgns.json").read_bytes() == (d2 / "ksgns.json").read_bytes()
    capsys.readouterr()


def test_cli_bad_caps_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert cli_main(["gen", "--out", out, "--caps", "nonsense=3"]) == 2
    assert cli_main(["gen", "--out", out, "--caps", "max_block"]) == 2
    assert cli_main(["run", "--caps", "max_block=0"]) == 2
    capsys.readouterr()


def test_cli_demo(capsys):
    assert cli_main(["demo", "gns"]) == 0
    out = capsys.readouterr().out
    assert "dilation space dimension: 4" in out
    assert "nontrivial" in out


def test_parallel_jobs_match_serial():
    cfg1 = SuiteConfig(seed=4, caps=SMALL, suites=("ksgns",), jobs=1)
    cfg2 = SuiteConfig(seed=4, caps=SMALL, suites=("ksgns",), jobs=2)
    assert strip_times(run(cfg1)) == strip_times(run(cfg2))


def test_every_suite_generates_and_passes():
    assert tuple(_SUITES) == SUITE_NAMES
    for suite in SUITE_NAMES:
        seed = instance_seed(123, suite, 0)
        payload = generate_instance(suite, SMALL, seed)
        records = check_instance(suite, payload, Tolerance())
        assert records, suite
        bad = [r for r in records if not r.passed]
        assert not bad, (suite, [(r.check, r.residual, r.error) for r in bad])


def test_generated_ksgns_instances_self_certify(tmp_path):
    from ksgnslab import serialize as ser
    from ksgnslab.cp import check_cp

    cfg = SuiteConfig(seed=31, caps=SizeCaps(instances_per_suite=10), suites=("ksgns",))
    generate(cfg, str(tmp_path))
    doc = json.loads((tmp_path / "ksgns.json").read_text())
    assert len(doc["instances"]) == 10
    for payload in doc["instances"]:
        E = ser.load_module(payload["module"])
        phi = ser.load_cpmap(payload["phi"], {"module": E})
        ok, _ = check_cp(phi)
        assert ok


@pytest.mark.parametrize("suite, check", [("ksgns", "input_cp"), ("equivariant", "phi_cp")])
def test_failed_choi_certificate_is_recorded_as_failure(suite, check):
    # i.phi keeps B-linearity but its Choi matrices are anti-Hermitian: check_cp
    # fails on the Hermitian defect while the minimum eigenvalue sits at rounding level
    from ksgnslab import serialize as ser

    payload = generate_instance(suite, SizeCaps(), instance_seed(20250809, suite, 0))
    if suite == "ksgns":
        E = ser.load_module(payload["module"])
        phi = ser.load_cpmap(payload["phi"], {"module": E})
        phi.images = 1j * phi.images
        payload["phi"] = ser.dump_cpmap(phi, "module")
    else:
        c = ser.load_equivariant(payload["correspondence"])
        c.phi.images = 1j * c.phi.images
        payload["correspondence"] = ser.dump_equivariant(c)
    (record,) = [r for r in check_instance(suite, payload, Tolerance()) if r.check == check]
    assert not record.passed
    assert record.residual == float("inf")


def test_report_summary_keeps_passes_and_reports_worst_failure():
    rep = CheckReport()
    rep.add("a", 1e-9, 1e-8)
    rep.add("b", 2e-9, 6e-8)
    assert rep.summary() == (2e-9, 6e-8)
    rep.add("c", 4e-8, 2e-8)  # fails under the largest threshold's entry
    rep.add("d", 3e-8, 1e-8)  # the worst ratio
    assert rep.summary() == (3e-8, 1e-8)
    rep.add("dim", 1.0, 0.0)
    assert rep.summary() == (1.0, 0.0)
    assert CheckReport().summary(empty_threshold=1e-8) == (0.0, 1e-8)


def test_failing_subreport_is_recorded_as_failure():
    # scaling morphism 0's rho by 1 + 4e-8 breaks multiplicativity and unitality
    # by 4e-8 against a 2e-8 gate, below the same reports' 6e-8 eta gate
    from ksgnslab import serialize as ser
    from ksgnslab.cstar import AlgebraElement, StarMap

    payload = generate_instance("category", SizeCaps(), instance_seed(20250809, "category", 0))
    assert "ksgns_functor" in payload["checks"]
    rho = ser.load_star_map(payload["morphisms"][0]["rho"])
    scaled = [AlgebraElement(img.shape, [(1 + 4e-8) * b for b in img.blocks]) for img in rho.images]
    payload["morphisms"][0]["rho"] = ser.dump_star_map(StarMap(rho.domain, rho.codomain, scaled))
    records = {r.check: r for r in check_instance("category", payload, Tolerance())}
    for check in ("morphism_invariants", "closure", "ksgns_morphism"):
        assert not records[check].passed, check


def test_residual_missing_from_checker_report_fails_the_instance(monkeypatch):
    # the harness maps the checker's "dim_match" to its "dim_stable" record; a
    # report without that key fails the instance instead of losing the record
    from ksgnslab import harness

    real = harness.check_idempotency

    def renamed(*args):
        rep = real(*args)
        rep.residuals["dim_matches"] = rep.residuals.pop("dim_match")
        rep.thresholds["dim_matches"] = rep.thresholds.pop("dim_match")
        return rep

    payload = generate_instance("idempotency", SizeCaps(), instance_seed(20250809, "idempotency", 0))
    assert all(r.passed for r in check_instance("idempotency", payload, Tolerance()))
    monkeypatch.setattr(harness, "check_idempotency", renamed)
    records = check_instance("idempotency", payload, Tolerance())
    assert "dim_stable" not in {r.check for r in records}
    failed = records[-1]
    assert (failed.check, failed.passed) == ("construction", False)
    assert failed.error == "KeyError: 'dim_match'"


def test_group_cap_one_degenerates_to_plain_inputs():
    caps = SizeCaps(instances_per_suite=2, max_group_order=1)
    for idx in range(2):
        payload = generate_instance(
            "equivariant", caps, instance_seed(13, "equivariant", idx)
        )
        assert payload["group"] == "E"
        assert payload["correspondence"]["system_in"]["group"]["order"] == 1


def test_small_full_run_residuals_within_gate():
    cfg = SuiteConfig(seed=77, caps=SizeCaps(instances_per_suite=3))
    report = run(cfg)
    assert report.all_passed
    assert report.max_residual <= 1e-8
