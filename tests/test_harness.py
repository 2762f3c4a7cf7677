import hashlib
import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from ksgnslab.cli import main as cli_main
from ksgnslab.errors import InvalidConfig, ParseError
from ksgnslab.harness import (
    _SUITES,
    _named,
    BASIS_VERSION,
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
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL, Tolerance
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


# sha256 of the JSON list of [suite, check, theorem] of every record, in record
# order, of the default run at each master seed
LABEL_DIGESTS = {
    42: "387d78297ac0140844b6ae948134f63ce166c6f135a74c3074905d1027495941",
    20250809: "a8ae80eca24bd79f3b02871724967e3852bba8b03d5d2eb79974f104a324c1a1",
}


@pytest.fixture(scope="module")
def default_run():
    """The records of the default run at a master seed, run once per module."""
    runs = {}

    def records(seed):
        if seed not in runs:
            runs[seed] = run(SuiteConfig(seed=seed)).records
        return runs[seed]

    return records


@pytest.mark.parametrize("seed", sorted(LABEL_DIGESTS))
def test_default_run_check_names_theorems_and_order_are_pinned(seed, default_run):
    # a renamed check, a changed theorem or a moved record changes the digest
    labels = [[r.suite, r.check, r.theorem] for r in default_run(seed)]
    assert len(labels) == 826
    assert hashlib.sha256(json.dumps(labels).encode()).hexdigest() == LABEL_DIGESTS[seed]


def test_default_run_records_every_declared_check(default_run):
    # the suite tables declare exactly the (suite, check, theorem) triples the
    # default run records: none is left unused, and no record is undeclared
    declared = {
        (suite, check, theorem)
        for suite, (_, _, table) in _SUITES.items()
        for check, theorem in table.items()
    }
    assert len(declared) == 85
    assert {(r.suite, r.check, r.theorem) for r in default_run(20250809)} == declared


@pytest.mark.parametrize("checks, error", [
    (["unitary", "naturality"], None),  # declared checks may be skipped
    (["unitary", "naturality", "dim_stable"],
     "ValueError: check 'dim_stable' is out of order in the idempotency suite's table"),
    (["unitary", "unitary"],
     "ValueError: check 'unitary' is out of order in the idempotency suite's table"),
    (["unitary", "dim_stables"],
     "ValueError: check 'dim_stables' is not declared by the idempotency suite's table"),
    (["unitary", "dim_stable", RuntimeError("no dilation")], "RuntimeError: no dilation"),
], ids=["skipped", "reordered", "repeated", "undeclared", "raised"])
def test_check_out_of_its_table_fails_the_instance(monkeypatch, checks, error):
    # a checker that yields an undeclared check, or a declared one after a
    # later one, fails the instance as its construction record, naming the
    # check; one that raises keeps the records it yielded before
    from ksgnslab import harness

    generator, _, table = _SUITES["idempotency"]

    def reordered(payload, tol, memo):
        for check in checks[:-1]:
            yield check, 0.0, 1.0
        if isinstance(checks[-1], Exception):
            raise checks[-1]
        yield from _named(CheckReport({checks[-1]: 0.0}, {checks[-1]: 1.0}), checks[-1])

    monkeypatch.setitem(harness._SUITES, "idempotency", (generator, reordered, table))
    payload = generator(SizeCaps(), instance_seed(20250809, "idempotency", 0))
    records = check_instance("idempotency", payload, Tolerance())
    if error is None:
        assert [(r.check, r.theorem, r.passed) for r in records] == [
            (check, table[check], True) for check in checks
        ]
        return
    assert [(r.check, r.passed) for r in records] == [
        *((check, True) for check in checks[:-1]), ("construction", False)
    ]
    assert records[-1].theorem == "instance construction and validation"
    assert records[-1].error == error


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


@pytest.mark.parametrize("version", [None, 1])
def test_suite_file_of_another_basis_version_is_refused(tmp_path, version, capsys):
    # payloads keep maps in the quotient coordinates their generator built, so a
    # file from before the canonical bases fails records instead of checking clean
    cfg = SuiteConfig(seed=3, caps=SizeCaps(instances_per_suite=2), suites=("uniqueness",))
    generate(cfg, str(tmp_path))
    path = tmp_path / "uniqueness.json"
    doc = json.loads(path.read_text())
    assert doc["basis_version"] == BASIS_VERSION
    report = run(cfg, instance_dir=str(tmp_path))
    assert report.total > 0 and report.all_passed
    if version is None:
        del doc["basis_version"]
    else:
        doc["basis_version"] = version
    path.write_text(json.dumps(doc))
    refused = re.escape(f"{path} has basis version {version!r}, not {BASIS_VERSION}")
    with pytest.raises(ParseError, match=f"^{refused}"):
        run(cfg, instance_dir=str(tmp_path))
    assert cli_main(["run", "--in", str(tmp_path), "--suites", "uniqueness"]) == 2
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


def test_report_json_is_the_records_fields_and_summary():
    cfg = SuiteConfig(seed=2, caps=SMALL, suites=("ksgns",))
    report = run(cfg)
    doc = json.loads(report_emit(report, "json"))
    assert report.all_passed
    assert doc["records"] == [asdict(r) for r in report.records]
    assert doc["summary"] == {
        "total": report.total,
        "passed": report.passed,
        "failed": report.total - report.passed,
        "max_residual": report.max_residual,
    }
    assert doc["config"]["suites"] == ["ksgns"]


def test_report_config_records_blas_thread_settings(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = SuiteConfig(seed=2, caps=SMALL, suites=("ksgns",))
    report = run(cfg)
    blas_threads = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}
    assert report.config == {**asdict(cfg), "blas_threads": blas_threads}
    assert json.loads(report_emit(report, "json"))["config"] == {
        "seed": 2,
        "tolerance": {"rtol": 1e-10, "ctol": 1e-8},
        "caps": asdict(SMALL),
        "suites": ["ksgns"],
        "jobs": 1,
        "blas_threads": blas_threads,
    }


def test_report_json_writes_an_infinite_residual_as_null():
    failed = CheckRecord("lift", 7, "construction", "some law", float("inf"), 0.0, False, 0.1,
                         error="NotCP: boom")
    passed = CheckRecord("lift", 7, "morphism", "other law", 2e-9, 1e-8, True, 0.2)
    report = Report({}, [failed, passed])
    doc = json.loads(report_emit(report, "json"))
    assert doc["records"][0] == {
        "suite": "lift", "instance_seed": 7, "check": "construction", "theorem": "some law",
        "residual": None, "threshold": 0.0, "passed": False, "wall_time": 0.1,
        "error": "NotCP: boom",
    }
    assert doc["records"][1]["residual"] == 2e-9
    assert doc["summary"] == {"total": 2, "passed": 1, "failed": 1, "max_residual": 2e-9}
    text = report_emit(report, "text")
    assert "inf" in text and "[NotCP: boom]" in text
    assert "total 2  passed 1  failed 1" in text


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
        ok, _ = check_cp([phi], DEFAULT_TOL, BuildMemo())[0]
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


def test_report_refuses_a_name_it_already_holds():
    # a prefix that makes a merged name collide raises, instead of the merge
    # overwriting the residual already there
    rep, inner = CheckReport(), CheckReport()
    rep.add("pi_unital", 1e-9, 1e-8)
    inner.add("unital", 2.0, 1e-8)
    with pytest.raises(ValueError, match="'pi_unital'"):
        rep.merge(inner, prefix="pi_")
    assert rep.residuals == {"pi_unital": 1e-9}
    with pytest.raises(ValueError, match="'pi_unital'"):
        rep.add("pi_unital", 0.0, 1e-8)


def test_failing_subreport_is_recorded_as_failure():
    # scaling morphism 0's rho by 1 + 4e-8 breaks multiplicativity and unitality
    # by 4e-8 against a 2e-8 gate, below the same reports' 6e-8 eta gate
    from ksgnslab import serialize as ser
    from ksgnslab.cstar import StarMap

    payload = generate_instance("category", SizeCaps(), instance_seed(20250809, "category", 0))
    assert "ksgns_functor" in payload["checks"]
    rho = ser.load_star_map(payload["morphisms"][0]["rho"])
    scaled = StarMap(rho.domain, rho.codomain, (1 + 4e-8) * rho.matrix)
    payload["morphisms"][0]["rho"] = ser.dump_star_map(scaled)
    records = {r.check: r for r in check_instance("category", payload, Tolerance())}
    for check in ("morphism_invariants", "closure", "ksgns_morphism"):
        assert not records[check].passed, check


def test_residual_missing_from_checker_report_fails_the_instance(monkeypatch):
    # the harness records the checker's "dim_stable" under that name; a report
    # without that key fails the instance instead of losing the record
    from ksgnslab import harness

    real = harness.check_idempotency

    def renamed(*args):
        rep = real(*args)
        rep.residuals["dim_stables"] = rep.residuals.pop("dim_stable")
        rep.thresholds["dim_stables"] = rep.thresholds.pop("dim_stable")
        return rep

    payload = generate_instance("idempotency", SizeCaps(), instance_seed(20250809, "idempotency", 0))
    assert all(r.passed for r in check_instance("idempotency", payload, Tolerance()))
    monkeypatch.setattr(harness, "check_idempotency", renamed)
    records = check_instance("idempotency", payload, Tolerance())
    assert "dim_stable" not in {r.check for r in records}
    failed = records[-1]
    assert (failed.check, failed.passed) == ("construction", False)
    assert failed.error == "KeyError: 'dim_stable'"


def test_early_exits_record_their_input_failure_last():
    # a phi that is not B-linear fails input_hermitian, then check_cp raises
    # and the ksgns instance ends as its construction record; a target off the
    # continuity path ends the continuity instance the same way
    from ksgnslab import serialize as ser

    payload = generate_instance("ksgns", SizeCaps(), instance_seed(20250809, "ksgns", 0))
    E = ser.load_module(payload["module"])
    phi = ser.load_cpmap(payload["phi"], {"module": E})
    phi.images[0, 0, -1] += 0.5
    payload["phi"] = ser.dump_cpmap(phi, "module")
    records = check_instance("ksgns", payload, Tolerance())
    assert [(r.check, r.passed) for r in records] == [
        ("input_hermitian", False), ("construction", False)
    ]
    last = records[-1]
    assert (last.theorem, last.residual, last.threshold, last.error) == (
        "operator images land in the adjointable operators", float("inf"), 0.0,
        "NonLinearMap: images fail B-linearity (residual 7.017e-01)",
    )

    payload = generate_instance(
        "continuity", SizeCaps(), instance_seed(20250809, "continuity", 0)
    )
    payload["target"]["eta"] = (1.5 * np.asarray(payload["target"]["eta"])).tolist()
    (record,) = check_instance("continuity", payload, Tolerance())
    assert (record.check, record.theorem, record.residual, record.threshold) == (
        "construction", "morphism path converges in the pseudo-metrics", float("inf"), 0.0
    )
    assert not record.passed
    assert record.error.startswith("NonConvergentInput: ")


def test_inverse_in_another_algebra_fails_construction():
    # an alpha inverse written in the basis of another algebra of the same
    # dimension is rejected when the payload loads, as a construction record
    from ksgnslab import serialize as ser
    from ksgnslab.cstar import AlgebraShape, StarMap

    payloads = (
        generate_instance("lift", SizeCaps(), instance_seed(20250809, "lift", idx))
        for idx in range(10)
    )
    # the first instance whose algebra has a matrix block: C^dim is another algebra
    payload = next(p for p in payloads if max(p["input_algebra"]) > 1)
    alpha = payload["morphisms"]["m1"]["alpha"]
    inverse = ser.load_star_map(alpha["inverse"])
    scalars = AlgebraShape((1,) * inverse.domain.dim)
    alpha["inverse"] = ser.dump_star_map(StarMap(inverse.domain, scalars, inverse.matrix))
    records = check_instance("lift", payload, Tolerance())
    assert [(r.check, r.passed) for r in records] == [("construction", False)]
    assert records[0].error == "ShapeMismatch: inverse maps into a different algebra"


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
