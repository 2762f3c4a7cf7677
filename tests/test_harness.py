import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import ksgnslab
from ksgnslab import serialize as ser
from ksgnslab.cli import main as cli_main
from ksgnslab.cstar import AlgebraShape, identity_automorphism
from ksgnslab.errors import InvalidConfig, ParseError
from ksgnslab.harness import (
    _SUITES,
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
from ksgnslab.numkernel import DEFAULT_TOL, Tolerance, summarize


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
    (["unitary", ("dim_stable", "dim_stable")],
     "ValueError: check 'dim_stable' is out of order in the idempotency suite's table"),
], ids=["skipped", "reordered", "repeated", "undeclared", "raised", "repeated_by_library"])
def test_check_out_of_its_table_fails_the_instance(monkeypatch, checks, error):
    # a checker that yields an undeclared check, or a declared one after a
    # later one, fails the instance as its construction record, naming the
    # check; one that raises keeps the records it yielded before.  The last
    # checks come as a library checker returns them, one list (a tuple of
    # names here), so a list that names a check twice fails the instance too
    # instead of one record overwriting the other
    from ksgnslab import harness

    generator, _, table = _SUITES["idempotency"]
    *direct, last = checks
    library = () if isinstance(last, Exception) else last if isinstance(last, tuple) else (last,)

    def reordered(payload, tol, memo):
        for check in direct:
            yield check, 0.0, 1.0
        if isinstance(last, Exception):
            raise last
        yield from [(check, 0.0, 1.0) for check in library]

    monkeypatch.setitem(harness._SUITES, "idempotency", (generator, reordered, table))
    payload = generator(SizeCaps(), instance_seed(20250809, "idempotency", 0))
    records = check_instance("idempotency", payload, Tolerance())
    names = [*direct, *library]
    if error is None:
        assert [(r.check, r.theorem, r.passed) for r in records] == [
            (check, table[check], True) for check in names
        ]
        return
    recorded = names if isinstance(last, Exception) else names[:-1]
    assert [(r.check, r.passed) for r in records] == [
        *((check, True) for check in recorded), ("construction", False)
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


@pytest.mark.parametrize("threads", ["1", None])
def test_cli_notes_blas_threads_when_it_generates(tmp_path, monkeypatch, capsys, threads):
    # generated instances follow the BLAS thread count, so gen, and run without --in,
    # say so on stderr unless a BLAS thread variable is 1; the report is unchanged
    from ksgnslab.harness import BLAS_THREAD_VARS

    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if threads:
        monkeypatch.setenv("OMP_NUM_THREADS", threads)
    note = ("note: none of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS is 1, so "
            "the generated instances can differ from the ones pinned at one BLAS thread\n")
    expected = "" if threads else note
    caps = ["--suites", "uniqueness", "--caps", "instances_per_suite=1"]
    assert cli_main(["gen", "--seed", "4", "--out", str(tmp_path / "inst"), *caps]) == 0
    assert capsys.readouterr().err == expected
    assert cli_main(["run", "--seed", "4", "--format", "json", *caps]) == 0
    generated = capsys.readouterr()
    assert generated.err == expected
    assert cli_main(["run", "--in", str(tmp_path / "inst"), "--format", "json", *caps]) == 0
    loaded = capsys.readouterr()
    assert loaded.err == ""
    records = [json.loads(x.out)["records"] for x in (generated, loaded)]
    for r in records[0] + records[1]:
        del r["wall_time"]
    assert records[0] == records[1]


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


def test_cli_demo_fails_when_its_input_check_fails(monkeypatch, capsys):
    # the exit code reads the equivariant input check's verdict as well as the
    # dilation's: only the first call, on the input, fails here; the second,
    # inside check_dilation, checks the dilated correspondence for real
    from ksgnslab import equivariant

    real, calls = equivariant.check_equivariant, []

    def failing_input(c, tol):
        calls.append(c)
        records = real(c, tol)
        return [("representation", 1.0, 0.0), *records[1:]] if len(calls) == 1 else records

    monkeypatch.setattr(equivariant, "check_equivariant", failing_input)
    assert cli_main(["demo", "gns"]) == 1
    assert len(calls) == 2
    out = capsys.readouterr().out
    assert "equivariant input check: FAIL" in out
    assert "dilation conditions:     pass" in out


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
    rep = [("a", 1e-9, 1e-8), ("b", 2e-9, 6e-8)]
    assert summarize(rep) == (2e-9, 6e-8)
    rep.append(("c", 4e-8, 2e-8))  # fails under the largest threshold's entry
    rep.append(("d", 3e-8, 1e-8))  # the worst ratio
    assert summarize(rep) == (3e-8, 1e-8)
    rep.append(("dim", 1.0, 0.0))
    assert summarize(rep) == (1.0, 0.0)
    assert summarize([], empty_threshold=1e-8) == (0.0, 1e-8)


def test_failing_subreport_is_recorded_as_failure():
    # scaling morphism 0's rho by 1 + 4e-8 breaks multiplicativity and unitality
    # by 4e-8 against a 2e-8 gate, below the same reports' 6e-8 eta gate
    from ksgnslab import serialize as ser
    from ksgnslab.cstar import StarMap

    payload = generate_instance("category", SizeCaps(), instance_seed(20250809, "category", 0))
    assert "ksgns_functor" in payload["checks"]
    (rho,) = ser.load_star_maps([payload["morphisms"][0]["rho"]])
    scaled = StarMap(rho.domain, rho.codomain, (1 + 4e-8) * rho.matrix)
    payload["morphisms"][0]["rho"] = ser.dump_star_map(scaled)
    records = {r.check: r for r in check_instance("category", payload, Tolerance())}
    for check in ("morphism_invariants", "closure", "ksgns_morphism"):
        assert not records[check].passed, check


def test_residual_missing_from_checker_report_fails_the_instance(monkeypatch):
    # the harness records the library checker's "dim_stable" under that name;
    # a list that names it otherwise fails the instance instead of losing the record
    from ksgnslab import harness

    real = harness.check_idempotency

    def renamed(*args):
        return [("dim_stables" if c == "dim_stable" else c, r, t) for c, r, t in real(*args)]

    payload = generate_instance("idempotency", SizeCaps(), instance_seed(20250809, "idempotency", 0))
    assert all(r.passed for r in check_instance("idempotency", payload, Tolerance()))
    monkeypatch.setattr(harness, "check_idempotency", renamed)
    records = check_instance("idempotency", payload, Tolerance())
    assert "dim_stable" not in {r.check for r in records}
    failed = records[-1]
    assert (failed.check, failed.passed) == ("construction", False)
    assert failed.error == (
        "ValueError: check 'dim_stables' is not declared by the idempotency suite's table"
    )


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


@pytest.mark.parametrize(("suite", "morphism", "error"), [
    ("category", 0, "ObjectMismatch: alpha is not an automorphism of the input algebra"),
    ("lift", "m1", "ShapeMismatch: alpha acts on another algebra than phi1's"),
])
def test_alpha_on_another_algebra_fails_construction_first(suite, morphism, error):
    # default instance 0 (A = C) with one morphism's alpha on M_3: the einsum of
    # alpha with phi2's images broadcast A's size-1 axis, so the instance passed
    # its morphism records and only a later matmul raised ValueError
    payload = generate_instance(suite, SizeCaps(), instance_seed(20250809, suite, 0))
    assert ser.load_shape(payload["input_algebra"]) == AlgebraShape((1,))
    M3 = identity_automorphism(AlgebraShape((3,)))
    payload["morphisms"][morphism]["alpha"] = ser.dump_automorphism(M3)
    (record,) = check_instance(suite, payload, Tolerance())
    assert (record.check, record.passed, record.error) == ("construction", False, error)


def test_importing_the_harness_leaves_the_process_pool_unloaded():
    # concurrent.futures loads its process pool, and multiprocessing with it, on
    # the first read of ProcessPoolExecutor, which only run with jobs > 1 makes
    path = os.pathsep.join([str(Path(ksgnslab.__file__).parent.parent),
                            os.environ.get("PYTHONPATH", "")])
    code = "import sys, ksgnslab.harness; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


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
    (inverse,) = ser.load_star_maps([alpha["inverse"]])
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


def record_bits(report):
    """The records of a report as tuples, residual and threshold by their
    exact bits, every field but wall_time."""
    return [
        (r.suite, r.instance_seed, r.check, r.theorem, r.residual.hex(), r.threshold.hex(),
         r.passed, r.error)
        for r in report.records
    ]


def test_files_and_memory_give_the_same_records_for_every_suite(tmp_path):
    # `verify gen` files, read back through json, take the stacked loaders'
    # one-array path as the in-memory payloads do: every record of every suite
    # at the default seed is equal, bit for bit
    cfg = SuiteConfig()
    generate(cfg, str(tmp_path))
    from_files = run(cfg, instance_dir=str(tmp_path))
    assert {r.suite for r in from_files.records} == set(cfg.suites)
    assert from_files.all_passed
    assert record_bits(from_files) == record_bits(run(cfg))


def inf_image(star_map: dict) -> None:
    """An infinite entry in the first image of a dumped star map."""
    star_map["images"][0][0][0][0] = float("inf")


def drop_a_block(star_map: dict) -> None:
    """One block too many in the last image of a dumped star map."""
    star_map["images"][-1].append(star_map["images"][-1][0])


@pytest.mark.parametrize("corrupt", [inf_image, drop_a_block])
@pytest.mark.parametrize("suite, section, named", [
    ("continuity", lambda p: p["path"][6]["alpha"]["forward"], "automorphism 6: star map 0: "),
    ("category", lambda p: p["morphisms"][2]["rho"], "star map 2: "),
    ("lift", lambda p: p["morphisms"]["m2"]["alpha"]["inverse"], "automorphism 1: star map 1: "),
    # both systems' automorphisms are one section, system_in's first: instance
    # 1's group is Z4, so system_out's automorphism 1 is the section's item 5
    ("equivariant", lambda p: p["correspondence"]["system_out"]["action"][1]["forward"],
     "automorphism 5: star map 0: "),
])
def test_a_faulty_item_of_a_stacked_section_is_named(suite, section, named, corrupt):
    # one corrupt item in the middle of a section loaded as one stack still
    # ends the instance as its one construction record, under the theorem it
    # had, and the message names the item by its index in the section
    payload = generate_instance(suite, SizeCaps(), instance_seed(20250809, suite, 1))
    if suite == "equivariant":
        assert payload["group"] == "Z4"
    corrupt(section(payload))
    (record,) = check_instance(suite, payload, Tolerance())
    assert (record.check, record.passed) == ("construction", False)
    assert record.theorem == "instance construction and validation"
    assert record.error.startswith(f"ValidationError: {named}element "), record.error
