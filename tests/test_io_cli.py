"""Instance files, generators, builtins, reports, and the CLI surface."""

import functools
import json
import operator
import os

import numpy as np
import pytest

from evpkit.cli import main, run_command
from evpkit.errors import InputError
from evpkit.io import (BUILTIN_NAMES, VARIANTS, Report, builtin, emit,
                       example41_probes, generate, load_validate, render)

from conftest import fixture_path


class TestLoadValidate:
    def test_two_point_fixture(self):
        b = load_validate(fixture_path("two_point.json"))
        assert b.instance.labels == ("a", "b")
        assert b.params.epsilon == 1.5
        assert b.product is not None

    def test_triangle_violation_named(self):
        with pytest.raises(InputError) as err:
            load_validate(fixture_path("bad_triangle.json"))
        assert "triangle" in str(err.value)

    def test_missing_file_named(self, tmp_path):
        missing = tmp_path / "missing.json"
        for source in (str(missing), missing):
            with pytest.raises(InputError, match="not found"):
                load_validate(source)

    def test_unreadable_path_named(self, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{")
        for source in (str(tmp_path), binary):
            with pytest.raises(InputError, match="cannot read"):
                load_validate(source)

    def test_direction_outside_cone_named(self):
        with pytest.raises(InputError) as err:
            load_validate(fixture_path("h_outside_cone.json"))
        assert "outside the cone" in str(err.value)

    def test_schema_violation_has_path(self):
        data = builtin("chain")
        data["dimension"] = 0
        with pytest.raises(InputError) as err:
            load_validate(data)
        assert "dimension" in str(err.value)

    def test_unknown_x0(self):
        data = builtin("chain")
        data["params"]["x0"] = "zz"
        with pytest.raises(InputError) as err:
            load_validate(data)
        assert "x0" in str(err.value)

    def test_round_trip(self):
        data = generate(11, n=4, m=2, variant="polytope")
        bundle = load_validate(data)
        emitted = emit(bundle)
        again = emit(load_validate(emitted))
        assert emitted == again == data

    def test_tolerance_env_override(self, monkeypatch):
        monkeypatch.setenv("EVPKIT_TOLERANCE", "1e-6")
        data = builtin("chain")
        data["params"].pop("tolerance", None)
        b = load_validate(data)
        assert b.tol == 1e-6
        monkeypatch.setenv("EVPKIT_TOLERANCE", "bogus")
        with pytest.raises(InputError):
            load_validate(data)


_DROP = object()
_SOURCE = object()

# (id, path into builtin("chain"), new value or _DROP, words the error text
# must contain); the empty path replaces the whole document, and _SOURCE
# passes the value to load_validate itself instead of a file
REJECTIONS = [
    ("unknown-top-key", ("bogus",), 1, ("bogus",)),
    ("unknown-cone-key", ("cone", "bogus"), 1, ("cone", "bogus")),
    ("unknown-space-key", ("space", "bogus"), 1, ("space", "bogus")),
    ("unknown-perturbation-key", ("perturbation", "bogus"), 1,
     ("perturbation", "bogus")),
    ("unknown-params-key", ("params", "bogus"), 1, ("params", "bogus")),
    ("unknown-product-key", ("product", "bogus"), 1, ("product", "bogus")),
    ("missing-version", ("version",), _DROP, ("version",)),
    ("missing-dimension", ("dimension",), _DROP, ("dimension",)),
    ("missing-cone", ("cone",), _DROP, ("cone",)),
    ("missing-space", ("space",), _DROP, ("space",)),
    ("missing-map", ("map",), _DROP, ("map",)),
    ("missing-perturbation", ("perturbation",), _DROP, ("perturbation",)),
    ("missing-params", ("params",), _DROP, ("params",)),
    ("missing-halfspaces", ("cone", "halfspaces"), _DROP, ("halfspaces",)),
    ("missing-labels", ("space", "labels"), _DROP, ("labels",)),
    ("missing-variant", ("perturbation", "variant"), _DROP, ("variant",)),
    ("missing-x0", ("params", "x0"), _DROP, ("x0",)),
    ("missing-graph", ("product", "graph"), _DROP, ("graph",)),
    ("missing-y0", ("product", "y0"), _DROP, ("y0",)),
    ("block-not-object-cone", ("cone",), [[1.0]], ("cone",)),
    ("block-not-object-space", ("space",), 1, ("space",)),
    ("block-not-object-perturbation", ("perturbation",), None,
     ("perturbation",)),
    ("block-not-object-params", ("params",), "x", ("params",)),
    ("block-not-object-product", ("product",), [], ("product",)),
    ("epsilon-string", ("params", "epsilon"), "x", ("epsilon",)),
    ("epsilon-bool", ("params", "epsilon"), True, ("epsilon",)),
    ("lambda-null", ("params", "lambda"), None, ("lambda",)),
    ("params-gamma-bool", ("params", "gamma"), False, ("gamma",)),
    ("tolerance-string", ("params", "tolerance"), "1e-9", ("tolerance",)),
    ("tolerance-zero", ("params", "tolerance"), 0,
     ("tolerance", "strictly positive")),
    ("tolerance-negative", ("params", "tolerance"), -1e-9,
     ("tolerance", "strictly positive")),
    ("perturbation-gamma-string", ("perturbation", "gamma"), "1",
     ("gamma",)),
    ("k0-bool-item", ("perturbation", "k0"), [True], ("k0",)),
    ("halfspaces-string-entry", ("cone", "halfspaces"), [["1"]],
     ("halfspaces",)),
    ("generators-null-entry", ("cone", "generators"), [[None]],
     ("generators",)),
    ("coordinates-bool-entry", ("space", "coordinates"),
     [[0.0], [True], [2.0]], ("coordinates",)),
    ("distances-string-entry", ("space", "distances"),
     [[0.0, "1"], [1.0, 0.0]], ("distances",)),
    ("map-string-entry", ("map", "a"), [["2"]], ("map",)),
    ("map-value-not-matrix", ("map", "a"), [2.0], ("map",)),
    ("y0-string-entry", ("product", "y0"), ["2"], ("y0",)),
    ("dimension-zero", ("dimension",), 0, ("dimension",)),
    ("dimension-negative", ("dimension",), -1, ("dimension",)),
    ("dimension-fraction", ("dimension",), 1.5, ("dimension",)),
    ("dimension-string", ("dimension",), "1", ("dimension",)),
    ("dimension-bool", ("dimension",), True, ("dimension",)),
    ("version-wrong", ("version",), "evpkit/2", ("version",)),
    ("version-number", ("version",), 1, ("version",)),
    ("metric-wrong", ("space", "metric"), "manhattan", ("metric",)),
    ("metric-number", ("space", "metric"), 1, ("metric",)),
    ("variant-unknown", ("perturbation", "variant"), "nope", ("variant",)),
    ("variant-number", ("perturbation", "variant"), 3, ("variant",)),
    ("open-string", ("perturbation", "open"), "yes", ("open",)),
    ("open-number", ("perturbation", "open"), 1, ("open",)),
    ("labels-empty", ("space", "labels"), [], ("labels",)),
    ("labels-number-item", ("space", "labels"), ["a", 1, "c"], ("labels",)),
    ("x0-number", ("params", "x0"), 1, ("x0",)),
    ("halfspaces-empty", ("cone", "halfspaces"), [], ("halfspaces",)),
    ("halfspaces-empty-row", ("cone", "halfspaces"), [[]], ("halfspaces",)),
    ("k0-empty", ("perturbation", "k0"), [], ("k0",)),
    ("vertices-empty", ("perturbation", "vertices"), [], ("vertices",)),
    ("matrix-empty-row", ("perturbation", "matrix"), [[]], ("matrix",)),
    ("lambdas-empty", ("perturbation", "lambdas"), [], ("lambdas",)),
    ("lambdas-number-item", ("perturbation", "lambdas"), [1], ("lambdas",)),
    ("graph-empty", ("product", "graph"), [], ("graph",)),
    ("y0-empty", ("product", "y0"), [], ("y0",)),
    ("map-value-empty", ("map", "a"), [], ("map",)),
    ("map-empty", ("map",), {}, ("map",)),
    ("map-not-object", ("map",), [[1.0]], ("map",)),
    ("table-not-object", ("perturbation", "table"), [], ("table",)),
    ("table-index-not-object", ("perturbation", "table"),
     {"L0": [[1.0]]}, ("table",)),
    ("table-value-not-matrix", ("perturbation", "table"),
     {"L0": {"a|b": [1.0]}}, ("table",)),
    ("table-value-string", ("perturbation", "table"),
     {"L0": {"a|b": "x"}}, ("table",)),
    ("table-string-entry", ("perturbation", "table"),
     {"L0": {"a|b": [["x"]]}}, ("table",)),
    ("graph-item-not-list", ("product", "graph"), ["a"], ("graph",)),
    ("graph-item-short", ("product", "graph"), [["a"]], ("graph",)),
    ("graph-item-long", ("product", "graph"), [["a", [2.0], 1]],
     ("graph",)),
    ("graph-label-number", ("product", "graph"), [[1, [2.0]]], ("graph",)),
    ("graph-point-number", ("product", "graph"), [["a", 2.0]], ("graph",)),
    ("graph-point-empty", ("product", "graph"), [["a", []]], ("graph",)),
    ("graph-point-string-entry", ("product", "graph"), [["a", ["2"]]],
     ("graph",)),
    ("top-level-list", (), [1, 2], ("object",)),
    ("top-level-string", (), "evpkit/1", ("object",)),
    ("top-level-number", (), 3, ("object",)),
    ("map-unknown-label", ("map", "zz"), [[1.0]], ("unknown labels", "zz")),
    ("source-text-list", _SOURCE, "[1, 2]", ("$: expected an object",)),
    ("source-text-blank-list", _SOURCE, " \n [[]]",
     ("$: expected an object",)),
    ("source-list", _SOURCE, [1, 2], ("source", "list")),
    ("source-number", _SOURCE, 42, ("source", "int")),
    ("source-none", _SOURCE, None, ("source", "NoneType")),
    ("source-bytes", _SOURCE, b"{}", ("source", "bytes")),
]


@pytest.mark.parametrize("path,value,words", [c[1:] for c in REJECTIONS],
                         ids=[c[0] for c in REJECTIONS])
def test_rejection_names_the_field(path, value, words, tmp_path):
    """Every structural rejection of an instance file is an InputError whose
    text names the field, and exit 3 with status input_error from the CLI."""
    if path is _SOURCE:
        with pytest.raises(InputError) as err:
            load_validate(value)
        for word in words:
            assert word in str(err.value)
        return
    data = builtin("chain")
    if path:
        *parents, key = path
        block = functools.reduce(operator.getitem, parents, data)
        if value is _DROP:
            del block[key]
        else:
            block[key] = value
    else:
        data = value
    source = tmp_path / "bad.json"
    source.write_text(json.dumps(data))
    with pytest.raises(InputError) as err:
        load_validate(str(source))
    for word in words:
        assert word in str(err.value)
    code, reports = run_command(["validate", str(source)])
    assert code == 3 and reports[0].status == "input_error"
    assert reports[0].payload["error"] == str(err.value)


class TestGenerate:
    def test_deterministic_per_seed(self):
        assert generate(1, n=5, m=2) == generate(1, n=5, m=2)
        assert generate(1, n=5, m=2) != generate(2, n=5, m=2)

    def test_single_point_instance(self):
        data = generate(4, n=1, m=1)
        b = load_validate(data)
        assert b.instance.labels == ("p0",)

    def test_all_variants_validate(self):
        """generate and builtin do not validate their own output, so every
        emitted instance is loaded here: several seeds and sizes per variant
        and every builtin."""
        sizes = ((1, 1, 1), (3, 2, 2), (5, 3, 3), (8, 2, 4))
        for i, variant in enumerate(VARIANTS):
            for seed in (20 + i, 60 + i, 100 + i):
                for n, m, values in sizes:
                    load_validate(generate(seed, n=n, m=m,
                                           values_per_point=values,
                                           variant=variant))
        for name in BUILTIN_NAMES:
            load_validate(builtin(name))
        load_validate(builtin("example41", samples=2))

    def test_quasimetric_variant_axioms(self):
        data = generate(33, n=5, m=2, variant="quasimetric")
        p = np.asarray(data["perturbation"]["matrix"])
        # directed triangle inequality holds by construction
        viol = p[:, None, :] - p[:, :, None] - p[None, :, :]
        assert viol.max() <= 1e-9


class TestBuiltin:
    def test_example41_probe_outcomes(self):
        for n in (4, 9, 16):
            bundle = load_validate(builtin("example41", samples=n))
            probes = example41_probes(bundle)
            assert probes == {"slm": True, "epi_closed": False}

    def test_chain_engine_reaches_bottom(self):
        code, reports = run_command(["solve-evp", "--theorem", "3.1",
                                     fixture_path("two_point.json")])
        assert code == 0
        data = builtin("chain")
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as fh:
            json.dump(data, fh)
            path = fh.name
        code, reports = run_command(["solve-evp", "--theorem", "3.1", path])
        os.unlink(path)
        assert code == 0
        assert reports[0].payload["certificate"]["xhat"] == "c"

    def test_antichain_stays_at_start(self):
        import tempfile
        data = builtin("antichain")
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as fh:
            json.dump(data, fh)
            path = fh.name
        code, reports = run_command(["solve-evp", "--theorem", "3.1", path])
        os.unlink(path)
        assert code == 0
        assert reports[0].payload["certificate"]["xhat"] == "a"

    def test_unknown_name(self):
        with pytest.raises(InputError):
            builtin("nope")


class TestCli:
    def test_validate_ok(self):
        code, reports = run_command(["validate",
                                     fixture_path("two_point.json")])
        assert code == 0 and reports[0].status == "ok"

    def test_validate_input_error_exit_3(self):
        code, reports = run_command(["validate",
                                     fixture_path("bad_triangle.json")])
        assert code == 3 and reports[0].status == "input_error"

    def test_missing_file_exit_3(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        out = tmp_path / "report.json"
        code, reports = run_command(["solve-evp", "--theorem", "3.1",
                                     missing, "--out", str(out)])
        assert code == 3 and reports[0].status == "input_error"
        assert "not found" in reports[0].payload["error"]
        doc = json.loads(out.read_text())
        assert doc["reports"][0]["status"] == "input_error"
        assert doc["reports"][0]["exit_code"] == 3

    def test_bad_arguments_exit_3_between_good_calls(self):
        path = fixture_path("two_point.json")
        for _ in range(2):
            assert run_command(["solve-evp", "--theorem", "9.9",
                                path]) == (3, [])
            assert run_command(["solve-evp", path]) == (3, [])
            code, reports = run_command(["solve-evp", "--theorem", "3.5",
                                         path])
            assert code == 0 and reports[0].theorem == "3.5"

    def test_solve_exit_0(self):
        code, reports = run_command(["solve-evp", "--theorem", "3.5",
                                     fixture_path("two_point.json")])
        assert code == 0
        cert = reports[0].payload["certificate"]
        assert cert["xhat"] == "b"
        assert all(c["holds"] for c in cert["conclusions"])

    def test_premise_failure_exit_2(self):
        code, reports = run_command(["solve-evp", "--theorem", "3.5",
                                     fixture_path("premise_fail.json")])
        assert code == 2 and reports[0].status == "premise_failed"

    def test_hypothesis_failure_exit_2(self):
        # halfplane cone: separation for the direction set must fail
        data = load_validate(fixture_path("two_point.json")).raw
        data = json.loads(json.dumps(data))
        data["dimension"] = 2
        data["cone"] = {"halfspaces": [[0.0, 1.0]]}
        data["map"] = {"a": [[1.0, 0.0]], "b": [[0.0, 0.0]]}
        data["perturbation"] = {"variant": "singleton", "k0": [1.0, 0.0],
                                "gamma": 0.75}
        data["product"]["graph"] = [["a", [1.0, 0.0]], ["b", [0.0, 0.0]]]
        data["product"]["y0"] = [1.0, 0.0]
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as fh:
            json.dump(data, fh)
            path = fh.name
        code, reports = run_command(["solve-evp", "--theorem", "4.2", path])
        os.unlink(path)
        assert code == 2 and reports[0].status == "hypothesis_failed"
        assert reports[0].payload["failed_hypothesis"] == "separation"

    def test_every_theorem_on_tight_bound(self):
        for theorem in ("3.1", "3.5", "3.6", "4.1", "4.2", "4.5", "4.6"):
            code, reports = run_command(["solve-evp", "--theorem", theorem,
                                         fixture_path("tight_bound.json")])
            assert code == 0, (theorem, reports[0].payload)
        for theorem in ("5.1", "5.2", "5.6"):
            code, reports = run_command(["solve-minimal-point", "--theorem",
                                         theorem,
                                         fixture_path("tight_bound.json")])
            assert code == 0, (theorem, reports[0].payload)

    def test_quasimetric_theorem(self, tmp_path):
        data = generate(42, n=4, m=2, variant="quasimetric")
        path = tmp_path / "qm.json"
        path.write_text(json.dumps(data))
        code, reports = run_command(["solve-evp", "--theorem", "4.4",
                                     str(path)])
        assert code == 0
        assert all(c["holds"] for c in
                   reports[0].payload["certificate"]["conclusions"])

    def test_pareto_lists(self):
        code, reports = run_command(["pareto",
                                     fixture_path("pareto_demo.json")])
        assert code == 0
        mins = {tuple(p) for p in reports[0].payload["minimal"]}
        assert mins == {(0.0, 1.0), (1.0, 0.0), (0.5, 0.5)}
        code, reports = run_command(["pareto", "--strict",
                                     fixture_path("pareto_demo.json")])
        assert {tuple(p) for p in reports[0].payload["minimal"]} == mins

    def test_scalarize(self):
        code, reports = run_command(["scalarize", "--y", "2,3", "--k0", "1,1",
                                     fixture_path("pareto_demo.json")])
        assert code == 0
        assert reports[0].payload["value"] == 3.0
        assert abs(reports[0].payload["oracle"] - 3.0) <= 1e-8

    def test_check_assumptions(self):
        code, reports = run_command(["check-assumptions",
                                     fixture_path("two_point.json")])
        assert code == 0
        assert reports[0].payload["assumptions"]["bounded"]

    def test_check_assumptions_failure_exit_2(self, tmp_path):
        data = builtin("chain")
        data["map"] = {"a": [[0.0]], "b": [[0.0]], "c": [[0.0]]}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(data))
        code, reports = run_command(["check-assumptions", str(path)])
        # a flat objective still separates: rate*distance stays positive
        assert code == 0

    def test_check_assumptions_separation_failure_exit_2(self, tmp_path):
        # direction on the lineality ray of a halfplane cone: no strictly
        # positive functional exists, so the gate fails
        data = {
            "version": "evpkit/1",
            "dimension": 2,
            "cone": {"halfspaces": [[0.0, 1.0]]},
            "space": {"labels": ["a", "b"],
                      "distances": [[0.0, 1.0], [1.0, 0.0]]},
            "map": {"a": [[1.0, 1.0]], "b": [[0.0, 0.0]]},
            "perturbation": {"variant": "singleton", "k0": [1.0, 0.0],
                             "gamma": 1.0},
            "params": {"x0": "a"},
        }
        path = tmp_path / "halfplane.json"
        path.write_text(json.dumps(data))
        code, reports = run_command(["check-assumptions", str(path)])
        assert code == 2
        assert reports[0].payload["failed_hypothesis"] == "separation"

    def test_generate_and_out_file(self, tmp_path):
        out = tmp_path / "inst.json"
        code, reports = run_command(["generate", "--seed", "7", "--n", "3",
                                     "--out", str(out)])
        assert code == 0 and out.exists()
        load_validate(str(out))

    def test_builtin_writes_and_probes(self, tmp_path):
        out = tmp_path / "ex41.json"
        code, reports = run_command(["builtin", "--name", "example41",
                                     "--samples", "6", "--out", str(out)])
        assert code == 0
        assert reports[0].payload["probes"] == {"slm": True,
                                                "epi_closed": False}
        load_validate(str(out))

    def test_machine_block_written(self, tmp_path):
        out = tmp_path / "report.json"
        code, _ = run_command(["solve-evp", "--theorem", "3.5",
                               fixture_path("two_point.json"),
                               "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["reports"][0]["payload"]["certificate"]["xhat"] == "b"

    def test_batch_order_deterministic(self):
        paths = [fixture_path("two_point.json"),
                 fixture_path("tight_bound.json")]
        code, reports = run_command(["solve-evp", "--theorem", "3.5"] + paths)
        assert code == 0
        assert [r.instance for r in reports] == paths

    def test_main_prints_and_returns(self, capsys):
        code = main(["solve-evp", "--theorem", "3.5",
                     fixture_path("two_point.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "terminal point: b" in out
        assert "conclusion (c): PASS" in out


class TestReport:
    def test_round_trip_lossless(self):
        code, reports = run_command(["solve-evp", "--theorem", "3.6",
                                     fixture_path("two_point.json")])
        r = reports[0]
        assert Report.from_dict(json.loads(json.dumps(r.to_dict()))) == r

    def test_render_mentions_failure(self):
        code, reports = run_command(["solve-evp", "--theorem", "3.5",
                                     fixture_path("premise_fail.json")])
        text = render(reports[0])
        assert "premise_failed" in text and "error" in text
