"""Instance files, generators, builtins, reports, and the CLI surface."""

import copy
import functools
import json
import operator
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpkit import cli, geometry, instances, solvers
from evpkit import io as kit_io
from evpkit import product as prod
from evpkit.cli import _family_direction_vertices, main, run_command
from evpkit.errors import InputError
from evpkit.geometry import Polytope
from evpkit.io import (BUILTIN_NAMES, VARIANTS, Report, builtin,
                       example41_probes, generate, load_validate, render)

from conftest import fixture_path

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


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
        emitted = json.loads(json.dumps(bundle.raw))
        again = json.loads(json.dumps(load_validate(emitted).raw))
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
        # the file's own tolerance wins, and the variable is not read
        data["params"]["tolerance"] = 1e-7
        assert load_validate(data).tol == 1e-7


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
    # a ragged matrix is named at its first short or long row, after that
    # row's own entries are checked
    ("map-ragged-row", ("map", "a"), [[1.0], [1.0, 2.0]],
     ("$.map.a[1]: expected a list of 1 items",)),
    ("map-ragged-row-string-entry", ("map", "a"), [[1.0, 2.0], ["x"]],
     ("$.map.a[1][0]: expected a number",)),
    ("halfspaces-ragged-row", ("cone", "halfspaces"), [[1.0], [1.0, 2.0]],
     ("$.cone.halfspaces[1]: expected a list of 1 items",)),
    ("coordinates-ragged-row", ("space", "coordinates"),
     [[0.0], [1.0], [2.0, 0.0]],
     ("$.space.coordinates[2]: expected a list of 1 items",)),
    ("vertices-ragged-row", ("perturbation", "vertices"),
     [[1.0, 0.0], [1.0]],
     ("$.perturbation.vertices[1]: expected a list of 2 items",)),
    ("table-ragged-row", ("perturbation", "table"),
     {"L0": {"a|b": [[1.0], [1.0, 2.0]]}},
     ("$.perturbation.table.L0.a|b[1]: expected a list of 1 items",)),
    ("table-index-unlisted", ("perturbation",),
     {"variant": "extensional", "lambdas": ["L0"],
      "table": {"L0": {"a|b": [[1.0]]}, "Lx": {"a|b": [[1.0]]}}},
     ("perturbation.table index 'Lx'", "perturbation.lambdas")),
    ("graph-item-not-list", ("product", "graph"), ["a"], ("graph",)),
    ("graph-item-short", ("product", "graph"), [["a"]], ("graph",)),
    ("graph-item-long", ("product", "graph"), [["a", [2.0], 1]],
     ("graph",)),
    ("graph-label-number", ("product", "graph"), [[1, [2.0]]], ("graph",)),
    ("graph-point-number", ("product", "graph"), [["a", 2.0]], ("graph",)),
    ("graph-point-empty", ("product", "graph"), [["a", []]], ("graph",)),
    ("graph-point-string-entry", ("product", "graph"), [["a", ["2"]]],
     ("graph",)),
    # plain floats in the pair, under numpy 1 and 2 alike
    ("graph-duplicate-pair", ("product", "graph"),
     [["a", [2.0]], ["b", [1.0]], ["b", [1.0]]],
     ("duplicate graph pair ('b', (1.0,))",)),
    ("top-level-list", (), [1, 2], ("object",)),
    ("top-level-string", (), "evpkit/1", ("object",)),
    ("top-level-number", (), 3, ("object",)),
    ("map-unknown-label", ("map", "zz"), [[1.0]], ("unknown labels", "zz")),
    ("quasimetric-triangle", ("perturbation",),
     {"variant": "quasimetric", "vertices": [[1.0]],
      "matrix": [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]},
     ("directed triangle inequality fails on indices (0, 1, 2)",)),
    # a self-distance or a quasi-metric entry below 0 by less than tol
    # would give a triangle search a negative scale
    ("distances-negative-self-distance", ("space",),
     {"labels": ["a", "b", "c"],
      "distances": [[0.0, 1.0, 2.0], [1.0, -1e-10, 1.0], [2.0, 1.0, 0.0]]},
     ("nonzero self-distance at 'b'",)),
    ("quasimetric-negative-diagonal", ("perturbation",),
     {"variant": "quasimetric", "vertices": [[1.0]],
      "matrix": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, -1e-10]]},
     ("quasi-metric has negative entries",)),
    # no label would precede itself, so the family induces no pre-order
    ("quasimetric-positive-diagonal", ("perturbation",),
     {"variant": "quasimetric", "vertices": [[1.0]],
      "matrix": [[0.0, 1.0, 2.0], [1.0, 0.5, 1.0], [2.0, 1.0, 0.0]]},
     ("quasi-metric has a nonzero diagonal entry at index 1",)),
    # json reads Infinity and NaN, which RFC 8259 JSON does not have
    ("gamma-infinity", ("perturbation", "gamma"), float("inf"),
     ("$.perturbation.gamma: expected a number",)),
    ("epsilon-nan", ("params", "epsilon"), float("nan"),
     ("$.params.epsilon: expected a number",)),
    ("tolerance-infinity", ("params", "tolerance"), float("inf"),
     ("$.params.tolerance: expected a number",)),
    ("vertex-negative-infinity", ("perturbation", "vertices"),
     [[-float("inf")]], ("$.perturbation.vertices[0][0]: expected a number",)),
    ("gamma-integer-beyond-float", ("perturbation", "gamma"), 10 ** 400,
     ("$.perturbation.gamma: expected a number",)),
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


def test_duplicate_graph_pair_prints_plain_floats():
    data = generate(1, n=3, m=2, values_per_point=2, variant="polytope")
    data["product"]["graph"].append(data["product"]["graph"][0])
    with pytest.raises(InputError) as err:
        load_validate(data)
    assert str(err.value) == ("duplicate graph pair "
                              "('p0', (1.31081, -0.363203))")


_Leaf = kit_io._Leaf


def loop_check(value, spec, path="$"):
    """Raise InputError naming the first place where ``value`` breaks
    ``spec``; values are only checked for JSON type and shape here."""
    if isinstance(spec, _Leaf):
        if not spec.accepts(value):
            raise InputError(f"{path}: expected {spec.what}")
    elif isinstance(spec, dict):
        if not isinstance(value, dict):
            raise InputError(f"{path}: expected an object")
        if not value and spec.get("*", (False,))[0]:
            raise InputError(f"{path}: expected a non-empty object")
        for key, (required, _) in spec.items():
            if required and key != "*" and key not in value:
                raise InputError(f"{path}.{key}: required but missing")
        for key, item in value.items():
            if key not in spec and "*" not in spec:
                raise InputError(f"{path}.{key}: unknown key")
            loop_check(item, spec.get(key, spec.get("*"))[1], f"{path}.{key}")
    else:
        exact = isinstance(spec, tuple)
        if not (isinstance(value, list) and value
                and (not exact or len(value) == len(spec))):
            raise InputError(f"{path}: expected " + (
                f"a list of {len(spec)} items" if exact
                else "a non-empty list"))
        for i, item in enumerate(value):
            loop_check(item, spec[i] if exact else spec[0], f"{path}[{i}]")
            if (not exact and isinstance(spec[0], list)
                    and len(item) != len(value[0])):
                raise InputError(f"{path}[{i}]: expected a list of "
                                 f"{len(value[0])} items")


# what a mutation puts in place of a value or under a new key
_WRONG = ("x", "", None, True, False, 0, 1, -1, 2, 1.5, [], {}, [1.0], [2],
          [[1.0]], [[1.0, 2.0]], [[1.0], [1.0, 2.0]], [["x"]], [True],
          [[None]], ["a", [1.0]], [["a", [1.0]]], {"k": 1.0}, {"a": [[1.0]]},
          {"L0": {"a|b": [[1.0]]}}, float("nan"), float("inf"),
          -float("inf"), 10 ** 400, -10 ** 400, "evpkit/1", "euclidean",
          "polytope")
# keys a mutation adds: unknown ones and the optional keys of INSTANCE_SPEC
_ADDED = ("bogus", "*", "distances", "generators", "metric", "epsilon",
          "lambda", "gamma", "tolerance", "k0", "vertices", "matrix", "open",
          "lambdas", "table", "product", "y0", "graph", "p0", "L0")


def _places(doc):
    """Every (container, key or position) inside ``doc``, parents first."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        return []
    return [place for k, v in items
            for place in [(doc, k)] + _places(v)]


def _mutate(doc, rng):
    """One seeded mutation of ``doc`` in place: a dropped key or item, an
    added key, a wrong value, a longer or shorter list, or an empty list or
    object."""
    places = _places(doc)
    containers = [doc] + [c[k] for c, k in places
                          if isinstance(c[k], (dict, list))]
    kind = rng.randrange(5)
    if kind == 0 and places:
        container, key = rng.choice(places)
        del container[key]
    elif kind == 1:
        objects = [c for c in containers if isinstance(c, dict)]
        rng.choice(objects)[rng.choice(_ADDED)] = copy.deepcopy(
            rng.choice(_WRONG))
    elif kind == 2 and places:
        container, key = rng.choice(places)
        container[key] = copy.deepcopy(rng.choice(_WRONG))
    elif kind == 3:
        lists = [c for c in containers if isinstance(c, list) and c]
        if lists:
            chosen = rng.choice(lists)
            if rng.random() < 0.5:
                chosen.pop()
            else:
                chosen.append(copy.deepcopy(rng.choice(chosen)))
    elif places:
        container, key = rng.choice(places)
        container[key] = [] if rng.random() < 0.5 else {}


def _check_text(check, doc):
    try:
        check(doc, kit_io.INSTANCE_SPEC)
    except InputError as exc:
        return str(exc)
    return None


def test_check_equals_the_loop_walker_on_mutated_documents():
    """The walker that builds its path only on a fault names every fault as
    the walker that formats a path at each node: seeded mutations of
    documents of all five variants, each with a product block, give the
    same text from both or pass both."""
    rng = random.Random(20261020)
    bases = [generate(seed, n=n, m=m, values_per_point=2, variant=variant)
             for variant in VARIANTS for seed, n, m in ((3, 2, 1), (4, 3, 2))]
    texts, accepted = set(), 0
    for trial in range(4000):
        doc = copy.deepcopy(bases[trial % len(bases)])
        for _ in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        want = _check_text(loop_check, doc)
        assert _check_text(kit_io._check, doc) == want, (trial, want)
        texts.add(want)
        accepted += want is None
    assert 0 < accepted < 2000 and len(texts) > 300
    for doc in ([], [1], "evpkit/1", 3, None, True, {}):
        assert _check_text(kit_io._check, doc) == _check_text(loop_check, doc)


@st.composite
def _json_trees(draw):
    """A JSON tree of every kind of value ``json.dumps`` writes, nested at
    least five containers deep."""
    keys = (st.text(max_size=8) | st.integers(-2 ** 70, 2 ** 70)
            | st.floats() | st.booleans() | st.none())
    leaves = (st.text() | st.sampled_from(["\"", "\\", "\x00\x1f\x7f",
                                           "é ü 中 😀", "\ud800"])
              | st.none() | st.booleans()
              | st.integers(-2 ** 100, 2 ** 100)
              | st.floats(allow_nan=True, allow_infinity=True)
              | st.sampled_from([-0.0, 1e-320, 2 ** 64 + 1, -2 ** 64,
                                 float("nan"), float("inf"), -float("inf")])
              | st.floats().map(np.float64))
    tree = draw(st.recursive(
        leaves, lambda inner: (st.lists(inner, max_size=4)
                               | st.tuples(inner, inner)
                               | st.dictionaries(keys, inner, max_size=4)),
        max_leaves=24))
    for wrap in draw(st.lists(st.sampled_from(["list", "tuple", "dict"]),
                              min_size=5, max_size=7)):
        sibling = draw(leaves)
        tree = {"list": [sibling, tree], "tuple": (tree,),
                "dict": {draw(st.text(max_size=3)): tree}}[wrap]
    return tree


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_json_trees())
def test_json_text_is_json_dumps_indent_2(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


def test_json_text_rejects_what_json_dumps_rejects():
    for value in ([np.int64(1)], {"a": np.bool_(True)}, {1j: 1.0},
                  {(1, 2): 1.0}, [{1, 2}], object()):
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            cli._json_text(value)
        assert str(got.value) == str(want.value)


class TestGenerate:
    def test_deterministic_per_seed(self):
        assert generate(1, n=5, m=2) == generate(1, n=5, m=2)
        assert generate(1, n=5, m=2) != generate(2, n=5, m=2)

    def test_negative_seed_is_an_input_error(self):
        with pytest.raises(InputError, match="seed must be nonnegative"):
            generate(-1)
        code, reports = run_command(["generate", "--seed", "-1"])
        assert code == 3 and reports[0].status == "input_error"
        assert "seed" in reports[0].payload["error"]

    def test_redraw_bound_is_an_input_error(self, monkeypatch):
        """Point placement gives up after ``_MAX_REDRAWS`` redraws of one
        point instead of looping on; 200 points in the square need some
        redraws, and none when the bound is not reached."""
        data = generate(1, n=200)
        monkeypatch.setattr("evpkit.io._MAX_REDRAWS", 0)
        with pytest.raises(InputError, match="cannot place 200 points"):
            generate(1, n=200)
        code, reports = run_command(["generate", "--seed", "1", "--n", "200"])
        assert code == 3 and reports[0].status == "input_error"
        assert "200" in reports[0].payload["error"]
        monkeypatch.setattr("evpkit.io._MAX_REDRAWS", 1000)
        assert generate(1, n=200) == data

    def test_placement_is_the_all_points_loop(self, monkeypatch):
        """The grid placement draws, redraws and emits exactly what the
        loop that measures each candidate against every point so far does:
        over several seeds, at sizes with and without redraws, every
        variant at n = 6, and the redraw bound's error."""
        redraws = []

        def place_all_points(rng, n):
            coords = np.round(rng.uniform(0.0, 4.0, size=(n, 2)), 6)
            for i in range(1, n):
                count = 0
                while np.min(np.linalg.norm(coords[:i] - coords[i],
                                            axis=1)) < 0.05:
                    count += 1
                    if count > kit_io._MAX_REDRAWS:
                        raise InputError(f"cannot place {n} points 0.05 "
                                         "apart in the generator's square; "
                                         "ask for fewer")
                    coords[i] = np.round(rng.uniform(0.0, 4.0, size=2), 6)
                redraws.append(count)
            return coords

        def both(*args, **kwargs):
            results = []
            for place in (kit_io._place, place_all_points):
                with monkeypatch.context() as patch:
                    patch.setattr(kit_io, "_place", place)
                    try:
                        results.append(json.dumps(generate(*args, **kwargs)))
                    except InputError as exc:
                        results.append(str(exc))
            return results

        for seed in range(8):
            for n in (2, 40, 600):
                grid, loop = both(seed, n=n)
                assert grid == loop, (seed, n)
            for variant in VARIANTS:
                grid, loop = both(seed, n=6, variant=variant)
                assert grid == loop, (seed, variant)
        assert sum(redraws) > 0
        monkeypatch.setattr(kit_io, "_MAX_REDRAWS", 2)
        grid, loop = both(1, n=600)
        assert grid == loop and "cannot place 600 points" in grid

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

    def test_unwritable_out_is_an_input_error(self, tmp_path):
        """Both --out writers, the report block and the emitted instance,
        turn a path that cannot be written into exit 3 naming the path."""
        out = str(tmp_path / "missing" / "x.json")
        code, reports = run_command(["validate",
                                     fixture_path("two_point.json"),
                                     "--out", out])
        assert code == 3
        assert [r.status for r in reports] == ["ok", "input_error"]
        assert out in reports[1].payload["error"]
        code, reports = run_command(["generate", "--seed", "1", "--out", out])
        assert code == 3 and reports[0].status == "input_error"
        assert out in reports[0].payload["error"]
        assert not os.path.exists(out)

    def test_out_over_a_longer_file_keeps_no_tail(self, tmp_path):
        """Both --out writers write over an existing, longer file in place
        and cut it at the new end: the report block parses and holds one
        report, and the emitted instance has the bytes of a fresh file."""
        out, fresh = tmp_path / "out.json", tmp_path / "fresh.json"
        for command in (["solve-evp", "--theorem", "3.1"], ["validate"]):
            out.write_text("{" + " " * 50000 + "}\n")
            code, _ = run_command(command + [fixture_path("two_point.json"),
                                             "--out", str(out)])
            assert code == 0
            assert len(json.loads(out.read_text())["reports"]) == 1
        out.write_text("x" * 50000)
        for path in (out, fresh):
            code, _ = run_command(["generate", "--seed", "1", "--n", "2",
                                   "--out", str(path)])
            assert code == 0
        assert out.read_bytes() == fresh.read_bytes()
        load_validate(str(out))

    @pytest.mark.skipif(not os.path.exists(os.devnull),
                        reason="no null device")
    def test_out_to_the_null_device(self):
        """A target that is not a regular file takes the text uncut."""
        code, reports = run_command(["validate",
                                     fixture_path("two_point.json"),
                                     "--out", os.devnull])
        assert code == 0 and [r.status for r in reports] == ["ok"]
        code, _ = run_command(["generate", "--seed", "1", "--out",
                               os.devnull])
        assert code == 0

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


def _run_into_closed_pipe(*argv):
    """``python -m evpkit.cli argv`` with stdout a pipe whose read end is
    already closed; returns the exit code and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run([sys.executable, "-m", "evpkit.cli", *argv],
                              stdout=w, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=120)
    finally:
        os.close(w)
    return done.returncode, done.stderr


@pytest.mark.parametrize("argv,code", [
    (("validate", fixture_path("two_point.json")), 0),
    (("solve-minimal-point", "--theorem", "5.1",
      fixture_path("pareto_demo.json")), 0),
    (("validate", fixture_path("no_such_file.json")), 3),
])
def test_closed_stdout_keeps_the_exit_code(argv, code):
    """A reader that went away before the report was printed costs the run
    neither its exit code nor a traceback."""
    returncode, stderr = _run_into_closed_pipe(*argv)
    assert returncode == code
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


def loop_direction_vertices(bundle):
    """The pooled extensional direction vertices by a walk of the table
    over distinct label pairs in (x2, x1, index) order."""
    rows = []
    fam = bundle.family
    space = bundle.instance.space
    for x2 in space.labels:
        for x1 in space.labels:
            if x1 == x2:
                continue
            for _, scale, H in fam.sets(space, x2, x1):
                rows.extend((scale * H.vertices).tolist())
    if not rows:
        raise InputError("perturbation has no sets over distinct labels")
    return Polytope(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_pooled_direction_vertices_match_the_table_walk(n):
    """The vertices pooled from the family's stack are the walk's, byte for
    byte and in its order; a single label pools nothing, with the walk's
    error."""
    for seed in range(10):
        data = generate(seed + 70, n=n, m=1 + seed % 3,
                        values_per_point=1 + seed % 2, variant="extensional")
        # a ragged table: one set of every other pair loses its last vertex
        for rows in data["perturbation"]["table"].values():
            for i, key in enumerate(sorted(rows)):
                if i % 2 and len(rows[key]) > 1:
                    rows[key] = rows[key][:-1]
        bundle = load_validate(data)
        if n == 1:
            for pool in (loop_direction_vertices,
                         _family_direction_vertices):
                with pytest.raises(InputError, match="no sets over distinct"):
                    pool(bundle)
            continue
        want = loop_direction_vertices(bundle).vertices
        got = _family_direction_vertices(bundle).vertices
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Work: a command repeats no check or build that the load or an earlier step
# of the solve made.
# ---------------------------------------------------------------------------

def _counted(monkeypatch, name, *owners):
    """A one-item list that counts the calls of ``name`` through each of
    ``owners``."""
    calls = [0]
    for owner in owners:
        original = getattr(owner, name)

        def counted(*a, _original=original, **kw):
            calls[0] += 1
            return _original(*a, **kw)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _generated_file(tmp_path, seed, variant):
    path = tmp_path / f"{variant}-{seed}.json"
    path.write_text(json.dumps(generate(seed, n=5, m=2, variant=variant)))
    return str(path)


@pytest.mark.parametrize("theorem", ["4.1", "4.2"])
def test_set_direction_solve_checks_the_direction_set_twice(
        monkeypatch, tmp_path, theorem):
    """The load checks H once and the separating functional once; the
    solver's family is built from that H without a third check."""
    for seed in (3, 4, 5):
        path = _generated_file(tmp_path, seed, "polytope")
        calls = _counted(monkeypatch, "validate_direction_set", geometry,
                         instances)
        _, reports = run_command(["solve-evp", "--theorem", theorem, path])
        assert reports[0].status in ("certified", "hypothesis_failed")
        assert calls[0] == 2, (seed, calls[0])
        monkeypatch.undo()


def test_assumption_gate_builds_the_family_stack_once(monkeypatch,
                                                      tmp_path):
    """check-assumptions on an extensional file: the load builds the
    family's stack, and the pooled direction vertices for the functional
    and the gate's order matrix and separation minima all read it."""
    for seed in (6, 7):
        path = _generated_file(tmp_path, seed, "extensional")
        builds = _counted(monkeypatch, "__post_init__",
                          instances.ExtensionalFamily)
        read = []
        arrays = instances.ExtensionalFamily.arrays
        monkeypatch.setattr(instances.ExtensionalFamily, "arrays",
                            lambda fam, space: read.append(
                                arrays(fam, space)) or read[-1])
        _, reports = run_command(["check-assumptions", path])
        assert reports[0].status in ("ok", "hypothesis_failed")
        assert builds[0] == 1, (seed, builds[0])
        assert len(read) == 2 and read[0] is read[1], seed
        monkeypatch.undo()


def test_extensional_table_walks(monkeypatch, tmp_path):
    """The table of an extensional family is walked into its stack once,
    when the family is made: by the load, and by no solve. A library 3.1
    solve builds no stack, and the CLI's 3.1 solve and check-assumptions
    build only the load's."""
    builds = _counted(monkeypatch, "__post_init__",
                      instances.ExtensionalFamily)
    path = tmp_path / "extensional.json"
    path.write_text(json.dumps(generate(1, n=6, m=2, variant="extensional")))

    def walks(run):
        builds[0] = 0
        return run(), builds[0]

    bundle, count = walks(lambda: load_validate(str(path)))
    assert count == 1
    inst = bundle.instance
    xi = geometry.strictly_positive_functional(
        _family_direction_vertices(bundle), inst.cone, inst.tol)
    cert, count = walks(lambda: solvers.solve_evp_general(
        inst, bundle.family, xi, bundle.params.x0))
    assert cert.all_hold() and count == 0
    for argv, status in ((["solve-evp", "--theorem", "3.1"], "certified"),
                         (["check-assumptions"], "ok")):
        (_, reports), count = walks(lambda: run_command(argv + [str(path)]))
        assert reports[0].status == status and count == 1, argv


@pytest.mark.parametrize("theorem,variant,owner,name", [
    ("4.1", "polytope", solvers, "solve_evp_set_direction"),
    ("4.2", "polytope", solvers, "solve_evp_set_direction"),
    ("4.4", "quasimetric", solvers, "solve_evp_quasimetric"),
    ("4.5", "polytope", solvers, "solve_evp_approx"),
    ("4.6", "polytope", solvers, "solve_evp_approx"),
    ("5.1", "polytope", prod, "fmap_from_rate"),
    ("5.2", "singleton", prod, "fmap_from_rate"),
], ids=["4.1", "4.2", "4.4", "4.5", "4.6", "5.1", "5.2"])
def test_dispatch_hands_over_the_loaded_direction_set(
        monkeypatch, tmp_path, theorem, variant, owner, name):
    """The dispatch gives the solver the loaded family's H itself, not a
    polytope parsed again from the file."""
    bundles, handed = [], []
    load, solve = kit_io.load_validate, getattr(owner, name)

    def loaded(source):
        bundles.append(load(source))
        return bundles[-1]

    def solving(*args, **kwargs):
        handed.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(kit_io, "load_validate", loaded)
    monkeypatch.setattr(owner, name, solving)
    command = "solve-minimal-point" if theorem[0] == "5" else "solve-evp"
    run_command([command, "--theorem", theorem,
                 _generated_file(tmp_path, 8, variant)])
    assert handed and handed[0] is bundles[0].family.H


def test_a_zero_table_vertex_is_rejected_by_the_pooled_direction_check(
        tmp_path):
    """An extensional table entry may hold 0, so the load accepts a zero
    vertex in it; the CLI's check of the pooled direction vertices is the
    one check that rejects it, for 3.1 and check-assumptions, and it names
    the vertex by its table entry."""
    data = generate(3, n=4, m=2, values_per_point=1, variant="extensional")
    data["perturbation"]["table"]["L0"]["p0|p1"] = [[0, 0], [0.5, 0.5]]
    late = generate(3, n=4, m=2, values_per_point=1, variant="extensional")
    entry = late["perturbation"]["table"]["L1"]["p3|p2"]
    entry.append([0, 0])
    for doc, text in (
            (data, "direction-set vertex 0 of the family value for "
                   "('L0', 'p0', 'p1') is zero"),
            (late, f"direction-set vertex {len(entry) - 1} of the family "
                   "value for ('L1', 'p3', 'p2') is zero")):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert run_command(["validate", str(path)])[0] == 0
        for argv in (["solve-evp", "--theorem", "3.1"],
                     ["check-assumptions"]):
            code, reports = run_command(argv + [str(path)])
            assert code == 3 and reports[0].status == "input_error", argv
            assert reports[0].payload["error"] == text, argv


@pytest.mark.parametrize("variant,dropped,text", [
    ("singleton", ["k0"], "perturbation.k0 is required for 'singleton'"),
    ("singleton", ["gamma"],
     "perturbation.gamma is required for 'singleton'"),
    ("singleton", ["gamma", "k0"],
     "perturbation.k0 is required for 'singleton'"),
    ("polytope", ["vertices"],
     "perturbation.vertices is required for 'polytope'"),
    ("polytope", ["gamma"], "perturbation.gamma is required for 'polytope'"),
    ("polytope", ["gamma", "vertices"],
     "perturbation.vertices is required for 'polytope'"),
    ("open_polytope", ["gamma"],
     "perturbation.gamma is required for 'polytope'"),
    ("quasimetric", ["vertices"], "perturbation.vertices and "
     "perturbation.matrix are required for 'quasimetric'"),
    ("quasimetric", ["matrix"], "perturbation.vertices and "
     "perturbation.matrix are required for 'quasimetric'"),
    ("extensional", ["lambdas"], "perturbation.lambdas and "
     "perturbation.table are required for 'extensional'"),
    ("extensional", ["table"], "perturbation.lambdas and "
     "perturbation.table are required for 'extensional'"),
])
def test_a_missing_perturbation_key_is_named(variant, dropped, text,
                                             tmp_path):
    """Each variant names its first missing perturbation key, in the order
    k0 then gamma, vertices then gamma, and the two keys of a quasi-metric
    or extensional family together, through the API and the CLI."""
    data = generate(5, n=4, m=2, variant=variant)
    for key in dropped:
        del data["perturbation"][key]
    with pytest.raises(InputError) as err:
        load_validate(data)
    assert str(err.value) == text
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(data))
    code, reports = run_command(["validate", str(path)])
    assert code == 3 and reports[0].payload["error"] == text


class TestReport:
    def test_round_trip_lossless(self):
        code, reports = run_command(["solve-evp", "--theorem", "3.6",
                                     fixture_path("two_point.json")])
        r = reports[0]
        assert Report(**json.loads(json.dumps(r.to_dict()))) == r

    def test_render_mentions_failure(self):
        code, reports = run_command(["solve-evp", "--theorem", "3.5",
                                     fixture_path("premise_fail.json")])
        text = render(reports[0])
        assert "premise_failed" in text and "error" in text
