"""Golden outputs: normalized ``--out`` reports of the CLI on the fixtures and
on seeded generated instances must be reproduced byte for byte.

Each case is one ``run_command`` call; its ``--out`` JSON is normalized by
dropping ``timing_s`` and reducing instance and written paths to their file
names. ``generate`` and ``builtin`` write the emitted instance to ``--out``,
so for them the file is checked against the reported instance and the
returned reports are normalized instead. Before any normalization, the
``--out`` bytes must equal ``json.dumps(document, indent=2)`` of the
document the command wrote. To
rewrite the stored files after a deliberate change of behaviour, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import json
import os
import sys

import pytest

from evpkit.cli import run_command
from evpkit.io import generate

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
FIXTURES = os.path.join(HERE, os.pardir, "fixtures")
FIXTURE_NAMES = ("bad_triangle.json", "h_outside_cone.json", "pareto_demo.json",
                 "premise_fail.json", "tight_bound.json", "two_point.json")

# (name, argv without paths, inputs): an input is a fixture file name or a
# generate profile (seed, n, m, values, variant)
_EVP = ("3.1", "3.5", "3.6", "4.1", "4.2", "4.4", "4.5", "4.6")
CASES = (
    [(f"fixtures-solve-evp-{th}", ["solve-evp", "--theorem", th],
      FIXTURE_NAMES) for th in _EVP]
    + [(f"fixtures-solve-minimal-point-{th}",
        ["solve-minimal-point", "--theorem", th], FIXTURE_NAMES)
       for th in ("5.1", "5.2", "5.6")]
    + [(f"fixtures-check-assumptions-{xi}", ["check-assumptions", "--xi", xi],
        FIXTURE_NAMES) for xi in ("linear", "gerstewitz")]
    + [
        ("gen-3.1-singleton", ["solve-evp", "--theorem", "3.1"],
         [(101, 6, 2, 2, "singleton"), (102, 7, 3, 3, "singleton"),
          (103, 5, 1, 2, "singleton")]),
        ("gen-3.1-polytope", ["solve-evp", "--theorem", "3.1"],
         [(111, 6, 2, 2, "polytope"), (112, 7, 3, 2, "open_polytope")]),
        ("gen-3.1-quasimetric", ["solve-evp", "--theorem", "3.1"],
         [(121, 6, 3, 2, "quasimetric"), (122, 5, 2, 3, "quasimetric")]),
        ("gen-3.1-extensional", ["solve-evp", "--theorem", "3.1"],
         [(131, 5, 2, 2, "extensional"), (132, 6, 3, 2, "extensional")]),
        ("gen-3.1-faithful", ["solve-evp", "--theorem", "3.1", "--mode",
                              "faithful"], [(141, 6, 2, 2, "polytope")]),
        ("gen-4.1", ["solve-evp", "--theorem", "4.1"],
         [(151, 7, 3, 2, "open_polytope"), (152, 6, 2, 2, "singleton")]),
        ("gen-4.2", ["solve-evp", "--theorem", "4.2"],
         [(161, 7, 3, 2, "polytope"), (162, 6, 1, 2, "polytope")]),
        ("gen-4.4", ["solve-evp", "--theorem", "4.4"],
         [(171, 7, 3, 2, "quasimetric"), (172, 6, 2, 3, "quasimetric")]),
        ("gen-5.1", ["solve-minimal-point", "--theorem", "5.1"],
         [(181, 6, 3, 2, "polytope"), (182, 5, 2, 3, "quasimetric")]),
        ("gen-5.2", ["solve-minimal-point", "--theorem", "5.2"],
         [(191, 6, 3, 2, "polytope"), (192, 5, 2, 2, "open_polytope")]),
        ("gen-5.6", ["solve-minimal-point", "--theorem", "5.6"],
         [(201, 6, 2, 2, "singleton"), (202, 5, 3, 2, "singleton")]),
        ("gen-larger", ["solve-evp", "--theorem", "3.1"],
         [(221, 10, 3, 4, "polytope"), (222, 9, 3, 4, "quasimetric")]),
        ("gen-larger-5.2", ["solve-minimal-point", "--theorem", "5.2"],
         [(231, 9, 3, 3, "polytope")]),
        ("gen-check-assumptions", ["check-assumptions"],
         [(211, 6, 3, 2, "polytope"), (212, 5, 2, 2, "extensional")]),
        ("fixtures-validate", ["validate"],
         ("two_point.json", "bad_triangle.json")),
        # two triples of the slab x1 = a fail; the witness is the first in
        # the search's (index, x1, x3, x2) order
        ("fixtures-triangle-order", ["solve-evp", "--theorem", "3.1"],
         ("triangle_order.json",)),
        ("fixtures-pareto", ["pareto"], FIXTURE_NAMES),
        ("fixtures-pareto-strict", ["pareto", "--strict"], FIXTURE_NAMES),
        ("fixtures-scalarize", ["scalarize", "--y", "2,3", "--k0", "1,1"],
         ("pareto_demo.json",)),
        ("generate", ["generate", "--seed", "7", "--n", "3"], ()),
        ("generate-bad-size", ["generate", "--seed", "7", "--n", "0"], ()),
        ("builtin-example41", ["builtin", "--name", "example41"], ()),
        ("builtin-example41-too-few", ["builtin", "--name", "example41",
                                       "--samples", "1"], ()),
    ]
)
EMITTERS = ("generate", "builtin")


def _input_path(spec, directory):
    if isinstance(spec, str):
        return os.path.join(FIXTURES, spec)
    seed, n, m, values, variant = spec
    path = os.path.join(directory, f"gen-{seed}-{n}-{m}-{values}-{variant}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(generate(seed, n=n, m=m, values_per_point=values,
                           variant=variant), fh)
    return path


def normalized_output(case, directory):
    """The case's ``--out`` document, normalized, as text."""
    name, argv, inputs = case
    paths = [_input_path(spec, directory) for spec in inputs]
    out = os.path.join(directory, f"{name}.out.json")
    code, reports = run_command(argv + paths + ["--out", out])
    doc = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            written = fh.read()
        doc = json.loads(written)
        # the --out bytes are those of json.dumps(indent=2) of what was sent
        sent = (reports[0].payload["instance"] if argv[0] in EMITTERS
                else {"reports": [r.to_dict() for r in reports]})
        assert written == json.dumps(sent, indent=2).encode("utf-8"), name
    if argv[0] in EMITTERS:
        assert doc == reports[0].payload.get("instance")
        doc = json.loads(json.dumps({"reports": [r.to_dict()
                                                 for r in reports]}))
    for report in doc["reports"]:
        report.pop("timing_s")
        if report["instance"] is not None:
            report["instance"] = os.path.basename(report["instance"])
        if "written" in report["payload"]:
            report["payload"]["written"] = os.path.basename(
                report["payload"]["written"])
    doc = {"argv": argv, "exit_code": code, "reports": doc["reports"]}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _golden_path(name):
    return os.path.join(GOLDEN, f"{name}.json")


def json_differences(want, got, path="$"):
    """One line per JSON path where ``got`` differs from ``want``, with both
    values; leaves are compared as JSON text, so 1 and 1.0 differ."""
    if isinstance(want, dict) and isinstance(got, dict):
        lines = []
        for key in sorted(set(want) | set(got)):
            sub = f"{path}.{key}"
            if key not in got:
                lines.append(f"{sub}: expected {json.dumps(want[key])}, "
                             "got nothing")
            elif key not in want:
                lines.append(f"{sub}: expected nothing, got "
                             f"{json.dumps(got[key])}")
            else:
                lines += json_differences(want[key], got[key], sub)
        return lines
    if (isinstance(want, list) and isinstance(got, list)
            and len(want) == len(got)):
        return [line for i, (w, g) in enumerate(zip(want, got))
                for line in json_differences(w, g, f"{path}[{i}]")]
    if json.dumps(want) == json.dumps(got):
        return []
    return [f"{path}: expected {json.dumps(want)}, got {json.dumps(got)}"]


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden_output(case, tmp_path):
    with open(_golden_path(case[0]), "r", encoding="utf-8") as fh:
        expected = fh.read()
    got = normalized_output(case, str(tmp_path))
    if got != expected:
        lines = json_differences(json.loads(expected), json.loads(got))
        pytest.fail(f"{case[0]} differs from its golden file:\n"
                    + "\n".join(lines or ["equal JSON, different bytes"]),
                    pytrace=False)


def test_json_differences_name_every_path():
    want = {"a": [1, {"b": 0.5}], "c": 1, "d": True, "f": [1, 2]}
    got = {"a": [1, {"b": 0.25}], "c": 1.0, "e": None, "f": [1]}
    assert json_differences(want, got) == [
        "$.a[1].b: expected 0.5, got 0.25",
        "$.c: expected 1, got 1.0",
        "$.d: expected true, got nothing",
        "$.e: expected nothing, got null",
        "$.f: expected [1, 2], got [1]"]
    assert json_differences(want, want) == []


def _regenerate():
    import tempfile
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for case in CASES:
            with open(_golden_path(case[0]), "w", encoding="utf-8") as fh:
                fh.write(normalized_output(case, directory))
            print("wrote", _golden_path(case[0]))


if __name__ == "__main__":
    sys.exit(_regenerate())
