"""The golden reports against the benchmark's independent checker.

``bench/checker.py`` shares no code with evpkit: it reads the raw instance
document and decides every membership it needs with HiGHS. Every golden run
(one input of one golden case) that exits 0 and that the checker models is
handed to its ``check_cli``: ``validate``, ``pareto``, ``check-assumptions``
with the linear functional, theorems 3.1, 4.1 and 4.2 over a listed
direction set, 4.4, and 5.1, 5.2 and 5.6. The golden tests show that these
reports are what evpkit prints today.
"""

import importlib.util
import json
import os

from evpkit.io import generate

from test_golden import CASES, FIXTURES, GOLDEN, HERE

_SPEC = importlib.util.spec_from_file_location(
    "checker", os.path.join(HERE, os.pardir, "bench", "checker.py"))
checker = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checker)


def instance_document(name):
    """The instance a golden report names: a fixture, or a generated file
    ``gen-{seed}-{n}-{m}-{values}-{variant}.json``."""
    if not name.startswith("gen-"):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            return json.load(fh)
    seed, n, m, values, variant = name[len("gen-"):-len(".json")].split(
        "-", 4)
    return generate(int(seed), n=int(n), m=int(m),
                    values_per_point=int(values), variant=variant)


def modelled(argv, theorem, raw):
    """Whether ``check_cli`` models a run of ``argv`` on ``raw``."""
    command = argv[0]
    if command == "pareto":
        return "--strict" not in argv
    if command == "check-assumptions":
        return "gerstewitz" not in argv
    if command == "solve-evp":
        return theorem in ("3.1", "4.4") or (
            theorem in ("4.1", "4.2") and "vertices" in raw["perturbation"])
    return command in ("validate", "solve-minimal-point")


def golden_runs():
    """``(case, argv, theorem, raw, exit code, one-report --out document)``
    of every golden run that exits 0 and that the checker models."""
    for name, _, _ in CASES:
        with open(os.path.join(GOLDEN, f"{name}.json"),
                  encoding="utf-8") as fh:
            golden = json.load(fh)
        argv = golden["argv"]
        for report in golden["reports"]:
            if report["exit_code"] != 0 or report["instance"] is None:
                continue
            raw = instance_document(report["instance"])
            if modelled(argv, report["theorem"], raw):
                yield (name, argv, report["theorem"], raw,
                       report["exit_code"], {"reports": [report]})


def test_golden_runs_pass_the_independent_checker():
    problems, seen = [], set()
    for name, argv, theorem, raw, code, doc in golden_runs():
        seen.add((argv[0], theorem))
        found = checker.check_cli(argv[0], theorem, raw, code, doc)
        problems += [(name, doc["reports"][0]["instance"], p) for p in found]
    assert not problems, problems
    assert seen == {("validate", None), ("pareto", None),
                    ("check-assumptions", None), ("solve-evp", "3.1"),
                    ("solve-evp", "4.1"), ("solve-evp", "4.2"),
                    ("solve-evp", "4.4"), ("solve-minimal-point", "5.1"),
                    ("solve-minimal-point", "5.2"),
                    ("solve-minimal-point", "5.6")}, seen
