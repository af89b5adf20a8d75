import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import trilnd.classify
import trilnd.cli
from trilnd.cli import main
from trilnd.corpus import corpus
from trilnd.derivation import WellDefinedReport
from trilnd.gaussian import InternalError

SRC = Path(__file__).resolve().parents[1] / "src"

SAMPLES = "sample_inputs"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_presentation(tmp_path, data, name="p.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_analyze_sphere(capsys):
    code, rep = run(capsys, "analyze", "--presentation", f"{SAMPLES}/sphere.json")
    assert code == 0
    assert rep["dimension"] == 2
    assert rep["factorial"] is False
    assert rep["rigid"] is False
    assert rep["semirigid"] is False
    assert rep["grading"]["basis"] == ["e"]
    assert rep["grading"]["weights"] == {"T0_1": [4], "T1_1": [4], "T2_1": [4]}
    (entry,) = rep["classes"]
    assert entry["count"] == "InfiniteFamily"
    d0 = entry["formulas"][0]
    assert d0["label"] == "delta_0"
    assert d0["images"]["T0_1"] == "2i*T2_1"


def test_analyze_rigid(capsys):
    code, rep = run(capsys, "analyze", "--presentation", f"{SAMPLES}/rigid_type1.json")
    assert code == 0
    assert rep["rigid"] is True
    assert rep["semirigid"] is True
    assert rep["semirigid_clause"] == "rigid"
    assert rep["classes"] == []


def test_analyze_semirigid_with_ml(capsys):
    code, rep = run(
        capsys, "analyze", "--presentation", f"{SAMPLES}/type1_semirigid.json"
    )
    assert code == 0
    assert rep["semirigid_clause"] == "makar_limanov"
    assert rep["ml_invariant"]["status"] == "computed"
    assert rep["ml_invariant"]["generators"] == ["T2_2"]


def test_lnds_quartic(capsys):
    code, rep = run(capsys, "lnds", "--presentation", f"{SAMPLES}/quartic.json")
    assert code == 0
    assert rep["count"] == 2
    kinds = [r["descriptor"]["kind"] for r in rep["lnds"]]
    assert kinds == ["t2c", "t2c"]
    assert all(r["degree_label"] == "4e" for r in rep["lnds"])


def test_lnds_lambda_override(capsys):
    code, rep = run(
        capsys,
        "lnds",
        "--presentation",
        f"{SAMPLES}/sphere.json",
        "--lambdas",
        "0,3",
    )
    assert code == 0
    params = [r["descriptor"].get("param") for r in rep["lnds"]]
    assert params == ["i", "-i", "0", "3"]


def test_kernel_with_member(capsys):
    code, rep = run(
        capsys,
        "kernel",
        "--presentation",
        f"{SAMPLES}/sphere.json",
        "--descriptor",
        '{"kind": "t2c", "c": [1, 1, 1], "roles": [0, 1, 2], "param": "i"}',
        "--member",
        "T1_1 + i*T0_1",
    )
    assert code == 0
    assert rep["kernel"] == ["T1_1 + i*T0_1"]
    assert rep["member"]["in_kernel"] is True


def test_kernel_rejects_bad_descriptor(capsys):
    code, rep = run(
        capsys,
        "kernel",
        "--presentation",
        f"{SAMPLES}/sphere.json",
        "--descriptor",
        '{"kind": "t2c", "sigma": 1}',
    )
    assert code == 1
    assert rep["kind"] == "InadmissibleDescriptor"


T2_LINE = {"type": 2, "blocks": [[1], [1], [2]]}


@pytest.mark.parametrize(
    "presentation, descriptor, stray",
    [
        ("sphere_cylinder.json", {"kind": "free", "k": 1}, {"param": "7"}),
        (
            "type1_semirigid.json",
            {"kind": "type1", "c": [1, 1]},
            {"roles": [1, 2, 3], "param": "5", "k": 9},
        ),
        (T2_LINE, {"kind": "t2a", "c": [1, 1, 1], "roles": [0, 2, 1]}, {"param": "1"}),
        (T2_LINE, {"kind": "t2b", "c": [1, 1, 1], "roles": [0, 2, 1], "param": "2"}, {"k": 1}),
        (
            "sphere.json",
            {"kind": "t2c", "c": [1, 1, 1], "roles": [0, 1, 2], "param": "i"},
            {"k": 1},
        ),
        (
            "sphere.json",
            {"kind": "t2d", "c": [1, 1, 1], "roles": [0, 1, 2], "param": "1"},
            {"k": 2},
        ),
    ],
    ids=["free", "type1", "t2a", "t2b", "t2c", "t2d"],
)
def test_kernel_rejects_a_field_its_kind_does_not_use(
    capsys, tmp_path, presentation, descriptor, stray
):
    """k belongs to free only, c to every other kind, roles to the t2
    kinds and param to t2b, t2c and t2d. The descriptor builds without the
    stray fields and exits 1 with them, naming them in field order."""
    if isinstance(presentation, dict):
        path = write_presentation(tmp_path, presentation)
    else:
        path = f"{SAMPLES}/{presentation}"
    argv = ("kernel", "--presentation", path, "--descriptor")
    code, rep = run(capsys, *argv, json.dumps(descriptor))
    assert code == 0 and rep["descriptor"] == descriptor
    code, rep = run(capsys, *argv, json.dumps({**descriptor, **stray}))
    names = ", ".join(name for name in ("k", "c", "roles", "param") if name in stray)
    error = f"a {descriptor['kind']} descriptor takes no {names}"
    assert (code, rep) == (1, {"error": error, "kind": "InadmissibleDescriptor"})


def test_verify_good_derivation(tmp_path, capsys):
    deriv = tmp_path / "d0.txt"
    deriv.write_text(
        "T0_1 = 2i*T2_1\nT1_1 = 2*T2_1\nT2_1 = -2*T1_1 - 2i*T0_1\n"
    )
    code, rep = run(
        capsys,
        "verify",
        "--presentation",
        f"{SAMPLES}/sphere.json",
        "--derivation",
        str(deriv),
    )
    assert code == 0
    assert rep["well_defined"] is True
    assert rep["homogeneous"] is True
    assert rep["degree"] == [0]
    assert rep["nilpotency"] == {"status": "verified", "cap": 64, "index": 3, "witness": None}
    assert rep["verified"] is True


def test_verify_broken_relation(tmp_path, capsys):
    deriv = tmp_path / "bad.txt"
    deriv.write_text("T0_1 = 1\n")
    code, rep = run(
        capsys,
        "verify",
        "--presentation",
        f"{SAMPLES}/sphere.json",
        "--derivation",
        str(deriv),
    )
    assert code == 2
    assert rep["well_defined"] is False
    assert rep["relation_index"] == 0
    assert rep["residue"] == "2*T0_1"


def test_verify_refutes_euler(tmp_path, capsys):
    deriv = tmp_path / "euler.txt"
    deriv.write_text("T0_1 = T0_1\nT1_1 = T1_1\nT2_1 = T2_1\n")
    code, rep = run(
        capsys,
        "verify",
        "--presentation",
        f"{SAMPLES}/sphere.json",
        "--derivation",
        str(deriv),
        "--cap",
        "8",
    )
    assert code == 2
    assert rep["nilpotency"] == {
        "status": "refuted",
        "cap": 8,
        "index": None,
        "witness": "T0_1",
        "refutation": "divisibility",
    }
    assert rep["verified"] is False


def test_verify_inconclusive_names_the_guard(tmp_path, capsys):
    # a rotation of the sphere: no image is divisible by its generator, but
    # the chains of T0_1 and T1_1 need each other, a degree cycle
    deriv = tmp_path / "rotation.txt"
    deriv.write_text("T0_1 = -T1_1\nT1_1 = T0_1\n")
    code, rep = run(
        capsys,
        "verify",
        "--presentation",
        f"{SAMPLES}/sphere.json",
        "--derivation",
        str(deriv),
        "--cap",
        "8",
    )
    assert code == 2
    assert rep["nilpotency"] == {
        "status": "refuted",
        "cap": 8,
        "index": None,
        "witness": "T0_1",
        "refutation": "degree_cycle",
        "cycle": [
            {"from": "T0_1", "step": 1, "to": "T1_1", "exponent": 1},
            {"from": "T1_1", "step": 1, "to": "T0_1", "exponent": 1},
        ],
    }
    assert rep["verified"] is False
    # every iterate of T1_1 is T1_1 + 1, which has no monomial factor: the
    # walk runs to the cap
    presentation = write_presentation(tmp_path, {"type": 1, "blocks": [[1], [1]]})
    deriv.write_text("T1_1 = T1_1 + 1\nT2_1 = T1_1 + 1\n")
    code, rep = run(
        capsys, "verify", "--presentation", presentation, "--derivation", str(deriv), "--cap", "8"
    )
    assert code == 3
    assert rep["nilpotency"] == {
        "status": "inconclusive",
        "cap": 8,
        "index": None,
        "witness": "T1_1",
        "guard": "cap",
    }
    assert rep["verified"] is False


def test_verify_strips_a_power_past_the_degree_guard(tmp_path, capsys):
    # the plain iterate S2^600 passes the degree guard (512); stripped of
    # its monomial content it is a constant, so delta(S1) dies at once
    presentation = write_presentation(tmp_path, {"type": 1, "blocks": [[2], [3]], "free_vars": 2})
    deriv = tmp_path / "power.txt"
    deriv.write_text("S1 = S2^600\n")
    code, rep = run(capsys, "verify", "--presentation", presentation, "--derivation", str(deriv))
    assert code == 0
    assert rep["nilpotency"] == {"status": "verified", "cap": 64, "index": 2, "witness": None}
    assert rep["verified"] is True


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize(
    "text",
    ["T0_1 = T0_1\n", "", "T0_1 = 2i*T2_1\nT1_1 = 2*T2_1\nT2_1 = -2*T1_1 - 2i*T0_1\n"],
    ids=["broken", "zero", "nilpotent"],
)
def test_verify_refuses_a_cap_below_one_whatever_the_derivation(tmp_path, capsys, text, cap):
    # a derivation that breaks a relation is refused like any other, before
    # the relation check, as oracle refuses a bad cap before any search
    deriv = tmp_path / "d.txt"
    deriv.write_text(text)
    code, rep = run(
        capsys, "verify", "--presentation", f"{SAMPLES}/sphere.json",
        "--derivation", str(deriv), "--cap", cap,
    )
    assert (code, rep) == (1, {"error": "cap must be at least 1", "kind": "InvalidArgument"})


def test_oracle_sphere(capsys):
    code, rep = run(
        capsys,
        "oracle",
        "--presentation",
        f"{SAMPLES}/sphere.json",
        "--weight",
        "0",
        "--bound",
        "1",
    )
    assert code == 0
    assert rep["nilpotent_found"] is True
    (entry,) = rep["entries"]
    assert entry["dimension"] == 4


def test_parser_reuse_keeps_no_state(capsys):
    """main parses with one parser per process; nothing of one call reaches the next."""
    sphere = f"{SAMPLES}/sphere.json"
    code, rep = run(
        capsys, "oracle", "--presentation", sphere, "--bound", "1", "--weight", "1", "--weight", "2"
    )
    assert code == 0
    assert [e["weight"] for e in rep["entries"]] == [[1], [2]]
    code, rep = run(capsys, "oracle", "--presentation", sphere, "--bound", "1")
    assert code == 0
    assert [e["weight"] for e in rep["entries"]] == [[0]]
    with pytest.raises(SystemExit):
        main(["oracle", "--bound", "1"])
    assert "--presentation" in capsys.readouterr().err
    code, rep = run(capsys, "analyze", "--presentation", sphere)
    assert code == 0 and rep["dimension"] == 2


def test_demazure_family(capsys):
    code, rep = run(capsys, "demazure", "--rays", "0,1:3,-1", "--ray", "1")
    assert code == 0
    assert rep["base"] == [-1, 0]
    assert rep["step"] == [0, 1]
    assert rep["closed_form"] == "(-1, p) for p >= 1"
    assert rep["rays"] == [[0, 1], [3, -1]]


def test_demazure_materialize(capsys):
    code, rep = run(
        capsys, "demazure", "--rays", "0,1:3,-1", "--ray", "2", "--materialize", "2"
    )
    assert code == 0
    assert rep["member"] == {"p": 2, "root": [5, -2]}


def test_demazure_bad_rays(capsys):
    code, rep = run(capsys, "demazure", "--rays", "0,1", "--ray", "1")
    assert code == 1
    assert "x1,y1:x2,y2" in rep["error"]


def test_normalize_standard_columns(tmp_path, capsys):
    path = write_presentation(
        tmp_path,
        {
            "type": 2,
            "blocks": [[2], [2], [4]],
            "constants": [[1, 0], [0, 1], [-4, -1]],
        },
    )
    code, rep = run(capsys, "normalize", "--presentation", path)
    assert code == 0
    assert rep["status"] == "rescaled"


def test_normalize_keeps_unit_coefficients(tmp_path, capsys):
    # coefficients that are already 1 get the identity rescaling
    paths = [f"{SAMPLES}/quartic.json"]
    for k, P in enumerate(corpus()):
        if P.kind == 2 and P.r == 2:
            paths.append(write_presentation(tmp_path, P.to_input_dict(), name=f"m{k}.json"))
    for path in paths:
        code, rep = run(capsys, "normalize", "--presentation", path)
        assert code == 0
        assert rep["status"] == "rescaled"
        assert set(rep["scalars"].values()) == {"1"}, path


def test_normalize_obstructed(tmp_path, capsys):
    path = write_presentation(
        tmp_path,
        {
            "type": 2,
            "blocks": [[2], [2], [2]],
            "constants": [[1, 0], [0, 2], [-1, -1]],
        },
    )
    code, rep = run(capsys, "normalize", "--presentation", path)
    assert code == 0
    assert rep["status"] == "no_rescaling_exists"


def test_missing_file_is_an_input_error(capsys):
    code, rep = run(capsys, "analyze", "--presentation", "no_such_file.json")
    assert code == 1
    assert rep["kind"] in ("FileNotFoundError", "OSError")


def test_unknown_presentation_field(tmp_path, capsys):
    path = write_presentation(
        tmp_path, {"type": 1, "blocks": [[2], [3]], "weights": [1]}
    )
    code, rep = run(capsys, "analyze", "--presentation", path)
    assert code == 1
    assert "weights" in rep["error"]


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"type": 1, "blocks": [[2], [3]], "blocks": [[1], [1]]}', "blocks"),
        ('{"type": 2, "type": 1, "blocks": [[2], [3]]}', "type"),
        ('{"type": 1, "blocks": [[2], [3]], "free_vars": 0, "free_vars": 1}', "free_vars"),
    ],
)
@pytest.mark.parametrize("command", ["analyze", "lnds"])
def test_a_repeated_presentation_key_is_refused(tmp_path, capsys, text, key, command):
    # json.loads alone would read the last value
    path = tmp_path / "p.json"
    path.write_text(text)
    code, rep = run(capsys, command, "--presentation", str(path))
    assert (code, rep) == (1, {"error": f"field {key!r} is repeated", "kind": "BadShape"})


@pytest.mark.parametrize(
    "descriptor, key",
    [
        ('{"kind": "t2a", "kind": "t2c", "c": [1, 1, 1], "roles": [0, 1, 2], "param": "i"}', "kind"),
        ('{"kind": "t2c", "c": [1, 1, 1], "roles": [0, 1, 2], "param": "i", "param": "-i"}', "param"),
    ],
)
def test_a_repeated_descriptor_key_is_refused(capsys, descriptor, key):
    code, rep = run(
        capsys, "kernel", "--presentation", f"{SAMPLES}/sphere.json", "--descriptor", descriptor
    )
    assert (code, rep) == (1, {"error": f"field {key!r} is repeated", "kind": "InadmissibleDescriptor"})


@pytest.mark.parametrize(
    "data, kind",
    [
        ({"type": 1, "blocks": [[True], [2]]}, "NonPositiveExponent"),
        ({"type": 1, "blocks": [[1], [2]], "free_vars": True}, "BadShape"),
    ],
)
def test_boolean_in_place_of_an_integer_is_an_input_error(tmp_path, capsys, data, kind):
    path = write_presentation(tmp_path, data)
    code, rep = run(capsys, "analyze", "--presentation", path)
    assert code == 1
    assert rep["kind"] == kind


@pytest.mark.parametrize(
    "presentation, descriptor, error",
    [
        (
            "sphere_cylinder.json",
            '{"kind": "free"}',
            {"error": "free descriptor needs an index k", "kind": "InadmissibleDescriptor"},
        ),
        (
            "sphere_cylinder.json",
            '{"kind": "free", "k": 2}',
            {"error": "presentation has 1 free variables, asked for 2", "kind": "NoSuchFreeVariable"},
        ),
        (
            "sphere.json",
            '{"kind": "type1"}',
            {"error": "type1 descriptor needs a tuple", "kind": "InadmissibleDescriptor"},
        ),
        (
            "sphere.json",
            '{"kind": "type1", "c": [1, 1, 1]}',
            {"error": "type1 descriptor on a type 2 presentation", "kind": "WrongType"},
        ),
        (
            "rigid_type1.json",
            '{"kind": "t2a", "c": [1, 1], "roles": [0, 1, 2]}',
            {"error": "t2a descriptor on a type 1 presentation", "kind": "WrongType"},
        ),
        (
            "rigid_type1.json",
            '{"kind": "t2d", "c": [1, 1], "roles": [0, 1, 2], "param": "1"}',
            {"error": "t2d descriptor on a type 1 presentation", "kind": "WrongType"},
        ),
        # an unknown kind is named as such, before the presentation type or
        # any other field is looked at
        (
            "rigid_type1.json",
            '{"kind": "foo"}',
            {"error": "unknown descriptor kind 'foo'", "kind": "InadmissibleDescriptor"},
        ),
        (
            "sphere.json",
            '{"kind": "foo"}',
            {"error": "unknown descriptor kind 'foo'", "kind": "InadmissibleDescriptor"},
        ),
        (
            "sphere.json",
            '{"kind": 3}',
            {"error": "unknown descriptor kind 3", "kind": "InadmissibleDescriptor"},
        ),
    ],
)
def test_kernel_reports_a_descriptor_fault_as_build_lnd_does(capsys, presentation, descriptor, error):
    for member in ([], ["--member", "T0_1"]):
        code, rep = run(
            capsys,
            "kernel",
            "--presentation",
            f"{SAMPLES}/{presentation}",
            "--descriptor",
            descriptor,
            *member,
        )
        assert (code, rep) == (1, error)


@pytest.mark.parametrize(
    "presentation, descriptor",
    [
        ("sphere_cylinder.json", '{"kind": "free", "k": true}'),
        ("sphere.json", '{"kind": "t2c", "c": [true, 1, 1], "roles": [0, true, 2], "param": "i"}'),
        ("sphere.json", '{"kind": "t2c", "c": 5, "roles": [0, 1, 2], "param": "i"}'),
    ],
)
def test_descriptor_needs_integers_and_lists(capsys, presentation, descriptor):
    code, rep = run(
        capsys,
        "kernel",
        "--presentation",
        f"{SAMPLES}/{presentation}",
        "--descriptor",
        descriptor,
    )
    assert code == 1
    assert rep["kind"] == "InadmissibleDescriptor"


def raise_internal_error(*args, **kwargs):
    raise InternalError("a planted self-check failure")


@pytest.mark.parametrize(
    "path, patch",
    [(f"{SAMPLES}/sphere.json", False), (None, False), (f"{SAMPLES}/sphere.json", True)],
    ids=["report", "input-error", "internal-error"],
)
def test_closed_stdout_exits_quietly(monkeypatch, tmp_path, path, patch):
    # the {"error", "kind"} of exits 1 and 4 goes to the closed stdout too
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    if path is None:
        path = write_presentation(tmp_path, {"type": 3})
    if patch:
        monkeypatch.setattr(trilnd.cli, "class_report", raise_internal_error)
    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["analyze", "--presentation", path]) == 141


def test_bad_lambda_string(capsys):
    code, rep = run(
        capsys,
        "lnds",
        "--presentation",
        f"{SAMPLES}/sphere.json",
        "--lambdas",
        "1,,bogus",
    )
    assert code == 1
    assert rep["kind"] == "ScalarParseError"


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,,2", "empty entry"),
        ("", "no sample"),
        (" , ", "no sample"),
        ("1,1", "lists 1 twice"),
        ("i,0,2/2,-i,1", "lists 1 twice"),
    ],
)
def test_malformed_lambda_lists_are_rejected(capsys, text, message):
    # an empty entry, an empty list and a repeated value were read as
    # fewer samples or as duplicate records
    code, rep = run(capsys, "lnds", "--presentation", f"{SAMPLES}/sphere.json", "--lambdas", text)
    assert code == 1
    assert rep["kind"] == "InvalidArgument"
    assert message in rep["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", "--presentation", f"{SAMPLES}/sphere.json", "--bound", "1", "--weight", "\u0661"],
         "weight '\u0661' must be comma-separated integers"),
        (["oracle", "--presentation", f"{SAMPLES}/sphere.json", "--bound", "1", "--weight", "1_0"],
         "weight '1_0' must be comma-separated integers"),
        (["demazure", "--rays", "\u0661,0:0,\u0661", "--ray", "1"], 'rays must look like "x1,y1:x2,y2"'),
        (["demazure", "--rays", "1_0,0:0,1", "--ray", "1"], 'rays must look like "x1,y1:x2,y2"'),
    ],
    ids=["weight-arabic-indic", "weight-underscore", "rays-arabic-indic", "rays-underscore"],
)
def test_integer_options_read_ascii_digits_only(capsys, argv, message):
    # int() also reads underscores and any Unicode digit: the Arabic-Indic
    # one was searched as weight [1] and ray (1, 0), "1_0" as weight [10],
    # and the ray "1_0,0" was refused as the non-primitive (10, 0)
    code, rep = run(capsys, *argv)
    assert code == 1
    assert rep == {"error": message, "kind": "InvalidArgument"}


@pytest.mark.parametrize(
    "argv",
    [
        ["demazure", "--rays", "0,1:3,-1", "--ray", "\u0661", "--materialize", "2"],
        ["demazure", "--rays", "0,1:3,-1", "--ray", "1", "--materialize", "\u0662"],
        ["demazure", "--rays", "0,1:3,-1", "--ray", "1", "--materialize", "1_0"],
        ["oracle", "--presentation", f"{SAMPLES}/sphere.json", "--max-unknowns", " 1_0 "],
        ["oracle", "--presentation", f"{SAMPLES}/sphere.json", "--bound", "\u0661"],
        ["oracle", "--presentation", f"{SAMPLES}/sphere.json", "--cap", "1_6"],
        ["verify", "--presentation", f"{SAMPLES}/sphere.json", "--derivation", "-", "--cap", "\u0661"],
    ],
    ids=[
        "ray", "materialize-arabic-indic", "materialize-underscore", "max-unknowns", "bound",
        "oracle-cap", "verify-cap",
    ],
)
def test_integer_options_are_usage_errors_unless_ascii_digits(capsys, argv):
    # int() alone read these: the demazure ray and member as 1 and 2, the
    # oracle limits as 10, 1 and 16
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid integer" in capsys.readouterr().err


def test_integer_options_keep_sign_and_spaces(capsys):
    code, rep = run(capsys, "demazure", "--rays", "0,1:3,-1", "--ray", " +2 ", "--materialize", " +3")
    assert code == 0
    assert (rep["ray"], rep["member"]["p"]) == (2, 3)
    code, rep = run(capsys, "demazure", "--rays", "0,1:3,-1", "--ray", "1", "--materialize", "-1")
    assert code == 1
    assert rep["kind"] == "RootOutOfRange"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


# -- internal errors -----------------------------------------------------------


def test_self_checks_are_explicit_raises():
    # assert statements vanish under python -O
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "trilnd").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_internal_error_is_not_reported_as_invalid_input(monkeypatch, capsys):
    assert not issubclass(InternalError, ValueError)
    monkeypatch.setattr(
        trilnd.classify, "is_well_defined", lambda delta: WellDefinedReport(False, 0)
    )
    with pytest.raises(InternalError):
        trilnd.classify.build_lnd_type1(trilnd.type1(((1, 2), (2,))), (1, 1))
    code, rep = run(capsys, "analyze", "--presentation", f"{SAMPLES}/type1_semirigid.json")
    assert code == 4
    assert rep == {"error": "type 1 construction broke relation 0", "kind": "InternalError"}


def test_failed_exact_division_is_not_reported_as_invalid_input(monkeypatch, capsys):
    def divide(*args):
        raise trilnd.NotDivisible("T0_1 is not divisible by T1_1")

    monkeypatch.setattr(trilnd.cli, "class_report", divide)
    code, rep = run(capsys, "analyze", "--presentation", f"{SAMPLES}/sphere.json")
    assert code == 4
    assert rep == {"error": "T0_1 is not divisible by T1_1", "kind": "NotDivisible"}


def test_cli_import_leaves_sympy_unloaded():
    code = "import sys, trilnd, trilnd.cli; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_oracle_refuses_an_oversized_box_before_building_it(tmp_path, capsys):
    # C(6 + 40, 6) = 9,366,819 monomials: enumerating them would take minutes
    path = write_presentation(tmp_path, {"type": 1, "blocks": [[1, 1, 1], [1, 1, 1]]})
    started = time.monotonic()
    code, rep = run(capsys, "oracle", "--presentation", path, "--bound", "40")
    assert time.monotonic() - started < 1.0
    assert code == 1
    assert rep["kind"] == "BoxTooLarge"
    assert "9366819 monomials" in rep["error"]


@pytest.mark.parametrize(
    "flags",
    [("--cap", "0"), ("--bound", "-2"), ("--max-unknowns", "-1")],
    ids=["cap0", "bound-2", "max-unknowns-1"],
)
@pytest.mark.parametrize("rigid", [True, False], ids=["rigid", "sphere"])
def test_oracle_rejects_a_cap_below_one_and_a_negative_bound(tmp_path, capsys, flags, rigid):
    # the rigid member's box yields no sample, so only a check made before
    # any search can see the cap; any box has more than -1 unknowns, so only
    # such a check tells a negative limit from a box that is too large
    if rigid:
        path = write_presentation(tmp_path, {"type": 1, "blocks": [[2], [3], [4], [2]]})
    else:
        path = f"{SAMPLES}/sphere.json"
    code, rep = run(capsys, "oracle", "--presentation", path, *flags)
    assert code == 1
    assert rep["kind"] == "InvalidArgument"


def test_oracle_rejects_a_repeated_weight(capsys):
    code, rep = run(
        capsys, "oracle", "--presentation", f"{SAMPLES}/sphere.json",
        "--weight", "0", "--weight", "0", "--bound", "1",
    )
    assert code == 1
    assert rep["kind"] == "InvalidArgument"
    assert rep["error"] == "weight [0] is repeated"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--presentation", f"{SAMPLES}/sphere.json", "--derivation", "D", "--cap", "0"),
        ("oracle", "--presentation", f"{SAMPLES}/sphere.json", "--weight", "1,2"),
        ("oracle", "--presentation", f"{SAMPLES}/sphere.json", "--weight", "one"),
        ("demazure", "--rays", "0,1", "--ray", "1"),
        ("demazure", "--rays", "0,0:1,0", "--ray", "1"),
        ("demazure", "--rays", "2,0:0,1", "--ray", "1"),
        ("demazure", "--rays", "1,1:2,2", "--ray", "1"),
    ],
    ids=["cap0", "weight-length", "weight-text", "rays-text", "rays-zero", "rays-imprimitive",
         "rays-proportional"],
)
def test_documented_input_errors_exit_one(tmp_path, capsys, argv):
    deriv = tmp_path / "d.txt"
    deriv.write_text("T0_1 = 2i*T2_1\nT1_1 = 2*T2_1\nT2_1 = -2*T1_1 - 2i*T0_1\n")
    code, rep = run(capsys, *(str(deriv) if a == "D" else a for a in argv))
    assert code == 1
    assert rep["kind"] == "InvalidArgument" and rep["error"]


def test_an_undocumented_value_error_is_not_reported_as_invalid_input(monkeypatch, capsys):
    """Any exception outside the documented ones is a bug: exit 4, the
    error object on stdout and the traceback on stderr."""
    def broken(*args):
        raise ValueError("an internal slip")

    monkeypatch.setattr(trilnd.cli, "class_report", broken)
    assert main(["analyze", "--presentation", f"{SAMPLES}/sphere.json"]) == 4
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": "an internal slip", "kind": "ValueError"}
    assert "Traceback" in captured.err and "an internal slip" in captured.err
