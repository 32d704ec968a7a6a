import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import corner_tetrahedron, to_json_reference
from stokerlab import cli, fixtures, formats
from stokerlab.config import DEFAULT
from stokerlab.errors import EigenFailure, ParseError
from stokerlab.polyhedron import dihedral_angles
from stokerlab.repvar import (
    Presentation,
    Representation,
    link_representation,
    surface_group_fixture,
)
from stokerlab.rigidity import rigidity_report


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_poly(tmp_path, poly, name="poly.json"):
    return write(tmp_path, name, formats.dump_polyhedron(poly))


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def malformed_tetrahedron(tmp_path, kind):
    """A tetrahedron(0.3) file with one malformation that a lenient reader
    would repair into the same polyhedron: the flat list of its 12
    coordinates, or a face index 2 written as 2.9 or "2", or 1 as true."""
    data = json.loads(formats.dump_polyhedron(fixtures.tetrahedron(0.3)))
    assert data["faces"][0] == [1, 3, 2]
    if kind == "flat_vertices":
        data["vertices"] = [c for row in data["vertices"] for c in row]
    else:
        slot, value = {"fractional_index": (2, 2.9), "string_index": (2, "2"),
                       "boolean_index": (0, True)}[kind]
        data["faces"][0][slot] = value
    return write(tmp_path, "malformed.json", json.dumps(data))


MALFORMED = {
    "flat_vertices": "vertices must be a list of [x, y, z] rows",
    "fractional_index": "face 0 is not a list of integer indices: [1, 3, 2.9]",
    "string_index": 'face 0 is not a list of integer indices: [1, 3, "2"]',
    "boolean_index": "face 0 is not a list of integer indices: [true, 3, 2]",
}


HUGE_INTEGER = "1" + "0" * 400     # a JSON integer past the float range

DEMO_OUTPUT = Path(__file__).parent.parent / "demos" / "output"


def malformed_k4_matrices(tmp_path, kind):
    """The demo surface matrices with one malformation that a lenient reader
    would repair: an entry part written as a string or as true, or matrix 7
    flattened to its four [re, im] pairs.  Returns the path and the index of
    the bad matrix."""
    data = json.loads((DEMO_OUTPUT / "k4_surface_matrices.json").read_text())
    if kind == "string_part":
        k, data["matrices"][3][0][1][0] = 3, str(data["matrices"][3][0][1][0])
    elif kind == "boolean_part":
        k, data["matrices"][5][1][1][1] = 5, True
    else:
        k, data["matrices"][7] = 7, [z for row in data["matrices"][7] for z in row]
    return write(tmp_path, "mats.json", json.dumps(data)), k


def literal_id(literal):
    return "huge_integer" if literal == HUGE_INTEGER else literal


class TestPolyhedronFormat:
    def test_emit_parse_emit_fixed_point(self, tmp_path):
        poly = fixtures.pentagonal_pyramid(0.37)
        text = formats.dump_polyhedron(poly)
        path = write(tmp_path, "p.json", text)
        again = formats.dump_polyhedron(formats.load_polyhedron(path))
        assert text == again

    def test_emitted_text_is_valid_json(self):
        text = formats.dump_polyhedron(fixtures.cube(0.3))
        data = json.loads(text)
        assert len(data["vertices"]) == 8
        assert len(data["faces"]) == 6

    def test_malformed_json_rejected(self, tmp_path):
        path = write(tmp_path, "bad.json", "{not json")
        with pytest.raises(ParseError) as info:
            formats.load_polyhedron(path)
        assert info.value.line is not None

    def test_missing_keys_rejected(self, tmp_path):
        path = write(tmp_path, "bad.json", '{"vertices": [[0, 0, 0]]}')
        with pytest.raises(ParseError):
            formats.load_polyhedron(path)

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_malformed_polyhedron_rejected(self, tmp_path, kind):
        with pytest.raises(ParseError) as info:
            formats.load_polyhedron(malformed_tetrahedron(tmp_path, kind))
        assert MALFORMED[kind] in str(info.value)

    def test_empty_vertex_list_is_no_vertices(self, tmp_path):
        path = write(tmp_path, "empty.json", '{"vertices": [], "faces": []}')
        poly = formats.load_polyhedron(path)
        assert poly.positions.shape == (0, 3)
        assert poly.combinatorics.faces == ()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", '"nan"', "1e999",
                                         HUGE_INTEGER], ids=literal_id)
    def test_non_finite_coordinate_rejected(self, tmp_path, literal):
        """A string is not a number, even one that spells NaN."""
        data = json.loads(formats.dump_polyhedron(fixtures.tetrahedron(0.3)))
        data["vertices"][0][0] = "x"
        path = write(tmp_path, "bad.json", json.dumps(data).replace('"x"', literal))
        message = ('vertices must be a list of [x, y, z] rows of numbers; vertex 0 is ["nan", '
                   if literal == '"nan"' else "vertex coordinates must be finite")
        with pytest.raises(ParseError) as info:
            formats.load_polyhedron(path)
        assert message in str(info.value)

    @pytest.mark.parametrize("entry, shown", [
        ('"0.17"', '["0.17", '), ("true", "[true, "), ("null", "[null, "), ("[0.1]", "[[0.1], "),
    ], ids=["string", "boolean", "null", "nested"])
    def test_coordinates_must_be_numbers(self, tmp_path, entry, shown):
        data = json.loads(formats.dump_polyhedron(fixtures.tetrahedron(0.3)))
        data["vertices"][2][0] = "x"
        path = write(tmp_path, "bad.json", json.dumps(data).replace('"x"', entry))
        with pytest.raises(ParseError) as info:
            formats.load_polyhedron(path)
        assert f"rows of numbers; vertex 2 is {shown}" in str(info.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", HUGE_INTEGER],
                             ids=literal_id)
    def test_non_finite_angle_rejected(self, tmp_path, literal):
        path = write(tmp_path, "angles.json", f'{{"angles": [1.0, {literal}, 2.0]}}')
        with pytest.raises(ParseError, match="angles must be finite"):
            formats.load_angles(path)

    @pytest.mark.parametrize("text, message", [
        ('{"angles": [1.0, "0.5", 2.0]}', 'entry 1 is "0.5"'),
        ('[1.0, true, 2.0]', "entry 1 is true"),
        ('[[1.0, 2.0], [3.0, 4.0]]', "entry 0 is [1.0, 2.0]"),
        ('{"angles": 1.5}', "expected a list of angles"),
        ('{"target": [1.0]}', "expected a list of angles"),
    ], ids=["string", "boolean", "nested", "bare_number", "no_angles_key"])
    def test_angles_must_be_a_flat_list_of_numbers(self, tmp_path, text, message):
        path = write(tmp_path, "angles.json", text)
        with pytest.raises(ParseError) as info:
            formats.load_angles(path)
        assert message in str(info.value)

    def test_bare_and_keyed_angle_lists_read_alike(self, tmp_path):
        bare = formats.load_angles(write(tmp_path, "bare.json", "[1, 2.5]"))
        keyed = formats.load_angles(write(tmp_path, "keyed.json", '{"angles": [1, 2.5]}'))
        assert bare.dtype == keyed.dtype == float
        assert bare.tolist() == keyed.tolist() == [1.0, 2.5]


class TestFloatFormat:
    @pytest.mark.parametrize("value, text", [
        (0.0, "0.0"), (-0.0, "-0.0"), (1.0, "1.0"), (1e16, "10000000000000000.0"),
        (1e17, "1e+17"), (2.5, "2.5"), (1e-5, "1.0000000000000001e-05"),
    ])
    def test_floats_read_back_as_floats(self, value, text):
        assert formats.format_float(value) == text
        parsed = json.loads(formats.to_json([value]))[0]
        assert type(parsed) is float
        assert np.copysign(1.0, parsed) == np.copysign(1.0, value) and parsed == value
        assert formats.to_json([parsed]) == formats.to_json([value])

    def test_integral_verdict_value_is_a_float(self, tmp_path, capsys):
        """The target is the file's own angles, so the solver takes no step
        and the ``angles_achieved`` value is 0.0 by construction."""
        poly = fixtures.cube(0.02)
        path = write_poly(tmp_path, poly)
        target_path = write(tmp_path, "target.json",
                            formats.dump_angles(dihedral_angles(poly)))
        code, out = run_cli(capsys, ["deform", path, "--target", target_path])
        assert code == 0
        report = json.loads(out)
        assert report["results"]["iterations"] == [0]
        assert type(report["config"]["tol_scale"]) is float
        verdicts = {v["name"]: v for v in report["verdicts"]}
        assert verdicts["angles_achieved"]["value"] == 0.0
        for verdict in report["verdicts"]:
            assert type(verdict["tolerance"]) is float
            assert type(verdict["value"]) is float
        assert formats.to_json(report) + "\n" == out


EDGE_FLOATS = [-0.0, 0.0, 1.0, float("nan"), float("inf"), -float("inf"), 1e16, 1e17,
               -1e16, 5e-324, 2.2250738585072014e-308 / 3, 0.1]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
SCALARS = st.one_of(st.booleans(), st.integers(), FLOATS, FLOATS.map(np.float64),
                    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                    st.booleans().map(np.bool_))
LEAVES = st.one_of(SCALARS, st.none(), st.text())


def nested(children):
    lists = st.lists(children, max_size=5)
    return st.one_of(lists, lists.map(tuple), st.dictionaries(st.text(), children, max_size=5),
                     st.lists(SCALARS, min_size=16, max_size=17),
                     st.lists(SCALARS, min_size=16, max_size=17).map(tuple))


class TestSerializerOracle:
    """``formats.to_json`` against ``helpers.to_json_reference``, the
    recursive ``isinstance`` emitter it replaced: byte for byte."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.recursive(LEAVES, nested, max_leaves=40), st.integers(0, 3))
    def test_equals_reference(self, value, indent):
        assert formats.to_json(value, indent) == to_json_reference(value, indent)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}],
        [0.5] * 16, [0.5] * 17, (1,) * 16, (1,) * 17, [True] * 16 + [None],
        list(EDGE_FLOATS) + [np.float64(-0.0), np.int64(-7), np.float32(0.1), np.bool_(True)],
        {"k": [np.float64("nan"), np.float64("inf"), 3, "x\"y"]},
    ], ids=lambda v: repr(v)[:40])
    def test_edge_cases_equal_reference(self, value):
        assert formats.to_json(value) == to_json_reference(value)

    def test_numpy_booleans_are_json_booleans(self):
        assert formats.to_json(np.bool_(True)) == "true"
        assert formats.to_json([np.bool_(False), 1.0]) == "[false, 1.0]"

    def test_sixteen_numbers_share_a_line(self):
        assert formats.to_json([1] * 16) == "[" + ", ".join(["1"] * 16) + "]"
        assert formats.to_json([1] * 17).count("\n") == 18


class TestPresentationFormat:
    def test_round_trip(self, tmp_path):
        pres = Presentation(3, ((1, 2, -1, -2), (3, 3)))
        loops = [(1,), (2, 3)]
        text = formats.dump_presentation(pres, loops)
        path = write(tmp_path, "pres.txt", text)
        parsed, parsed_loops = formats.load_presentation(path)
        assert parsed == pres
        assert parsed_loops == loops
        assert formats.dump_presentation(parsed, parsed_loops) == text

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write(tmp_path, "pres.txt", "# comment\n\ngens 2\nrel 1 2 -1 -2  # inline\n")
        parsed, loops = formats.load_presentation(path)
        assert parsed.generator_count == 2
        assert parsed.relators == ((1, 2, -1, -2),)
        assert loops == []

    def test_unknown_directive_rejected(self, tmp_path):
        path = write(tmp_path, "pres.txt", "gens 2\nrelator 1 2\n")
        with pytest.raises(ParseError) as info:
            formats.load_presentation(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("text, line", [
        ("gens 3\nrel 1 2 9\n", 2),
        ("gens 3\nrel 1 2\nloop 1 7\n", 3),
        ("gens 3\nloop -3 0\n", 2),
        ("gens 3\nrel 1\nrel\n", 3),
        ("# no generators\ngens 0\n", 2),
        ("gens -2\nrel 1\n", 1),
        ("gens 1_2\n", 1),
        ("gens 12\nrel 1_0 -3\n", 2),
        ("gens 12\nrel 10 -\u0663\n", 2),
        ("gens 12\nloop 1 \uff12\n", 2),
        ("gens 12\nrel 1 2.0\n", 2),
    ])
    def test_bad_word_rejected_with_its_line(self, tmp_path, text, line):
        path = write(tmp_path, "pres.txt", text)
        with pytest.raises(ParseError) as info:
            formats.load_presentation(path)
        assert info.value.line == line


class TestMatrixFormat:
    def test_round_trip(self, tmp_path):
        fx = surface_group_fixture(fixtures.tetrahedron(0.3))
        text = formats.dump_matrices(fx.representation)
        path = write(tmp_path, "mats.json", text)
        parsed = formats.load_matrices(path)
        for a, b in zip(parsed.images, fx.representation.images):
            assert np.array_equal(a, b)
        assert formats.dump_matrices(parsed) == text

    def test_demo_file_loads_to_its_images(self):
        """The strict reader gives the images of the plain conversion."""
        path = DEMO_OUTPUT / "k4_surface_matrices.json"
        raw = np.array(json.loads(path.read_text())["matrices"], dtype=float)
        images = formats.load_matrices(str(path)).images
        assert images.shape == (12, 2, 2)
        assert np.array_equal(images, raw[..., 0] + 1j * raw[..., 1])

    @pytest.mark.parametrize("kind", ["string_part", "boolean_part", "flat_matrix"])
    def test_malformed_matrix_named(self, kind, tmp_path):
        path, k = malformed_k4_matrices(tmp_path, kind)
        with pytest.raises(ParseError, match=rf"2x2 matrices of \[re, im\] pairs of numbers; "
                                             rf"matrix {k} is "):
            formats.load_matrices(path)

    @pytest.mark.parametrize("matrices", ['"none"', "{}", "[[[1, 0], [0, 1]]]"])
    def test_malformed_matrix_list_rejected(self, matrices, tmp_path):
        path = write(tmp_path, "mats.json", f'{{"matrices": {matrices}}}')
        with pytest.raises(ParseError, match="matrices must be a list of 2x2 matrices"):
            formats.load_matrices(path)

    def test_huge_integer_part_is_not_finite(self, tmp_path):
        path = write(tmp_path, "mats.json",
                     f'{{"matrices": [[[[{HUGE_INTEGER}, 0], [0, 0]], [[0, 0], [1, 0]]]]}}')
        with pytest.raises(ParseError, match="matrix entries must be finite"):
            formats.load_matrices(path)


class TestCliValidate:
    def test_valid_fixture(self, tmp_path, capsys):
        path = write_poly(tmp_path, fixtures.tetrahedron(0.3))
        code, out = run_cli(capsys, ["validate", path])
        assert code == 0
        report = json.loads(out)
        assert report["results"]["counts"] == {
            "vertices": 4, "edges": 6, "faces": 4, "euler_characteristic": 2,
        }
        assert all(v["pass"] for v in report["verdicts"])

    def test_euler_violation_itemized(self, tmp_path, capsys):
        bad = {"vertices": [[0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1], [0.1, 0.1, 0.1]],
               "faces": [[0, 1, 2], [0, 2, 3]]}
        path = write(tmp_path, "bad.json", json.dumps(bad))
        code, out = run_cli(capsys, ["validate", path])
        assert code == 1
        report = json.loads(out)
        assert any("Euler" in issue for issue in report["results"]["combinatorics_issues"])

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", "{oops")
        code, out = run_cli(capsys, ["validate", path])
        assert code == 2
        assert json.loads(out)["error"] == "ParseError"

    def test_missing_file_exit_two(self, capsys):
        code, out = run_cli(capsys, ["validate", "/nonexistent/nowhere.json"])
        assert code == 2


class TestCliOutOfRangeFace:
    """A face index past the vertex list is a reported issue, not a crash."""

    @pytest.fixture(params=[7, -1])
    def bad(self, request, tmp_path):
        data = json.loads(formats.dump_polyhedron(fixtures.tetrahedron(0.3)))
        assert data["faces"][2] == [0, 3, 1]
        data["faces"][2] = [0, 3, request.param]
        return request.param, write(tmp_path, "bad.json", json.dumps(data))

    def test_validate_lists_the_issue(self, bad, capsys):
        index, path = bad
        code, out = run_cli(capsys, ["validate", path])
        assert code == 1
        report = json.loads(out)
        issue = f"face 2 references vertex {index} outside 0..3"
        assert issue in report["results"]["combinatorics_issues"]
        assert report["verdicts"][0]["name"] == "combinatorics_valid"
        assert report["verdicts"][0]["pass"] is False
        assert "embedding" not in report["results"]

    @pytest.mark.parametrize("command", ["angles", "holonomy"])
    def test_geometry_commands_report_parse_error(self, command, bad, capsys):
        index, path = bad
        code, out = run_cli(capsys, [command, path])
        assert code == 2
        report = json.loads(out)
        assert report["command"] == command
        assert report["error"] == "ParseError"
        assert f"face 2 references vertex {index} outside 0..3" in report["message"]


class TestCliNonFiniteInput:
    """NaN and infinite numbers, and malformed polyhedron files, are invalid
    input: exit 2 with the ``ParseError`` report, never a traceback or a
    judged report."""

    COMMANDS = [["validate"], ["angles"], ["rigidity"], ["holonomy"],
                ["deform", "--perturb", "1e-4"]]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_non_finite_vertex(self, command, value, tmp_path, capsys):
        data = json.loads(formats.dump_polyhedron(fixtures.tetrahedron(0.3)))
        data["vertices"][1][2] = value
        path = write(tmp_path, "bad.json", json.dumps(data))
        code = cli.main([command[0], path] + command[1:])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["command"] == command[0]
        assert report["error"] == "ParseError"
        assert "vertex coordinates must be finite" in report["message"]
        assert captured.err == ""

    @pytest.mark.parametrize("kind", MALFORMED)
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_malformed_polyhedron(self, command, kind, tmp_path, capsys):
        path = malformed_tetrahedron(tmp_path, kind)
        code = cli.main([command[0], path] + command[1:])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["command"] == command[0]
        assert report["error"] == "ParseError"
        assert MALFORMED[kind] in report["message"]
        assert captured.err == ""

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_face_index_beyond_machine_integer(self, command, tmp_path, capsys):
        data = json.loads(formats.dump_polyhedron(fixtures.tetrahedron(0.3)))
        data["faces"][0][0] = 10 ** 30
        path = write(tmp_path, "bad.json", json.dumps(data))
        code = cli.main([command[0], path] + command[1:])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["command"] == command[0]
        assert report["error"] == "ParseError"
        assert report["message"] == f"{path}: a face index does not fit a machine integer"
        assert captured.err == ""

    @pytest.mark.parametrize("command", ["validate", "rigidity", "holonomy"])
    def test_string_coordinates(self, command, tmp_path, capsys):
        """Vertex 0's coordinates written as JSON strings are not read as
        numbers."""
        data = json.loads(formats.dump_polyhedron(fixtures.tetrahedron(0.3)))
        data["vertices"][0] = [repr(c) for c in data["vertices"][0]]
        path = write(tmp_path, "bad.json", json.dumps(data))
        code = cli.main([command, path])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "ParseError"
        assert "rows of numbers; vertex 0 is [\"" in report["message"]
        assert captured.err == ""

    @pytest.mark.parametrize("kind", ["string", "nested"])
    def test_malformed_target_angles(self, kind, tmp_path, capsys):
        """The cube's 12 angles as strings, or as two lists of 6, are not a
        flat list of numbers."""
        poly = fixtures.cube(0.3)
        path = write_poly(tmp_path, poly)
        angles = [float(a) for a in dihedral_angles(poly)]
        target = [repr(a) for a in angles] if kind == "string" else [angles[:6], angles[6:]]
        target_path = write(tmp_path, "target.json", json.dumps({"angles": target}))
        code = cli.main(["deform", path, "--target", target_path])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "ParseError"
        assert "angles must be a flat list of numbers; entry 0 is " in report["message"]
        assert captured.err == ""

    def test_nan_target_angle(self, tmp_path, capsys):
        poly = fixtures.cube(0.3)
        path = write_poly(tmp_path, poly)
        target = dihedral_angles(poly)
        target[5] = np.nan
        target_path = write(tmp_path, "target.json",
                            json.dumps({"angles": [float(a) for a in target]}))
        code = cli.main(["deform", path, "--target", target_path])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "ParseError"
        assert "angles must be finite" in report["message"]
        assert captured.err == ""

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_non_finite_matrix_entry(self, value, tmp_path, capsys):
        fx = surface_group_fixture(fixtures.tetrahedron(0.3))
        pres_path = write(tmp_path, "pres.txt",
                          formats.dump_presentation(fx.presentation, fx.meridian_loops()))
        data = json.loads(formats.dump_matrices(fx.representation))
        data["matrices"][2][1][0][1] = value
        mats_path = write(tmp_path, "mats.json", json.dumps(data))
        code = cli.main(["tracerank", pres_path, "--matrices", mats_path])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "ParseError"
        assert "matrix entries must be finite" in report["message"]
        assert captured.err == ""


class TestCliLoaderErrors:
    """Files that parse as JSON or text but not as their format are invalid
    input: exit 2 with the loader's message."""

    @pytest.mark.parametrize("argv, message", [
        (["validate", "{poly}"], "vertices must be a list of [x, y, z] rows of numbers"),
        (["deform", "{tetra}", "--target", "{angles}"], "expected 6 angles, found 5"),
        (["tracerank", "{tmp}/missing.txt", "--matrices", "{mats}"],
         "cannot read {tmp}/missing.txt"),
        (["tracerank", "{gensless}", "--matrices", "{mats}"], "missing 'gens' line"),
        (["tracerank", "{pres}", "--matrices", "{poly}"], "expected an object with 'matrices'"),
    ], ids=["vertices_not_a_list", "angle_count", "unreadable_presentation",
            "missing_gens", "no_matrices_key"])
    def test_exit_two_with_message(self, argv, message, tmp_path, capsys):
        files = {
            "poly": write(tmp_path, "bad.json", '{"vertices": {"x": 1}, "faces": []}'),
            "tetra": write_poly(tmp_path, fixtures.tetrahedron(0.3)),
            "angles": write(tmp_path, "angles.json", formats.dump_angles([1.0] * 5)),
            "mats": str(DEMO_OUTPUT / "k4_surface_matrices.json"),
            "gensless": write(tmp_path, "gensless.txt", "rel 1 -1\n"),
            "pres": write(tmp_path, "pres.txt", "gens 1\n"),
            "tmp": tmp_path,
        }
        code, out = run_cli(capsys, [a.format(**files) for a in argv])
        assert code == 2
        report = json.loads(out)
        assert report["error"] == "ParseError"
        assert message.format(**files) in report["message"]


class TestCliAngles:
    def test_cube_angles_equal(self, tmp_path, capsys):
        path = write_poly(tmp_path, fixtures.cube(0.3))
        code, out = run_cli(capsys, ["angles", path])
        assert code == 0
        angles = json.loads(out)["results"]["angles"]
        assert len(angles) == 12
        assert max(angles) - min(angles) < 1e-12

    def test_orthogonal_micro_fixture(self, tmp_path, capsys):
        path = write_poly(tmp_path, corner_tetrahedron())
        code, out = run_cli(capsys, ["angles", path])
        assert code == 0
        report = json.loads(out)
        angles = dict(zip(map(tuple, report["results"]["edges"]), report["results"]["angles"]))
        assert angles[(0, 1)] == pytest.approx(np.pi / 2, abs=1e-12)


class TestCliRigidity:
    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_fixtures_certified(self, name, tmp_path, capsys):
        path = write_poly(tmp_path, fixtures.STANDARD[name](0.3))
        code, out = run_cli(capsys, ["rigidity", path])
        assert code == 0
        report = json.loads(out)
        assert report["results"]["rigidity"]["kernel_dim"] == 6

    def test_coplanar_not_certified(self, tmp_path, capsys):
        """A flattened cube is not certified, and ``validate`` fails its
        convexity, so the command gives the exit-2 ``ParseError`` report."""
        poly = fixtures.cube(0.3)
        flat = poly.with_positions(poly.positions * np.array([1.0, 1.0, 0.0]))
        assert not rigidity_report(flat).certified
        path = write_poly(tmp_path, flat)
        code, out = run_cli(capsys, ["rigidity", path])
        assert code == 2
        report = json.loads(out)
        assert report["error"] == "ParseError"
        assert "invalid embedding: minimum convexity margin" in report["message"]

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, ["rigidity", "/nonexistent/nowhere.json"])
        assert code == 2


class TestCliDeform:
    @pytest.mark.parametrize("spellings", [
        (["--perturb", "1e-3"],),
        (["--perturb", "-1e-3"], ["--perturb=-1e-3"], ["--perturb", "-0.001"]),
    ], ids=["positive", "negative"])
    def test_seeded_perturbation_round_trip(self, spellings, tmp_path, capsys):
        """A negative amplitude is a value in every spelling, with an
        exponent too, and all spellings give one report."""
        path = write_poly(tmp_path, fixtures.tetrahedron(0.3))
        out_path = str(tmp_path / "deformed.json")
        argvs = [["deform", path, *options, "--seed", "7", "--out", out_path]
                 for options in spellings]
        code, out = run_cli(capsys, argvs[0])
        assert code == 0
        report = json.loads(out)
        assert all(v["pass"] for v in report["verdicts"])
        deformed = formats.load_polyhedron(out_path)
        achieved = dihedral_angles(deformed)
        assert np.max(np.abs(achieved - np.array(report["results"]["target"]))) < 1e-10
        for argv in argvs[1:]:
            assert run_cli(capsys, argv) == (code, out)

    def test_current_angles_zero_steps(self, tmp_path, capsys):
        poly = fixtures.cube(0.3)
        path = write_poly(tmp_path, poly)
        target_path = write(tmp_path, "target.json",
                            formats.dump_angles(dihedral_angles(poly)))
        code, out = run_cli(capsys, ["deform", path, "--target", target_path])
        assert code == 0
        assert json.loads(out)["results"]["iterations"] == [0]

    def test_infeasible_target_rejected_before_solving(self, tmp_path, capsys):
        poly = fixtures.cube(0.3)
        path = write_poly(tmp_path, poly)
        bad = dihedral_angles(poly)
        bad[0] = np.pi + 0.1
        target_path = write(tmp_path, "target.json", formats.dump_angles(bad))
        code, out = run_cli(capsys, ["deform", path, "--target", target_path])
        assert code == 2
        assert json.loads(out)["error"] == "ParseError"

    def test_three_continuation_steps(self, tmp_path, capsys):
        path = write_poly(tmp_path, fixtures.cube(0.3))
        code, out = run_cli(capsys, ["deform", path, "--perturb", "1e-4", "--steps", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["config"]["steps"] == 3
        assert len(report["results"]["iterations"]) == 3
        assert len(report["results"]["residual_history"]) == 3

    @pytest.mark.parametrize("options, message", [
        (["--perturb", "1e-4", "--steps", "0"], "n_steps must be at least 1"),
        (["--perturb", "1e-4", "--seed", "-1"], "--seed must be nonnegative"),
        (["--target", "{tmp}/missing.json"], "cannot read {tmp}/missing.json"),
        (["--target", "{tmp}"], "cannot read {tmp}"),
        (["--perturb", "1e-4", "--out", "{tmp}/missing/out.json"],
         "cannot write {tmp}/missing/out.json"),
        (["--perturb", "1e-4", "--seed", "1_0"], "--seed: invalid integer '1_0'"),
        (["--perturb", "1e-4", "--seed", "\u0661"], "--seed: invalid integer"),
        (["--perturb", "1e-4", "--seed", "1.0"], "--seed: invalid integer '1.0'"),
        (["--perturb", "1e-4", "--steps", "\uff12"], "--steps: invalid integer"),
        (["--perturb", "1_0e-4"], "--perturb: invalid number '1_0e-4'"),
        (["--perturb", " 1e-4"], "--perturb: invalid number ' 1e-4'"),
        (["--perturb", "nan"], "--perturb: invalid number 'nan'"),
        (["--perturb", "-inf"], "--perturb: invalid number '-inf'"),
    ], ids=["zero_steps", "negative_seed", "missing_target", "directory_target",
            "unwritable_out", "underscore_seed", "arabic_indic_seed", "fractional_seed",
            "fullwidth_steps", "underscore_perturb", "spaced_perturb", "nan_perturb",
            "infinite_perturb"])
    def test_bad_option_or_file_is_bad_input(self, options, message, tmp_path, capsys):
        path = write_poly(tmp_path, fixtures.tetrahedron(0.3))
        options = [o.format(tmp=tmp_path) for o in options]
        code = cli.main(["deform", path, *options])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["error"] == "ParseError"
        assert message.format(tmp=tmp_path) in report["message"]

    @pytest.mark.parametrize("poly, options, exit_code, error, waypoint", [
        (fixtures.triangular_prism(0.02), ["--perturb", "1e-3", "--seed", "0"], 3,
         "NoConvergence", 0),
        (fixtures.tetrahedron(0.02), ["--perturb", "1e-3", "--seed", "1"], 4,
         "ConvexityLost", 0),
        (fixtures.tetrahedron(0.3), ["--target", "{hyperideal}", "--steps", "2"], 5,
         "BallExit", 1),
    ], ids=["no_convergence", "convexity_lost", "ball_exit"])
    def test_solver_failure_report(self, poly, options, exit_code, error, waypoint,
                                   tmp_path, capsys):
        """A failed continuation is a report with the solver's exit code: the
        error, the waypoint it failed at, the waypoints completed before it
        and a failed ``deform_converged`` verdict carrying its message.  The
        ball-exit target puts all six angles of the tetrahedron just below
        pi/3, past the ideal one."""
        path = write_poly(tmp_path, poly)
        hyperideal = write(tmp_path, "target.json",
                           formats.dump_angles(np.full(6, np.pi / 3 - 1e-3)))
        code, out = run_cli(capsys, ["deform", path]
                            + [o.format(hyperideal=hyperideal) for o in options])
        assert code == exit_code
        report = json.loads(out)
        results = report["results"]
        assert results["error"] == error
        assert results["failed_waypoint"] == waypoint
        assert results["completed_waypoints"] == waypoint
        [verdict] = report["verdicts"]
        assert verdict["name"] == "deform_converged"
        assert verdict["pass"] is False
        if error == "NoConvergence":
            assert "Jacobian lost rank" in verdict["value"]

    def test_emitted_polyhedron_round_trips(self, tmp_path, capsys):
        path = write_poly(tmp_path, fixtures.tetrahedron(0.3))
        out_path = str(tmp_path / "deformed.json")
        code, _ = run_cli(
            capsys, ["deform", path, "--perturb", "1e-3", "--seed", "3", "--out", out_path]
        )
        assert code == 0
        text = open(out_path).read()
        assert formats.dump_polyhedron(formats.load_polyhedron(out_path)) == text


class TestCliHolonomy:
    def test_tetrahedron_counts(self, tmp_path, capsys):
        path = write_poly(tmp_path, fixtures.tetrahedron(0.3))
        code, out = run_cli(capsys, ["holonomy", path])
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]["edges"]) == 6
        assert len(report["results"]["vertices"]) == 4
        assert all(row["irreducible"] for row in report["results"]["vertices"])

    def test_cube_counts(self, tmp_path, capsys):
        path = write_poly(tmp_path, fixtures.cube(0.3))
        code, out = run_cli(capsys, ["holonomy", path])
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]["edges"]) == 12
        assert len(report["results"]["vertices"]) == 8

    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_near_sphere_fixtures_pass(self, name, tmp_path, capsys):
        """Vertices at Klein radius 0.999999: every link meridian is still
        an isometry to ``DEFAULT.iso``, so the lift succeeds."""
        path = write_poly(tmp_path, fixtures.STANDARD[name](0.999999))
        code, out = run_cli(capsys, ["holonomy", path])
        assert code == 0
        assert all(v["pass"] for v in json.loads(out)["verdicts"])

    def test_library_error_is_exit_1_report(self, tmp_path, capsys, monkeypatch):
        def fail(poly, tol):
            raise EigenFailure("probe")

        monkeypatch.setattr(cli.repvar, "polyhedron_holonomy", fail)
        path = write_poly(tmp_path, fixtures.tetrahedron(0.3))
        code = cli.main(["holonomy", path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert json.loads(captured.out) == {"command": "holonomy", "error": "EigenFailure",
                                            "message": "probe"}


class TestCliTraceRank:
    def test_fixture_vertex_unitary(self, tmp_path, capsys):
        poly_path = write_poly(tmp_path, fixtures.square_pyramid(0.3))
        pres_path = write(tmp_path, "pres.txt",
                          formats.dump_presentation(Presentation.punctured_sphere(4)))
        code, out = run_cli(
            capsys,
            ["tracerank", pres_path, "--fixture-vertex", f"{poly_path}:4", "--unitary"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["trace_rank"]["h1_dim"] == 6
        assert report["results"]["trace_rank"]["rank"] == 4
        assert report["results"]["expected"] == {"valence": 4, "h1_dim": 6, "rank": 4}
        unitary = next(v for v in report["verdicts"] if v["name"] == "images_unitary")
        assert unitary["pass"] and unitary["tolerance"] == 1e-10

    def test_unitary_link_matrices_pass(self, tmp_path, capsys):
        """The vertex link's images, conjugated to the vertex, are unitary
        to rounding."""
        link = link_representation(fixtures.cube(0.3), 0)
        pres_path = write(tmp_path, "pres.txt", formats.dump_presentation(link.presentation))
        mats_path = write(tmp_path, "mats.json", formats.dump_matrices(link.representation()))
        code, out = run_cli(capsys, ["tracerank", pres_path, "--matrices", mats_path,
                                     "--unitary"])
        assert code == 0
        verdicts = {v["name"]: v for v in json.loads(out)["verdicts"]}
        assert verdicts["images_unitary"]["pass"]
        assert verdicts["images_unitary"]["value"] < 1e-14

    def test_non_unitary_matrices_rejected(self, tmp_path, capsys):
        """The boundary-surface images live in the global frame, far from
        SU(2): su(2) coordinates mean nothing there, so --unitary fails."""
        fx = surface_group_fixture(fixtures.tetrahedron(0.3))
        pres_path = write(tmp_path, "pres.txt",
                          formats.dump_presentation(fx.presentation, fx.meridian_loops()))
        mats_path = write(tmp_path, "mats.json", formats.dump_matrices(fx.representation))
        code, out = run_cli(capsys, ["tracerank", pres_path, "--matrices", mats_path,
                                     "--unitary"])
        assert code == 1
        verdicts = {v["name"]: v for v in json.loads(out)["verdicts"]}
        assert verdicts["relators_hold"]["pass"]
        assert not verdicts["images_unitary"]["pass"]
        assert verdicts["images_unitary"]["value"] > 0.1

    @pytest.mark.parametrize("vertex", [8, 9, -1])
    def test_fixture_vertex_out_of_range(self, vertex, tmp_path, capsys):
        poly_path = write_poly(tmp_path, fixtures.cube(0.3))
        pres_path = write(tmp_path, "pres.txt",
                          formats.dump_presentation(Presentation.punctured_sphere(3)))
        code = cli.main(["tracerank", pres_path, "--fixture-vertex", f"{poly_path}:{vertex}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["error"] == "ParseError"
        assert report["message"] == f"{poly_path}: vertex {vertex} outside 0..7"

    @pytest.mark.parametrize("kind", ["string_part", "boolean_part", "flat_matrix"])
    def test_malformed_matrix_file_is_bad_input(self, kind, tmp_path, capsys):
        mats_path, k = malformed_k4_matrices(tmp_path, kind)
        pres_path = str(DEMO_OUTPUT / "k4_surface_presentation.txt")
        code = cli.main(["tracerank", pres_path, "--matrices", mats_path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["error"] == "ParseError"
        assert f"; matrix {k} is " in report["message"]

    @pytest.mark.parametrize("text", ["gens 1_2\n", "gens 12\nrel 1_0 -\u0663\n"])
    def test_non_ascii_decimal_presentation_is_bad_input(self, text, tmp_path, capsys):
        pres_path = write(tmp_path, "pres.txt", text)
        mats_path = str(DEMO_OUTPUT / "k4_surface_matrices.json")
        code = cli.main(["tracerank", pres_path, "--matrices", mats_path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["error"] == "ParseError"
        assert report["line"] == text.count("\n")
        assert "invalid integer '1_" in report["message"]

    @pytest.mark.parametrize("vertex", ["1_0", "\u0663", " 3", "3.0"])
    def test_fixture_vertex_must_be_ascii_decimal(self, vertex, tmp_path, capsys):
        poly_path = write_poly(tmp_path, fixtures.cube(0.3))
        pres_path = write(tmp_path, "pres.txt",
                          formats.dump_presentation(Presentation.punctured_sphere(3)))
        code = cli.main(["tracerank", pres_path, "--fixture-vertex", f"{poly_path}:{vertex}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["error"] == "ParseError"
        assert report["message"] == "--fixture-vertex expects POLYHEDRON.json:VERTEX"

    def test_surface_fixture_via_matrix_file(self, tmp_path, capsys):
        fx = surface_group_fixture(fixtures.tetrahedron(0.3))
        pres_path = write(tmp_path, "pres.txt",
                          formats.dump_presentation(fx.presentation, fx.meridian_loops()))
        mats_path = write(tmp_path, "mats.json", formats.dump_matrices(fx.representation))
        code, out = run_cli(capsys, ["tracerank", pres_path, "--matrices", mats_path])
        assert code == 0
        result = json.loads(out)["results"]["trace_rank"]
        assert result["h1_dim"] == 24
        assert result["rank"] == 12

    def test_no_generators_is_bad_input(self, tmp_path, capsys):
        pres_path = write(tmp_path, "pres.txt", "gens 0\n")
        mats_path = write(tmp_path, "mats.json", '{"matrices": []}')
        code = cli.main(["tracerank", pres_path, "--matrices", mats_path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["error"] == "ParseError"
        assert report["line"] == 1

    def test_out_of_range_loop_letter_is_bad_input(self, tmp_path, capsys):
        fx = surface_group_fixture(fixtures.tetrahedron(0.3))
        pres_path = write(tmp_path, "pres.txt", "gens 12\nloop 1 13\n")
        mats_path = write(tmp_path, "mats.json", formats.dump_matrices(fx.representation))
        code, out = run_cli(capsys, ["tracerank", pres_path, "--matrices", mats_path])
        assert code == 2
        report = json.loads(out)
        assert report["error"] == "ParseError"
        assert report["line"] == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_products_are_a_report(self, tmp_path, capsys):
        """Finite unit-determinant images whose Fox products overflow: the
        nullspace of the non-finite relator matrix fails, which is exit 1
        with an error report and no warning."""
        pres_path = write(tmp_path, "pres.txt", "gens 2\nrel 1 2 -1 -2\n")
        rep = Representation([[[1e200, 0], [0, 1e-200]], [[1, 1], [0, 1]]])
        mats_path = write(tmp_path, "mats.json", formats.dump_matrices(rep))
        code = cli.main(["tracerank", pres_path, "--matrices", mats_path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert json.loads(captured.out) == {"command": "tracerank", "error": "LinAlgError",
                                            "message": "nullspace of a non-finite matrix"}

    def test_fixture_vertex_generator_count_mismatch(self, tmp_path, capsys):
        poly_path = write_poly(tmp_path, fixtures.tetrahedron(0.3))
        pres_path = write(tmp_path, "pres.txt", "gens 4\nrel 1 2 3 4\n")
        code = cli.main(["tracerank", pres_path, "--fixture-vertex", f"{poly_path}:0"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["error"] == "ParseError"
        assert report["message"] == "presentation has 4 generators, link has 3"

    def test_matrix_count_mismatch(self, tmp_path, capsys):
        pres_path = write(tmp_path, "pres.txt", "gens 2\n")
        rep = Representation(np.tile(np.eye(2), (3, 1, 1)))
        mats_path = write(tmp_path, "mats.json", formats.dump_matrices(rep))
        code = cli.main(["tracerank", pres_path, "--matrices", mats_path])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["error"] == "ParseError"
        assert report["message"] == "presentation has 2 generators, matrix file has 3"

    def test_free_group_dimension(self, tmp_path, capsys):
        fx = surface_group_fixture(fixtures.tetrahedron(0.3))
        pres_path = write(tmp_path, "pres.txt", formats.dump_presentation(Presentation(12)))
        mats_path = write(tmp_path, "mats.json", formats.dump_matrices(fx.representation))
        code, out = run_cli(capsys, ["tracerank", pres_path, "--matrices", mats_path])
        assert code == 0
        assert json.loads(out)["results"]["trace_rank"]["z1_dim"] == 72


class TestCliInputs:
    """``inputs`` lists the files read, in read order, with their digests."""

    @pytest.mark.parametrize("source", ["deform_target", "matrices", "fixture_vertex"])
    def test_files_listed_in_read_order(self, source, tmp_path, capsys):
        poly = fixtures.square_pyramid(0.3)
        poly_path = write_poly(tmp_path, poly)
        if source == "deform_target":
            target_path = write(tmp_path, "target.json",
                                formats.dump_angles(dihedral_angles(poly)))
            argv, read = ["deform", poly_path, "--target", target_path], [poly_path, target_path]
        elif source == "matrices":
            link = link_representation(poly, 4)
            pres_path = write(tmp_path, "pres.txt", formats.dump_presentation(link.presentation))
            mats_path = write(tmp_path, "mats.json", formats.dump_matrices(link.representation()))
            argv, read = ["tracerank", pres_path, "--matrices", mats_path], [pres_path, mats_path]
        else:
            pres_path = write(tmp_path, "pres.txt",
                              formats.dump_presentation(Presentation.punctured_sphere(4)))
            argv = ["tracerank", pres_path, "--fixture-vertex", f"{poly_path}:4"]
            read = [pres_path, poly_path]
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["inputs"] == [
            {"path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
            for path in read
        ]


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        path = write_poly(tmp_path, fixtures.pentagonal_pyramid(0.3))
        _, first = run_cli(capsys, ["rigidity", path])
        _, second = run_cli(capsys, ["rigidity", path])
        assert first == second

    def test_seeded_deform_deterministic(self, tmp_path, capsys):
        path = write_poly(tmp_path, fixtures.cube(0.3))
        _, first = run_cli(capsys, ["deform", path, "--perturb", "1e-3", "--seed", "11"])
        _, second = run_cli(capsys, ["deform", path, "--perturb", "1e-3", "--seed", "11"])
        assert first == second

    def test_tol_scale_echoed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STOKERLAB_TOL_SCALE", "10")
        path = write_poly(tmp_path, fixtures.tetrahedron(0.3))
        code, out = run_cli(capsys, ["validate", path])
        assert code == 0
        assert json.loads(out)["config"]["tol_scale"] == 10.0

    @pytest.mark.parametrize("raw", ["-1", "0", "nan", "inf"])
    def test_tol_scale_not_finite_positive_is_bad_input(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("STOKERLAB_TOL_SCALE", raw)
        path = write_poly(tmp_path, fixtures.cube(0.3))
        code, out = run_cli(capsys, ["rigidity", path])
        assert code == 2
        report = json.loads(out)
        assert report["error"] == "ParseError"
        assert "STOKERLAB_TOL_SCALE" in report["message"]
        with pytest.raises(ValueError):
            DEFAULT.scaled(float(raw))

    @pytest.mark.parametrize("raw", ["1_0", "\u0661", " 1"])
    def test_tol_scale_not_an_ascii_literal_is_bad_input(self, tmp_path, capsys, monkeypatch,
                                                         raw):
        monkeypatch.setenv("STOKERLAB_TOL_SCALE", raw)
        path = write_poly(tmp_path, fixtures.tetrahedron(0.3))
        code = cli.main(["validate", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["error"] == "ParseError"
        assert report["message"] == f"STOKERLAB_TOL_SCALE={raw!r} is not a finite positive number"

    @pytest.mark.parametrize("raw, factor", [("1e5", 1e5), ("2.", 2.0), (".5", 0.5),
                                             ("+3E-1", 0.3)])
    def test_tol_scale_ascii_literals_are_read(self, tmp_path, capsys, monkeypatch, raw,
                                               factor):
        monkeypatch.setenv("STOKERLAB_TOL_SCALE", raw)
        path = write_poly(tmp_path, fixtures.tetrahedron(0.3))
        code, out = run_cli(capsys, ["validate", path])
        assert code == 0
        assert json.loads(out)["config"]["tol_scale"] == factor
