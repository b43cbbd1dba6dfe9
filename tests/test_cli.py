import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import torusgit
from conftest import DEGENERATE_20, GENERAL_POSITION_16
from torusgit.cli import build_parser, run
from torusgit.errors import InternalError, TorusGitError


def invoke(argv, capsys):
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out) if out else None


HYPERBOLA = '{"rank": 1, "weights": [[1], [-1]]}'
A2_TRIVIAL = '{"rank": 0, "weights": [[], []]}'


def test_semistable_wrapper(capsys):
    rc, doc = invoke(["semistable", "--action", HYPERBOLA,
                      "--char", "[1]", "--support", "[1,2]"], capsys)
    assert rc == 0 and doc == {"semistable": True}
    rc, doc = invoke(["semistable", "--action", HYPERBOLA,
                      "--char", "[1]", "--support", "[1]"], capsys)
    assert rc == 0 and doc == {"semistable": False}


def test_stable_and_hm_min(capsys):
    rc, doc = invoke(["stable", "--action", HYPERBOLA,
                      "--char", "[0]", "--support", "[1,2]"], capsys)
    assert rc == 0 and doc == {"stable": True}
    rc, doc = invoke(["hm-min", "--action", HYPERBOLA,
                      "--char", "[1]", "--support", "[2]"], capsys)
    assert rc == 0
    assert doc["value"] == {"sign": 1, "square": 1} and doc["minimizer"] == [-1]
    rc, doc = invoke(["hm-min", "--action", HYPERBOLA,
                      "--char", "[1]", "--support", "[1,2]"], capsys)
    assert rc == 0 and doc["no_destabilizer"] is True


def test_combine_and_minimal_values(capsys):
    action = '{"rank": 1, "weights": [[1], [1], [-1]]}'
    rc, doc = invoke(["combine", "--action", action,
                      "--char-l", "[1]", "--char-m", "[-1]"], capsys)
    assert rc == 0
    assert doc["m0"] == 2 and doc["combined"] == [1]
    rc, doc = invoke(["minimal-values", "--action", HYPERBOLA, "--char", "[1]"], capsys)
    assert rc == 0
    assert doc["values"] == [{"sign": -1, "square": 1}, {"sign": 1, "square": 1}]


def test_unreadable_paths_are_input_errors(capsys, tmp_path):
    """A name too long for the file system is not a file, so the long number
    fails its own check; a directory or a file that is not UTF-8 cannot be read."""
    undecodable = tmp_path / "action.json"
    undecodable.write_bytes(b"\xff\xfe")
    for argv in (["semistable", "--action", HYPERBOLA, "--char", "1" * 300, "--support", "[1]"],
                 ["dvr-lift", "--orders", str(tmp_path)],
                 ["semistable", "--action", str(undecodable), "--char", "[1]", "--support", "[1]"]):
        rc, doc = invoke(argv, capsys)
        assert rc == 1 and doc["kind"] == "input", argv


def test_walls_and_generic_character(capsys):
    action = '{"rank": 2, "weights": [[1,0], [0,1], [1,1]]}'
    rc, doc = invoke(["walls", "--action", action], capsys)
    assert rc == 0
    assert sorted(map(tuple, doc["walls"])) == [(0, 1), (1, -1), (1, 0)]
    rc, doc = invoke(["generic-character", "--action", action, "--bound", "3"], capsys)
    assert rc == 0 and doc["generic"] == [1, -1] == doc["pulled_back"]
    rc, doc = invoke(["verify-chamber", "--action", action, "--char", "[1,-1]"], capsys)
    assert rc == 0 and doc["ss_equals_s"] is True


def test_eb_and_saturate(capsys):
    rc, doc = invoke(["eb", "--action", A2_TRIVIAL,
                      "--center", '{"coords": [1, 2], "weights": [1, 1]}'], capsys)
    assert rc == 0
    assert doc["presentation"]["ambient"]["weights"] == [[1], [1], [-1]]
    assert doc["presentation"]["theta"] == [-1]
    assert doc["presentation"]["exceptional_index"] == 3
    assert len(doc["weighted_blowup_locus"]) == 6
    assert doc["weighted_blowup_locus"] == doc["saturated_locus"]
    rc, doc = invoke(["saturate", "--action", HYPERBOLA,
                      "--center", '{"coords": [1, 2], "weights": [1, 1]}'], capsys)
    assert rc == 0 and doc["saturated_locus"] == [[1, 2], [1, 2, 3]]


def test_desing_with_verify(capsys):
    rc, doc = invoke(["desing", "--action", HYPERBOLA, "--verify"], capsys)
    assert rc == 0
    assert len(doc["steps"]) == 1
    assert doc["final_character"] == [0, -1]
    assert doc["verification"]["ok"] is True


def test_stabilizer_and_invariants(capsys):
    rc, doc = invoke(["stabilizer", "--action", HYPERBOLA, "--support", "[1,2]"], capsys)
    assert rc == 0
    assert doc == {"dimension": 0, "invariant_factors": [], "finite_part_order": 1}
    slice3 = '{"rank": 3, "weights": [[2,-1,-1], [-1,2,-1], [-1,-1,2]]}'
    rc, doc = invoke(["invariants", "--action", slice3, "--degree-bound", "6"], capsys)
    assert rc == 0 and doc["generators"] == [[1, 1, 1]]


def test_quasimap_subcommands(capsys):
    graph = json.dumps({
        "vertices": [{"genus": 0, "in_dm": True, "degrees": {"L_X": 12, "L": 0}}],
        "legs": [[0, i + 1] for i in range(12)],
        "bundles": ["L_X", "L"],
    })
    rc, doc = invoke(["quasimap", "--graph", graph, "--epsilon"], capsys)
    assert rc == 0
    assert doc["stable"] is True and doc["epsilon_ample"] is True
    assert doc["class_beta"] == {"L": 0, "L_X": 12}
    rc, doc = invoke(["pencil", "--graph", graph], capsys)
    assert rc == 0 and doc["ok"] is True


def test_binary_forms_and_conic_and_dvr(capsys):
    rc, doc = invoke(["binary-forms", "--n", "3", "--mults", "[3,3]"], capsys)
    assert rc == 0 and doc == {"semistable": True, "dm": False}
    rc, doc = invoke(["conic", "--config",
                      '{"ambient": "twisted_conic", "mults": [[1,1,1],[1,1,1]], "n": 3}'],
                     capsys)
    assert rc == 0 and doc == {"valid_in_cy": True, "in_dm": True}
    rc, doc = invoke(["dvr-lift", "--orders", "[2,2,2]"], capsys)
    assert rc == 0 and doc["meets_some_axis"] is False


def test_binary_forms_n_zero_is_an_input_error(capsys):
    rc, doc = invoke(["binary-forms", "--n", "0", "--mults", "[]"], capsys)
    assert rc == 1 and doc == {"error": "n must be >= 1", "kind": "input"}


def _fresh_interpreter(*args):
    src = str(Path(torusgit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=60)


def test_cli_import_skips_dataclasses_and_inspect():
    """The CLI's start-up cost: importing it must not pull in either module."""
    code = ("import sys; before = set(sys.modules); import torusgit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert _fresh_interpreter("-c", code).stdout.strip() == "[]"


CLI_CORE = {"_record", "cli", "errors", "jsonio"}
TORUS_CORE = CLI_CORE | {"lattice", "torus"}
COLD_CALLS = [
    (["semistable", "--action", HYPERBOLA, "--char", "[1]", "--support", "[1,2]"], TORUS_CORE),
    (["invariants", "--action", HYPERBOLA], TORUS_CORE),
    (["minimal-values", "--action", HYPERBOLA, "--char", "[1]"], TORUS_CORE),
    (["combine", "--action", HYPERBOLA, "--char-l", "[1]", "--char-m", "[-1]"], TORUS_CORE),
    (["walls", "--action", HYPERBOLA], TORUS_CORE | {"walls"}),
    (["saturate", "--action", HYPERBOLA, "--center", '{"coords": [1], "weights": [1]}'],
     TORUS_CORE | {"rees"}),
    (["desing", "--action", HYPERBOLA], TORUS_CORE | {"rees", "desing"}),
    (["luna-cubics"], TORUS_CORE | {"rees", "desing", "luna"}),
    (["dvr-lift", "--orders", "[1,2]"], CLI_CORE | {"quasimap"}),
    (["binary-forms", "--n", "2", "--mults", "[2,2]"], CLI_CORE | {"quasimap"}),
]


@pytest.mark.parametrize("argv, loaded", COLD_CALLS, ids=[argv[0] for argv, _ in COLD_CALLS])
def test_a_cold_call_runs_only_the_modules_its_subcommand_uses(argv, loaded):
    """Submodules not yet run are registered lazily and are not plain modules."""
    code = ("import io, json, sys, types, contextlib; import torusgit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = torusgit.cli.run(sys.argv[1:])\n"
            "print(json.dumps([rc, sorted(name.split('.', 1)[1] for name, m in sys.modules.items()"
            " if name.startswith('torusgit.') and type(m) is types.ModuleType)]))")
    rc, modules = json.loads(_fresh_interpreter("-c", code, *argv).stdout)
    assert rc == 0 and set(modules) == loaded


def test_running_the_cli_module_writes_nothing_to_stderr():
    """``python -m torusgit.cli`` would warn if the package had already run ``cli``."""
    proc = _fresh_interpreter("-m", "torusgit.cli", "dvr-lift", "--orders", "[1,2]")
    assert proc.stderr == "" and json.loads(proc.stdout)["m"] == 1


def test_max_supports_default_is_the_guards_default():
    args = build_parser().parse_args(["luna-cubics"])
    assert args.max_supports == torusgit.rees.DEFAULT_MAX_SUPPORTS


def test_luna_cubics_certificate(capsys):
    rc, doc = invoke(["luna-cubics"], capsys)
    assert rc == 0
    assert doc["boundary_stabilizer"] == {
        "dimension": 0, "invariant_factors": [3, 3], "finite_part_order": 6}
    assert doc["invariant_generators"] == [[1, 1, 1]]
    assert doc["tower_verified"] is True


def test_exit_codes(capsys):
    rc, doc = invoke(["semistable", "--action", HYPERBOLA,
                      "--char", "[1,2]", "--support", "[1]"], capsys)
    assert rc == 1 and doc["kind"] == "input"
    rc, doc = invoke(["semistable", "--action", "no-such-file.json",
                      "--char", "[1]", "--support", "[1]"], capsys)
    assert rc == 1 and doc["kind"] == "input"
    big = json.dumps({"rank": 1, "weights": [[1]] * 21})
    rc, doc = invoke(["minimal-values", "--action", big, "--char", "[1]"], capsys)
    assert rc == 2 and doc["kind"] == "declined"  # default --max-supports guard
    medium = json.dumps({"rank": 1, "weights": [[1]] * 5})
    rc, doc = invoke(["--max-supports", "16", "minimal-values",
                      "--action", medium, "--char", "[1]"], capsys)
    assert rc == 2 and doc["kind"] == "declined"
    # every support unstable: the desing precondition fails with an input error
    rc, doc = invoke(["desing", "--action", '{"rank": 1, "weights": [[1], [2]]}',
                      "--char", "[1]"], capsys)
    assert rc == 1 and doc["kind"] == "input"


@pytest.mark.parametrize("error", [InternalError, TorusGitError])
def test_internal_errors_exit_3(capsys, monkeypatch, error):
    def broken(args):
        raise error("invariant broken")

    monkeypatch.setattr(torusgit.cli, "_cmd_semistable", broken)
    rc = run(["semistable", "--action", HYPERBOLA, "--char", "[1]", "--support", "[1]"])
    assert rc == 3
    assert capsys.readouterr().out == '{\n  "error": "invariant broken",\n  "kind": "internal"\n}\n'


GENERAL_POSITION_12 = json.dumps({"rank": 3, "weights": GENERAL_POSITION_16[:12]})


def test_hm_min_on_twelve_general_coordinates_is_pinned(capsys):
    rc = run(["hm-min", "--action", GENERAL_POSITION_12, "--char", "[1,-2,3]",
              "--support", json.dumps(list(range(1, 13)))])
    assert rc == 0
    assert capsys.readouterr().out == (
        '{\n  "minimizer": [\n    153,\n    79,\n    144\n  ],\n'
        '  "no_destabilizer": false,\n  "value": {\n    "sign": -1,\n'
        '    "square": "427/118"\n  }\n}\n')


@pytest.mark.parametrize("cols, chi, expected", [
    (GENERAL_POSITION_16, "[1,-2,3]",
     '{\n  "minimizer": [\n    21,\n    9,\n    17\n  ],\n  "no_destabilizer": false,\n'
     '  "value": {\n    "sign": -1,\n    "square": "2916/811"\n  }\n}\n'),
    # weights in a plane: no active set cuts the span to {0}
    (DEGENERATE_20, "[1,-2,0]",
     '{\n  "minimizer": [\n    0,\n    0,\n    1\n  ],\n  "no_destabilizer": false,\n'
     '  "value": {\n    "sign": 0,\n    "square": 0\n  }\n}\n'),
])
def test_hm_min_on_every_support_visits_few_faces(capsys, cols, chi, expected):
    start = time.perf_counter()
    rc = run(["hm-min", "--action", json.dumps({"rank": 3, "weights": cols}), "--char", chi,
              "--support", json.dumps(list(range(1, len(cols) + 1)))])
    assert time.perf_counter() - start < 1
    assert rc == 0 and capsys.readouterr().out == expected


# rank 6, 20 random columns in [-3, 3]; the limit cone of the full support is {0}
RANK_6_20 = [
    [3, 1, 3, -3, 0, 3], [-1, -3, -3, -2, 2, 1], [0, 3, 2, -1, -1, 3], [-3, -1, 0, 3, -2, 2],
    [3, 0, 1, 1, 2, -3], [-2, 1, 1, 2, 3, 2], [-1, 2, 3, 1, 2, -3], [3, 0, -1, -3, -1, 3],
    [0, 3, -1, 0, 2, -3], [3, -2, 2, 2, 3, -1], [-3, -3, 1, -2, 3, 2], [-1, 0, 3, -2, 1, 1],
    [2, 2, 3, 1, -3, 2], [-1, -2, 1, 0, -1, -1], [1, -3, -3, 1, 2, 1], [-2, -3, 1, 2, -1, -1],
    [2, -2, 0, 0, -2, -2], [1, -2, 3, 3, 2, 1], [-3, -2, 3, -2, -3, 2], [-1, 1, 2, 1, 1, -1],
]


def test_hm_min_over_the_face_cap_is_declined(capsys):
    """sum_{k<6} C(20, k) = 21,700 faces (about 11 s to answer "no
    destabilizer" without the cap); the rank-3 supports above have 137 and
    211 faces and still answer."""
    start = time.perf_counter()
    rc, doc = invoke(["hm-min", "--action", json.dumps({"rank": 6, "weights": RANK_6_20}),
                      "--char", "[1,-1,2,0,1,-2]", "--support", json.dumps(list(range(1, 21)))],
                     capsys)
    assert time.perf_counter() - start < 1
    assert rc == 2 and doc == {
        "error": "the Hilbert-Mumford minimum on 20 coordinates would visit 21700 faces, "
                 "over the cap of 5000",
        "kind": "declined"}


@pytest.mark.parametrize("weights, support", [
    ([[4, 4, 1], [0, 0, 1]], [1, 2]),
    ([[1, 1, 0], [0, 0, 1]], [1, 2]),
    ([[4, 4, 1], [0, 0, 1], [4, 4, 2]], [1, 2, 3]),
])
def test_hm_min_zero_witness_depends_only_on_the_span(capsys, weights, support):
    """The limit cone is the line of (1, -1, 0) and chi = 0 vanishes on it.
    Its witness comes from the echelon basis of the weights' span, so every
    set of weights cutting out that line prints (-1, 1, 0)."""
    rc, doc = invoke(["hm-min", "--action", json.dumps({"rank": 3, "weights": weights}),
                      "--char", "[0,0,0]", "--support", json.dumps(support)], capsys)
    assert rc == 0
    assert doc == {"minimizer": [-1, 1, 0], "no_destabilizer": False,
                   "value": {"sign": 0, "square": 0}}


def test_chamber_check_declines_by_the_coordinate_count(capsys):
    big = json.dumps({"rank": 1, "weights": [[1]] * 21})
    rc, doc = invoke(["verify-chamber", "--action", big, "--char", "[1]"], capsys)
    assert rc == 2
    assert doc == {"error": "21 coordinates exceed the guard (max_dim=20)", "kind": "declined"}


def test_fourier_motzkin_blow_up_on_a_zero_cone_is_declined(capsys):
    # rank 7; the limit cone of the full support is {0}, and one elimination
    # step would produce 3,318,700 rows (22 s to answer `true` without the cap)
    action = json.dumps({"rank": 7, "weights": [
        [3, 0, -1, 3, 2, 2, -1], [-1, 2, -2, 1, 3, -3, 0], [1, 3, -1, -1, 2, -1, 0],
        [-1, 3, 1, 2, 2, 3, -1], [-1, -1, 2, -1, 2, 3, 0], [-1, 3, -2, 3, 3, 2, 0],
        [-1, -1, 1, -2, 1, -2, -2], [3, -1, 3, 0, -1, 2, -3], [-2, -8, -1, -5, -14, -6, 7]]})
    start = time.perf_counter()
    rc, doc = invoke(["semistable", "--action", action, "--char", "[1,-1,2,2,2,1,0]",
                      "--support", "[1,2,3,4,5,6,7,8,9]"], capsys)
    assert time.perf_counter() - start < 3
    assert rc == 2 and doc["kind"] == "declined"
    assert "3318700 rows" in doc["error"]


def test_byte_identical_output(capsys):
    argv = ["desing", "--action", HYPERBOLA, "--verify"]
    rc1 = run(argv)
    out1 = capsys.readouterr().out
    rc2 = run(argv)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0 and out1 == out2


def test_action_json_roundtrip(capsys):
    from torusgit import jsonio
    from torusgit.luna import cubics_slice

    doc = jsonio.dump_action(cubics_slice())
    again = jsonio.dump_action(jsonio.parse_action(doc))
    assert doc == again


def test_graph_json_roundtrip():
    from torusgit import jsonio

    doc = {
        "vertices": [
            {"genus": 0, "in_dm": True, "degrees": {"L_X": "1/2", "L": 1}},
            {"genus": 1, "in_dm": False, "degrees": {"L_X": "1/2", "L": 2}},
        ],
        "edges": [[0, 1, 2]],
        "legs": [[0, 1]],
        "bundles": ["L_X", "L"],
    }
    graph = jsonio.parse_graph(doc)
    assert jsonio.dump_graph(jsonio.parse_graph(jsonio.dump_graph(graph))) == jsonio.dump_graph(graph)

def test_malformed_finite_part_is_an_input_error(capsys):
    action = json.dumps({"rank": 1, "weights": [[1], [-1]], "finite_part": [1]})
    rc, doc = invoke(["semistable", "--action", action, "--char", "[1]",
                      "--support", "[1]"], capsys)
    assert rc == 1 and doc["kind"] == "input"


def test_center_with_fewer_weights_than_coords_is_an_input_error(capsys):
    rc, doc = invoke(["eb", "--action", A2_TRIVIAL,
                      "--center", '{"coords": [1, 2], "weights": [1]}'], capsys)
    assert rc == 1 and doc["kind"] == "input"


def test_non_list_legs_is_an_input_error(capsys):
    graph = json.dumps({"vertices": [{"genus": 0, "in_dm": True, "degrees": {"L_X": 1}}],
                        "legs": 5})
    rc, doc = invoke(["quasimap", "--graph", graph], capsys)
    assert rc == 1 and doc["kind"] == "input"


def test_malformed_psi_is_an_input_error(capsys):
    action = '{"rank": 1, "weights": [[1], [-1]]}'
    rc, doc = invoke(["walls", "--action", action, "--psi", "[1]"], capsys)
    assert rc == 1 and doc["kind"] == "input"


def test_non_integer_psi_entry_is_an_input_error(capsys):
    action = '{"rank": 1, "weights": [[1], [-1]]}'
    rc, doc = invoke(["generic-character", "--action", action, "--psi", '[[1,"a"]]'], capsys)
    assert rc == 1 and doc["kind"] == "input"


def test_every_support_guard_declines_with_one_text(capsys):
    center = '{"coords": [1], "weights": [1]}'
    for limit, argv, dim in (
        (2, ["minimal-values", "--action", HYPERBOLA, "--char", "[1]"], 2),
        (2, ["desing", "--action", HYPERBOLA], 2),
        (4, ["desing", "--action", HYPERBOLA], 3),  # declined at the first blow-up
        (4, ["eb", "--action", HYPERBOLA, "--center", center], 3),
        (4, ["saturate", "--action", HYPERBOLA, "--center", center], 3),
    ):
        rc, doc = invoke(["--max-supports", str(limit), *argv], capsys)
        assert rc == 2, argv
        assert doc == {"error": f"2^{dim} supports exceed --max-supports={limit}",
                       "kind": "declined"}, argv


def test_an_integer_over_the_digit_limit_is_an_input_error(capsys):
    """json.loads raises a plain ValueError, not a JSONDecodeError, for an
    integer literal over the interpreter's 4,300-digit limit."""
    huge = "9" * 5000
    for argv in (["semistable", "--action", HYPERBOLA, "--char", f"[{huge}]", "--support", "[1]"],
                 ["dvr-lift", "--orders", huge]):
        rc, doc = invoke(argv, capsys)
        assert rc == 1 and doc["kind"] == "input", argv
        assert doc["error"].startswith("malformed JSON: "), argv
    rc, doc = invoke(["dvr-lift", "--orders", "[1,"], capsys)
    assert rc == 1 and doc["error"].startswith("malformed JSON: Expecting value")


def test_an_output_integer_over_the_digit_limit_is_declined(capsys):
    """Squares of 2,500-digit characters have 5,000 digits: an integer in the
    JSON document (combine), or the numerator of a "p/q" string (hm-min under
    a norm form with Q^-1 not integral).  One error document, nothing else."""
    nines = "9" * 2500
    normed = '{"rank": 2, "weights": [[1, 0], [0, 1]], "norm_form": [[2, 1], [1, 2]]}'
    for argv in (["combine", "--action", HYPERBOLA, "--char-l", f"[{nines}]",
                  "--char-m", f"[-{nines}]"],
                 ["hm-min", "--action", normed, "--char", f"[{nines}, 1]", "--support", "[]"]):
        rc, doc = invoke(argv, capsys)
        assert rc == 2 and doc["kind"] == "declined", argv
        assert doc["error"].startswith("an output integer is too long to print: "), argv


def test_exponent_notation_in_a_degree_is_an_input_error(capsys):
    # Fraction("1e-99999999") would build 10**99999999 before failing anything
    for degree in ("1e-99999999", "2E3", "1.5e1"):
        graph = json.dumps({"vertices": [{"genus": 0, "in_dm": True,
                                          "degrees": {"L_X": degree}}]})
        start = time.perf_counter()
        rc, doc = invoke(["quasimap", "--graph", graph], capsys)
        assert time.perf_counter() - start < 1.0
        assert rc == 1 and doc == {"error": f"malformed rational {degree!r}: write it as 'p/q'",
                                   "kind": "input"}
    for degree in ("4/2", "2.0"):
        graph = json.dumps({"vertices": [{"genus": 0, "in_dm": True, "degrees": {"L_X": degree}}]})
        rc, doc = invoke(["quasimap", "--graph", graph], capsys)
        assert rc == 0 and doc["class_beta"] == {"L_X": 2}


def test_a_finite_part_generating_s10_is_declined(capsys):
    """A 10-cycle and a transposition generate S_10, 3,628,800 elements; the
    closure stops once it passes the cap."""
    n = 10
    action = json.dumps({"rank": 1, "weights": [[1]] * n, "finite_part": [
        {"perm": [(j + 1) % n + 1 for j in range(n)], "aut": [[1]]},
        {"perm": [2, 1, *range(3, n + 1)], "aut": [[1]]},
    ]})
    rc, doc = invoke(["stabilizer", "--action", action, "--support", "[1,2]"], capsys)
    assert rc == 2 and doc == {
        "error": "the finite part generates more than 100000 elements", "kind": "declined"}
    # the same generators on 5 coordinates give S_5, well under the cap
    action = json.dumps({"rank": 1, "weights": [[1]] * 5, "finite_part": [
        {"perm": [2, 3, 4, 5, 1], "aut": [[1]]}, {"perm": [2, 1, 3, 4, 5], "aut": [[1]]}]})
    rc, doc = invoke(["stabilizer", "--action", action, "--support", "[1,2]"], capsys)
    assert rc == 0 and doc["finite_part_order"] == 12  # S_2 x S_3 fixes {1, 2}
