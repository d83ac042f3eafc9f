import json

import pytest

from crepant import toric
from crepant.cli import (
    EXIT_CAP,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    ParseError,
    main,
    parse_entry,
    parse_h_generator,
    parse_matrix,
    parse_permutation,
)
from crepant.exactmath import CycloInt


def run(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    try:
        return rc, json.loads(out)
    except json.JSONDecodeError:
        return rc, None


def test_parse_entry():
    assert parse_entry("0").is_zero()
    assert parse_entry("-1") == CycloInt.from_int(-1)
    assert parse_entry("z5^2") == CycloInt.zeta(5, 2)
    assert parse_entry("z3^1-z3^2") == CycloInt.zeta(3) - CycloInt.zeta(3, 2)


def test_parse_matrix_and_perm():
    m = parse_matrix("[[0,1],[-1,0]]")
    assert m.n == 2
    p = parse_permutation("(1 2)(3 4)", 5)
    assert p.perm == (1, 0, 3, 2, 4)
    assert parse_permutation("id", 3).perm == (0, 1, 2)
    assert parse_h_generator("1,2,2@5") == ((1, 2, 2), 5)


def test_group_fixture_binary_tetrahedral(capsys):
    rc, rep = run(["group", "--fixture", "binary-tetrahedral"], capsys)
    assert rc == EXIT_OK
    assert rep["results"]["classes"] == 7
    assert rep["results"]["invariant_classes"] == 3


def test_group_fixture_cyclic_swap(capsys):
    rc, rep = run(["group", "--fixture", "cyclic", "--n", "4", "--action", "swap"], capsys)
    assert rc == EXIT_OK
    assert rep["results"]["invariant_classes"] == 2


def test_group_explicit_generators(capsys):
    rc, rep = run(["group", "--gens", "[[z1^0]]"], capsys)
    assert rc == EXIT_OK
    assert rep["results"]["order"] == 1
    assert rep["results"]["classes"] == 1


def test_group_explicit_generators_with_symmetry(capsys):
    rc, rep = run(
        [
            "group",
            "--gens",
            "[[z4^1,0],[0,z4^3]]",
            "--h",
            "[[0,1],[-1,0]]",
        ],
        capsys,
    )
    assert rc == EXIT_OK
    assert rep["results"]["order"] == 4
    assert rep["results"]["invariant_classes"] == 2


def test_toric_fixture_z5sq(capsys):
    rc, rep = run(["toric", "--fixture", "z5sq-cycle"], capsys)
    assert rc == EXIT_OK
    res = rep["results"]
    assert res["lefschetz"] == 1
    assert res["fixed_count"] == 1
    assert res["crepant"] is True
    assert res["simplex_count"] == 25


def test_toric_generic_n2(capsys):
    rc, rep = run(["toric", "--n", "2", "--gen", "1,1@2", "--perm", "(1 2)"], capsys)
    assert rc == EXIT_OK
    assert rep["results"]["lefschetz"] == 2
    assert rep["results"]["fixed_count"] == 2

    rc, rep = run(["toric", "--n", "2", "--gen", "", "--perm", "(1 2)"], capsys)
    assert rc == EXIT_OK
    assert rep["results"]["lefschetz"] == 1


def test_toric_save_and_load(tmp_path, capsys):
    path = tmp_path / "tri.json"
    rc, _ = run(["toric", "--fixture", "z5sq-cycle", "--save", str(path)], capsys)
    assert rc == EXIT_OK
    rc, rep = run(["toric", "--load", str(path), "--perm", "(1 2 3)"], capsys)
    assert rc == EXIT_OK
    assert rep["results"]["crepant"] is True
    assert rep["results"]["lefschetz"] == 1
    assert rep["results"]["simplices"] == 25


def test_orbifold_fixtures(capsys):
    rc, rep = run(["orbifold", "--fixture", "quintic-swap"], capsys)
    assert rc == EXIT_OK
    assert rep["results"]["lefschetz"] == 56
    rc, rep = run(["orbifold", "--fixture", "quintic-swap-two-pairs"], capsys)
    assert rep["results"]["lefschetz"] == 8
    rc, rep = run(["orbifold", "--fixture", "lt-complete-intersection"], capsys)
    assert rep["results"]["lefschetz"] == 16
    assert rep["results"]["compatible_classes"] == 9


def test_orbifold_sheet_file(tmp_path, capsys):
    doc = {
        "group_order": 1,
        "classes": [
            {
                "label": "e",
                "size": 1,
                "centralizer_order": 1,
                "in_ch": True,
                "euler_quotient": 1,
                "lefschetz_quotient": 1,
                "provenance": {"euler_quotient": "trivial"},
            }
        ],
    }
    path = tmp_path / "point.sheet"
    path.write_text(json.dumps(doc))
    rc, rep = run(["orbifold", "--sheet", str(path)], capsys)
    assert rc == EXIT_OK
    assert rep["results"]["euler"] == 1
    assert rep["results"]["lefschetz"] == 1


def test_orbifold_schema_violation(tmp_path, capsys):
    path = tmp_path / "bad.sheet"
    path.write_text(json.dumps({"group_order": 2, "classes": []}))
    rc, _ = run(["orbifold", "--sheet", str(path)], capsys)
    assert rc == EXIT_PARSE


def test_exit_codes(capsys):
    assert run(["group", "--gens", "[[zoo]]"], capsys)[0] == EXIT_PARSE
    assert run(["group", "--fixture", "quintic", "--cap", "10"], capsys)[0] == EXIT_CAP
    assert (
        run(["toric", "--n", "4", "--gen", "1,1,1,1@2", "--perm", "id"], capsys)[0]
        == EXIT_UNSUPPORTED
    )


def test_verify_single_checks(capsys):
    rc, rep = run(["verify", "--only", "blockdet"], capsys)
    assert rc == EXIT_OK
    assert rep["checks"]["blockdet"] == "pass"
    vals = rep["results"]["blockdet"]["values"]
    assert vals["1"] == 0 and all(vals[str(s)] == s + 1 for s in range(2, 13))

    rc, rep = run(["verify", "--only", "mckay2d", "--max-n", "12"], capsys)
    assert rc == EXIT_OK
    rows = rep["results"]["mckay2d"]["rows"]
    assert len(rows) == 12
    assert all(r["lefschetz"] == r["fixed"] == r["invariant_classes"] for r in rows)


def test_verify_parity_open_question(capsys):
    rc, rep = run(["verify", "--only", "parity43"], capsys)
    assert rc == EXIT_OK  # open questions are not failures
    assert rep["checks"]["parity43"] == "open-question"
    rows = rep["results"]["parity43"]["rows"]
    engine = {r["n"]: r["engine"] for r in rows}
    quoted = {r["n"]: r["quoted"] for r in rows}
    assert all(engine[n] == (2 if n % 2 == 0 else 1) for n in engine)
    assert all(quoted[n] == (1 if n % 2 == 0 else 2) for n in quoted)
    assert not any(r["agree"] for r in rows)


def test_verify_full_sweep(capsys):
    rc, rep = run(["verify", "--seed", "7", "--count", "6", "--max-n", "8"], capsys)
    assert rc == EXIT_OK
    statuses = set(rep["checks"].values())
    assert "fail" not in statuses
    assert rep["checks"]["parity43"] == "open-question"
    assert all(
        rep["checks"][name] == "pass"
        for name in rep["checks"]
        if name != "parity43"
    )


def test_verify_determinism(capsys):
    rc1, rep1 = run(["verify", "--only", "blockdet", "--seed", "7"], capsys)
    rc2, rep2 = run(["verify", "--only", "blockdet", "--seed", "7"], capsys)
    rep1.pop("wall_time_ms")
    rep2.pop("wall_time_ms")
    assert rc1 == rc2 == EXIT_OK
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_toric_identity_perm_n3(capsys):
    rc, rep = run(["toric", "--n", "3", "--gen", "1,1,18@20", "--perm", "id"], capsys)
    assert rc == EXIT_OK
    res = rep["results"]
    assert res["adjusted"] is True and res["crepant"] is True
    assert res["lefschetz"] == res["fixed_count"] == res["simplex_count"] == 20


def test_zero_conductor_is_a_parse_error(capsys):
    with pytest.raises(ParseError):
        parse_entry("z0")
    rc = main(["group", "--gens", "[[z0]]"])
    err = capsys.readouterr().err
    assert rc == EXIT_PARSE
    assert err.startswith("error:") and err.count("\n") == 1


def test_degenerate_orbit_is_an_input_error(monkeypatch, capsys):
    def no_core(*args, **kwargs):
        raise toric.DegenerateOrbit("no area-one invariant core triangle exists")

    monkeypatch.setattr(toric, "adjusted_triangulation", no_core)
    rc = main(["toric", "--fixture", "z5sq-cycle"])
    err = capsys.readouterr().err
    assert rc == EXIT_PARSE
    assert err == "error: no area-one invariant core triangle exists\n"
