import contextlib
import copy
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant import cli
from crepant.cli import (
    EXIT_CAP,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PIPE,
    EXIT_UNSUPPORTED,
    ParseError,
    _class_equation_holds,
    main,
    parse_entry,
    parse_h_generator,
    parse_matrix,
    parse_permutation,
)
from crepant import exactmath, groups, orbifold, toric
from crepant.exactmath import CycloInt, IntMat, Record
from crepant.fixtures import (
    binary_dihedral,
    binary_tetrahedral,
    cyclic_group,
    cyclic_swap_symmetry,
    d4_triality,
)
from crepant.groups import ConjClassSet, conjugacy_classes


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


# ---------------------------------------------------------------------------
# reference: the hand-written entry scanner that the entry grammar replaced.
# It reads any run of signs as their product and a term right after another
# as a sum, so it accepts 'z4^3-', '3z4', 'z4z4' and '--3'.


def _reference_parse_entry(token: str) -> CycloInt:
    token = token.strip()
    if not token:
        raise ParseError("empty matrix entry")
    out = CycloInt.from_int(0)
    i = 0
    sign = 1
    started = False
    while i < len(token):
        ch = token[i]
        if ch == "+":
            sign, i = 1, i + 1
            continue
        if ch == "-":
            sign, i = -1, i + 1
            continue
        if ch == "z":
            j = i + 1
            while j < len(token) and token[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"bad root token in {token!r}")
            m = int(token[i + 1 : j])
            if m < 1:
                raise ParseError(f"root of unity z{m} in {token!r} needs a conductor >= 1")
            k = 1
            if j < len(token) and token[j] == "^":
                j += 1
                start = j
                while j < len(token) and token[j].isdigit():
                    j += 1
                if j == start:
                    raise ParseError(f"bad exponent in {token!r}")
                k = int(token[start:j])
            term = CycloInt.zeta(m, k)
            out = out + (term if sign > 0 else -term)
            i = j
        elif ch.isdigit():
            j = i
            while j < len(token) and token[j].isdigit():
                j += 1
            out = out + sign * int(token[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in entry {token!r}")
        sign = 1
        started = True
    if not started:
        raise ParseError(f"empty matrix entry {token!r}")
    return out


_ROOT = st.builds(
    "z{}{}".format, st.integers(1, 12), st.sampled_from(["", "^0", "^1", "^5", "^17"])
)
_TERMS = st.lists(
    st.one_of(st.integers(0, 999).map(str), st.just("007"), _ROOT), min_size=1, max_size=4
)
_SIGNS = st.sampled_from("+-")


@st.composite
def _signed_sum(draw) -> list[str]:
    """The pieces of a well-formed entry: an optional sign, then terms with
    one sign before every later term."""
    terms = draw(_TERMS)
    pieces = [draw(st.sampled_from(["", "+", "-"])), terms[0]]
    for term in terms[1:]:
        pieces += [draw(_SIGNS), term]
    return pieces


@settings(max_examples=200, deadline=None)
@given(pieces=_signed_sum(), pad=st.sampled_from(["", " ", "\t"]))
def test_well_formed_entries_parse_as_the_reference_does(pieces, pad):
    text = pad + "".join(pieces) + pad
    assert parse_entry(text) == _reference_parse_entry(text)


@settings(max_examples=200, deadline=None)
@given(
    pieces=_signed_sum(),
    root=_ROOT,
    sign=_SIGNS,
    fault=st.sampled_from(["juxtaposed", "doubled", "dangling"]),
    data=st.data(),
)
def test_malformed_entries_are_refused_only_by_the_grammar(pieces, root, sign, fault, data):
    """A root right after a term, two signs in a row and a sign with no term
    after it: the reference reads each as a value, the grammar refuses it."""
    terms = len(pieces) // 2
    if fault == "juxtaposed":
        pieces.insert(data.draw(st.integers(0, terms - 1)) * 2 + 2, root)  # right after a term
    elif fault == "doubled":
        i = data.draw(st.integers(0, terms - 1)) * 2  # the sign before a term
        pieces[i] = sign + (pieces[i] or sign)
    else:
        pieces.append(sign)
    text = "".join(pieces)
    _reference_parse_entry(text)
    try:
        parse_entry(text)
    except ParseError as exc:
        assert str(exc).startswith(f"matrix entry {text!r} is not a signed sum")
    else:
        raise AssertionError(f"{text!r} was read as an entry")


def test_the_refusal_property_sees_an_empty_sign_between_terms(monkeypatch):
    # the mutation: a term may follow another with no sign between them
    mutated = cli._ENTRY.replace(")(?:[+-]", ")(?:[+-]?")
    assert mutated.count("[+-]?") == 2
    monkeypatch.setattr(cli, "_ENTRY", mutated)
    with pytest.raises(AssertionError, match="was read as an entry"):
        test_malformed_entries_are_refused_only_by_the_grammar()


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


def _set_vertex(text):
    def mutate(doc):
        doc["vertices"][3] = text

    return mutate


def _set_index(value):
    def mutate(doc):
        doc["simplices"][2][1] = value

    return mutate


@pytest.mark.parametrize(
    "mutate,named",
    [
        (_set_vertex("1/0,0,1"), "vertex 3 '1/0,0,1'"),
        (_set_index(99), "index 99 of simplex 2"),
        (_set_index("a"), "index 'a' of simplex 2"),
        (lambda doc: doc.pop("lattice"), "'lattice'"),
        (_set_vertex(5), "vertex 3 5 is not"),
        (_set_vertex("0,0,0,1"), "vertex 3 '0,0,0,1'"),
        (_set_index(-1), "index -1 of simplex 2"),
        (lambda doc: doc["lattice"].update(n=-1), "lattice n must be at least 1, not -1"),
        (lambda doc: doc["lattice"].update(n=0), "lattice n must be at least 1, not 0"),
        (lambda doc: doc.update(simplexes=doc["simplices"]), "'simplexes' is not a key"),
        (lambda doc: doc["lattice"].update(gens=[]), "'gens' is not a key of the lattice"),
    ],
    ids=[
        "zero-denominator",
        "index-past-the-end",
        "index-not-an-integer",
        "no-lattice",
        "vertex-not-a-string",
        "four-coordinates",
        "negative-index",
        "negative-dimension",
        "zero-dimension",
        "unknown-top-level-key",
        "unknown-lattice-key",
    ],
)
def test_toric_load_rejects_a_malformed_document(tmp_path, capsys, mutate, named):
    path = tmp_path / "tri.json"
    assert run(["toric", "--fixture", "z5sq-cycle", "--save", str(path)], capsys)[0] == EXIT_OK
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    rc = main(["toric", "--load", str(path), "--perm", "(1 2 3)"])
    captured = capsys.readouterr()
    assert rc == EXIT_PARSE and captured.out == ""
    assert captured.err.count("\n") == 1 and named in captured.err


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


def _sheet_with_pairs():
    # two points swapped by the group of order two, with the identity symmetry
    return {
        "group_order": 2,
        "classes": [
            {"label": "e", "size": 1, "centralizer_order": 2, "in_ch": True,
             "euler_quotient": 1, "lefschetz_quotient": 1,
             "provenance": {"euler_quotient": "derived"}},
            {"label": "g", "size": 1, "centralizer_order": 2, "in_ch": False,
             "euler_quotient": 0},
        ],
        "strata": [
            {"label": "free", "stabilizer_order": 1, "euler_stratum": 2,
             "lefschetz_stratum": 2, "h_invariant": True, "con_h": 1},
        ],
        "commuting_pairs": [["e", "e", 2], ["e", "g", 0], ["g", "e", 0], ["g", "g", 0]],
    }


def _run_sheet(doc, tmp_path, capsys):
    path = tmp_path / "doc.sheet"
    path.write_text(json.dumps(doc))
    rc = main(["orbifold", "--sheet", str(path)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_orbifold_sheet_with_pairs_passes(tmp_path, capsys):
    rc, out, _ = _run_sheet(_sheet_with_pairs(), tmp_path, capsys)
    assert rc == EXIT_OK
    assert json.loads(out)["results"]["euler"] == 1


@pytest.mark.parametrize("where,key", [("classes", "in_ch"), ("strata", "h_invariant")])
def test_orbifold_sheet_rejects_non_boolean_flags(tmp_path, capsys, where, key):
    doc = _sheet_with_pairs()
    doc[where][0][key] = "false"  # a string, which bool() would read as True
    rc, out, err = _run_sheet(doc, tmp_path, capsys)
    label = doc[where][0]["label"]
    assert rc == EXIT_PARSE and out == ""
    assert err.count("\n") == 1 and f"{key} of {label!r}" in err and "'false'" in err


def test_orbifold_sheet_rejects_unknown_provenance_tag(tmp_path, capsys):
    doc = _sheet_with_pairs()
    doc["classes"][1]["provenance"] = {"euler_quotient": "quoted"}
    rc, out, err = _run_sheet(doc, tmp_path, capsys)
    assert rc == EXIT_PARSE and out == ""
    assert err.count("\n") == 1 and "class 'g'" in err and "'quoted'" in err
    # the key is quoted too, so a key that holds a line break stays on the one line
    doc["classes"][1]["provenance"] = {"euler\nquotient": "quoted"}
    rc, out, err = _run_sheet(doc, tmp_path, capsys)
    assert rc == EXIT_PARSE and err.count("\n") == 1 and "'euler\\nquotient'" in err


def test_orbifold_sheet_rejects_pair_naming_no_class(tmp_path, capsys):
    doc = _sheet_with_pairs()
    # keeps the double count equal, so only the label check can refuse it
    doc["commuting_pairs"].append(["nope", "nada", 0])
    rc, out, err = _run_sheet(doc, tmp_path, capsys)
    assert rc == EXIT_PARSE and out == ""
    assert err.count("\n") == 1 and "label 'nope' names no class" in err


def test_orbifold_sheet_rejects_duplicated_pair(tmp_path, capsys):
    doc = _sheet_with_pairs()
    # a repeated zero keeps the double count equal; a dict would keep the last
    doc["commuting_pairs"].append(["g", "e", 0])
    rc, out, err = _run_sheet(doc, tmp_path, capsys)
    assert rc == EXIT_PARSE and out == ""
    assert err.count("\n") == 1 and "commuting pair ['g', 'e'] appears more than once" in err


def test_orbifold_sheet_rejects_missing_pair(tmp_path, capsys):
    doc = _sheet_with_pairs()
    del doc["commuting_pairs"][2]  # ["g", "e", 0]: the double count stays equal
    rc, out, err = _run_sheet(doc, tmp_path, capsys)
    assert rc == EXIT_PARSE and out == ""
    assert err.count("\n") == 1 and "commuting pair ['g', 'e'] is missing" in err


def _set_group_order(doc, value):
    doc["group_order"] = value
    return "group_order"


def _set_pair_value(doc, value):
    doc["commuting_pairs"][1][2] = value
    return "['e', 'g']"


def _set_field(where, key):
    def setter(doc, value):
        doc[where][-1][key] = value
        return f"{key} of {doc[where][-1]['label']!r}"

    return setter


# one case per family of integer fields: required class and stratum counts,
# the optional Euler/Lefschetz values, fixed_dim, the group order and the
# commuting-pair values
@pytest.mark.parametrize(
    "setter,value",
    [
        (_set_field("classes", "size"), 1.9),
        (_set_field("classes", "centralizer_order"), True),
        (_set_field("classes", "euler_quotient"), "0"),
        (_set_field("strata", "lefschetz_stratum"), 2.0),
        (_set_field("strata", "stabilizer_order"), "1"),
        (_set_field("strata", "con_h"), 1.5),
        (_set_field("classes", "fixed_dim"), "x"),
        (_set_group_order, 2.0),
        (_set_pair_value, False),
    ],
    ids=[
        "size",
        "centralizer_order",
        "euler_quotient",
        "lefschetz_stratum",
        "stabilizer_order",
        "con_h",
        "fixed_dim",
        "group_order",
        "pair_value",
    ],
)
def test_orbifold_sheet_rejects_non_integral_numbers(tmp_path, capsys, setter, value):
    doc = _sheet_with_pairs()
    where = setter(doc, value)
    rc, out, err = _run_sheet(doc, tmp_path, capsys)
    assert rc == EXIT_PARSE and out == ""
    assert err.count("\n") == 1 and where in err and repr(value) in err


def _zero_group_order(doc):
    # no classes, so the class sums agree; the chain stage would divide by zero
    doc.update(group_order=0, classes=[], commuting_pairs=[])
    return "group_order must be positive, not 0"


def _negative_group_order(doc):
    # sizes and centralizers that multiply to the order and sum to it
    doc["group_order"] = -2
    for c in doc["classes"]:
        c["size"] = -1
    return "group_order must be positive, not -2"


def _duplicate_label(doc):
    doc["classes"][1]["label"] = "e"
    del doc["commuting_pairs"]
    return "class e: label appears more than once"


def _duplicate_stratum_label(doc):
    doc["strata"].append(dict(doc["strata"][0]))
    return "stratum free: label appears more than once"


def _non_positive(where, key, value):
    def mutate(doc):
        doc[where][-1][key] = value
        kind = "class" if where == "classes" else "stratum"
        return f"{kind} {doc[where][-1]['label']}: {key} must be positive, not {value}"

    return mutate


def _zero_stabilizer_order(doc):
    # with no invariant class counted, the stratum passes the con_h check
    doc["strata"][0]["con_h"] = 0
    return _non_positive("strata", "stabilizer_order", 0)(doc)


def _negative_con_h(doc):
    doc["strata"][0]["con_h"] = -1
    return "stratum free: con_h must not be negative, not -1"


def _stabilizer_not_dividing(doc):
    doc["strata"][0].update(stabilizer_order=3, con_h=0)
    return "stratum free: stabilizer_order 3 does not divide group_order 2"


def _negative_fixed_dim(doc):
    doc["classes"][1]["fixed_dim"] = -4
    return "class g: fixed_dim must not be negative, not -4"


@pytest.mark.parametrize(
    "mutate",
    [
        _zero_group_order,
        _negative_group_order,
        _duplicate_label,
        _duplicate_stratum_label,
        _non_positive("classes", "size", 0),
        _non_positive("classes", "centralizer_order", -2),
        _zero_stabilizer_order,
        _negative_con_h,
        _stabilizer_not_dividing,
        _negative_fixed_dim,
    ],
    ids=[
        "zero_group_order",
        "negative_group_order",
        "duplicate_label",
        "duplicate_stratum_label",
        "zero_size",
        "negative_centralizer_order",
        "zero_stabilizer_order",
        "negative_con_h",
        "stabilizer_not_dividing",
        "negative_fixed_dim",
    ],
)
def test_orbifold_sheet_rejects_impossible_orders_and_labels(tmp_path, capsys, mutate):
    doc = _sheet_with_pairs()
    message = mutate(doc)
    rc, out, err = _run_sheet(doc, tmp_path, capsys)
    assert rc == EXIT_PARSE and out == ""
    assert err.count("\n") == 1 and message in err


# every container of a sheet document has one shape, and a refusal names its key,
# label or pair
@pytest.mark.parametrize(
    "mutate,named",
    [
        (lambda doc: doc.update(strata=None), "strata must be a list of objects, not None"),
        (lambda doc: doc.update(classes={}), "classes must be a list of objects, not {}"),
        (lambda doc: doc.pop("classes"), "classes must be a list of objects, not None"),
        (lambda doc: doc["classes"].append(3), "classes[2] must be an object, not 3"),
        (lambda doc: doc["strata"].append([]), "strata[1] must be an object, not []"),
        (lambda doc: doc.update(metadata="x"), "metadata must be an object, not 'x'"),
        (lambda doc: doc.update(metadata=[]), "metadata must be an object, not []"),
        (
            lambda doc: doc["classes"][1].update(provenance="xy"),
            "provenance of 'g' must be an object, not 'xy'",
        ),
        (
            lambda doc: doc["classes"][1].update(provenance=[["euler_quotient", "derived"]]),
            "provenance of 'g' must be an object, not [['euler_quotient', 'derived']]",
        ),
        (
            lambda doc: doc["commuting_pairs"][1].append(1),
            "commuting pair ['e', 'g', 0, 1] is not [a, b, value]",
        ),
        (
            lambda doc: doc["commuting_pairs"].append(["e", 7, 0]),
            "commuting pair ['e', 7, 0] is not [a, b, value]",
        ),
        (
            lambda doc: doc.update(commuting_pairs={"e": 1}),
            "commuting_pairs must be a list of [a, b, value], not {'e': 1}",
        ),
        (lambda doc: doc["classes"][1].pop("label"), "label of classes[1] is missing"),
        (
            lambda doc: doc["classes"][1].update(label=7),
            "label of classes[1] must be a string, not 7",
        ),
        (lambda doc: doc["classes"][1].pop("size"), "size of 'g' is missing"),
        (lambda doc: doc["strata"][0].pop("h_invariant"), "h_invariant of 'free' is missing"),
        (
            lambda doc: doc["classes"][1].update(euler_quotent=0),
            "'euler_quotent' of 'g' is not a ClassRecord field",
        ),
        (
            lambda doc: doc["strata"][0].update(con=0),
            "'con' of 'free' is not a StratumRecord field",
        ),
        (
            lambda doc: doc["classes"][1].update(label=7, extra=1),
            "'extra' of classes[1] is not a ClassRecord field",
        ),
        (
            lambda doc: doc.update(comuting_pairs=doc.pop("commuting_pairs")),
            "'comuting_pairs' is not a GSpaceSheet field",
        ),
    ],
    ids=[
        "null_strata",
        "object_classes",
        "absent_classes",
        "class_not_an_object",
        "stratum_not_an_object",
        "string_metadata",
        "list_metadata",
        "string_provenance",
        "pair_list_provenance",
        "four_entry_pair",
        "pair_label_not_a_string",
        "object_pairs",
        "absent_label",
        "label_not_a_string",
        "absent_size",
        "absent_h_invariant",
        "misspelt_class_key",
        "misspelt_stratum_key",
        "unknown_key_of_unlabelled_class",
        "misspelt_pairs_key",
    ],
)
def test_orbifold_sheet_refuses_malformed_containers(tmp_path, capsys, mutate, named):
    doc = _sheet_with_pairs()
    mutate(doc)
    rc, out, err = _run_sheet(doc, tmp_path, capsys)
    assert rc == EXIT_PARSE and out == ""
    assert err.count("\n") == 1 and named in err


def test_orbifold_sheet_error_is_the_reader_line(tmp_path, capsys):
    doc = _sheet_with_pairs()
    doc["classes"][1]["size"] = 1.9
    _, _, err = _run_sheet(doc, tmp_path, capsys)
    assert err == "error: size of 'g' must be an integer, not 1.9\n"


def test_orbifold_sheet_accepts_integer_and_null_fixed_dim(tmp_path, capsys):
    doc = _sheet_with_pairs()
    doc["classes"][0]["fixed_dim"] = 0
    doc["classes"][1]["fixed_dim"] = None
    rc, out, _ = _run_sheet(doc, tmp_path, capsys)
    assert rc == EXIT_OK


def test_saved_quintic_sheet_round_trips(tmp_path, capsys):
    path = tmp_path / "quintic.sheet"
    rc, first = run(["orbifold", "--fixture", "quintic-swap", "--save", str(path)], capsys)
    assert rc == EXIT_OK
    rc, again = run(["orbifold", "--sheet", str(path)], capsys)
    assert rc == EXIT_OK
    assert again["results"] == first["results"]


# the document-mutation property: one node of a saved document replaced or
# deleted, and the document read back through main


_LOADERS = {
    "toric": ["toric", "--load", "{}", "--perm", "(1 2 3)"],
    "sheet": ["orbifold", "--sheet", "{}"],
}
_DELETE = object()
# replacement values: any JSON, with strings that read as coordinates among
# them.  Integers stay small: a replaced modulus sets |N/M|, which grows as a
# power of it, and the property is about malformed documents, not large ones.
_COORDINATE = st.integers(-2, 7).map(str) | st.builds(
    "{}/{}".format, st.integers(-2, 7), st.integers(-1, 7)
)
_COORDINATES = st.lists(_COORDINATE, min_size=1, max_size=4).map(",".join)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60) | st.floats() | st.text(max_size=8)
    | _COORDINATES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _node_paths(node, path=()):
    """The path of every node of a JSON tree, the root's () first."""
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for k, child in items:
            yield from _node_paths(child, path + (k,))


def _mutated(doc, path, value):
    """A copy of doc with the node at path replaced by value, or deleted for _DELETE."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def saved_documents(tmp_path_factory):
    """A folder and the saved z5sq-cycle triangulation and point sheet, parsed."""
    folder = tmp_path_factory.mktemp("documents")
    saves = {
        "toric": ["toric", "--fixture", "z5sq-cycle", "--save"],
        "sheet": ["orbifold", "--fixture", "point", "--save"],
    }
    docs = {}
    for kind, argv in saves.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, str(folder / kind)]) == EXIT_OK
        docs[kind] = json.loads((folder / kind).read_text())
    return folder, docs


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_LOADERS)))
def test_a_mutated_document_exits_with_a_verdict(saved_documents, data, kind):
    folder, docs = saved_documents
    path = data.draw(st.sampled_from(list(_node_paths(docs[kind]))))
    value = data.draw(_JSON_VALUES | st.just(_DELETE) if path else _JSON_VALUES)
    target = folder / f"mutated-{kind}"
    target.write_text(json.dumps(_mutated(docs[kind], path, value)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([a.format(target) for a in _LOADERS[kind]])
    assert rc in (EXIT_OK, EXIT_FAIL, EXIT_PARSE), (path, value, err.getvalue())
    if rc == EXIT_PARSE:
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1, err.getvalue()


def test_input_digest_covers_the_input_document(tmp_path, capsys):
    # the same path, hence the same argv, with different contents
    path = tmp_path / "doc.sheet"
    argv = ["orbifold", "--sheet", str(path)]
    digests = []
    for euler in (1, 1, 3):
        doc = _sheet_with_pairs()
        doc["strata"][0]["euler_stratum"] = euler
        path.write_text(json.dumps(doc))
        rc, rep = run(argv, capsys)
        assert rc == EXIT_OK
        digests.append(rep["input_digest"])
    assert digests[0] == digests[1] != digests[2]

    tri = tmp_path / "tri.json"
    assert run(["toric", "--fixture", "z5sq-cycle", "--save", str(tri)], capsys)[0] == EXIT_OK
    loads = []
    for text in (tri.read_text(), tri.read_text() + "\n"):
        tri.write_text(text)
        rc, rep = run(["toric", "--load", str(tri)], capsys)
        assert rc == EXIT_OK
        loads.append(rep["input_digest"])
    assert loads[0] != loads[1]


def test_input_digest_of_a_command_without_input_file_hashes_argv_only(capsys):
    argv = ["orbifold", "--fixture", "point"]
    rc, rep = run(argv, capsys)
    assert rc == EXIT_OK
    blob = json.dumps({"command": ["crepant"] + argv}, sort_keys=True).encode()
    assert rep["input_digest"] == hashlib.sha256(blob).hexdigest()[:16]


def test_orbifold_schema_violation(tmp_path, capsys):
    path = tmp_path / "bad.sheet"
    path.write_text(json.dumps({"group_order": 2, "classes": []}))
    rc, _ = run(["orbifold", "--sheet", str(path)], capsys)
    assert rc == EXIT_PARSE


# each of these exited 0: the entry scanner read 'z4^3-' as z4^3, '1z4' as
# 1 + z4, 'z4z4' as 2 z4 and '--1' as -1, a generator number went through
# int() ('1_0' as 10, Arabic-Indic digits), and a flag beside --load,
# --fixture or --gens was ignored ('--load ... --save' wrote nothing)
REFUSED = [
    (["group", "--gens", "[[z4,0],[0,z4^3-]]"], "matrix entry 'z4^3-' is not a signed sum"),
    (["group", "--gens", "[[1z4-1]]"], "matrix entry '1z4-1' is not a signed sum"),
    (["group", "--gens", "[[z4z4-z4]]"], "matrix entry 'z4z4-z4' is not a signed sum"),
    (["group", "--gens", "[[--1]]"], "matrix entry '--1' is not a signed sum"),
    (["group", "--gens", "[[1]]", "--h", "[[+-1]]"], "matrix entry '+-1' is not a signed sum"),
    (["toric", "--n", "3", "--gen", "1_0,1,1@12"], "generator '1_0,1,1@12' must look like"),
    (["toric", "--n", "3", "--gen", "1,1,1_0@12"], "generator '1,1,1_0@12' must look like"),
    (["toric", "--n", "3", "--gen", "\u0661,1,1@3"], "generator '\u0661,1,1@3' must look like"),
    (["group", "--fixture", "quintic", "--gens", "[[1]]"], "--fixture cannot be combined with"),
    (["group", "--fixture", "quintic", "--h", "[[1]]"], "--fixture cannot be combined with --h"),
    (["orbifold", "--fixture", "point", "--sheet", "{tri}"], "--fixture cannot be combined with"),
    (["toric", "--load", "{tri}", "--fixture", "z5sq-cycle"], "--load cannot be combined with"),
    (["toric", "--load", "{tri}", "--n", "2"], "--load cannot be combined with --n"),
    (["toric", "--load", "{tri}", "--gen", "1,1@2"], "--load cannot be combined with --gen"),
    (["toric", "--load", "{tri}", "--save", "{out}"], "--load cannot be combined with --save"),
    (["toric", "--fixture", "z5sq-cycle", "--perm", "(1 2)"], "--fixture cannot be combined"),
    (["toric", "--load", "{tri}", "--order", "revlex"], "--load cannot be combined with --order"),
    (["group", "--gens", "[[z4^1,0],[0,z4^3]]", "--action", "flip", "--r", "7"], "--gens cannot"),
    (["group", "--fixture", "quintic", "--n", "5", "--r", "9"], "--fixture cannot be combined"),
    (["group", "--fixture", "binary-tetrahedral", "--action", "flip"], "--fixture cannot be"),
    # fixture aliases that were removed
    (["group", "--fixture", "lt-complete-intersection"], "unknown group fixture 'lt-complete-"),
    (["group", "--fixture", "complete-intersection"], "unknown group fixture 'complete-"),
    (["orbifold", "--fixture", "complete-intersection"], "unknown orbifold fixture 'complete-"),
    (["orbifold", "--fixture", "quintic-double-swap"], "unknown orbifold fixture 'quintic-"),
    # the construction names the basis vector that the symmetry maps out of N,
    # as the Lefschetz sum does
    (
        ["toric", "--n", "3", "--gen", "1,0,2@3", "--perm", "(1 2)"],
        "symmetry maps the basis vector (1/3, 0, 2/3) out of the lattice\n",
    ),
]


def test_exit_codes(tmp_path, capsys):
    assert run(["group", "--gens", "[[zoo]]"], capsys)[0] == EXIT_PARSE
    assert run(["group", "--fixture", "quintic", "--cap", "10"], capsys)[0] == EXIT_CAP
    assert (
        run(["toric", "--n", "4", "--gen", "1,1,1,1@2", "--perm", "id"], capsys)[0]
        == EXIT_UNSUPPORTED
    )
    assert run(["toric", "--n", "1"], capsys)[0] == EXIT_UNSUPPORTED
    paths = {"tri": str(tmp_path / "tri.json"), "out": str(tmp_path / "out.json")}
    rc, _ = run(["toric", "--n", "2", "--gen", "1,1@2", "--save", paths["tri"]], capsys)
    assert rc == EXIT_OK
    for argv, message in REFUSED:
        rc = main([a.format(**paths) for a in argv])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE and captured.out == "", argv
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert not os.path.exists(paths["out"])


@pytest.mark.parametrize("qualname", sorted(cli.EXIT_BY_ERROR))
def test_every_error_with_an_exit_code_is_an_exception_class(qualname):
    # a class renamed or moved would silently turn its exit code into 5
    module, _, name = qualname.rpartition(".")
    cls = getattr(importlib.import_module(module), name)
    assert isinstance(cls, type) and issubclass(cls, Exception)


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "--fixture", "cyclic", "--n", "4", "--out"],
        ["toric", "--load"],
        ["toric", "--n", "2", "--gen", "1,1@2", "--perm", "(1 2)", "--save"],
        ["toric", "--n", "2", "--gen", "1,1@2", "--perm", "(1 2)", "--out"],
        ["orbifold", "--sheet"],
        ["orbifold", "--fixture", "point", "--save"],
        ["orbifold", "--fixture", "point", "--out"],
        ["verify", "--seed", "7", "--only", "ade", "--out"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-1:]),
)
def test_a_directory_path_is_an_input_error(tmp_path, capsys, argv):
    # a path that cannot be opened is the caller's error, not an internal one
    rc = main(argv + [str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_PARSE
    assert err.startswith("error: ") and err.count("\n") == 1 and "Is a directory" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_toric_dimension_below_one_is_a_parse_error(capsys, n):
    rc = main(["toric", "--n", n])
    captured = capsys.readouterr()
    assert rc == EXIT_PARSE and captured.out == ""
    assert captured.err == f"error: --n {n} is not a dimension >= 1\n"


# each of these was misread as another permutation or failed with a message
# that did not name the text: (1 1) as the identity, (1 2)(1 2) as the swap,
# (1 2 3)(3 2 1) as (2, 0, 1)
@pytest.mark.parametrize(
    "text,message",
    [
        ("(1 1)", "repeats an index"),
        ("(1 2)(1 2)", "repeats an index"),
        ("(1 2 3)(3 2 1)", "repeats an index"),
        ("(1 2", "is not cycles of indices"),
        ("(1 a)", "is not cycles of indices"),
        ("(1,,2)", "is not cycles of indices"),
        ("(,1 2)", "is not cycles of indices"),
        ("(1 2)()", "is not cycles of indices"),
        ("(\u0661 2)", "is not cycles of indices"),
    ],
)
def test_toric_perm_refuses_a_malformed_or_repeating_cycle(capsys, text, message):
    with pytest.raises(ParseError, match=re.escape(f"permutation {text!r} {message}")):
        parse_permutation(text, 3)
    rc = main(["toric", "--n", "3", "--perm", text])
    captured = capsys.readouterr()
    assert rc == EXIT_PARSE and captured.out == ""
    assert captured.err.startswith(f"error: permutation {text!r} {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["group", "--fixture", "cyclic", "--n", "-1"], "--n -1"),
        (["group", "--fixture", "cyclic", "--n", "0"], "--n 0"),
        (["group", "--fixture", "binary-dihedral", "--r", "0"], "--r 0"),
        (["group", "--fixture", "binary-dihedral", "--r", "2"], "--r 2"),
        (["verify", "--only", "blockdet", "--count", "-1"], "--count -1"),
        (["verify", "--only", "blockdet", "--count", "0"], "--count 0"),
        (["verify", "--only", "blockdet", "--max-n", "0"], "--max-n 0"),
        (["group", "--fixture", "cyclic", "--n", "5", "--cap", "0"], "--cap 0"),
        (["group", "--fixture", "cyclic", "--n", "5", "--cap", "-1"], "--cap -1"),
        (["group", "--gens", "[[z1^0]]", "--cap", "0"], "--cap 0"),
        (["group", "--gens", "[[z1^0]]", "--cap", "-1"], "--cap -1"),
    ],
)
def test_a_size_below_its_minimum_is_a_parse_error(capsys, argv, flag):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_PARSE and captured.out == ""
    assert captured.err.startswith(f"error: {flag} is below its minimum")
    assert captured.err.count("\n") == 1


def test_binary_dihedral_defaults_to_r_4_only_without_r(capsys):
    _, default = run(["group", "--fixture", "binary-dihedral"], capsys)
    _, four = run(["group", "--fixture", "binary-dihedral", "--r", "4"], capsys)
    assert default["results"] == four["results"] and default["results"]["order"] == 8


def test_toric_load_reports_no_lefschetz_number_for_a_failing_document(tmp_path, capsys):
    path = tmp_path / "tri.json"
    argv = ["toric", "--n", "3", "--gen", "1,1,18@20", "--perm", "id"]
    assert run(argv + ["--save", str(path)], capsys)[0] == EXIT_OK
    rc, rep = run(["toric", "--load", str(path)], capsys)
    assert rc == EXIT_OK and rep["results"]["lefschetz"] == 20
    doc = json.loads(path.read_text())
    doc["simplices"].pop(7)
    path.write_text(json.dumps(doc))
    rc, rep = run(["toric", "--load", str(path)], capsys)
    assert rc == EXIT_FAIL
    assert rep["results"]["crepant"] is False and rep["results"]["lefschetz"] is None
    assert rep["results"]["simplices"] == 19 and rep["results"]["failures"]


def test_toric_load_names_the_first_cell_the_symmetry_does_not_keep(tmp_path, capsys):
    """A crepant document that the symmetry does not map to itself gets no
    Lefschetz number, adjusted check or equality, and its failures name the
    first cell whose image is not a cell, in document coordinates; the exit
    code and the checks are those of the crepancy check alone."""
    path = tmp_path / "tri.json"
    argv = ["toric", "--n", "3", "--gen", "1,1,18@20", "--perm", "id", "--order", "revlex"]
    assert run(argv + ["--save", str(path)], capsys)[0] == EXIT_OK
    rc, rep = run(["toric", "--load", str(path), "--perm", "(1 3)"], capsys)
    assert rc == EXIT_OK and rep["checks"] == {"crepant": "pass"}
    res = rep["results"]
    assert (res["lefschetz"], res["adjusted"], res["equal"]) == (None, None, None)
    assert res["failures"] == [
        "symmetry does not map the triangulation to itself: the cell ((0, 0, 1), (0, 1, 0), "
        "(1/20, 1/20, 9/10)) maps to ((0, 1, 0), (9/10, 1/20, 1/20), (1, 0, 0))"
    ]
    doc = json.loads(path.read_text())
    cells = {frozenset(doc["vertices"][i] for i in s) for s in doc["simplices"]}
    assert frozenset(["0,0,1", "0,1,0", "1/20,1/20,9/10"]) in cells
    assert frozenset(["0,1,0", "9/10,1/20,1/20", "1,0,0"]) not in cells


# the unit simplex of dimension 4 as a one-cell document: crepant, and for
# (1 2)(3 4) not adjusted, its fixed locus having volume 1/2, not 1/4
UNIT_CELL_4 = {
    "lattice": {"n": 4, "generators": []},
    "vertices": ["1,0,0,0", "0,1,0,0", "0,0,1,0", "0,0,0,1"],
    "simplices": [[0, 1, 2, 3]],
}


@pytest.mark.parametrize("perm, code", [("(1 2)(3 4)", EXIT_FAIL), ("id", EXIT_OK)])
def test_toric_load_audits_adjustedness_in_dimension_4(tmp_path, capsys, perm, code):
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(UNIT_CELL_4))
    rc, rep = run(["toric", "--load", str(path), "--perm", perm], capsys)
    res = rep["results"]
    assert rc == code and res["crepant"] is True and res["dimension"] == 4
    assert res["lefschetz"] == res["fixed_count"] == res["sublattice_index"] == 1
    assert res["adjusted"] is (code == EXIT_OK)
    assert rep["checks"]["adjusted"] == ("pass" if code == EXIT_OK else "fail")
    assert rep["checks"]["lefschetz_equals_fixed_count"] == "pass"
    if code == EXIT_OK:
        assert res["failures"] == []
    else:
        assert res["failures"] == [
            "invariant face ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)) is not "
            "standard: its fixed locus has volume 1/2, expected 1/4"
        ]


def test_toric_load_names_unequal_values(tmp_path, capsys, monkeypatch):
    path = tmp_path / "tri.json"
    assert run(["toric", "--fixture", "z5sq-cycle", "--save", str(path)], capsys)[0] == EXIT_OK
    monkeypatch.setattr(toric, "toric_lefschetz", lambda *args: 2)
    rc, rep = run(["toric", "--load", str(path), "--perm", "(1 2 3)"], capsys)
    assert rc == EXIT_FAIL and rep["checks"]["lefschetz_equals_fixed_count"] == "fail"
    assert rep["results"]["equal"] is False and rep["results"]["adjusted"] is True
    assert rep["results"]["failures"] == [
        "lefschetz 2, fixed_count 1, sublattice_index 1 are not equal"
    ]


def test_loading_a_certified_build_judges_no_face(tmp_path, capsys, monkeypatch):
    """The maximal invariant faces of 1,1,3198@3200 with (1 2) are the 1,600
    fixed edges on the mirror: the load passes them on the crepancy
    certificate, with no call of ``_standard_face``."""
    path = tmp_path / "tri.json"
    argv = ["toric", "--n", "3", "--gen", "1,1,3198@3200", "--perm", "(1 2)"]
    assert run(argv + ["--save", str(path)], capsys)[0] == EXIT_OK
    judged = []
    real = toric._standard_face
    monkeypatch.setattr(toric, "_standard_face", lambda f, *a: judged.append(f) or real(f, *a))
    rc, rep = run(["toric", "--load", str(path), "--perm", "(1 2)"], capsys)
    assert rc == EXIT_OK and rep["results"]["adjusted"] is True and judged == []
    assert rep["results"]["lefschetz"] == rep["results"]["fixed_count"] == 3200


def _raising(exc):
    def broken(*args):
        raise exc

    return broken


WITNESSES = ("invariant face ((0, 0, 1),) is not standard", "a second witness")


@pytest.mark.parametrize(
    "name, replacement, code",
    [
        ("audit_triangulation", _raising(TypeError("bad operand")), EXIT_INTERNAL),
        ("audit_triangulation", _raising(exactmath.LatticeError("no lattice")), EXIT_FAIL),
        # an audit that fails with witnesses: the row names the first
        (
            "verify_adjusted",
            lambda tri, lp, sym: toric.Certificate(False, len(tri.cells), WITNESSES),
            EXIT_FAIL,
        ),
    ],
    ids=["bug", "refusal", "witness"],
)
def test_toric3d_random_rows_only_the_refusals_of_the_library(
    monkeypatch, capsys, name, replacement, code
):
    monkeypatch.setattr(toric, name, replacement)
    rc, rep = run(["verify", "--only", "toric3d-random", "--count", "2"], capsys)
    assert rc == code
    if code == EXIT_INTERNAL:
        assert rep is None
        return
    (row,) = rep["results"]["toric3d-random"]["failures"]
    if name == "verify_adjusted":
        assert row["failures"] == [WITNESSES[0]]
        assert row["lefschetz"] == row["fixed"] == row["index"]
    else:
        assert row["error"] == "no lattice"


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


@pytest.mark.parametrize(
    "exc",
    [ZeroDivisionError("division by zero"), KeyError("g7"), TypeError("bad\noperand")],
    ids=["zero_division", "key", "type"],
)
def test_unmapped_exception_exits_internal_with_one_line(monkeypatch, capsys, exc):
    def broken(*args):
        raise exc

    monkeypatch.setattr("crepant.groups.conjugacy_classes", broken)
    rc = main(["group", "--fixture", "cyclic", "--n", "4"])
    captured = capsys.readouterr()
    assert rc == EXIT_INTERNAL == 5 and captured.out == ""
    name = type(exc).__name__
    assert captured.err == f"internal error: {name}: {' '.join(str(exc).split())}\n"


class _ClosedPipe:
    """A stdout whose reader has gone: a write raises BrokenPipeError, or,
    when the stdout is buffered, the flush does."""

    def __init__(self, buffered):
        self.buffered = buffered

    def write(self, text):
        if not self.buffered:
            raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("buffered", [False, True], ids=["write", "flush"])
@pytest.mark.parametrize(
    "argv", [["group", "--fixture", "cyclic", "--n", "4"], ["verify", "--seed", "7", "--only", "ade"]]
)
def test_closed_stdout_is_not_an_internal_error(monkeypatch, capsys, argv, buffered):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(buffered))
    assert main(argv) == EXIT_PIPE == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_pipe_exits_quietly_in_a_process(unbuffered):
    # the reader closes its end before the report is written, as `| head` does
    # after its first line; the flush at exit must not raise a second time
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "crepant.cli", "group", "--fixture", "cyclic", "--n", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE
    assert err == b""


def _class_equation_by_full_scan(group, classes):
    total = 0
    for cl in classes.classes:
        i = cl[0]
        row, col = group.row(i), group.column(i)
        commuting = sum(1 for x in range(group.order) if col[x] == row[x])
        if len(cl) * commuting != group.order:
            return False
        total += len(cl)
    return total == group.order


def test_class_equation_check_matches_a_full_scan():
    # central representatives skip the scan; wrong partitions must still fail
    for group in (cyclic_group(12), binary_tetrahedral(), binary_dihedral(5), d4_triality()[0]):
        classes = conjugacy_classes(group).classes
        big = max(range(len(classes)), key=lambda k: len(classes[k]))
        partitions = {
            "classes": classes,
            "merged": ((*classes[0], *classes[1]),) + classes[2:],
            "dropped": classes[1:],
        }
        if len(classes[big]) > 1:
            partitions["split"] = (
                classes[:big] + (classes[big][:1], classes[big][1:]) + classes[big + 1 :]
            )
        for kind, parts in partitions.items():
            cs = ConjClassSet(parts, tuple(cl[0] for cl in parts))
            want = _class_equation_by_full_scan(group, cs)
            assert _class_equation_holds(group, cs) == want == (kind == "classes"), kind


# ---------------------------------------------------------------------------
# the read-only records of every layer


def test_a_cold_import_generates_no_code():
    # -S keeps site from importing anything first, so what is loaded is
    # what the import of crepant.cli loads
    src = str(Path(__file__).resolve().parents[1] / "src")
    program = (
        f"import sys; sys.path.insert(0, {src!r}); import crepant.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", program], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


# Runs `crepant <argv>` as `python -m crepant.cli` does (or, with no argv, only
# `import crepant.cli`) and prints, as its last stderr line, the exit code and
# the crepant files whose code ran.  An "exec" audit event carries the code
# object of every module body, whether compiled from source or read from a
# .pyc, and the import system names the source file in it either way.
LAYER_LOAD_PROGRAM = """
import json, os, runpy, sys
package, argv, ran = os.path.join(sys.argv[1], "crepant"), sys.argv[2:], set()

def record(event, args):
    if event == "exec" and os.path.dirname(args[0].co_filename) == package:
        ran.add(os.path.basename(args[0].co_filename))

sys.addaudithook(record)
sys.path.insert(0, sys.argv[1])
code = 0
try:
    if argv:
        sys.argv = ["crepant", *argv]
        runpy.run_module("crepant.cli", run_name="__main__", alter_sys=True)
    else:
        import crepant.cli
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(ran)]), file=sys.stderr)
"""
COLD = ["__init__.py", "cli.py"]


@pytest.fixture(scope="module")
def pycache_prefixes(tmp_path_factory):
    """A bytecode cache for src/crepant by state: ``no-cache`` stays empty
    (nothing is written to it) and ``warm-cache`` is compiled beforehand."""
    src = Path(__file__).resolve().parents[1] / "src"
    prefixes = {s: tmp_path_factory.mktemp(s) for s in ("no-cache", "warm-cache")}
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(prefixes["warm-cache"])}
    program = f"import compileall; compileall.compile_dir({str(src / 'crepant')!r}, quiet=1)"
    subprocess.run([sys.executable, "-c", program], env=env, check=True)
    return src, prefixes


@pytest.mark.parametrize("cache", ["no-cache", "warm-cache"])
@pytest.mark.parametrize(
    "argv, code, layers",
    [
        pytest.param([], 0, [], id="import"),
        pytest.param(
            ["group", "--fixture", "quintic"], 0, ["exactmath.py", "fixtures.py", "groups.py"],
            id="group",
        ),
        pytest.param(["toric", "--fixture", "z5sq-cycle"], 0, ["exactmath.py", "toric.py"], id="toric"),
        pytest.param(
            ["orbifold", "--fixture", "quintic-swap"], 0, ["exactmath.py", "orbifold.py"],
            id="orbifold",
        ),
        pytest.param(["verify", "--only", "quintic"], 0, ["exactmath.py", "orbifold.py"], id="verify"),
        # a refusal is told apart from a cap or a dimension error without
        # loading the layers that raise those
        pytest.param(
            ["toric", "--n", "3", "--gen", "1,2,3@5"], 2, ["exactmath.py", "toric.py"],
            id="toric-refused",
        ),
        pytest.param(["orbifold", "--fixture", "nope"], 2, [], id="orbifold-refused"),
    ],
)
def test_a_command_runs_only_the_layers_it_calls(pycache_prefixes, cache, argv, code, layers):
    src, prefixes = pycache_prefixes
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(prefixes[cache])}
    if cache == "no-cache":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", LAYER_LOAD_PROGRAM, str(src), *argv],
        capture_output=True, text=True, env=env,
    )
    assert json.loads(proc.stderr.splitlines()[-1]) == [code, sorted(COLD + layers)]


def _one_record_of_each_class():
    group = cyclic_group(4)
    sheet = orbifold.point_sheet()
    lp = toric.build_lattice_pair(3, [((1, 1, 1), 3)])
    sym = toric.PermSymmetry.from_cycles(3, [(0, 1, 2)])
    tri = toric.adjusted_triangulation(lp, sym)
    return [
        IntMat.identity(2),
        group.elements[1],
        group,
        conjugacy_classes(group),
        groups.outer_action(group, cyclic_swap_symmetry()),
        sheet.classes[0],
        orbifold.StratumRecord("free", 1),
        sheet,
        orbifold.chain_check(sheet),
        orbifold.a_chain(3),
        lp,
        sym,
        tri,
        toric.verify_crepant(tri, lp),
        toric.orbit_records(tri, lp, sym)[0],
    ]


def test_every_record_refuses_assignment_and_deletion():
    records = _one_record_of_each_class()
    # every record class of crepant has a sample: one without fails here
    assert {type(r) for r in records} == {
        c for c in Record.__subclasses__() if c.__module__.startswith("crepant.")
    }
    for record in records:
        for name in type(record)._fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
            assert getattr(record, name) is before
        with pytest.raises(AttributeError):
            record.cached_on_the_side = 1


def test_record_repr_names_each_field_in_order():
    assert repr(IntMat(1, 2, (3, 4))) == "IntMat(rows=1, cols=2, entries=(3, 4))"
    assert repr(orbifold.StratumRecord("free", 1)) == (
        "StratumRecord(label='free', stabilizer_order=1, euler_stratum=None, "
        "lefschetz_stratum=None, h_invariant=True, con_h=0)"
    )
    for record in _one_record_of_each_class():
        fields = type(record)._fields
        text = repr(record)
        assert text.startswith(f"{type(record).__name__}({fields[0]}=") and text.endswith(")")
        positions = [text.index(f", {f}=") for f in fields[1:]]
        assert positions == sorted(positions)


# the defaults of every record field that has one, as the constructor binds them
RECORD_DEFAULTS = {
    "ClassRecord": {
        "euler_quotient": None, "lefschetz_quotient": None, "provenance": {}, "fixed_dim": None,
    },
    "StratumRecord": {
        "euler_stratum": None, "lefschetz_stratum": None, "h_invariant": True, "con_h": 0,
    },
    "GSpaceSheet": {"strata": None, "commuting_pairs": None, "metadata": {}},
}


def test_every_record_binds_by_position_keyword_and_default():
    # one sample of every record class, as the assignment test checks
    records = _one_record_of_each_class()
    assert {c.__name__: tuple(c._defaults) for c in map(type, records) if c._defaults} == {
        name: tuple(defaults) for name, defaults in RECORD_DEFAULTS.items()
    }
    for record in records:
        kind, names, values = type(record), type(record)._fields, record._field_values()
        by_name = dict(zip(names, values))
        assert kind(*values) == kind(**by_name) == kind(values[0], **dict(zip(names[1:], values[1:])))
        assert kind(*values) == record and record.replace() == record
        # the fields without a default, by name: the others take their defaults
        defaults = RECORD_DEFAULTS.get(kind.__name__, {})
        bare = kind(**{f: v for f, v in by_name.items() if f not in defaults})
        assert {f: getattr(bare, f) for f in defaults} == defaults
        with pytest.raises(TypeError, match=f"{kind.__name__} is missing field '{names[0]}'"):
            kind(**dict(zip(names[1:], values[1:])))
        with pytest.raises(TypeError, match=f"'no_such_field' is not a {kind.__name__} field"):
            kind(*values, no_such_field=1)
        with pytest.raises(TypeError, match=f"{kind.__name__} takes {len(names)} fields, not"):
            kind(*values, None)
        with pytest.raises(TypeError, match=f"{kind.__name__} got field '{names[-1]}' twice"):
            kind(*values, **{names[-1]: values[-1]})
    stratum = orbifold.StratumRecord("free", 1)
    assert (stratum.h_invariant, stratum.con_h) == (True, 0)
    assert stratum.replace(con_h=1) == orbifold.StratumRecord("free", 1, None, None, True, 1)


def test_record_checks_run_on_every_route():
    # each check of a record's own constructor, by position, by keyword and
    # through replace
    with pytest.raises(ValueError, match="entry count"):
        IntMat(1, 2, (3,))
    with pytest.raises(ValueError, match="entry count"):
        IntMat(rows=1, cols=2, entries=(3,))
    with pytest.raises(ValueError, match="entry count"):
        IntMat.identity(2).replace(rows=1)
    sym = toric.PermSymmetry((1, 0, 2))
    assert sym.apply((7, 8, 9)) == (8, 7, 9) and sym == toric.PermSymmetry(perm=(1, 0, 2))
    for perm in ((0, 0), (1, 2)):
        with pytest.raises(ValueError, match="not a permutation"):
            toric.PermSymmetry(perm)
        with pytest.raises(ValueError, match="not a permutation"):
            sym.replace(perm=perm)
    sheet = orbifold.point_sheet()
    for changes in ({"group_order": 0}, {"group_order": 2}):
        with pytest.raises(orbifold.InconsistentSheet):
            sheet.replace(**changes)
        with pytest.raises(orbifold.InconsistentSheet):
            orbifold.GSpaceSheet(**{"classes": sheet.classes, **changes})
    # the normalising constructors: sorted cells and None read as an empty
    # dict; a pair table is a PairTable, and a plain mapping is refused
    cells = [((0, 3), (3, 0)), ((3, 0), (0, 0))]
    assert toric.Triangulation(3, cells).cells == (((0, 0), (3, 0)), ((0, 3), (3, 0)))
    table = orbifold.PairTable({"c0": "c0"}, {"c0": {"c0": 1}})
    assert sheet.replace(commuting_pairs=table).commuting_pairs is table
    with pytest.raises(TypeError, match="commuting_pairs must be a PairTable or None, not a dict"):
        sheet.replace(commuting_pairs={("c0", "c0"): 1})
    assert orbifold.GSpaceSheet(1, sheet.classes, metadata=None).metadata == {}
    assert orbifold.ClassRecord("c0", 1, 1, True, provenance=None).provenance == {}
    # the sheet reader builds each record by keyword, absent fields defaulted
    read = orbifold._read_records(
        orbifold.ClassRecord, [{"label": "c0", "size": 1, "centralizer_order": 1, "in_ch": True}],
        "classes",
    )
    assert read == (orbifold.ClassRecord("c0", 1, 1, True, None, None, {}, None),)
    strata = orbifold._read_records(
        orbifold.StratumRecord,
        [{"label": "free", "stabilizer_order": 1, "h_invariant": False, "con_h": 1}], "strata",
    )
    assert strata == (orbifold.StratumRecord("free", 1, h_invariant=False, con_h=1),)
    assert orbifold.sheet_from_document(orbifold.sheet_to_document(sheet)) == sheet
