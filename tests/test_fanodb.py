"""Database loading and invariant matching."""

import json

import pytest

from conifold.errors import DuplicateName, ParseError
from conifold.fanodb import load_database, match


def fake_query(degree, e, b2, b3):
    return {"degree": degree, "e": e, "b2": b2, "b3": b3}


def write_lines(tmp_path, lines, name="db.jsonl"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    return path


RECORD = {"name": "X", "degree": 64, "e": 4, "b2": 1, "b3": 0,
          "periods": [1, 0, 0, 0, 24]}


# -------------------------------------------------------------- loading


def test_load_bundled_database(data_dir):
    records = load_database(data_dir / "fano.jsonl")
    assert len(records) == 6
    assert {r["name"] for r in records} == {
        "P3", "P1xP1xP1", "P2xP1", "nodal_01", "nodal_02", "nodal_03"
    }
    assert all(r["provenance"] == "computed" for r in records)
    assert all(r["periods"][0] == 1 for r in records)


def test_load_empty_file(tmp_path):
    assert load_database(write_lines(tmp_path, [])) == []


def test_blank_lines_ignored(tmp_path):
    path = write_lines(tmp_path, [json.dumps(RECORD), "", "   "])
    assert len(load_database(path)) == 1


def test_malformed_json_reports_line(tmp_path):
    path = write_lines(tmp_path, [json.dumps(RECORD), "{not json"])
    with pytest.raises(ParseError) as err:
        load_database(path)
    assert ":2" in str(err.value)


def test_bad_period_head_names_record(tmp_path):
    bad = dict(RECORD, periods=[2, 4])
    with pytest.raises(ParseError) as err:
        load_database(write_lines(tmp_path, [json.dumps(bad)]))
    assert "X" in str(err.value)


def test_missing_field(tmp_path):
    bad = {k: v for k, v in RECORD.items() if k != "degree"}
    with pytest.raises(ParseError) as err:
        load_database(write_lines(tmp_path, [json.dumps(bad)]))
    assert "degree" in str(err.value)


def test_non_integer_invariant(tmp_path):
    bad = dict(RECORD, e="four")
    with pytest.raises(ParseError):
        load_database(write_lines(tmp_path, [json.dumps(bad)]))


def test_bad_provenance(tmp_path):
    bad = dict(RECORD, provenance="guessed")
    with pytest.raises(ParseError):
        load_database(write_lines(tmp_path, [json.dumps(bad)]))


def test_duplicate_name(tmp_path):
    path = write_lines(tmp_path, [json.dumps(RECORD), json.dumps(RECORD)])
    with pytest.raises(DuplicateName):
        load_database(path)


def test_provenance_defaults_to_user(tmp_path):
    rec = {k: v for k, v in RECORD.items() if k != "provenance"}
    (loaded,) = load_database(write_lines(tmp_path, [json.dumps(rec)]))
    assert loaded["provenance"] == "user"


def test_bundled_lines_are_their_loaded_records(data_dir):
    path = data_dir / "fano.jsonl"
    lines = path.read_text().splitlines()
    assert [json.dumps(rec, sort_keys=True) for rec in load_database(path)] == lines


def test_user_record_loads_as_its_seven_keys(tmp_path):
    rec = dict(RECORD, comment="from a survey")  # and no provenance
    (loaded,) = load_database(write_lines(tmp_path, [json.dumps(rec)]))
    assert loaded == dict(RECORD, provenance="user")
    (candidate,) = match(fake_query(64, 4, 1, 0), [1, 0, 0, 0, 24], [loaded])
    assert candidate == {"name": "X", "degree": 64, "e": 4, "b2": 1, "b3": 0,
                         "provenance": "user", "overlap": 5}


# every message of a record that fails to load, in full; a record that
# fails both the prefix and the provenance check names its prefix
BAD_RECORDS = [
    ([1, 2], "expected a JSON object, got list"),
    (dict(RECORD, name=""), "missing or invalid 'name'"),
    ({k: v for k, v in RECORD.items() if k != "b2"}, "record 'X' lacks field 'b2'"),
    (dict(RECORD, e="four"), "record 'X' field 'e' must be an integer"),
    (dict(RECORD, periods="1, 0"), "record 'X' field 'periods' must be a list of integers"),
    (dict(RECORD, provenance=1), "record 'X' field 'provenance' must be a string"),
    (dict(RECORD, periods=[2, 4]), "record 'X': period prefix must start with 1, got 2"),
    (dict(RECORD, provenance="guessed"),
     "record 'X': provenance must be one of ('computed', 'user'), got 'guessed'"),
    (dict(RECORD, periods=[0], provenance="guessed"),
     "record 'X': period prefix must start with 1, got 0"),
]


@pytest.mark.parametrize("data, message", BAD_RECORDS)
def test_record_messages_in_full(tmp_path, data, message):
    path = write_lines(tmp_path, ["", json.dumps(data)])
    with pytest.raises(ParseError) as err:
        load_database(path)
    assert str(err.value) == f"{path}:2: {message}"


# ------------------------------------------------------------- matching


def record(name, degree, e, b2, b3, periods):
    return {"name": name, "degree": degree, "e": e, "b2": b2, "b3": b3,
            "periods": periods, "provenance": "user"}


DB = [
    record("A", 64, 4, 1, 0, [1, 0, 0, 0, 24]),
    record("B", 64, 4, 1, 0, [1, 0, 0, 0, 25]),
    record("C", 64, 4, 1, 0, [1, 0, 0]),
    record("D", 48, 8, 3, 0, [1, 0, 6]),
]


def test_match_filters_on_invariants():
    out = match(fake_query(48, 8, 3, 0), [1, 0, 6], DB)
    assert [c["name"] for c in out] == ["D"]


def test_match_excludes_period_mismatch():
    out = match(fake_query(64, 4, 1, 0), [1, 0, 0, 0, 24], DB)
    assert [c["name"] for c in out] == ["A", "C"]  # B differs at d=4


def test_match_ranks_by_overlap_then_name():
    out = match(fake_query(64, 4, 1, 0), [1, 0, 0, 0, 24], DB)
    assert [(c["name"], c["overlap"]) for c in out] == [("A", 5), ("C", 3)]


def test_match_empty_db():
    assert match(fake_query(64, 4, 1, 0), [1, 0, 0], []) == []


def test_match_monotone_in_prefix_length():
    periods = [1, 0, 0, 0, 24, 0, 0, 0, 2520]
    prev = None
    for cut in range(len(periods) + 1):
        names = {c["name"] for c in match(fake_query(64, 4, 1, 0),
                                          periods[:cut], DB)}
        if prev is not None:
            assert names <= prev
        prev = names


def test_match_candidate_json_shape():
    (top, *_) = match(fake_query(64, 4, 1, 0), [1, 0, 0, 0, 24], DB)
    assert top == {
        "name": "A", "degree": 64, "e": 4, "b2": 1, "b3": 0,
        "overlap": 5, "provenance": "user",
    }


def test_bundled_self_consistency(corpus, golden, data_dir):
    from conifold.laurent import from_fan_polytope, period_sequence
    from conifold.nodal import nodal_profile, transition_invariants

    db = load_database(data_dir / "fano.jsonl")
    rename = {"p3": "P3", "octahedron": "P1xP1xP1", "p2xp1": "P2xP1"}
    for stem, p in corpus.items():
        report = transition_invariants(p, nodal_profile(p))
        query = {"degree": report["degree"], "e": report["e_sm"],
                 "b2": report["b2_sm"], "b3": report["b3_sm"]}
        terms = period_sequence(from_fan_polytope(p), golden["db_dmax"]).terms
        out = match(query, terms, db)
        assert out, f"{stem}: no candidates"
        assert out[0]["name"] == rename.get(stem, stem)


def test_square_mutant_of_nodal_02_matches_nodal_02(cli, corpus, data_dir, tmp_path):
    # Dividing one of nodal_02's conifold squares x^v (1 + x^a)(1 + x^b)
    # by 1 + x^a, and multiplying each monomial at height h > 0 over the
    # square's facet by (1 + x^a)^h, turns its vertex polynomial into one
    # whose Newton polytope is these six vertices up to GL(3, Z).  Periods
    # are invariant under mutation (Akhtar-Coates-Galkin-Kasprzyk, SIGMA 8
    # (2012) 094, Lemma 1), so the mutant's periods are nodal_02's, and
    # `match` must name nodal_02: a second transition, with one node, to
    # the same smoothing.
    from conifold.lattice import convex_hull
    from conifold.laurent import from_fan_polytope, period_sequence
    from conifold.nodal import nodal_profile, transition_invariants

    vertices = [(-1, -1, 0), (-1, -1, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, -1)]
    mutant, nodal_02 = convex_hull(vertices), corpus["nodal_02"]
    reports = [transition_invariants(p, nodal_profile(p)) for p in (mutant, nodal_02)]
    assert (len(mutant.vertices), len(mutant.facets)) == (6, 7)
    assert [(r["N"], r["k"], r["e_res"]) for r in reports] == [(1, 1, 8), (2, 2, 10)]
    for r in reports:
        assert (r["degree"], r["e_sm"], r["b2_sm"], r["b3_sm"]) == (46, 6, 2, 0)
    assert (period_sequence(from_fan_polytope(mutant), 24).terms
            == period_sequence(from_fan_polytope(nodal_02), 24).terms)
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps({"vertices": vertices}))
    _, out, _ = cli("match", path, data_dir / "fano.jsonl")
    assert [(c["name"], c["overlap"]) for c in json.loads(out)["candidates"]] == [
        ("nodal_02", 11)
    ]
