"""Database loading and invariant matching."""

import json

import pytest

from conifold.errors import DuplicateName, ParseError
from conifold.fanodb import PeriodRecord, load_database, match


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
    assert {r.name for r in records} == {
        "P3", "P1xP1xP1", "P2xP1", "nodal_01", "nodal_02", "nodal_03"
    }
    assert all(r.provenance == "computed" for r in records)
    assert all(r.period_prefix[0] == 1 for r in records)


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
    assert loaded.provenance == "user"


def test_record_roundtrip():
    rec = PeriodRecord("Q", 54, 4, 1, 0, (1, 0, 0, 12), "computed")
    assert rec.to_json_dict()["periods"] == [1, 0, 0, 12]


# ------------------------------------------------------------- matching


DB = [
    PeriodRecord("A", 64, 4, 1, 0, (1, 0, 0, 0, 24)),
    PeriodRecord("B", 64, 4, 1, 0, (1, 0, 0, 0, 25)),
    PeriodRecord("C", 64, 4, 1, 0, (1, 0, 0)),
    PeriodRecord("D", 48, 8, 3, 0, (1, 0, 6)),
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
