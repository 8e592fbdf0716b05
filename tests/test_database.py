"""Threshold table for the 105 deformation families: integrity, lookup,
cross-checking against the engine, and the text serialization."""

import hashlib
from fractions import Fraction

import pytest

from toriclct import database
from toriclct.database import (Database, FamilyId, FamilyRecord, LctStatus,
                               cross_check_toric, export_table, import_table,
                               load_builtin, lookup, query)
from toriclct.errors import InvalidId, ParseError
from toriclct.toric import RaySet, projective_space_fan

F = Fraction

DB = load_builtin()


# ---------------------------------------------------------------------------
# identifiers and statuses


def test_family_id_parse_and_str():
    fid = FamilyId.parse("3.27")
    assert (fid.rank, fid.index) == (3, 27)
    assert str(fid) == "3.27"


def test_family_id_ordering():
    assert FamilyId.parse("1.17") < FamilyId.parse("2.1")
    assert FamilyId.parse("2.9") < FamilyId.parse("2.10")


def test_family_id_rejects_garbage():
    for text in ("6.1", "0.1", "1.18", "2.37", "3.32", "4.14", "5.9",
                 "1", "1.2.3", "a.b", "1.-2", ""):
        with pytest.raises(InvalidId):
            FamilyId.parse(text)


def test_family_id_takes_integers_only():
    for rank, index in ((3.0, 27), (3, 27.0), (F(3), 27), ("3", 27), (None, 1)):
        with pytest.raises(InvalidId):
            FamilyId(rank, index)
    fid = FamilyId(True, 1)
    assert str(fid) == "1.1" and type(fid.rank) is int
    assert fid == FamilyId.parse("1.1")


def test_family_id_tokens_follow_the_integer_rule():
    # an optional '-' and ASCII digits, whitespace around each token ignored
    assert FamilyId.parse(" 3 . 27 ") == FamilyId.parse("3.27") == FamilyId(3, 27)
    for text in ("+3.27", "3.2_7", "3.+27", "3.27.", "3 2.7"):
        with pytest.raises(InvalidId, match="rank.index"):
            FamilyId.parse(text)


def test_family_id_rejects_non_ascii_digits():
    # str.isdigit accepts both; int() rejects the first and reads the second
    for text in ("1.\u00b2", "1.\u0661", "\u0661.1"):
        with pytest.raises(InvalidId, match="rank.index"):
            FamilyId.parse(text)


def test_status_validation():
    with pytest.raises(ValueError):
        LctStatus("exact_all", None)
    with pytest.raises(ValueError):
        LctStatus("unknown", F(1, 2))
    with pytest.raises(ValueError):
        LctStatus("exact_all", F(3, 2))
    with pytest.raises(ValueError):
        LctStatus("sharp", F(1, 2))
    assert LctStatus("unknown", None).value is None


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/0", "abc"],
                         ids=["float", "float_half", "zero_denominator", "not_a_number"])
def test_status_takes_only_exact_values(bad):
    for kind in ("exact_all", "exact_general", "upper_bound"):
        with pytest.raises(ValueError):
            LctStatus(kind, bad)


def test_malformed_status_value_is_named():
    with pytest.raises(ValueError,
                       match="^status value 'abc' is not an exact rational$"):
        LctStatus("exact_all", "abc")
    with pytest.raises(ParseError, match=(
            "^line 1: status value 'abc' is not an exact rational$")):
        import_table("1.1|1|exact_all|abc|x\n")


def test_status_reads_ints_fractions_and_strings_exactly():
    for value in (1, F(1), "1", "1/1", "1.0"):
        assert LctStatus("exact_all", value).value == 1
    assert LctStatus("upper_bound", "0.25") == LctStatus("upper_bound", F(1, 4))
    assert type(LctStatus("exact_general", "2/3").value) is Fraction


# ---------------------------------------------------------------------------
# the built-in table


def test_builtin_table_bytes_are_pinned():
    # every id, kind, value, provenance and fan of the builtin table; the
    # round-trip tests alone would pass a value filed under the wrong family
    text = export_table(load_builtin()).encode()
    assert (len(text), text.count(b"\n")) == (7202, 251)
    assert hashlib.sha256(text).hexdigest() == (
        "143f78659fdf56b1b464455fd1430c45b68373913c61303b807d294ad6dc7423")


def test_builtin_table_lists_each_family_once(monkeypatch):
    statuses = {kind: dict(by_value) for kind, by_value in database._STATUSES.items()}
    statuses["exact_all"]["1/2"] += " 1.1"
    monkeypatch.setattr(database, "_STATUSES", statuses)
    load_builtin.cache_clear()
    try:
        with pytest.raises(ValueError, match="duplicate family ids"):
            load_builtin()
    finally:
        load_builtin.cache_clear()


def test_lookup_spot_values():
    assert lookup(DB, "4.5").status.value == F(3, 7)
    assert lookup(DB, "4.5").status.kind == "exact_all"
    assert lookup(DB, "1.10").status.kind == "upper_bound"
    assert lookup(DB, "1.10").status.value == F(2, 3)
    assert lookup(DB, "2.6").status.kind == "unknown"
    assert lookup(DB, "2.23").status == LctStatus("exact_general", F(1, 3))
    assert lookup(DB, "1.11").status.value == F(1, 2)
    assert lookup(DB, FamilyId(1, 17)).fan is not None


def test_lookup_rejects_bad_id():
    with pytest.raises(InvalidId):
        lookup(DB, "6.1")


def test_every_record_has_provenance():
    for rec in DB.records:
        assert rec.provenance.strip()


def test_query_by_value():
    assert [str(r.id) for r in query(DB, value=F(3, 7))] == ["4.5"]


def test_query_reads_the_value_exactly():
    assert query(DB, value="3/7") == query(DB, value=F(3, 7))
    for bad in (0.2, "1/0"):
        with pytest.raises(ValueError):
            query(DB, value=bad)


def test_query_unknown():
    found = query(DB, status_kind="unknown")
    assert [str(r.id) for r in found] == [
        "1.2", "1.3", "1.4", "1.5", "1.6", "1.7", "2.6"]


def test_query_rank_five():
    found = query(DB, rank=5)
    assert len(found) == 8
    assert all(r.status.kind == "exact_all" for r in found)


def test_query_reads_the_rank_as_an_integer():
    for bad in ("1", 1.0, F(1)):
        with pytest.raises(ValueError, match="rank .* non-integer"):
            query(DB, rank=bad)
    assert query(DB, rank=9) == ()


def test_query_rejects_bad_kind():
    with pytest.raises(ValueError):
        query(DB, status_kind="sharp")


# ---------------------------------------------------------------------------
# cross-checking


def test_cross_check_builtin_passes():
    report = cross_check_toric(DB)
    assert report.passed
    assert len(report.checks) == 18
    names = {str(c.family) for c in report.checks}
    assert {"2.33", "2.34", "2.35", "2.36", "3.27", "3.31"} <= names
    for check in report.checks:
        assert check.expected == check.computed


def test_cross_check_detects_corrupted_fan():
    broken = Database(tuple(
        FamilyRecord(r.id, r.status, r.provenance, projective_space_fan(3), r.notes)
        if str(r.id) == "3.27" else r for r in DB.records))
    report = cross_check_toric(broken)
    assert not report.passed
    bad = [c for c in report.checks if not c.passed]
    assert [str(c.family) for c in bad] == ["3.27"]
    assert bad[0].expected == F(1, 2) and bad[0].computed == F(1, 4)


def test_cross_check_without_fans():
    stripped = Database(tuple(
        FamilyRecord(rec.id, rec.status, rec.provenance, fan=None,
                     notes=rec.notes)
        for rec in DB.records))
    report = cross_check_toric(stripped)
    assert report.passed and report.checks == ()


# ---------------------------------------------------------------------------
# constructor integrity


def test_database_rejects_missing_record():
    with pytest.raises(ValueError):
        Database(DB.records[1:])


def test_database_rejects_duplicate():
    with pytest.raises(ValueError):
        Database(DB.records + (DB.records[0],))


def test_database_rejections_keep_their_type_and_message():
    records = DB.records
    as_text = tuple(FamilyRecord(str(r.id), r.status, r.provenance) for r in records)
    one_text = records[:5] + (as_text[5],) + records[6:]
    one_none = records[:7] + (FamilyRecord(None, records[7].status, "x"),) + records[8:]
    cases = [
        (one_text, ValueError, "records must cover exactly the 105 families"),
        (one_none, ValueError, "records must cover exactly the 105 families"),
        (as_text, ValueError, "records must cover exactly the 105 families"),
        (records + (records[0],), ValueError, "duplicate family ids"),
        (records[:40] + records[41:], ValueError, "records must cover exactly the 105 families"),
        (records[1:] + (records[-1],), ValueError, "duplicate family ids"),
        # a record checks its status, provenance and fan as it is built
        (lambda: FamilyRecord(records[0].id, records[0].status, "x", "not a fan"),
         ValueError, "fan 'not a fan' is not a RaySet or None"),
        (lambda: Database(records[:9] + (FamilyRecord(records[9].id, "exact_all", "x"),)
                          + records[10:]), ValueError, "status 'exact_all' is not an LctStatus"),
        (lambda: FamilyRecord(records[0].id, records[0].status, "two\nlines"), ValueError,
         "provenance 'two\\nlines' is not one line of text"),
        (lambda: FamilyRecord(records[0].id, records[0].status, "cr\rinside"), ValueError,
         "provenance 'cr\\rinside' is not one line of text"),
        (lambda: FamilyRecord(records[0].id, records[0].status, None), ValueError,
         "provenance None is not one line of text"),
    ]
    for given, kind, message in cases:
        with pytest.raises(kind) as info:
            given() if callable(given) else Database(given)
        assert str(info.value) == message
    assert Database(iter(records[::-1])) == DB


def test_database_rejects_status_drift():
    records = list(DB.records)
    idx = next(i for i, rec in enumerate(records) if str(rec.id) == "2.6")
    records[idx] = FamilyRecord(records[idx].id, LctStatus("exact_all", F(1, 2)),
                                "made up")
    with pytest.raises(ValueError):
        Database(tuple(records))


def test_database_construction_builds_each_status_and_id_once(calls):
    # one status per (kind, value) row of the table, 17 in all; the checks
    # of Database read the ids' (rank, index) and build no FamilyId
    built = [calls(cls, "__post_init__") for cls in (LctStatus, FamilyId, RaySet)]
    db = load_builtin.__wrapped__()
    # the constructors build the fans of projective spaces and bundles
    # checked by construction; only the literal 3.31 fan is checked
    assert list(map(len, built)) == [17, 105, 1]
    assert db == DB
    for log in built:
        log.clear()
    assert Database(DB.records) == DB
    assert list(map(len, built)) == [0, 0, 0]
    # import_table reads each distinct (kind, value text) once and checks
    # every parsed fan
    text = export_table(DB)
    assert export_table(import_table(text)) == text
    assert list(map(len, built)) == [17, 105 + 18, 18]


# ---------------------------------------------------------------------------
# serialization


def test_export_shape():
    text = export_table(DB)
    lines = text.splitlines()
    assert lines[0] == ("1.1|1|exact_general|1|"
                        "double cover of P3 branched in a sextic; "
                        "general member")
    assert "[fan 1.17]" in text
    assert text.endswith("\n")
    record_lines = [ln for ln in lines if "|" in ln]
    assert len(record_lines) == 105


def test_round_trip_keeps_provenance_that_holds_other_line_breaks():
    # export_table writes a provenance as it is, and import_table reads it to
    # the end of its line; only LF and CR end a line
    for tail in (" \x85\u2028\f end", " ", "\t", "\x85"):
        records = [FamilyRecord(rec.id, rec.status, f"{rec.provenance}{tail}",
                                rec.fan, rec.notes) if str(rec.id) == "3.27" else rec
                   for rec in DB.records]
        text = export_table(Database(tuple(records)))
        again = import_table(text)
        assert lookup(again, "3.27").provenance.endswith(tail)
        assert export_table(again).encode() == text.encode()


def test_import_drops_notes():
    rec = lookup(import_table(export_table(DB)), "3.24")
    assert rec.notes is None
    assert lookup(DB, "3.24").notes is not None


def test_import_errors_carry_line_numbers():
    good = export_table(DB)
    cases = [
        ("1.1|1|exact_general|1\n", "line 1"),           # missing field
        ("2.36|3|exact_all|1/5|x\n", "line 1"),          # rank mismatch
        ("1.1|1|sharp|1|x\n", "line 1"),                 # unknown kind
        ("1.1|1|exact_all|5/4|x\n", "line 1"),           # out of range
        ("1.1|1|exact_all|abc|x\n", "line 1"),           # not a fraction
        ("1.1|1|exact_all|1/0|x\n", "line 1"),           # zero denominator
        ("1.1|1|unknown|1/2|x\n", "line 1"),             # unknown with value
        (good + "\n[fan 9.9]\n1,0\n", "line"),           # bogus family
        (good + "\n[fan 1.17]\n1,0,0\n", "duplicate"),   # fan block repeat
        (good + "\n[fan 1.1]\n", "no rays"),             # empty block
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            import_table(text)


def test_import_rejects_non_ascii_digits():
    lines = export_table(DB).splitlines()
    fid, rank, rest = lines[0].split("|", 2)
    assert len(import_table("\n".join(lines)).records) == len(DB.records)
    for first in (f"1.\u00b2|{rank}|{rest}", f"1.\u0661|{rank}|{rest}",
                  f"{fid}|\u00b2|{rest}", f"{fid}|\u0661|{rest}"):
        with pytest.raises(ParseError, match="^line 1: "):
            import_table("\n".join([first] + lines[1:]))


def test_import_detects_duplicate_record():
    text = export_table(DB)
    first = text.splitlines()[0]
    with pytest.raises(ParseError, match="duplicate"):
        import_table(first + "\n" + text)


def test_import_detects_bad_ray_row():
    text = export_table(DB) + "\n[fan 2.6]\nx,y,z\n"
    with pytest.raises(ParseError):
        import_table(text)


def test_imported_fan_without_value_fails_cross_check():
    # a fan may be attached to an open family, but then there is nothing to
    # compare against and the check cannot pass
    text = export_table(DB) + "\n[fan 2.6]\n1\n-1\n"
    loaded = import_table(text)
    report = cross_check_toric(loaded)
    assert not report.passed
    bad = [c for c in report.checks if not c.passed]
    assert [str(c.family) for c in bad] == ["2.6"]
    assert bad[0].expected is None


def test_import_incomplete_table():
    with pytest.raises(ValueError):
        import_table("1.1|1|exact_general|1|x\n")


def test_import_normalizes_value_spelling():
    # input values go through Fraction, so non-canonical spellings load;
    # export always writes the reduced form
    text = export_table(DB).replace("4.5|4|exact_all|3/7|",
                                    "4.5|4|exact_all|6/14|")
    loaded = import_table(text)
    assert lookup(loaded, "4.5").status.value == F(3, 7)
    assert export_table(loaded) == export_table(DB)


def test_import_fan_block_boundaries():
    # accepted, or the exact line of the ParseError; the builtin table has
    # 251 lines, so an appended block's header is line 253
    good = export_table(DB)
    first = good.splitlines()[0] + "\n"
    records = "".join(ln + "\n" for ln in good.splitlines()[:105])
    rest = records.replace(first, "")
    cases = [
        (good + "\n[fan 2.6\n1\n-1\n", 253),              # header without ]
        (good + "\n[fan x.y]\n1\n-1\n", 253),             # header, bad id
        (rest + "\n[fan 1.1]\n1\n-1\n", 106),             # family not yet read
        (good + "\n[fan 2.6]\n1\nx\n", 255),              # bad ray row
        (rest + "\n[fan 2.6]\n1\n-1\n" + first, 109),     # record inside a block
        (good + "\n[fan 2.6]\n1\n-1\n[fan 1.1]\n1\n-1\n", None),  # two blocks
        (good + "\n[fan 2.6]\n", 253),                    # empty block at end
        (good + "\n[fan 2.6]\n\n", 253),                  # empty, then blank
        (good + "\n[fan 2.6]\n[fan 1.1]\n1\n-1\n", 253),  # empty, then header
        (good + "\n[fan 2.6]\n1\n-1,0\n", 255),           # mixed dimension
        # a bad value on two lines (2.36 and 3.29) fails at the first
        (good.replace("|exact_all|1/5|", "|exact_all|5/4|"), 53),
        # after 1.11 and 1.12 repeat one good status, 1.13 fails at its own line
        (good.replace("1.13|1|exact_all|", "1.13|1|exact_al|"), 13),
        (good + "\n[fan 2.6]\n1\n-1\n1;2\n", 256),         # bad row after the statuses
    ]
    for text, lineno in cases:
        if lineno is None:
            assert lookup(import_table(text), "1.1").fan is not None
            continue
        with pytest.raises(ParseError) as info:
            import_table(text)
        assert info.value.lineno == lineno


def test_import_fan_block_reads_rows_like_a_fan_file():
    text = export_table(DB) + "\n[fan 2.6]\n# P1\n1  # east\n-1\n"
    assert tuple(lookup(import_table(text), "2.6").fan) == ((1,), (-1,))
