"""The 105 deformation families of smooth Fano threefolds with their known
global log canonical thresholds: exact values, general-member values, upper
bounds, and open cases, plus stored fans for the toric families.

Records are keyed by the standard rank.index family labels (ranks 1..5 with
17, 36, 31, 13, 8 families respectively).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

from .errors import InvalidId, ParseError
from .geometry import _integers
from .toric import (RaySet, _blocks, _int_rows, format_fan, product_fan,
                    projective_space_fan, projectivized_bundle_fan,
                    star_subdivide, toric_lct)

RANK_SIZES = {1: 17, 2: 36, 3: 31, 4: 13, 5: 8}
STATUS_KINDS = ("exact_all", "exact_general", "upper_bound", "unknown")


@dataclass(frozen=True, order=True)
class FamilyId:
    rank: int
    index: int

    def __post_init__(self):
        try:
            rank, index = _integers((self.rank, self.index), "family id")
        except ValueError:
            raise InvalidId(f"{self.rank}.{self.index} is not a family id") from None
        if rank not in RANK_SIZES or not 1 <= index <= RANK_SIZES[rank]:
            raise InvalidId(f"{self.rank}.{self.index} is not a family id")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "index", index)

    @classmethod
    def parse(cls, text: str) -> "FamilyId":
        parts = str(text).strip().split(".")
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise InvalidId(f"{text!r} is not of the form rank.index")
        return cls(int(parts[0]), int(parts[1]))

    def __str__(self) -> str:
        return f"{self.rank}.{self.index}"


@dataclass(frozen=True)
class LctStatus:
    """What is known about a family's threshold: an exact value for every
    smooth member, an exact value for a general member, an upper bound, or
    nothing sharp."""

    kind: str
    value: Fraction | None = None

    def __post_init__(self):
        if self.kind not in STATUS_KINDS:
            raise ValueError(f"unknown status kind {self.kind!r}")
        if self.kind == "unknown":
            if self.value is not None:
                raise ValueError("unknown status carries no value")
        else:
            if self.value is None or not 0 < self.value <= 1:
                raise ValueError("status value must lie in (0, 1]")
            object.__setattr__(self, "value", Fraction(self.value))

    @classmethod
    def exact_all(cls, value) -> "LctStatus":
        return cls("exact_all", Fraction(value))

    @classmethod
    def exact_general(cls, value) -> "LctStatus":
        return cls("exact_general", Fraction(value))

    @classmethod
    def upper_bound(cls, value) -> "LctStatus":
        return cls("upper_bound", Fraction(value))

    @classmethod
    def unknown(cls) -> "LctStatus":
        return cls("unknown", None)


@dataclass(frozen=True)
class FamilyRecord:
    id: FamilyId
    status: LctStatus
    provenance: str
    fan: RaySet | None = None
    notes: str | None = None

    @property
    def picard_rank(self) -> int:
        return self.id.rank


def status_counts(records) -> dict[str, int]:
    """Number of records of each status kind, in STATUS_KINDS order."""
    counts = dict.fromkeys(STATUS_KINDS, 0)
    for r in records:
        counts[r.status.kind] += 1
    return counts


@dataclass(frozen=True)
class Database:
    """All 105 family records, sorted by id; construction enforces the
    coverage and status-count invariants."""

    records: tuple[FamilyRecord, ...]

    def __post_init__(self):
        records = tuple(sorted(self.records, key=lambda r: r.id))
        ids = [r.id for r in records]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate family ids")
        expected = [FamilyId(rank, i) for rank in sorted(RANK_SIZES)
                    for i in range(1, RANK_SIZES[rank] + 1)]
        if ids != expected:
            raise ValueError("records must cover exactly the 105 families")
        counts = status_counts(records)
        if counts != {"exact_all": 64, "exact_general": 20,
                      "upper_bound": 14, "unknown": 7}:
            raise ValueError(f"status counts off: {counts}")
        object.__setattr__(self, "records", records)


# ---------------------------------------------------------------------------
# builtin data

_EXACT_ALL = {
    "1/5": "2.36 3.29",
    "1/4": "1.17 2.28 2.30 2.33 2.35 3.23 3.26 3.30 4.12",
    "1/3": "1.16 2.29 2.31 2.34 3.9 3.18 3.19 3.20 3.21 3.22 3.24 3.25 3.28 "
           "3.31 4.4 4.8 4.9 4.10 4.11 5.1 5.2",
    "3/7": "4.5",
    "1/2": "1.11 1.12 1.13 1.14 1.15 2.1 2.3 2.18 2.25 2.27 2.32 3.4 3.10 "
           "3.11 3.12 3.14 3.15 3.16 3.17 3.27 4.1 4.2 4.3 4.6 4.7 5.3 5.4 "
           "5.5 5.6 5.7 5.8",
}

_EXACT_GENERAL = {
    "1/3": "2.23",
    "1/2": "2.5 2.8 2.10 2.11 2.14 2.15 2.19 2.24 2.26 3.2 3.5 3.6 3.7 3.8 4.13",
    "2/3": "3.3",
    "3/4": "2.4 3.1",
    "1": "1.1",
}

_UPPER_BOUND = {
    "1.8": "6/7", "1.9": "4/5", "1.10": "2/3", "2.2": "13/14", "2.7": "2/3",
    "2.9": "3/4", "2.12": "3/4", "2.13": "2/3", "2.16": "1/2", "2.17": "2/3",
    "2.20": "1/2", "2.21": "2/3", "2.22": "1/2", "3.13": "1/2",
}

_UNKNOWN = "1.2 1.3 1.4 1.5 1.6 1.7 2.6"

_PROVENANCE_DEFAULT = {
    "exact_all": "case analysis, every smooth member",
    "exact_general": "case analysis, general member",
    "upper_bound": "explicit low-threshold anticanonical divisor",
    "unknown": "no sharp bound established",
}

_PROVENANCE = {
    "1.1": "double cover of P3 branched in a sextic; general member",
    "1.11": "del Pezzo threefold of degree 1 (index 2)",
    "1.12": "del Pezzo threefold of degree 2 (index 2): quartic double solid",
    "1.13": "del Pezzo threefold of degree 3 (index 2): cubic threefold",
    "1.14": "del Pezzo threefold of degree 4 (index 2): intersection of two quadrics",
    "1.15": "del Pezzo threefold of degree 5 (index 2)",
    "1.16": "quadric threefold",
    "1.17": "toric: projective 3-space",
    "2.32": "del Pezzo threefold of degree 6 (index 2): divisor of bidegree (1,1) on P2 x P2",
    "2.33": "toric: blow-up of P3 along a line",
    "2.34": "toric: P1 x P2",
    "2.35": "toric: P(O + O(1)) over P2, the one-point blow-up of P3 (index 2)",
    "2.36": "toric: P(O + O(2)) over P2",
    "3.25": "toric: blow-up of P3 along two disjoint lines",
    "3.26": "toric: blow-up of P3 along a point and a disjoint line",
    "3.27": "toric: P1 x P1 x P1",
    "3.28": "toric: P1 x F1",
    "3.29": "toric: blow-up of the one-point blow-up of P3 along a line in the exceptional plane",
    "3.30": "toric: blow-up of the one-point blow-up of P3 along the transform of a line through the center",
    "3.31": "toric: P(O + O(1,1)) over P1 x P1",
    "4.9": "toric: blow-up of the two-line blow-up of P3 along an exceptional fiber",
    "4.10": "toric: P1 x S7",
    "4.11": "toric: blow-up of P1 x F1 along an exceptional fiber",
    "4.12": "toric: blow-up of the line blow-up of P3 along two exceptional fibers",
    "5.2": "toric: blow-up of the two-line blow-up of P3 along two exceptional fibers over one line",
    "5.3": "toric: P1 x S6",
}

_BEST_EFFORT_FAN_NOTE = ("fan is the standard toric construction; the family "
                         "identification is checked through Picard rank and threshold")

_NOTES = {
    "1.1": "general smooth member attains 1; special members can be strictly smaller",
    "1.2": "smooth quartic threefold: 3/4 <= lct <= 1, at least 16/21 for a general "
           "member, and exactly 3/4 when the quartic contains a suitable cone",
    "3.24": "1/3 by a dedicated computation; supersedes a duplicate listing under 1/2",
    "4.13": "value holds for a general member; special members can be strictly smaller",
    "4.9": _BEST_EFFORT_FAN_NOTE,
    "4.11": _BEST_EFFORT_FAN_NOTE,
    "4.12": _BEST_EFFORT_FAN_NOTE,
    "5.2": _BEST_EFFORT_FAN_NOTE,
}


def _builtin_fans() -> dict[str, RaySet]:
    p1 = projective_space_fan(1)
    p2 = projective_space_fan(2)
    p3 = projective_space_fan(3)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    neg = (-1, -1, -1)
    # del Pezzo surfaces as iterated point blow-ups of the plane
    f1 = star_subdivide(p2, [(1, 0), (0, 1)])
    s7 = star_subdivide(f1, [(1, 0), (-1, -1)])
    s6 = star_subdivide(s7, [(0, 1), (-1, -1)])
    v7 = star_subdivide(p3, [e1, e2, e3])  # one-point blow-up of P3
    fan_2_33 = star_subdivide(p3, [e1, e2])
    fan_3_25 = star_subdivide(star_subdivide(p3, [neg, e1]), [e2, e3])
    fan_4_9 = star_subdivide(fan_3_25, [(0, 1, 1), e1])
    return {
        "1.17": p3,
        "2.33": fan_2_33,
        "2.34": product_fan(p1, p2),
        "2.35": projectivized_bundle_fan(2, (1,)),
        "2.36": projectivized_bundle_fan(2, (2,)),
        "3.25": fan_3_25,
        "3.26": star_subdivide(v7, [neg, e1]),
        "3.27": product_fan(product_fan(p1, p1), p1),
        "3.28": product_fan(p1, f1),
        "3.29": star_subdivide(v7, [(1, 1, 1), e1]),
        "3.30": star_subdivide(v7, [e2, e3]),
        "3.31": RaySet(((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1),
                        (-1, -1, 0), (-1, 0, -1))),
        "4.9": fan_4_9,
        "4.10": product_fan(p1, s7),
        "4.11": star_subdivide(product_fan(p1, f1), [(1, 0, 0), (0, 1, 1)]),
        "4.12": star_subdivide(star_subdivide(fan_2_33, [(1, 1, 0), e3]),
                               [(1, 1, 0), neg]),
        "5.2": star_subdivide(fan_4_9, [(0, 1, 1), neg]),
        "5.3": product_fan(p1, s6),
    }


@cache
def load_builtin() -> Database:
    """The builtin database; construction enforces all its invariants."""
    statuses: dict[str, LctStatus] = {}
    for value, ids in _EXACT_ALL.items():
        for key in ids.split():
            statuses[key] = LctStatus.exact_all(Fraction(value))
    for value, ids in _EXACT_GENERAL.items():
        for key in ids.split():
            statuses[key] = LctStatus.exact_general(Fraction(value))
    for key, value in _UPPER_BOUND.items():
        statuses[key] = LctStatus.upper_bound(Fraction(value))
    for key in _UNKNOWN.split():
        statuses[key] = LctStatus.unknown()
    fans = _builtin_fans()
    records = []
    for key, status in statuses.items():
        records.append(FamilyRecord(
            id=FamilyId.parse(key),
            status=status,
            provenance=_PROVENANCE.get(key, _PROVENANCE_DEFAULT[status.kind]),
            fan=fans.get(key),
            notes=_NOTES.get(key),
        ))
    return Database(tuple(records))


# ---------------------------------------------------------------------------
# queries


def lookup(db: Database, family) -> FamilyRecord:
    """The record for a family id given as FamilyId or 'rank.index' string."""
    fid = family if isinstance(family, FamilyId) else FamilyId.parse(family)
    for record in db.records:
        if record.id == fid:
            return record
    raise InvalidId(f"{fid} is not in the database")


def query(db: Database, rank: int | None = None, status_kind: str | None = None,
          value: Fraction | None = None) -> tuple[FamilyRecord, ...]:
    """Records matching every given filter, in id order."""
    if status_kind is not None and status_kind not in STATUS_KINDS:
        raise ValueError(f"unknown status kind {status_kind!r}")
    out = []
    for record in db.records:
        if rank is not None and record.id.rank != rank:
            continue
        if status_kind is not None and record.status.kind != status_kind:
            continue
        if value is not None and record.status.value != Fraction(value):
            continue
        out.append(record)
    return tuple(out)


# ---------------------------------------------------------------------------
# toric cross-check


@dataclass(frozen=True)
class FanCheck:
    family: FamilyId
    expected: Fraction | None
    computed: Fraction
    witness_vertex: tuple
    witness_ray: tuple

    @property
    def passed(self) -> bool:
        return self.expected is not None and self.expected == self.computed


@dataclass(frozen=True)
class CrossCheckReport:
    checks: tuple[FanCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def cross_check_toric(db: Database) -> CrossCheckReport:
    """Recompute the threshold of every stored fan through the toric engine
    and compare with the recorded value. Mismatches are reported, not
    raised."""
    checks = []
    for record in db.records:
        if record.fan is None:
            continue
        report = toric_lct(record.fan)
        checks.append(FanCheck(
            family=record.id,
            expected=record.status.value,
            computed=report.lct,
            witness_vertex=report.witness_vertex,
            witness_ray=report.witness_ray,
        ))
    return CrossCheckReport(tuple(checks))


def with_fan(db: Database, family, fan: RaySet | None) -> Database:
    """A copy of the database with one family's fan replaced (fault
    injection and what-if checks)."""
    fid = family if isinstance(family, FamilyId) else FamilyId.parse(family)
    records = tuple(replace(r, fan=fan) if r.id == fid else r
                    for r in db.records)
    return Database(records)


# ---------------------------------------------------------------------------
# text export / import


def table_line(record: FamilyRecord) -> str:
    """One record as 'id|rank|status_kind|value_or_dash|provenance'."""
    value = "-" if record.status.value is None else str(record.status.value)
    return (f"{record.id}|{record.id.rank}|{record.status.kind}"
            f"|{value}|{record.provenance}")


def export_table(db: Database) -> str:
    """Canonical text: one table_line per record in id order, then one
    '[fan id]' block per stored fan."""
    chunks = ["".join(table_line(record) + "\n" for record in db.records)]
    for record in db.records:
        if record.fan is not None:
            chunks.append(f"\n[fan {record.id}]\n{format_fan(record.fan)}")
    return "".join(chunks)


def import_table(text: str) -> Database:
    """Inverse of export_table (notes are not serialized). A blank line or a
    '[fan id]' header starts a new block; a fan block holds the ray rows of
    a fan file. Raises ParseError with the offending line number on
    malformed input."""
    entries: dict[FamilyId, tuple[LctStatus, str]] = {}
    fans: dict[FamilyId, RaySet] = {}
    for block in _blocks(text, "[fan"):
        header_line, header = block[0]
        header = header.strip()
        if header.startswith("[fan"):
            if not header.endswith("]"):
                raise ParseError(header_line, "malformed fan header")
            try:
                fan_id = FamilyId.parse(header[len("[fan"):-1])
            except InvalidId as exc:
                raise ParseError(header_line, str(exc))
            if fan_id not in entries:
                raise ParseError(header_line, f"fan for unknown family {fan_id}")
            if fan_id in fans:
                raise ParseError(header_line, f"duplicate fan block for {fan_id}")
            rows = _int_rows(block[1:])
            if not rows:
                raise ParseError(header_line, f"fan block for {fan_id} has no rays")
            try:
                fans[fan_id] = RaySet(tuple(tuple(values) for _, values in rows))
            except ValueError as exc:
                raise ParseError(header_line, str(exc))
            continue
        for lineno, raw in block:
            fields = raw.strip().split("|", 4)
            if len(fields) != 5:
                raise ParseError(lineno, "expected id|rank|status_kind|value|provenance")
            id_text, rank_text, kind, value_text, provenance = fields
            try:
                fid = FamilyId.parse(id_text)
            except InvalidId as exc:
                raise ParseError(lineno, str(exc))
            if not (rank_text.isascii() and rank_text.isdigit()) \
                    or int(rank_text) != fid.rank:
                raise ParseError(lineno, f"rank {rank_text!r} does not match id {fid}")
            if fid in entries:
                raise ParseError(lineno, f"duplicate record for {fid}")
            if kind == "unknown":
                if value_text != "-":
                    raise ParseError(lineno, "unknown status takes value '-'")
                status = LctStatus.unknown()
            else:
                try:
                    status = LctStatus(kind, Fraction(value_text))
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(lineno, str(exc))
            entries[fid] = (status, provenance)

    records = tuple(FamilyRecord(id=fid, status=status, provenance=provenance,
                                 fan=fans.get(fid))
                    for fid, (status, provenance) in entries.items())
    return Database(records)
