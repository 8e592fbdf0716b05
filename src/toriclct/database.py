"""The 105 deformation families of smooth Fano threefolds with their known
global log canonical thresholds: exact values, general-member values, upper
bounds, and open cases, plus stored fans for the toric families.

Records are keyed by the standard rank.index family labels (ranks 1..5 with
17, 36, 31, 13, 8 families respectively). _STATUSES is the one
classification table, kind -> value -> ids; load_builtin reads every record
from it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import attrgetter, ge, gt, le, lt

from .errors import InvalidId, ParseError
from .geometry import _decimal, _Record, _integers, _rational, _threshold
from .toric import (RaySet, _at_line, _blocks, _int_rows, _ray_block,
                    format_fan, product_fan, projective_space_fan,
                    projectivized_bundle_fan, star_subdivide, toric_lct)

RANK_SIZES = {1: 17, 2: 36, 3: 31, 4: 13, 5: 8}
STATUS_KINDS = ("exact_all", "exact_general", "upper_bound", "unknown")


def _value_text(value: Fraction | None) -> str:
    """A threshold value as text; '-' when there is none."""
    return "-" if value is None else str(value)


def _by_rank_then_index(compare):
    """An order comparison of two FamilyIds, by (rank, index)."""
    def method(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return compare((self.rank, self.index), (other.rank, other.index))
    return method


class FamilyId(_Record):
    rank: int
    index: int

    __lt__, __le__, __gt__, __ge__ = map(_by_rank_then_index, (lt, le, gt, ge))

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
        try:
            rank, index = map(_decimal, str(text).split("."))
        except ValueError:
            raise InvalidId(f"{text!r} is not of the form rank.index") from None
        return cls(rank, index)

    def __str__(self) -> str:
        return f"{self.rank}.{self.index}"


class LctStatus(_Record):
    """What is known about a family's threshold: an exact value for every
    smooth member, an exact value for a general member, an upper bound, or
    nothing sharp. The value is read by geometry._threshold from an int, a
    Fraction or a string such as '1/2'; a float, a zero denominator or a
    value outside (0, 1] raises ValueError."""

    kind: str
    value: Fraction | None = None

    def __post_init__(self):
        if self.kind not in STATUS_KINDS:
            raise ValueError(f"unknown status kind {self.kind!r}")
        if self.kind == "unknown":
            if self.value is not None:
                raise ValueError("unknown status carries no value")
        else:
            object.__setattr__(self, "value", _threshold(self.value, "status value"))


class FamilyRecord(_Record):
    """One family's record. Its status must be an LctStatus and its fan a
    RaySet or None, else ValueError; Database checks the id."""

    id: FamilyId
    status: LctStatus
    provenance: str
    fan: RaySet | None = None
    notes: str | None = None

    def __post_init__(self):
        if not isinstance(self.status, LctStatus):
            raise ValueError(f"status {self.status!r} is not an LctStatus")
        if not (self.fan is None or isinstance(self.fan, RaySet)):
            raise ValueError(f"fan {self.fan!r} is not a RaySet or None")


# every family's (rank, index), in order
_ID_PAIRS = [(rank, i) for rank, size in sorted(RANK_SIZES.items())
             for i in range(1, size + 1)]


def status_counts(records) -> dict[str, int]:
    """Number of records of each status kind, in STATUS_KINDS order."""
    counts = dict.fromkeys(STATUS_KINDS, 0)
    for r in records:
        counts[r.status.kind] += 1
    return counts


class Database(_Record):
    """All 105 family records, sorted by id; construction enforces the
    coverage and status-count invariants."""

    records: tuple[FamilyRecord, ...]

    def __post_init__(self):
        records = tuple(self.records)
        # an id that is not a FamilyId covers no family; a FamilyId orders,
        # compares and hashes as its (rank, index) pair
        if not all([r.id.__class__ is FamilyId for r in records]):
            raise ValueError("records must cover exactly the 105 families")
        key = attrgetter("id.rank", "id.index")
        records = tuple(sorted(records, key=key))
        ids = list(map(key, records))
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate family ids")
        if ids != _ID_PAIRS:
            raise ValueError("records must cover exactly the 105 families")
        counts = status_counts(records)
        if counts != {"exact_all": 64, "exact_general": 20,
                      "upper_bound": 14, "unknown": 7}:
            raise ValueError(f"status counts off: {counts}")
        object.__setattr__(self, "records", records)


# ---------------------------------------------------------------------------
# builtin data

# kind -> value -> ids: the one classification table; the open families
# have no value
_STATUSES = {
    "exact_all": {
        "1/5": "2.36 3.29",
        "1/4": "1.17 2.28 2.30 2.33 2.35 3.23 3.26 3.30 4.12",
        "1/3": "1.16 2.29 2.31 2.34 3.9 3.18 3.19 3.20 3.21 3.22 3.24 3.25 3.28 "
               "3.31 4.4 4.8 4.9 4.10 4.11 5.1 5.2",
        "3/7": "4.5",
        "1/2": "1.11 1.12 1.13 1.14 1.15 2.1 2.3 2.18 2.25 2.27 2.32 3.4 3.10 "
               "3.11 3.12 3.14 3.15 3.16 3.17 3.27 4.1 4.2 4.3 4.6 4.7 5.3 5.4 "
               "5.5 5.6 5.7 5.8",
    },
    "exact_general": {
        "1/3": "2.23",
        "1/2": "2.5 2.8 2.10 2.11 2.14 2.15 2.19 2.24 2.26 3.2 3.5 3.6 3.7 3.8 4.13",
        "2/3": "3.3",
        "3/4": "2.4 3.1",
        "1": "1.1",
    },
    "upper_bound": {
        "1/2": "2.16 2.20 2.22 3.13",
        "2/3": "1.10 2.7 2.13 2.17 2.21",
        "3/4": "2.9 2.12",
        "4/5": "1.9",
        "6/7": "1.8",
        "13/14": "2.2",
    },
    "unknown": {None: "1.2 1.3 1.4 1.5 1.6 1.7 2.6"},
}

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
    """The builtin database; construction enforces all its invariants, so a
    family listed twice in _STATUSES raises ValueError."""
    fans = _builtin_fans()
    records = []
    for kind, by_value in _STATUSES.items():
        for value, ids in by_value.items():
            # one status per row, shared by its families
            status = LctStatus(kind, value)
            records += [FamilyRecord._from_checked(
                FamilyId.parse(key), status, _PROVENANCE.get(key, _PROVENANCE_DEFAULT[kind]),
                fans.get(key), _NOTES.get(key)) for key in ids.split()]
    return Database(tuple(records))


# ---------------------------------------------------------------------------
# queries


def _family_id(family) -> FamilyId:
    """A family id given as FamilyId or 'rank.index' string."""
    return family if isinstance(family, FamilyId) else FamilyId.parse(family)


def lookup(db: Database, family) -> FamilyRecord:
    """The record for a family id given as FamilyId or 'rank.index' string."""
    fid = _family_id(family)
    # a Database holds every id that FamilyId accepts
    return next(record for record in db.records if record.id == fid)


def query(db: Database, rank: int | None = None, status_kind: str | None = None,
          value: Fraction | None = None) -> tuple[FamilyRecord, ...]:
    """Records matching every given filter, in id order; rank must be an
    integer and value is read exactly by geometry._rational, so a float, a
    string rank or a zero denominator raises ValueError."""
    if status_kind is not None and status_kind not in STATUS_KINDS:
        raise ValueError(f"unknown status kind {status_kind!r}")
    if rank is not None:
        (rank,) = _integers((rank,), "rank")
    if value is not None:
        value = _rational(value, "value")
    out = []
    for record in db.records:
        if rank is not None and record.id.rank != rank:
            continue
        if status_kind is not None and record.status.kind != status_kind:
            continue
        if value is not None and record.status.value != value:
            continue
        out.append(record)
    return tuple(out)


# ---------------------------------------------------------------------------
# toric cross-check


class FanCheck(_Record):
    family: FamilyId
    expected: Fraction | None
    computed: Fraction
    witness_vertex: tuple
    witness_ray: tuple

    @property
    def passed(self) -> bool:
        return self.expected is not None and self.expected == self.computed


class CrossCheckReport(_Record):
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
    fid = _family_id(family)
    records = tuple(FamilyRecord(r.id, r.status, r.provenance, fan, r.notes)
                    if r.id == fid else r for r in db.records)
    return Database(records)


# ---------------------------------------------------------------------------
# text export / import


def table_line(record: FamilyRecord) -> str:
    """One record as 'id|rank|status_kind|value_or_dash|provenance'."""
    return (f"{record.id}|{record.id.rank}|{record.status.kind}"
            f"|{_value_text(record.status.value)}|{record.provenance}")


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
    a fan file. A value of '-' is no value. Raises ParseError with the
    offending line number on malformed input."""
    entries: dict[FamilyId, tuple[LctStatus, str]] = {}
    fans: dict[FamilyId, RaySet] = {}
    # (kind, value text) -> its status, read once
    statuses: dict[tuple[str, str], LctStatus] = {}
    for block in _blocks(text, "[fan"):
        header_line, header = block[0]
        header = header.strip()
        if header.startswith("[fan"):
            if not header.endswith("]"):
                raise ParseError(header_line, "malformed fan header")
            with _at_line(header_line):
                fan_id = FamilyId.parse(header[len("[fan"):-1])
            if fan_id not in entries:
                raise ParseError(header_line, f"fan for unknown family {fan_id}")
            if fan_id in fans:
                raise ParseError(header_line, f"duplicate fan block for {fan_id}")
            rows = _int_rows(block[1:])
            if not rows:
                raise ParseError(header_line, f"fan block for {fan_id} has no rays")
            fans[fan_id] = _ray_block(rows, header_line)
            continue
        for lineno, raw in block:
            fields = raw.strip().split("|", 4)
            if len(fields) != 5:
                raise ParseError(lineno, "expected id|rank|status_kind|value|provenance")
            id_text, rank_text, kind, value_text, provenance = fields
            with _at_line(lineno):
                fid = FamilyId.parse(id_text)
                if _decimal(rank_text) != fid.rank:
                    raise ValueError(f"rank {rank_text!r} does not match id {fid}")
            if fid in entries:
                raise ParseError(lineno, f"duplicate record for {fid}")
            status = statuses.get((kind, value_text))
            if status is None:
                with _at_line(lineno):
                    status = statuses[kind, value_text] = LctStatus(
                        kind, None if value_text == "-" else value_text)
            entries[fid] = (status, provenance)

    # (id, status, provenance, fan, notes), positional: no binding by name
    return Database(tuple([
        FamilyRecord._from_checked(fid, status, provenance, fans.get(fid), None)
        for fid, (status, provenance) in entries.items()]))
